"""End-to-end runs of the klspoly command line."""

import json

import pytest

from klspoly import (cli, equivariant, fans, incidence, schemas, subdivision,
                     verify)
from klspoly.ehrhart import ComplexCylinder
from klspoly.equivariant import AssemblyInconsistent
from klspoly.incidence import MirrorConstraintViolated
from klspoly.polynomial import Poly
from klspoly.poset import boolean_algebra, chain
from klspoly.verify import load_complex_fixture, load_fixture


def write_document(path, tag, payload):
    path.write_text(json.dumps({"schema": tag, "v": 1, **payload}))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_check_passes_on_boolean_algebra(capsys):
    code, out = run(capsys, ["check", "fixture:boolean3.json"])
    assert code == 0
    assert "lower-eulerian: ok" in out


def test_check_fails_on_a_three_chain_with_witness(capsys, tmp_path):
    path = tmp_path / "chain3.json"
    write_document(path, "poset", chain(3).to_json())
    code, out = run(capsys, ["check", str(path)])
    assert code == 1
    assert "(0, 2)" in out


def test_kls_z_of_boolean4(capsys):
    code, out = run(capsys, ["kls", "fixture:boolean4.json", "--what", "z"])
    assert code == 0
    assert out.strip() == "1,4,6,4,1"


def test_kls_g_of_pentagon_triple(capsys):
    code, out = run(capsys, ["kls", "fixture:polygon_s2.json",
                             "--what", "g"])
    assert code == 0
    assert out.strip() == "1,2"


def test_kls_toric_h_of_boolean3(capsys):
    code, out = run(capsys, ["kls", "fixture:boolean3.json",
                             "--what", "toric-h"])
    assert code == 0
    assert out.strip() == "1,1,1"


def test_kls_interval_and_all(capsys):
    code, out = run(capsys, ["kls", "fixture:boolean3.json", "--what", "g",
                             "--interval", "0", "7"])
    assert code == 0 and out.strip() == "1"
    code, out = run(capsys, ["kls", "fixture:boolean3.json", "--what", "g",
                             "--all"])
    assert code == 0
    assert len(out.strip().splitlines()) == 27  # one line per interval
    code, out = run(capsys, ["kls", "fixture:boolean3.json", "--what", "g",
                             "--interval", "0", "7", "--all"])
    assert code == 2  # mutually exclusive


@pytest.mark.parametrize("argv, checks, walks", [
    (["--what", "h"], 63, 0), (["--what", "toric-h"], 63, 0),
    (["--what", "g"], 63, 1), (["--what", "f"], 63, 1),
    (["--what", "z", "--all"], 2 * 665, 1)],
    ids=["h", "toric-h", "g", "f", "z-all"])
def test_a_single_value_solves_one_line(capsys, monkeypatch, tmp_path, argv,
                                        checks, walks):
    # B6 has 63 intervals (0, y) with y > 0, as many (x, 1) with x < 1, and
    # 665 off the diagonal: h, toric-h and g solve the bottom row of g, f
    # the top column of f, and Z every interval of g and of f.  The degree
    # bound is walked once, by validate_kernel ahead of a g, f or Z solve,
    # and not at all for the Eulerian kernel of h and toric-h: the solvers
    # leave it to the gate
    counted = []
    walked = []
    mirror_check = incidence._mirror_check
    is_in_truncated = incidence.is_in_truncated

    def counting(*args):
        counted.append(args[2])
        mirror_check(*args)

    def walking(kappa):
        walked.append(kappa)
        return is_in_truncated(kappa)

    monkeypatch.setattr(incidence, "_mirror_check", counting)
    monkeypatch.setattr(incidence, "is_in_truncated", walking)
    path = tmp_path / "boolean6.json"
    write_document(path, "poset", boolean_algebra(6).to_json())
    assert cli.main(["kls", str(path), *argv]) == 0
    capsys.readouterr()
    assert len(counted) == checks
    assert len(walked) == walks


def test_kls_corrupted_kernel_names_the_interval(capsys):
    code, out = run(capsys, ["kls", "fixture:boolean3.json", "--what", "g",
                             "--kernel",
                             str(cli._resolve("fixture:corrupted_kernel_b3.json"))])
    assert code == 1
    assert "kernel rejected" in out
    assert "(0, 3)" in out  # the offending interval


def test_local_table_of_the_hexagon_triple(capsys):
    code, out = run(capsys, ["local", "fixture:polygon_s3.json"])
    assert code == 0
    assert "h_sigma: 1,3" in out
    assert "ell_sigma: 0,3" in out
    assert "delta_ell: 0,3" in out


def test_local_all_prints_a_table_per_invariant(capsys):
    code, out = run(capsys, ["local", "fixture:polygon_s3.json", "--all"])
    lines = out.splitlines()
    assert code == 0
    assert lines[:5] == ["h_sigma:", "  0 1: 1", "  0 7: 1", "  0 12: 1",
                         "  0 13: 1,3"]
    assert [line for line in lines if not line.startswith("  ")] == [
        "h_sigma:", "ell_sigma:", "delta_ell:"]


def test_local_relative_g_of_the_cube_at_a_facet(capsys):
    code, out = run(capsys, ["local", "fixture:cube3_facet.json",
                             "--relative-g"])
    assert code == 0
    assert out.strip() == "0,3"


def test_local_equivariant_class_table(capsys):
    # hexagon boundary subdividing a point, acted on by the rotations
    code, out = run(capsys, ["local", "fixture:polygon_s3_top.json",
                             "--equivariant",
                             "fixture:polygon_s3_rotation.json"])
    assert code == 0
    assert "group order 6" in out
    assert "  0 13 w0: 1,4,1" in out
    assert out.count("0 13 w5: 1,-2,1") == 2  # h and ell agree here
    assert "  0 13 w0: 1,3" in out  # delta ell at the identity


def test_local_equivariant_requires_q_fixed(capsys):
    # the rotations move the vertex q of this triple: unanswerable request
    code, out = run(capsys, ["local", "fixture:polygon_s3.json",
                             "--equivariant",
                             "fixture:polygon_s3_rotation.json"])
    assert code == 2
    assert "q-not-fixed" in out


def test_verify_named_suites(capsys):
    code, out = run(capsys, ["verify", "--suite", "composition"])
    assert code == 0
    passed = out.strip().splitlines()[-1]
    assert passed.startswith("passed ")
    left, right = passed.split()[1].split("/")
    assert left == right and int(left) > 0


def test_verify_a_complex_under_ehrhart_reciprocity(capsys):
    code, out = run(capsys, ["verify", "fixture:unit_square.json",
                             "--suite", "ehrhart-reciprocity"])
    assert code == 0
    assert ("counting vs assembled h* on fixture:unit_square.json: ok\n"
            in out)
    assert out.endswith("passed 3/3\n")


def test_verify_a_poset_with_a_kernel_whose_solvers_pass(capsys, tmp_path):
    # no override: the kernel file reads as the Eulerian kernel
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"values": []}))
    code, out = run(capsys, ["verify", "fixture:boolean3.json",
                             "--kernel", str(path)])
    assert code == 0
    assert out == ("kernel axioms on fixture:boolean3.json: ok\n"
                   "solvers on fixture:boolean3.json: ok\npassed 2/2\n")


def test_verify_every_suite_prefixes_its_labels(capsys):
    code, out = run(capsys, ["verify", "--suite", "all"])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "theorem-g: boolean-1 q={1}: ok"
    assert lines[-1] == "passed 754/754"


def test_verify_glued_swap_is_refused(capsys):
    code, out = run(capsys, ["verify", "fixture:glued_semisuspension.json",
                             "fixture:glued_swap.json",
                             "--suite", "equivariant"])
    assert code == 1
    assert "[0, 1, 2, 3, 4, 5, 6, 8, 7, 9]" in out


_S3_TOP = "fixture:polygon_s3_top.json"
_S3_ROTATION = "fixture:polygon_s3_rotation.json"
_SWAP = "fixture:glued_swap.json"


@pytest.mark.parametrize("paths, second", [
    ([_S3_TOP, _S3_ROTATION, _SWAP], _SWAP),
    ([_SWAP, _S3_TOP, _S3_ROTATION], _S3_ROTATION),
], ids=["swap-last", "swap-first"])
def test_verify_refuses_a_second_group_document_in_either_order(
        capsys, paths, second):
    code = cli.main(["verify", *paths, "--suite", "equivariant"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: {second} is a second group document; "
                            f"verify reads at most one\n")


@pytest.mark.parametrize("paths, suite", [
    (["fixture:polygon_s2.json", _S3_ROTATION], "theorem-g"),
    (["fixture:square_fan_z4.json", _S3_ROTATION], "equivariant"),
], ids=["triple-under-theorem-g", "fan-with-its-own-action"])
def test_verify_refuses_a_group_document_that_no_check_reads(
        capsys, paths, suite):
    code = cli.main(["verify", *paths, "--suite", suite])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (f"error: no check under suite {suite!r} reads "
                            f"the group document {_S3_ROTATION}\n")


def test_verify_reads_one_group_document_for_every_poset(capsys):
    glued = "fixture:glued_semisuspension.json"
    code, out = run(capsys, ["verify", glued, glued, _SWAP,
                             "--suite", "equivariant"])
    assert code == 1
    assert out.count(f"eulerian-action on {glued}: "
                     "fixed-poset-not-lower-eulerian") == 2
    assert out.endswith("passed 0/2\n")


def test_verify_reads_a_kernel_file_where_any_check_does(capsys, tmp_path):
    # an empty kernel file overrides no Eulerian value; theorem-g reads it
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"values": []}))
    code, out = run(capsys, ["verify", "fixture:polygon_s2.json",
                             "--suite", "theorem-g", "--kernel", str(path)])
    assert (code, out) == (
        0, "theorem-g on fixture:polygon_s2.json: ok\npassed 1/1\n")


def test_verify_decodes_a_kernel_file_once_for_every_carrier(
        capsys, monkeypatch, tmp_path):
    # the file is decoded once and realized on each of the four carriers,
    # the mapping cylinder of the sfs document among them
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"values": [[0, 0, [1]]]}))
    decoded = []
    original = schemas._read_json

    def recorded(name):
        decoded.append(name)
        return original(name)

    monkeypatch.setattr(schemas, "_read_json", recorded)
    paths = [f"fixture:{name}.json" for name in (
        "polygon_s2", "polygon_s3", "polygon_s3_top", "seg3_refinement")]
    code, out = run(capsys, ["verify", *paths, "--suite", "theorem-g",
                             "--kernel", str(path)])
    assert (code, out.splitlines()[-1]) == (0, "passed 4/4")
    assert decoded.count(str(path)) == 1


@pytest.mark.parametrize("suite", ["theorem-g", "corollary-f", "corollary-z"])
def test_verify_reads_an_sfs_through_its_mapping_cylinder(capsys, tmp_path,
                                                          suite):
    # as local does: the triple suites check the sfs document's mapping
    # cylinder, and read --kernel on it
    name = f"{suite} on fixture:seg3_refinement.json"
    argv = ["verify", "fixture:seg3_refinement.json", "--suite", suite]
    assert run(capsys, argv) == (0, f"{name}: ok\npassed 1/1\n")
    assert cli.main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "checks": [{"name": name, "ok": True}], "command": "verify",
        "passed": 1, "status": "ok", "suite": suite, "total": 1, "v": 1}
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"values": [[0, 1, ["-2", "1"]]]}))
    assert run(capsys, argv + ["--kernel", str(path)]) == (
        1, f"{name}: kernel-not-multiplicative; witness=(0, 1, 6)\n"
           "passed 0/1\n")


def test_ehrhart_hstar_of_the_crosscut_square(capsys):
    code, out = run(capsys, ["ehrhart", "fixture:crosscut_d4.json",
                             "--what", "hstar"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w0: 1,6,1"
    assert "w3: 1,0,1" in lines
    assert sum(1 for l in lines if l.endswith("1,2,1")) == 3


def test_ehrhart_local_hstar(capsys):
    code, out = run(capsys, ["ehrhart", "fixture:crosscut_d4.json",
                             "--what", "local-hstar"])
    assert code == 0
    assert all(line.endswith("0,1,1") for line in out.strip().splitlines())


def test_ehrhart_series_of_the_unit_square(capsys):
    code, out = run(capsys, ["ehrhart", "fixture:unit_square.json",
                             "--what", "series", "--order", "3"])
    assert code == 0
    lines = sorted(out.strip().splitlines())
    assert lines == ["w0: 1,4,9,16", "w1: 1,2,3,4"]


def test_ehrhart_reciprocity_passes(capsys):
    code, out = run(capsys, ["ehrhart", "fixture:seg2_flip.json",
                             "--what", "reciprocity", "--order", "6"])
    assert code == 0
    assert "reciprocity w0: ok" in out


def test_hstar_reads_no_order(capsys):
    code, out = run(capsys, ["ehrhart", "fixture:seg2_flip.json",
                             "--what", "hstar", "--order", "-1"])
    assert code == 0


def test_unimodular_cylinder_headline_matches_hstar(capsys, tmp_path):
    # for the flip-symmetric [0,2] segment, the h* polynomial equals the
    # h_sigma of its fine-to-coarse mapping cylinder
    cx = load_complex_fixture("seg2_flip.json")
    cyl = ComplexCylinder(cx)
    path = tmp_path / "cylinder.json"
    write_document(path, "triple", cyl.triple.to_json())
    code, out = run(capsys, ["local", str(path)])
    assert code == 0
    hline = next(l for l in out.splitlines() if l.startswith("h_sigma"))
    code, out = run(capsys, ["ehrhart", "fixture:seg2_flip.json",
                             "--what", "hstar"])
    assert code == 0
    assert out.splitlines()[0] == "w0: 1,1"
    assert hline == "h_sigma: 1,1"


def test_json_format_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, ["ehrhart", "fixture:unit_cube.json",
                                 "--what", "hstar", "--format", "json"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["v"] == 1
    assert payload["hstar"]["values"][0] == [0, ["1", "4", "1"]]


def test_malformed_document_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, ["check", str(bad)])
    assert code == 2
    code, out = run(capsys, ["check", str(tmp_path / "missing.json")])
    assert code == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "poset", "v": 1}))
    code, out = run(capsys, ["kls", str(wrong), "--what", "g"])
    assert code == 2


@pytest.mark.parametrize("action", [
    {"matrices": [[["a", 0], [0, 1]]]},
    {"matrices": 5},
    {},
], ids=["non-number-entry", "matrices-not-a-list", "no-matrices"])
def test_malformed_fan_action_is_an_input_error(capsys, tmp_path, action):
    _tag, payload = load_fixture("square_fan_z4.json", expect="fan")
    payload["action"] = action
    path = tmp_path / "fan.json"
    write_document(path, "fan", payload)
    code = cli.main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def _complex_with(edit):
    _tag, payload = load_fixture("unit_square.json", expect="complex")
    edit(payload)
    return "complex", payload


def _fan_with(edit):
    _tag, payload = load_fixture("square_fan_z4.json", expect="fan")
    edit(payload)
    return "fan", payload


def _set(path, value):
    def edit(payload):
        *keys, last = path
        target = payload
        for key in keys:
            target = target[key]
        target[last] = value
    return edit


@pytest.mark.parametrize("make, needle", [
    (lambda: _complex_with(_set(["faces", 1], [99])), "missing vertex"),
    (lambda: _complex_with(_set(["faces", 1], [-1])), "missing vertex"),
    (lambda: _complex_with(_set(["coarse", "faces", 1], [99])),
     "missing vertex"),
    (lambda: _complex_with(_set(["affine_action"], 5)), "affine_action"),
    (lambda: ("kernel", {"values": [[-1, 7, [1, -1]]]}), "(-1, 7)"),
    (lambda: _complex_with(_set(["vertices", 1], [0.5, 0])),
     "vertex 1 [0.5, 0] has a non-integer coordinate"),
    (lambda: _fan_with(_set(["rays", 0], [1.5, 0])),
     "ray 0 [1.5, 0] has a non-integer coordinate"),
    (lambda: ("kernel", {"values": [[0, 7, ["1/0", "1"]]]}),
     "coefficient '1/0' has a zero denominator"),
    (lambda: ("kernel", {"values": [[0, 7, "1/2"]]}), "JSON array"),
    (lambda: _complex_with(_set(["vertices", 1], ["1/0", 0])),
     "vertex 1 ['1/0', 0] has a non-integer coordinate"),
    (lambda: _complex_with(
        _set(["affine_action", "matrices", 0, 0, 0], "1/0")),
     "entry '1/0' has a zero denominator"),
    (lambda: ("kls", ("fixture:square_fan_z4.json", "toric-h")),
     "boundary h needs an Eulerian poset"),
    (lambda: ("kls", (chain(3).to_json(), "g")),
     "Eulerian kernel needs a lower Eulerian poset"),
    (lambda: ("kls", (chain(3).to_json(), "h")),
     "h-polynomial needs a lower Eulerian poset"),
    (lambda: ("kls", (chain(3).to_json(), "toric-h")),
     "boundary h needs an Eulerian poset"),
    (lambda: ("group", {"generators": [[0, "x", 2]]}),
     "group generators must be lists of integers"),
    (lambda: ("triple", {"poset": 1.5, "q": 1}),
     "a poset payload must be a JSON object"),
    (lambda: ("ehrhart", ("series", "-1")), "--order must be nonnegative"),
    (lambda: ("ehrhart", ("reciprocity", "-2")),
     "--order must be nonnegative"),
    (lambda: _fan_with(_set(["action"], {})),
     "bad fan payload: missing field 'matrices'"),
    (lambda: _fan_with(_set(["action"], [])),
     "bad fan payload: action must be an object"),
    (lambda: _complex_with(_set(["coarse"], [])),
     "bad complex payload: coarse must be an object"),
    (lambda: _complex_with(
        _set(["affine_action", "matrices", 0, 0, 1], 0)),
     "bad complex payload: matrix does not permute the vertices"),
], ids=["face-vertex-99", "face-vertex-negative", "coarse-face-vertex-99",
        "affine-action-not-an-object", "kernel-pair-out-of-range",
        "vertex-not-integer", "ray-not-integer",
        "kernel-zero-denominator", "kernel-coefficients-not-a-list",
        "vertex-zero-denominator", "affine-action-zero-denominator",
        "kls-toric-h-of-a-fan", "kls-g-of-a-3-chain", "kls-h-of-a-3-chain",
        "kls-toric-h-of-a-3-chain", "group-generator-not-an-integer",
        "triple-poset-not-an-object", "ehrhart-series-negative-order",
        "ehrhart-reciprocity-negative-order", "fan-action-without-matrices",
        "fan-action-not-an-object", "coarse-not-an-object",
        "affine-matrix-not-a-permutation"])
def test_malformed_input_exits_two_with_a_message(capsys, tmp_path, make,
                                                  needle):
    kind, payload = make()
    path = tmp_path / "input.json"
    if kind == "kernel":
        path.write_text(json.dumps(payload))
        argv = ["kls", "fixture:boolean3.json", "--what", "g",
                "--kernel", str(path)]
    elif kind == "kls":
        source, what = payload
        if not isinstance(source, str):
            write_document(path, "poset", source)
            source = str(path)
        argv = ["kls", source, "--what", what]
    elif kind == "ehrhart":
        what, order = payload
        argv = ["ehrhart", "fixture:unit_square.json", "--what", what,
                "--order", order]
    else:
        write_document(path, kind, payload)
        argv = ["check", str(path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert needle in captured.err


_UNGRADED = {"labels": ["0", "a", "b", "c", "t"],
             "covers": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]]}
_TWO_MINIMA = {"labels": ["a", "b", "c", "d"],
               "covers": [[0, 2], [1, 2], [0, 3], [1, 3]]}
_SEGMENT = {"labels": ["e", "v0", "v1", "s"],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}
_UNRANKED = {
    "ungraded poset": ("poset", _UNGRADED),
    "ungraded sfs": ("sfs", {"x": _UNGRADED, "y": _SEGMENT,
                             "sigma": [0, 1, 2, 3, 3]}),
    "ungraded triple": ("triple", {"poset": _UNGRADED, "q": 1}),
    "two-minimum poset": ("poset", _TWO_MINIMA),
    "two-minimum triple": ("triple", {"poset": _TWO_MINIMA, "q": 2}),
}
_NO_RANK = {
    "ungraded": "no natural rank: element 4 (t) is covered at inconsistent "
                "heights [1, 2]",
    "two-minimum": "poset has 2 minimal elements, not 1",
}
_SUBCOMMANDS = {
    "check": (["check"], ()),
    "kls": (["kls", "--what", "g"], ("sfs",)),
    "local": (["local"], ("poset",)),
    "relative-g": (["local", "--relative-g"], ("poset",)),
    "verify": (["verify", "--suite", "theorem-g"], ("poset",)),
    "verify-equivariant": (["verify", "fixture:polygon_s3_rotation.json",
                            "--suite", "equivariant"], ("sfs",)),
}
_REFUSAL = {
    "kls": "expected a poset or triple or fan document, got '{tag}'",
    "local": "expected a triple or sfs document, got '{tag}'",
    "relative-g": "expected a triple or sfs document, got '{tag}'",
    "verify": "don't know how to verify a {tag} document under suite "
              "'theorem-g'",
    "verify-equivariant": "don't know how to verify a {tag} document under "
                          "suite 'equivariant'",
}


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
@pytest.mark.parametrize("document", list(_UNRANKED))
def test_a_document_poset_without_a_rank_exits_two(capsys, tmp_path,
                                                   document, command):
    tag, payload = _UNRANKED[document]
    path = tmp_path / "input.json"
    write_document(path, tag, payload)
    words, refused_tags = _SUBCOMMANDS[command]
    argv = words[:1] + [str(path)] + words[1:]
    if tag in refused_tags:
        message = _REFUSAL[command].format(tag=tag)
    else:
        message = f"bad {tag} payload: {_NO_RANK[document.split()[0]]}"
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def _integer_field(field, value, tmp_path):
    """The argv of a run whose document carries ``value`` in ``field``,
    and the field's name in the refusal."""
    path = tmp_path / "input.json"
    if field == "q":
        _tag, payload = load_fixture("cube3_facet.json", expect="triple")
        payload["q"] = value
        write_document(path, "triple", payload)
        return ["local", str(path)], "bad triple payload: q"
    if field == "sigma":
        write_document(path, "sfs", {"x": _SEGMENT, "y": _SEGMENT,
                                     "sigma": [0, value, 2, 3]})
        return ["check", str(path)], "bad sfs payload: sigma entry"
    if field in ("rank", "cover"):
        _tag, payload = load_fixture("boolean3.json", expect="poset")
        if field == "rank":
            payload["rank"][1] = value
        else:
            payload["covers"][0][1] = value
        write_document(path, "poset", payload)
        return ["kls", str(path), "--what", "g"], \
            f"bad poset payload: {field} entry"
    entry = [0, value] if field == "kernel zp" else [value, 3]
    path.write_text(json.dumps({"values": [entry + [[2, -2, 1]]]}))
    return ["kls", "fixture:boolean3.json", "--what", "g", "--kernel",
            str(path)], "kernel file element"


@pytest.mark.parametrize("value, shown", [(1.0, "1.0"), (25.9, "25.9"),
                                          ("1", "'1'"), (True, "True")],
                         ids=["whole-float", "float", "string", "bool"])
@pytest.mark.parametrize("field", ["q", "sigma", "rank", "cover",
                                   "kernel z", "kernel zp"])
def test_a_document_integer_that_is_not_an_int_exits_two(
        capsys, tmp_path, field, value, shown):
    argv, name = _integer_field(field, value, tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", f"error: {name} must be an integer, got {shown}\n")


@pytest.mark.parametrize("value, message", [
    (99, "q out of range"), ("13", "q must be an integer, got '13'")],
    ids=["q-out-of-range", "q-a-string"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_equivariant_builds_the_whole_triple(capsys, tmp_path, value,
                                                    message, fmt):
    # the action is checked on the triple's poset, but the triple is read
    # whole, so its q is refused as by every other command
    _tag, payload = load_fixture("polygon_s3_top.json", expect="triple")
    payload["q"] = value
    path = tmp_path / "triple.json"
    write_document(path, "triple", payload)
    code = cli.main(["verify", str(path), "fixture:polygon_s3_rotation.json",
                     "--suite", "equivariant", "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", f"error: bad triple payload: {message}\n")


@pytest.mark.parametrize("field, value, code", [
    ("q", 25, 0), ("sigma", 1, 0), ("rank", 1, 0), ("cover", 1, 0),
    # the override [2, -2, 1] on (0, 3) is read, and it is not a kernel
    ("kernel z", 0, 1), ("kernel zp", 3, 1)])
def test_a_document_integer_that_is_an_int_is_read(capsys, tmp_path, field,
                                                   value, code):
    argv, _name = _integer_field(field, value, tmp_path)
    assert cli.main(argv) == code
    assert capsys.readouterr().err == ""


def _number_field(field, value, tmp_path):
    """The argv of a run whose document carries ``value`` in ``field``, and
    the refusal of ``value`` there when it is not read."""
    path = tmp_path / "input.json"
    rational = f"must be an integer or a rational string, got {value!r}"
    if field == "coefficient":
        path.write_text(json.dumps({"values": [[0, 1, [value, 1]]]}))
        return ["kls", "fixture:boolean3.json", "--what", "g", "--kernel",
                str(path)], f"bad kernel file entry: coefficient {rational}"
    kind, where = field.split(" ")
    key = {"ray": ["rays", 0, 0], "vertex": ["vertices", 1, 0],
           "dim": ["dim"],
           "entry": ["action" if kind == "fan" else "affine_action",
                     "matrices", 0, 0, 1]}[where]
    tag, payload = (_fan_with if kind == "fan" else _complex_with)(
        _set(key, value))
    write_document(path, tag, payload)
    refusal = {"ray": f"ray 0 [{value!r}, 0] has a non-integer coordinate",
               "vertex": f"vertex 1 [{value!r}, 0] has a non-integer "
                         f"coordinate",
               "dim": f"dim must be an integer, got {value!r}",
               "entry": f"entry {rational}"}[where]
    return ["check", str(path)], f"bad {tag} payload: {refusal}"


_INTEGER_FIELDS = ("fan ray", "complex vertex", "fan dim", "complex dim")
_RATIONAL_FIELDS = ("fan entry", "complex entry", "coefficient")


# coordinates and dimensions are JSON integers; matrix entries and kernel
# coefficients are integers or rational strings, so "1" is read there
@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}-{name}")
    for field in _INTEGER_FIELDS + _RATIONAL_FIELDS
    for name, value in (("whole-float", 1.0), ("bool", True), ("string", "1"))
    if field in _INTEGER_FIELDS or name != "string"])
def test_a_document_number_outside_its_policy_exits_two(capsys, tmp_path,
                                                        field, value):
    argv, message = _number_field(field, value, tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("field, value, code", [
    ("fan entry", "-1", 0), ("complex entry", "1", 0),
    ("complex entry", "2/2", 0), ("coefficient", "-1", 0),
    # 1/2 + t on an atom is read, and it is not a kernel
    ("coefficient", "1/2", 1)])
def test_a_document_rational_string_is_read(capsys, tmp_path, field, value,
                                            code):
    argv, _message = _number_field(field, value, tmp_path)
    assert cli.main(argv) == code
    assert capsys.readouterr().err == ""


def test_group_size_bound_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("KLS_MAX_GROUP", "2")
    code, out = run(capsys, ["check", "fixture:cone_square_z4.json"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["check", "fixture:cone_square_z4.json"],
    ["ehrhart", "fixture:unit_square.json", "--what", "hstar"],
    ["verify", "--suite", "equivariant"],
    ["verify", "--suite", "ehrhart-reciprocity"],
], ids=["check", "ehrhart", "verify-equivariant",
        "verify-ehrhart-reciprocity"])
def test_a_bad_group_bound_is_an_input_error(capsys, monkeypatch, argv):
    monkeypatch.setenv("KLS_MAX_GROUP", "not-a-number")
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: KLS_MAX_GROUP must be an integer, "
                            "got 'not-a-number'\n")


@pytest.mark.parametrize("failure", [
    MirrorConstraintViolated("mirror constraint fails", (0, 3)),
    AssemblyInconsistent("assembled Z is not symmetric on interval (0, 3)",
                         (0, 3)),
], ids=["mirror-constraint", "assembly"])
def test_a_failure_inside_a_suite_is_a_verification_failure(
        capsys, monkeypatch, failure):
    def broken():
        raise failure

    monkeypatch.setitem(verify.SUITES, "composition", broken)
    code = cli.main(["verify", "--suite", "composition"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"verification failed: {failure}\n"


def test_verify_kernel_names_the_interval_of_a_mirror_violation(
        capsys, monkeypatch, tmp_path):
    def violated(_kappa):
        raise MirrorConstraintViolated("mirror constraint fails", (0, 3))

    monkeypatch.setattr(cli, "solve_g", violated)
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"values": []}))
    code = cli.main(["verify", "fixture:boolean3.json", "--kernel", str(path),
                     "--format", "json"])
    axioms, solvers = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert axioms["ok"]
    assert solvers == {"name": "solvers on fixture:boolean3.json",
                       "ok": False, "reason": "mirror-constraint",
                       "witness": [0, 3], "detail": "mirror constraint fails"}


def _atom_kernel(_gamma):
    # t - 2 on the atom interval (0, 1) of the pentagon triple breaks
    # kappa(0, 6) = kappa(0, 1) kappa(1, 6)
    return [[0, 1, ["-2", "1"]]]


def _zero_bottom_row(gamma):
    # 0 on every (0, z), the diagonal at the bottom included: multiplicative
    # and rank alternating, but not unit-diagonal
    return [[gamma.bottom(), z, []] for z in range(gamma.n)]


def _degree_doubled(gamma):
    # the Eulerian kernel times t^(rank difference): multiplicative, but of
    # degree twice the weak rank, which no reversal at the weak rank takes
    rho = gamma.rank
    return [[i, j, (p * Poly([0, 1]) ** (rho[j] - rho[i])).to_json()]
            for (i, j), p in incidence.eulerian_kernel(gamma).vals.items()]


TRIPLE_SUITES = ["theorem-g", "corollary-f", "corollary-z"]


@pytest.mark.parametrize("suite, fixture, kernel, reason, witness, detail", [
    pytest.param(suite, "polygon_s2.json", _atom_kernel,
                 "kernel-not-multiplicative", (0, 1, 6), "", id=suite)
    for suite in TRIPLE_SUITES] + [
    pytest.param(suite, fixture, kernel, reason, witness, detail,
                 id=f"{suite}-{fixture.split('.')[0]}-{reason}")
    for suite in TRIPLE_SUITES
    for fixture in ("polygon_s2.json", "seg3_refinement.json")
    for kernel, reason, witness, detail in (
        (_zero_bottom_row, "diagonal", (0, 0), "value Poly(0)"),
        (_degree_doubled, "degree", (0, 1), "degree 2 > 1"))])
def test_a_non_multiplicative_kernel_fails_the_triple_check(
        capsys, tmp_path, suite, fixture, kernel, reason, witness, detail):
    # every hypothesis solve_kernel checks is a failed check of the triple,
    # a diagonal or degree failure with the reason and witness local prints
    # for the same kernel; an sfs is checked through its mapping cylinder
    gamma = cli._triple(*schemas.load_document(
        cli._resolve(f"fixture:{fixture}"), expect=("triple", "sfs"))).gamma
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"values": kernel(gamma)}))
    described = "; ".join([reason, f"witness={witness}"]
                          + ([detail] if detail else []))
    argv = ["verify", f"fixture:{fixture}", "--suite", suite,
            "--kernel", str(path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == (
        f"{suite} on fixture:{fixture}: {described}\npassed 0/1\n")
    code = cli.main(argv + ["--format", "json"])
    check, = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert check["reason"] == reason
    assert check["witness"] == list(witness)
    if kernel is _atom_kernel:
        return  # local's validate_kernel fails it first, on (0, 1)
    code = cli.main(["local", f"fixture:{fixture}", "--kernel", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == f"kernel rejected: {described}\n"


def test_unknown_flags_exit_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["kls", "fixture:boolean3.json", "--what", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def _refusal_documents(tmp):
    """Write the documents the refusals below need and the fixtures lack."""
    (tmp / "atom.json").write_text(json.dumps(
        {"values": [[0, 1, ["-2", "1"]]]}))
    (tmp / "atoms.json").write_text(json.dumps(
        {"values": [[0, a, ["-2", "1"]] for a in range(1, 7)]}))
    _tag, glued = load_fixture("glued_semisuspension.json", expect="poset")
    write_document(tmp / "glued.json", "triple", {"poset": glued, "q": 9})
    write_document(tmp / "no_coarse.json", *_complex_with(
        lambda payload: payload.pop("coarse")))
    write_document(tmp / "no_action.json", *_fan_with(
        lambda payload: payload.pop("action")))
    write_document(tmp / "kills_a_ray.json", *_fan_with(
        _set(["action", "matrices", 0], [[1, 0], [0, 0]])))
    # the Boolean lattice B2 with q = 1, and a P-kernel on it, and on the
    # hexagon triple, that the solver refuses as not multiplicative
    write_document(tmp / "b2.json", "triple", {"poset": {
        "labels": ["0", "a", "b", "1"],
        "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}, "q": 1})
    (tmp / "b2_top.json").write_text(json.dumps(
        {"values": [[0, 3, ["0", "-2", "2"]]]}))
    (tmp / "hexagon_top.json").write_text(json.dumps(
        {"values": [[0, 13, ["-2", "3", "-3", "2"]]]}))
    (tmp / "one_c.json").write_text(json.dumps(
        {"values": [[0, 7, ["1", "-3", "1"]]]}))
    _tag, top = load_fixture("polygon_s3_top.json", expect="triple")
    write_document(tmp / "T99.json", "triple", {**top, "q": 99})
    write_document(tmp / "SQ.json", *_complex_with(_set(["dim"], "2")))


_HEXAGON_ROTATIONS = ["fixture:polygon_s3_top.json", "--equivariant",
                      "fixture:polygon_s3_rotation.json"]
_GLUED_SWAP = [0, 1, 2, 3, 4, 5, 6, 8, 7, 9]

#: id -> (argv, exit code, text stdout, stderr, JSON stdout).  "{tmp}" in
#: an argument is the directory of :func:`_refusal_documents`.  A refused
#: request (exit 2) prints only to stderr, in either format; a rejected
#: kernel or action (exit 1) prints its reason and witness to stdout.
_REFUSALS = {
    "kls-interval-and-all": (
        ["kls", "fixture:boolean3.json", "--what", "g", "--interval", "0",
         "7", "--all"], 2, "",
        "error: --interval and --all are mutually exclusive\n", None),
    "kls-not-an-interval": (
        ["kls", "fixture:boolean3.json", "--what", "g", "--interval", "1",
         "2"], 2, "", "error: (1, 2) is not an interval of the poset\n",
        None),
    "kls-not-an-interval-with-a-rejected-kernel": (
        ["kls", "fixture:boolean3.json", "--what", "g", "--kernel",
         "fixture:corrupted_kernel_b3.json", "--interval", "3", "1"], 2, "",
        "error: (3, 1) is not an interval of the poset\n", None),
    "kls-no-unique-maximum": (
        ["kls", "fixture:square_fan_z4.json", "--what", "g"], 2, "",
        "error: poset has no unique maximum; pass --interval or --all\n",
        None),
    "kls-h-with-a-kernel-file": (
        ["kls", "fixture:boolean3.json", "--what", "h", "--kernel",
         "{tmp}/missing.json"], 2, "",
        "error: --what h is defined for the Eulerian kernel only\n", None),
    "kls-h-with-an-interval": (
        ["kls", "fixture:boolean3.json", "--what", "h", "--interval", "0",
         "1"], 2, "",
        "error: --what h is one polynomial of the poset and reads no "
        "--interval\n", None),
    "kls-toric-h-with-all": (
        ["kls", "fixture:boolean3.json", "--what", "toric-h", "--all"], 2,
        "", "error: --what toric-h is one polynomial of the poset and reads "
            "no --all\n", None),
    "local-relative-g-with-a-group": (
        ["local", "fixture:polygon_s2.json", "--relative-g",
         "--equivariant", "fixture:polygon_s3_rotation.json"], 2, "",
        "error: --relative-g uses the Eulerian kernel and no group\n", None),
    "local-relative-g-with-all": (
        ["local", "fixture:polygon_s2.json", "--relative-g", "--all"], 2, "",
        "error: --relative-g is one polynomial and reads no --all\n", None),
    "local-kernel-rejected": (
        ["local", "fixture:polygon_s2.json", "--kernel", "{tmp}/atom.json"],
        1, "kernel rejected: inverse-reversal; witness=(0, 1); "
           "(kappa * rev kappa)(0,1) = Poly(-1 + -1*t)\n", "",
        {"command": "local", "reason": "inverse-reversal", "status": "fail",
         "v": 1, "witness": [0, 1]}),
    "local-kernel-not-multiplicative": (
        ["local", "{tmp}/b2.json", "--kernel", "{tmp}/b2_top.json"], 1,
        "kernel rejected: kernel-not-multiplicative; witness=(0, 1, 3)\n",
        "", {"command": "local", "reason": "kernel-not-multiplicative",
             "status": "fail", "v": 1, "witness": [0, 1, 3]}),
    "local-kernel-not-multiplicative-equivariantly": (
        ["local", *_HEXAGON_ROTATIONS, "--kernel", "{tmp}/hexagon_top.json"],
        1, "kernel rejected: kernel-not-multiplicative; witness=(0, 1, 13)\n",
        "", {"command": "local", "reason": "kernel-not-multiplicative",
             "status": "fail", "v": 1, "witness": [0, 1, 13]}),
    "local-group-moves-q": (
        ["local", "fixture:polygon_s3.json", "--equivariant",
         "fixture:polygon_s3_rotation.json"], 2, "",
        "error: group incompatible with the triple: q-not-fixed; "
        "witness={'w': [0, 2, 3, 4, 5, 6, 1, 8, 9, 10, 11, 12, 7, 13], "
        "'q': 1}\n", None),
    "local-action-rejected": (
        ["local", "{tmp}/glued.json", "--equivariant",
         "fixture:glued_swap.json"], 1,
        f"action rejected: fixed-poset-not-lower-eulerian; witness={{'w': "
        f"{_GLUED_SWAP}}}; not-graded; no natural rank: element 7 (top) is "
        f"covered at inconsistent heights [1, 2]\n", "",
        {"command": "local", "reason": "fixed-poset-not-lower-eulerian",
         "status": "fail", "v": 1, "witness": {"w": _GLUED_SWAP}}),
    "local-kernel-not-invariant": (
        ["local", *_HEXAGON_ROTATIONS, "--kernel", "{tmp}/atom.json"], 2, "",
        "error: values on the orbit of (0, 1) differ; element is not "
        "invariant\n", None),
    "local-kernel-rejected-equivariantly": (
        ["local", *_HEXAGON_ROTATIONS, "--kernel", "{tmp}/atoms.json"], 1,
        f"kernel rejected equivariantly: fixed-poset-kernel; witness={{'w': "
        f"{list(range(14))}}}; inverse-reversal; witness=(0, 1); "
        f"(kappa * rev kappa)(0,1) = Poly(-1 + -1*t)\n", "",
        {"command": "local", "reason": "fixed-poset-kernel",
         "status": "fail", "v": 1, "witness": {"w": list(range(14))}}),
    "local-kernel-not-invariant-under-a-rejected-action": (
        ["local", "{tmp}/glued.json", "--equivariant",
         "fixture:glued_swap.json", "--kernel", "{tmp}/one_c.json"], 2, "",
        "error: values on the orbit of (0, 7) differ; element is not "
        "invariant\n", None),
    "verify-a-lone-group-document": (
        ["verify", "fixture:polygon_s3_rotation.json", "--suite",
         "equivariant"], 2, "",
        "error: no verifiable documents among the given paths\n", None),
    "verify-a-triple-with-an-unread-group": (
        ["verify", "fixture:polygon_s2.json",
         "fixture:polygon_s3_rotation.json", "--suite", "theorem-g"], 2, "",
        "error: no check under suite 'theorem-g' reads the group document "
        "fixture:polygon_s3_rotation.json\n", None),
    "verify-a-complex-under-theorem-g": (
        ["verify", "fixture:polygon_s2.json", "fixture:unit_square.json",
         "--suite", "theorem-g"], 2, "",
        "error: don't know how to verify a complex document under suite "
        "'theorem-g'\n", None),
    "verify-a-fan-without-an-action": (
        ["verify", "{tmp}/no_action.json", "--suite", "equivariant"], 2, "",
        "error: {tmp}/no_action.json carries no action\n", None),
    "verify-a-suite-with-a-kernel": (
        ["verify", "--suite", "composition", "--kernel",
         "{tmp}/missing.json"], 2, "",
        "error: no check under suite 'composition' reads the kernel "
        "{tmp}/missing.json\n", None),
    "verify-a-fan-with-a-kernel": (
        ["verify", "fixture:square_fan_z4.json", "--suite", "equivariant",
         "--kernel", "{tmp}/missing.json"], 2, "",
        "error: no check under suite 'equivariant' reads the kernel "
        "{tmp}/missing.json\n", None),
    "verify-a-complex-with-a-kernel": (
        ["verify", "fixture:seg1_flip.json", "--suite",
         "ehrhart-reciprocity", "--kernel", "{tmp}/missing.json"], 2, "",
        "error: no check under suite 'ehrhart-reciprocity' reads the kernel "
        "{tmp}/missing.json\n", None),
    "verify-an-action-with-a-kernel": (
        ["verify", "fixture:glued_semisuspension.json",
         "fixture:glued_swap.json", "--suite", "equivariant", "--kernel",
         "{tmp}/missing.json"], 2, "",
        "error: no check under suite 'equivariant' reads the kernel "
        "{tmp}/missing.json\n", None),
    "ehrhart-negative-order": (
        ["ehrhart", "fixture:unit_square.json", "--what", "series",
         "--order", "-1"], 2, "",
        "error: --order must be nonnegative, not -1\n", None),
    "ehrhart-local-hstar-without-coarse-faces": (
        ["ehrhart", "{tmp}/no_coarse.json", "--what", "local-hstar"], 2, "",
        "error: local-hstar needs a complex with a coarse face structure\n",
        None),
    "check-a-fan-matrix-that-kills-a-ray": (
        ["check", "{tmp}/kills_a_ray.json"], 2, "",
        "error: bad fan payload: matrix kills a ray\n", None),
}


def _assert_refusal(capsys, tmp_path, case):
    argv, code, out, err, json_out = _REFUSALS[case]
    _refusal_documents(tmp_path)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    err = err.replace("{tmp}", str(tmp_path))
    assert cli.main(argv) == code
    assert capsys.readouterr() == (out, err)
    assert cli.main(argv + ["--format", "json"]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if json_out is None:
        assert captured.out == ""
    else:
        assert json.loads(captured.out) == json_out


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_every_refusal_pins_its_exit_code_and_output(capsys, tmp_path,
                                                     case):
    _assert_refusal(capsys, tmp_path, case)


#: (module, name) of the work a refused request must not start: kernel and
#: action checks, solves, and the verify runners and corpus suite.
_WORK = [(cli, name) for name in (
    "validate_kernel", "solve_f", "solve_g", "z_function", "h_polynomial",
    "toric_h_boundary", "_verify_triple", "_verify_action", "_verify_fan",
    "_verify_complex", "_verify_kernel")] + [
    (subdivision, "local_invariants"), (subdivision, "relative_g"),
    (equivariant, "is_eulerian_action"),
    (equivariant, "equiv_kernel_validate"),
    (equivariant, "equiv_local_invariants"),
    (fans, "validate_span_kernel"), (verify, "run_suite")]
#: verify and ehrhart decide from the payload, so a refusal builds nothing;
#: check, kls and local build the document they answer about first.
_BUILDS = ("build_complex", "build_fan", "build_triple")


@pytest.mark.parametrize("case", [case for case, (_argv, code, *_rest)
                                  in _REFUSALS.items() if code == 2])
def test_a_refused_request_computes_nothing(capsys, monkeypatch, tmp_path,
                                            case):
    def stub(name):
        def called(*_args, **_kwargs):
            pytest.fail(f"refused request {case} called {name}")
        return called

    argv = _REFUSALS[case][0]
    builds = _BUILDS if argv[0] in ("verify", "ehrhart") else ()
    for module, name in _WORK + [(schemas, name) for name in builds]:
        monkeypatch.setattr(module, name, stub(name))
    _assert_refusal(capsys, tmp_path, case)


#: id -> (argv, stderr) of a verify request whose refusal comes from an
#: input read after one that would be checked: a later document, or
#: --kernel or the group on a later carrier.  "{tmp}" is as in _REFUSALS.
_LATE_REFUSALS = {
    "a-later-triple-with-q-out-of-range": (
        ["verify", _S3_TOP, "{tmp}/T99.json", "--suite", "theorem-g"],
        "error: bad triple payload: q out of range\n"),
    "a-kernel-file-without-its-element-on-a-later-carrier": (
        ["verify", _S3_TOP, "fixture:polygon_s2.json", "--suite",
         "theorem-g", "--kernel", "{tmp}/hexagon_top.json"],
        "error: kernel file names a missing element in (0, 13)\n"),
    "a-group-that-does-not-act-on-a-later-poset": (
        ["verify", _S3_TOP, "fixture:boolean3.json", _S3_ROTATION,
         "--suite", "equivariant"],
        "error: not a permutation of 0..7: "
        "(0, 2, 3, 4, 5, 6, 1, 8, 9, 10, 11, 12, 7, 13)\n"),
    "a-later-complex-with-a-string-dim": (
        ["verify", "fixture:seg1_flip.json", "{tmp}/SQ.json", "--suite",
         "ehrhart-reciprocity"],
        "error: bad complex payload: dim must be an integer, got '2'\n"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", list(_LATE_REFUSALS))
def test_verify_reads_every_input_before_its_first_check(
        capsys, monkeypatch, tmp_path, case, fmt):
    def stub(name):
        def called(*_args, **_kwargs):
            pytest.fail(f"late refusal {case} called {name}")
        return called

    argv, err = _LATE_REFUSALS[case]
    _refusal_documents(tmp_path)
    for module, name in _WORK:
        monkeypatch.setattr(module, name, stub(name))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert cli.main(argv + ["--format", fmt]) == 2
    assert capsys.readouterr() == ("", err)
