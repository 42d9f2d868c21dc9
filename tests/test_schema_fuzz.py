"""Mutated bundled documents: the commands answer 0, 1 or 2, never a
traceback.

Each example takes one bundled document and breaks it in one way: drops a
key, puts a value of the wrong type somewhere, puts an index out of range,
or adds the reverse of a cover relation (a cycle in the order).  It then
runs ``check`` on it, or one of the commands the document's kind feeds:
the ``kls`` solvers on a poset, the ``ehrhart`` counts on a complex, the
``local`` tables on a triple or an sfs, ``verify --suite equivariant`` on
a fan, and
``local --equivariant`` with a group.  The bundled kernel file is broken
the same ways and fed to ``kls --kernel``.
The command line must exit 0 (the document still holds), 1 (a check
fails) or 2 with an ``error:`` message, and must not raise.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klspoly import cli
from klspoly.schemas import fixture_path

FIXTURES = ("boolean3.json", "cone_square_z4.json", "crosscut_d4.json",
            "cube3_facet.json", "glued_swap.json", "polygon_s2.json",
            "polygon_s3_rotation.json", "seg2_flip.json",
            "seg3_refinement.json", "square_fan_z4.json", "unit_square.json")


def _document(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


#: Where the fuzzed document goes on a command line.
DOC = object()
CHECK = ("check", DOC)
KLS = [("kls", DOC, "--what", what)
       for what in ("f", "g", "z", "h", "toric-h")]
EHRHART = [("ehrhart", DOC, "--what", what)
           for what in ("hstar", "local-hstar", "series", "reciprocity")]
LOCAL = [("local", DOC), ("local", DOC, "--relative-g")]
FAN = [("verify", DOC, "--suite", "equivariant")]
GROUP = [("local", "fixture:polygon_s3_top.json", "--equivariant", DOC)]
#: Every fixture's mutations drive ``check``, and these commands too.
COMMANDS = {"boolean3.json": KLS, "crosscut_d4.json": EHRHART,
            "seg2_flip.json": EHRHART, "unit_square.json": EHRHART,
            "cube3_facet.json": LOCAL, "polygon_s2.json": LOCAL,
            "seg3_refinement.json": [("local", DOC)],
            "cone_square_z4.json": FAN, "square_fan_z4.json": FAN,
            "polygon_s3_rotation.json": GROUP}
#: A kernel file is no schema document, so ``check`` does not take it and
#: its mutations drive these commands only.  The bundled one is corrupted:
#: unmutated, ``kls`` rejects it with exit 1.
KERNEL_FILES = {"corrupted_kernel_b3.json": [
    ("kls", "fixture:boolean3.json", "--what", what, "--all", "--kernel", DOC)
    for what in ("g", "z")]}
NAMES = FIXTURES + tuple(KERNEL_FILES)
DOCUMENTS = {name: _document(name) for name in NAMES}


def _commands(name):
    if name in KERNEL_FILES:
        return KERNEL_FILES[name]
    return [CHECK] + COMMANDS.get(name, [])


#: Keys whose integers index elements, vertices, rays or cones.
INDEX_KEYS = ("covers", "faces", "cones", "sigma", "q", "generators",
              "values")
WRONG_TYPES = (None, True, 1.5, "x", [], {}, [[]], -1)
OUT_OF_RANGE = (-1, 1000)


def _paths(node, prefix=()):
    """Every path (keys and indices) from the document root to a node."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _pick(draw, paths):
    """One of ``paths``: a depth first, then a path of that depth, so that
    the few top-level keys are hit as often as the many deep entries."""
    depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
    return draw(st.sampled_from([p for p in paths if len(p) == depth]))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _drop(doc, draw):
    paths = [p for p in _paths(doc) if p and isinstance(p[-1], str)]
    path = _pick(draw, paths)
    del _at(doc, path[:-1])[path[-1]]


def _retype(doc, draw):
    path = _pick(draw, [p for p in _paths(doc) if p])
    _at(doc, path[:-1])[path[-1]] = copy.deepcopy(
        draw(st.sampled_from(WRONG_TYPES)))


def _out_of_range(doc, draw):
    paths = [p for p in _paths(doc)
             if type(_at(doc, p)) is int and any(k in p for k in INDEX_KEYS)]
    path = _pick(draw, paths)
    _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(OUT_OF_RANGE))


def _reversed_cover(doc, draw):
    paths = [p for p in _paths(doc) if p and p[-1] == "covers"
             and _at(doc, p)]
    covers = _at(doc, _pick(draw, paths))
    a, b = draw(st.sampled_from(covers))
    covers.append([b, a])


def _has_covers(doc):
    return any(p and p[-1] == "covers" for p in _paths(doc))


def _argv(command, path):
    return [str(path) if arg is DOC else arg for arg in command]


@st.composite
def mutated_documents(draw):
    """(mutated document, a command it drives)."""
    name = draw(st.sampled_from(NAMES))
    doc = copy.deepcopy(DOCUMENTS[name])
    mutations = [_drop, _retype, _out_of_range]
    if _has_covers(doc):
        mutations.append(_reversed_cover)
    draw(st.sampled_from(mutations))(doc, draw)
    command = draw(st.sampled_from(_commands(name)))
    return doc, command


def exit_of(argv):
    """(exit code, stderr) of ``klspoly ARGV`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def test_every_fixture_of_the_fuzz_checks_clean():
    for name in NAMES:
        code = 1 if name in KERNEL_FILES else 0
        for command in _commands(name):
            argv = _argv(command, fixture_path(name))
            assert exit_of(argv) == (code, ""), argv


@settings(max_examples=700, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents())
def test_a_mutated_document_exits_cleanly(tmp_path_factory, case):
    doc, command = case
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    code, err = exit_of(_argv(command, path))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:"), err
