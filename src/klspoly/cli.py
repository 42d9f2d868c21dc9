"""Command line for the package: validate, solve, localize, verify, count.

Subcommands::

    klspoly check PATH                 validate a document, report per check
    klspoly kls PATH --what f|g|z|h|toric-h [--kernel eulerian|FILE]
                                        [--interval Z ZP | --all]
    klspoly local PATH [--kernel ...] [--equivariant GROUP] [--all]
                                        [--relative-g]
    klspoly verify [PATH ...] --suite NAME [--kernel FILE]
    klspoly ehrhart PATH --what hstar|local-hstar|series|reciprocity
                                        [--order M]

All inputs are versioned JSON documents (see :mod:`klspoly.schemas`); a
path of the form ``fixture:NAME`` resolves to the bundled fixture NAME.
Output is deterministic for fixed input and flags: elements are listed in
index order, conjugacy classes by their smallest element id, polynomials
as comma-joined coefficients with the constant term first.  ``--format
json`` switches from aligned text to a single JSON object.

Exit status: 0 on success, 1 when a verification fails (an identity does
not hold, a kernel or action is rejected), 2 on input errors (unreadable
files, malformed documents, impossible flag combinations, a flag the
request does not read, a ``KLS_MAX_GROUP`` that is not an integer, a poset
that is not (lower) Eulerian where the computation needs one), 141 (128 +
SIGPIPE) when the reader closes standard output early, silently.  Each
handler reads its whole request, then computes, then writes: it decides
from the flags and documents alone before it computes, so a request
refused with 2 is refused before any check runs, and wins over a rejection
(1) in one command.  ``verify`` reads every document, the ``--kernel``
file (decoded once) on each carrier and the group before its first check.

The environment variable ``KLS_MAX_GROUP`` overrides the default bound on
generated group sizes.

Each subcommand imports the layers it uses when it runs: importing this
module loads only the document layer and the incidence algebra below it.
Each handler decides before it imports a computing layer; :func:`_carrier`
and :func:`_triple` read every poset and triple, building it whole.
:func:`_answer` writes every accepted answer, :func:`_report` every list
of named checks and :func:`_reject` every rejected kernel or action.
"""

import argparse
import functools
import json
import os
import sys

from . import schemas
from .incidence import (MirrorConstraintViolated, eulerian_kernel,
                        h_polynomial, solve_f, solve_g, toric_h_boundary,
                        validate_kernel, z_function)
from .status import CheckResult, InputError, VerificationFailure

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PIPE = 141


class InputProblem(InputError):
    """A flag combination or request that cannot be answered (exit 2)."""


def _resolve(path):
    if path.startswith("fixture:"):
        return schemas.fixture_path(path[len("fixture:"):])
    return path


def _coeff_str(coeffs):
    """A polynomial's JSON coefficients as its text line."""
    return ",".join(coeffs) if coeffs else "0"


def _emit(args, payload, lines):
    if args.format == "json":
        payload.setdefault("v", 1)
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        for line in lines:
            print(line)


def _answer(args, fields, lines):
    """Write an accepted answer: ``fields`` or ``lines``, status ok, exit 0."""
    _emit(args, {**fields, "status": "ok"}, lines)
    return EXIT_OK


def _reject(args, command, what, res):
    """Report a rejected kernel or action, ``what``, and fail (exit 1)."""
    _emit(args, {"command": command, "status": "fail",
                 "reason": res.reason, "witness": res.witness},
          [f"{what}: {res.describe()}"])
    return EXIT_FAIL


def _report(args, fields, results, trailing):
    """Write the named checks ``results`` with ``fields``, then the
    ``trailing`` lines: status ok and exit 0 when every check passes, else
    fail and exit 1."""
    checks = []
    for name, res in results:
        entry = {"name": name, "ok": bool(res)}
        if not res:
            entry["reason"] = res.reason
            if res.witness is not None:
                entry["witness"] = res.witness
            if res.detail:
                entry["detail"] = res.detail
        checks.append(entry)
    ok = all(entry["ok"] for entry in checks)
    _emit(args, {**fields, "status": "ok" if ok else "fail", "checks": checks},
          [f"{name}: {res.describe()}" for name, res in results] + trailing)
    return EXIT_OK if ok else EXIT_FAIL


def _value_rows(element, pairs, single):
    """The [z, zp, coefficients] rows of ``element`` on ``pairs``, and their
    lines: the one value alone when ``single``, else ``z zp: value`` each."""
    rows = [[z, zp, element.value(z, zp).to_json()] for z, zp in pairs]
    if single:
        return rows, [_coeff_str(rows[0][2])]
    return rows, [f"{z} {zp}: {_coeff_str(coeffs)}" for z, zp, coeffs in rows]


# -- check ------------------------------------------------------------------

def _check_poset(poset):
    return [("lower-eulerian", poset.is_lower_eulerian())]


def _check_sfs(sfs):
    return [("strong-formal-subdivision", sfs.validate())]


def _check_triple(triple):
    from .subdivision import triple_to_sfs

    return [("lower-eulerian", CheckResult.passed()),
            ("strong-formal-subdivision", triple_to_sfs(triple).validate())]


def _check_fan(built):
    from .equivariant import is_eulerian_action
    from .fans import fan_kernel, validate_span_kernel

    fan, faction = built
    results = [("lower-eulerian", CheckResult.passed())]
    if faction is not None:
        results.append(("action-eulerian",
                        is_eulerian_action(faction.action)))
        kappa = fan_kernel(fan, faction)
        results.append(("equivariant-kernel", validate_span_kernel(kappa)))
    return results


def _check_complex(cx):
    from .ehrhart import ComplexCylinder
    from .equivariant import is_eulerian_action

    cx.hstar_data  # the first read builds the box table and checks it
    results = [("action-eulerian", is_eulerian_action(cx.action)),
               ("hstar-data", CheckResult.passed())]
    if cx.coarse_poset is not None:
        ComplexCylinder(cx)
        results.append(("coarse-cylinder", CheckResult.passed()))
    return results


def _check_group(gens):
    okperm = len({len(g) for g in gens}) == 1 and all(
        sorted(g) == list(range(len(g))) for g in gens)
    return [("permutations", CheckResult.passed() if okperm else
             CheckResult.failed("not-a-permutation"))]


#: Document tag -> the checks of a built document, after its structure.
#: A check that the builder guarantees, as the lower Eulerian face poset
#: of a fan or triple, is reported passed without running again.
DOCUMENT_CHECKS = {"poset": _check_poset, "sfs": _check_sfs,
                   "triple": _check_triple, "fan": _check_fan,
                   "complex": _check_complex, "group": _check_group}


def cmd_check(args):
    tag, payload = schemas.load_document(_resolve(args.path))
    built = schemas.BUILDERS[tag](payload)
    results = DOCUMENT_CHECKS[tag](built)
    if tag != "group":
        results = [(f"{tag}-structure", CheckResult.passed())] + results
    return _report(args, {"command": "check", "schema": tag}, results, [])


# -- kls ----------------------------------------------------------------------

def _carrier(tag, payload):
    """The poset a kernel lives on, of a poset, triple or fan document."""
    if tag == "poset":
        return schemas.build_poset(payload)
    if tag == "fan":
        return schemas.build_fan(payload)[0].face_poset
    return _triple(tag, payload).gamma


def _triple(tag, payload):
    """A triple document's triple, or an sfs document's mapping cylinder."""
    from .subdivision import mapping_cylinder

    if tag == "triple":
        return schemas.build_triple(payload)
    return mapping_cylinder(schemas.build_sfs(payload))


def _kernel_reader(args):
    """The --kernel of a request on a carrier; a file is decoded once."""
    if args.kernel == "eulerian":
        return eulerian_kernel
    decoded = functools.cache(lambda: schemas._read_json(_resolve(args.kernel)))
    return lambda poset: schemas.realize_kernel(decoded(), poset)


def _interval_list(args, poset):
    if args.interval is not None and args.all:
        raise InputProblem("--interval and --all are mutually exclusive")
    if args.interval is not None:
        z, zp = args.interval
        if not (0 <= z < poset.n and 0 <= zp < poset.n and poset.leq(z, zp)):
            raise InputProblem(f"({z}, {zp}) is not an interval of the poset")
        return [(z, zp)], True
    if args.all:
        return sorted(poset.intervals()), False
    maxs = poset.maximal_elements()
    if len(maxs) == 1:
        return [(poset.bottom(), maxs[0])], True
    raise InputProblem("poset has no unique maximum; pass --interval or --all")


def cmd_kls(args):
    poset = _carrier(*schemas.load_document(
        _resolve(args.path), expect=("poset", "triple", "fan")))
    if args.what in ("h", "toric-h"):
        if args.kernel != "eulerian":
            raise InputProblem(f"--what {args.what} is defined for the "
                               "Eulerian kernel only")
        if args.interval is not None or args.all:
            flag = "--all" if args.interval is None else "--interval"
            raise InputProblem(f"--what {args.what} is one polynomial of "
                               f"the poset and reads no {flag}")
        coeffs = (h_polynomial if args.what == "h"
                  else toric_h_boundary)(poset).to_json()
        return _answer(args, {"command": "kls", "what": args.what,
                              "coeffs": coeffs}, [_coeff_str(coeffs)])
    kappa = _kernel_reader(args)(poset)
    pairs, single = _interval_list(args, poset)
    res = validate_kernel(kappa)
    if not res:
        return _reject(args, "kls", "kernel rejected", res)
    # a single value of g lies in a row, of f in a column: solve only that
    # line inside the interval
    line = pairs[0] if single else None
    if args.what == "z":
        solution = z_function(kappa)
    elif args.what == "g":
        solution = solve_g(kappa, row=line)
    else:
        solution = solve_f(kappa, column=line)
    values, lines = _value_rows(solution, pairs, single)
    return _answer(args, {"command": "kls", "what": args.what,
                          "values": values}, lines)


# -- local --------------------------------------------------------------------

def _table_pairs(triple, args):
    """The top interval, when there is one above q and no --all; else
    the X x Y intervals."""
    gamma = triple.gamma
    maxs = gamma.maximal_elements()
    if not args.all and len(maxs) == 1 and gamma.leq(triple.q, maxs[0]):
        return [(gamma.bottom(), maxs[0])]
    return triple.xy_pairs()


def cmd_local(args):
    from .subdivision import KernelRejected, local_invariants, relative_g

    triple = _triple(*schemas.load_document(_resolve(args.path),
                                            expect=("triple", "sfs")))
    gamma = triple.gamma
    if args.relative_g:
        if args.equivariant or args.kernel != "eulerian":
            raise InputProblem("--relative-g uses the Eulerian kernel and "
                               "no group")
        if args.all:
            raise InputProblem("--relative-g is one polynomial and reads no "
                               "--all")
        coeffs = relative_g(gamma, triple.q).to_json()
        return _answer(args, {"command": "local", "what": "relative-g",
                              "coeffs": coeffs}, [_coeff_str(coeffs)])
    kappa = _kernel_reader(args)(gamma)
    pairs = _table_pairs(triple, args)
    try:
        if args.equivariant is not None:
            return _equivariant_tables(args, triple, kappa, pairs)
        res = validate_kernel(kappa)
        if not res:
            return _reject(args, "local", "kernel rejected", res)
        inv = local_invariants(triple, kappa.weak_rank, kappa)
    except KernelRejected as exc:
        # the solver also needs the kernel multiplicative, rank alternating
        return _reject(args, "local", "kernel rejected", exc.result)
    single = len(pairs) == 1
    lines = []
    values = {}
    for name in ("h_sigma", "ell_sigma", "delta_ell"):
        values[name], rows = _value_rows(getattr(inv, name), pairs, single)
        lines += ([f"{name}: {rows[0]}"] if single else
                  [f"{name}:", *(f"  {row}" for row in rows)])
    return _answer(args, {"command": "local", "values": values}, lines)


def _equivariant_tables(args, triple, kappa, pairs):
    """``local --equivariant GROUP``: the tables as class functions."""
    from .equivariant import (equiv_constant, equiv_kernel_validate,
                              equiv_local_invariants, is_eulerian_action,
                              validate_action)

    gamma = triple.gamma
    _gtag, gpayload = schemas.load_document(_resolve(args.equivariant),
                                            expect="group")
    action = schemas.build_group(gpayload, gamma)
    res = validate_action(action, gamma, q=triple.q)
    if not res:
        raise InputProblem(f"group incompatible with the triple: "
                           f"{res.describe()}")
    try:
        ekappa = equiv_constant(action, kappa)
    except ValueError as exc:
        raise InputProblem(str(exc))
    res = is_eulerian_action(action)
    if not res:
        return _reject(args, "local", "action rejected", res)
    res = equiv_kernel_validate(ekappa)
    if not res:
        return _reject(args, "local", "kernel rejected equivariantly", res)
    inv = equiv_local_invariants(triple, ekappa.weak_rank, action, ekappa)
    lines = [f"group order {len(action)}"]
    values = {"group_order": len(action)}
    for name in ("h_sigma", "ell_sigma", "delta_ell"):
        element = getattr(inv, name)
        table = []
        lines.append(f"{name}:")
        for z, zp in pairs:
            rows, data = _class_lines(action, element.value(z, zp))
            table.append([z, zp, data])
            lines.extend(f"  {z} {zp} {row}" for row in rows)
        values[name] = table
    return _answer(args, {"command": "local", "values": values}, lines)


# -- verify -------------------------------------------------------------------

#: Suite name -> the subdivision check it runs on a triple document.
TRIPLE_CHECKS = {"theorem-g": "check_theorem_g",
                 "corollary-f": "check_corollary_f",
                 "corollary-z": "check_corollary_z"}


def _verify_triple(suite, triple, kappa):
    from . import subdivision

    check = getattr(subdivision, TRIPLE_CHECKS[suite])
    try:
        res = check(triple, kappa)
    except subdivision.KernelRejected as exc:
        # a kernel document that loaded but fails the theory's
        # hypotheses is a failed check, not an input error
        res = exc.result
    return [(suite, res)]


def _verify_action(action):
    from .equivariant import is_eulerian_action

    return [("eulerian-action", is_eulerian_action(action))]


def _verify_fan(fan, faction):
    from .fans import fan_kernel
    from .verify import kernel_checks

    return kernel_checks(fan_kernel(fan, faction))


def _verify_complex(cx):
    from .verify import complex_checks

    return complex_checks(cx)


def _verify_kernel(kappa):
    res = validate_kernel(kappa)
    results = [("kernel axioms", res)]
    if res:
        try:
            solve_g(kappa)
            solve_f(kappa)
            res = CheckResult.passed()
        except MirrorConstraintViolated as exc:
            res = CheckResult.failed("mirror-constraint",
                                     witness=exc.interval, detail=str(exc))
        results.append(("solvers", res))
    return results


def _verify_step(args, path, tag, payload, groups, kernel):
    """(runner, reader) of one document, decided by its tag, the suite,
    ``groups`` and ``kernel``: ``runner(*reader())`` gives its checks under
    bare labels, and ``reader()`` builds all that the runner reads."""
    if tag in ("triple", "sfs") and args.suite in TRIPLE_CHECKS:
        def read():
            triple = _triple(tag, payload)
            return args.suite, triple, kernel(triple.gamma)
        return _verify_triple, read
    if tag in ("poset", "triple") and args.suite == "equivariant" and groups:
        return _verify_action, lambda: (schemas.build_group(
            groups[0][1], _carrier(tag, payload)),)
    if tag == "fan" and args.suite == "equivariant":
        if payload.get("action") is None:
            raise InputProblem(f"{path} carries no action")
        return _verify_fan, lambda: schemas.build_fan(payload)
    if tag == "complex" and args.suite == "ehrhart-reciprocity":
        return _verify_complex, lambda: (schemas.build_complex(payload),)
    if tag == "poset" and args.kernel != "eulerian":
        return _verify_kernel, lambda: (kernel(_carrier(tag, payload)),)
    raise InputProblem(f"don't know how to verify a {tag} document under "
                       f"suite {args.suite!r}")


def _verify_plan(args, docs):
    """(path, runner, reader) for each document of ``docs``, (path, tag,
    payload).

    Every refusal is raised here, before any reader runs: at most one group
    document is accepted, and some check must read it and any ``--kernel``.
    """
    groups = [(p, pay) for p, t, pay in docs if t == "group"]
    if len(groups) > 1:
        raise InputProblem(f"{groups[1][0]} is a second group document; "
                           f"verify reads at most one")
    kernel = _kernel_reader(args)
    plan = [(path, *_verify_step(args, path, tag, payload, groups, kernel))
            for path, tag, payload in docs if tag != "group"]
    if docs and not plan:
        raise InputProblem("no verifiable documents among the given paths")
    runs = {runner for _path, runner, _reader in plan}
    if groups and _verify_action not in runs:
        unread = f"group document {groups[0][0]}"
    elif args.kernel != "eulerian" and not runs & {_verify_triple,
                                                   _verify_kernel}:
        unread = f"kernel {args.kernel}"
    else:
        return plan
    raise InputProblem(f"no check under suite {args.suite!r} reads the "
                       f"{unread}")


def cmd_verify(args):
    from .verify import run_suite

    docs = [(p,) + schemas.load_document(_resolve(p)) for p in args.paths]
    plan = _verify_plan(args, docs)
    if docs:
        inputs = [reader() for _path, _runner, reader in plan]
        results = [(f"{label} on {path}", res)
                   for (path, runner, _reader), built in zip(plan, inputs)
                   for label, res in runner(*built)]
    else:
        results = run_suite(args.suite)
    passed = sum(1 for _n, r in results if r)
    return _report(args, {"command": "verify", "suite": args.suite,
                          "passed": passed, "total": len(results)},
                   results, [f"passed {passed}/{len(results)}"])


# -- ehrhart ------------------------------------------------------------------

def _class_lines(action, cp):
    from .equivariant import classpoly_json

    data = classpoly_json(action, cp)
    return [f"w{wid}: {_coeff_str(coeffs)}"
            for wid, coeffs in data["values"]], data


def cmd_ehrhart(args):
    _tag, payload = schemas.load_document(_resolve(args.path),
                                          expect="complex")
    if args.what in ("series", "reciprocity") and (args.order or 0) < 0:
        raise InputProblem(f"--order must be nonnegative, not {args.order}")
    if args.what == "local-hstar" and payload.get("coarse") is None:
        raise InputProblem("local-hstar needs a complex with a coarse "
                           "face structure")
    return _ehrhart_answer(args, payload)


def _ehrhart_answer(args, payload):
    from .ehrhart import (ComplexCylinder, ehr_series, hstar_from_subdivision,
                          localhstar_via_localh, reciprocity_check)
    from .equivariant import equiv_local_invariants

    cx = schemas.build_complex(payload)
    action = cx.action
    fields = {"command": "ehrhart", "what": args.what,
              "elements": [list(w) for w in sorted(action.elements)]}
    if args.what == "hstar":
        lines, fields["hstar"] = _class_lines(action,
                                              hstar_from_subdivision(cx))
        return _answer(args, fields, lines)
    if args.what == "local-hstar":
        cyl = ComplexCylinder(cx)
        inv = equiv_local_invariants(cyl.triple, cyl.weak_rank, cyl.action,
                                     cyl.kappa)
        lines, fields["local_hstar"] = _class_lines(
            action, localhstar_via_localh(cx, cyl, inv))
        return _answer(args, fields, lines)
    order = args.order if args.order is not None else cx.default_order()
    fields["order"] = order
    if args.what == "series":
        lines = []
        fields["series"] = []
        for rep in action.stabilizer().reps:
            series = ehr_series(cx, rep, order=order)
            counts = [str(series.coeff(m)) for m in range(order + 1)]
            wid = action.element_id(rep)
            fields["series"].append([wid, counts])
            lines.append(f"w{wid}: {','.join(counts)}")
        return _answer(args, fields, lines)
    # reciprocity
    hstar = hstar_from_subdivision(cx)
    results = [(f"reciprocity w{action.element_id(rep)}",
                reciprocity_check(cx, rep, order, hstar))
               for rep in action.stabilizer().reps]
    return _report(args, fields, results, [])


# -- parser -------------------------------------------------------------------

class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments when it first parses.

    ``declare(parser)`` adds them, so building the whole parser loads no
    layer of the package: the verify suite names, for one, come from
    :mod:`klspoly.verify`, which only ``verify`` loads.
    """

    def __init__(self, *args, declare, **kwargs):
        super().__init__(*args, **kwargs)
        self._declare = declare

    def parse_known_args(self, args=None, namespace=None):
        if self._declare is not None:
            self._declare(self)
            self._declare = None
        return super().parse_known_args(args, namespace)


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _check_arguments(p):
    p.add_argument("path")
    _add_format(p)


def _kls_arguments(p):
    p.add_argument("path")
    p.add_argument("--kernel", default="eulerian",
                   help="'eulerian' or a kernel file path")
    p.add_argument("--what", required=True,
                   choices=("f", "g", "z", "h", "toric-h"))
    p.add_argument("--interval", nargs=2, type=int, metavar=("Z", "ZP"))
    p.add_argument("--all", action="store_true",
                   help="print every interval")
    _add_format(p)


def _local_arguments(p):
    p.add_argument("path")
    p.add_argument("--kernel", default="eulerian")
    p.add_argument("--equivariant", metavar="GROUP",
                   help="group document acting on the poset")
    p.add_argument("--relative-g", action="store_true",
                   help="print the relative g-polynomial of (poset, q)")
    p.add_argument("--all", action="store_true",
                   help="full tables instead of the top interval")
    _add_format(p)


def _verify_arguments(p):
    from .verify import SUITES

    p.add_argument("paths", nargs="*",
                   help="documents to verify; bundled corpus when omitted")
    p.add_argument("--suite", default="all", choices=(*SUITES, "all"))
    p.add_argument("--kernel", default="eulerian")
    _add_format(p)


def _ehrhart_arguments(p):
    p.add_argument("path")
    p.add_argument("--what", required=True,
                   choices=("hstar", "local-hstar", "series", "reciprocity"))
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default 2(dim+1))")
    _add_format(p)


#: Subcommand -> (help line, argument declaration, handler).
COMMANDS = {
    "check": ("validate a document", _check_arguments, cmd_check),
    "kls": ("kernel solvers and h-polynomials", _kls_arguments, cmd_kls),
    "local": ("local invariants of a subdivision", _local_arguments,
              cmd_local),
    "verify": ("run a named verification suite", _verify_arguments,
               cmd_verify),
    "ehrhart": ("equivariant lattice point counting", _ehrhart_arguments,
                cmd_ehrhart),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klspoly",
        description="Kazhdan-Lusztig-Stanley polynomials, subdivisions, "
                    "and equivariant Ehrhart series over exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Subcommand)
    for name, (summary, declare, handler) in COMMANDS.items():
        sub.add_parser(name, help=summary,
                       declare=declare).set_defaults(func=handler)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # devnull takes what is still buffered, so the last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
