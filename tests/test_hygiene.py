"""Source hygiene: no unused or scattered imports, no unreferenced
definitions, no floats."""

import ast
from pathlib import Path

import klspoly
from klspoly import cli, schemas

PACKAGE = Path(klspoly.__file__).parent


def _imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree)
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]


def test_no_module_imports_an_unused_name():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == [], "unused imports:\n" + "\n".join(found)


def _own_nodes(func):
    """Every node in a function's body, not entering nested definitions."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def scattered_imports(source):
    """(line, function) of every import in a function body that is not in
    the function's leading block of imports, right after its docstring.

    A layer a function needs is imported where a reader looks first, not
    in a branch or halfway down.
    """
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        k = int(isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str))
        while k < len(body) and isinstance(body[k],
                                           (ast.Import, ast.ImportFrom)):
            k += 1
        leading = {id(node) for node in body[:k]}
        found.extend((node.lineno, func.name) for node in _own_nodes(func)
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     and id(node) not in leading)
    return sorted(found)


def test_the_scan_finds_a_scattered_import():
    source = ('def leading():\n'
              '    """Doc."""\n'
              '    import os\n'
              '    from math import gcd\n'
              '    return os, gcd\n'
              'def late():\n'
              '    x = 1\n'
              '    import os\n'
              '    return x, os\n'
              'def branch(flag):\n'
              '    if flag:\n'
              '        from math import gcd\n'
              '        return gcd\n'
              'def outer():\n'
              '    import os\n'
              '    def inner():\n'
              '        y = 2\n'
              '        from math import lcm\n'
              '        return y, lcm\n'
              '    return os, inner\n')
    assert scattered_imports(source) == [(8, "late"), (12, "branch"),
                                         (18, "inner")]


def test_no_function_imports_outside_its_leading_block():
    found = [f"{path.name}:{line}: in {func}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, func in scattered_imports(
                 path.read_text(encoding="utf-8"))]
    assert found == [], "scattered imports:\n" + "\n".join(found)


def _mentions(node, name):
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def mentions(source, name):
    """Lines that mention ``name`` as a variable or an attribute, which
    covers every call of a function or method of that name."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if _mentions(node, name))


def mentions_outside(source, name, function):
    """Lines that mention ``name`` outside the module-level ``function``
    or class."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and top.name == function
              for node in ast.walk(top)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in inside and _mentions(node, name))


def test_the_scan_finds_a_mention():
    source = ("p.natural_rank()\nnatural_rank(p)\nrank = p.natural_rank\n"
              "p.natural_ranks()\n'natural_rank'\n")
    assert mentions(source, "natural_rank") == [1, 2, 3]


def test_only_the_poset_module_derives_a_natural_rank():
    # a poset stores its rank once, at construction; the other modules
    # read Poset.rank, and None there means the poset is not graded
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "poset.py"
             for line in mentions(path.read_text(encoding="utf-8"),
                                  "natural_rank")]
    assert found == [], "natural_rank outside poset.py:\n" + "\n".join(found)


def test_the_scan_finds_a_mention_outside_a_function():
    source = ("def face_poset():\n    return from_covers(1, [])\n"
              "def other():\n    return from_covers(2, [])\n"
              "poset.from_covers(3, [])\n")
    assert mentions_outside(source, "from_covers", "face_poset") == [4, 5]


def test_only_the_face_poset_builder_builds_a_poset_from_covers():
    # fan cones, complex and coarse faces and polytope faces become a
    # poset through fans.face_poset, which checks containment and the
    # lower Eulerian property; only poset.py builds one otherwise
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "poset.py"
             for line in mentions_outside(path.read_text(encoding="utf-8"),
                                          "from_covers", "face_poset")]
    assert found == [], ("from_covers outside poset.py and fans.face_poset:"
                         "\n" + "\n".join(found))


def test_the_scan_finds_a_weak_rank_outside_the_span_kernel():
    source = ("def span_kernel():\n    return WeakRank.natural(p)\n"
              "def face_kernel():\n    return WeakRank.natural(p)\n"
              "rank = WeakRank.natural\n")
    assert mentions_outside(source, "natural", "span_kernel") == [4, 5]


def test_only_the_span_kernel_derives_a_geometric_weak_rank():
    # every fan, complex, cylinder and polytope kernel is a span_kernel
    # call, which derives the natural weak rank of its action's poset; the
    # rest of the geometry reads the weak rank off a kernel
    found = [f"{name}:{line}" for name in ("fans.py", "ehrhart.py")
             for line in mentions_outside(
                 (PACKAGE / name).read_text(encoding="utf-8"), "natural",
                 "span_kernel")]
    assert found == [], ("WeakRank.natural in the geometry outside "
                         "fans.span_kernel:\n" + "\n".join(found))


#: The builders of the documents a command reads as a poset or a triple.
READER_BUILDERS = ("build_poset", "build_triple", "build_sfs")


def mentions_outside_readers(source, name):
    """Lines that mention ``name`` outside both readers of cli.py."""
    return sorted(set(mentions_outside(source, name, "_carrier"))
                  & set(mentions_outside(source, name, "_triple")))


def test_the_scan_finds_a_builder_outside_the_readers():
    source = ("def _carrier(tag, payload):\n    return build_poset(payload)\n"
              "def _triple(tag, payload):\n    return build_sfs(payload)\n"
              "def _verify_action(payload):\n"
              "    return schemas.build_poset(payload['poset'])\n")
    assert [mentions_outside_readers(source, name)
            for name in READER_BUILDERS] == [[6], [], []]


def test_only_the_readers_build_a_poset_or_a_triple_in_the_command_line():
    # every command reads a poset, triple or sfs document through
    # cli._carrier or cli._triple, which build the whole document, so no
    # handler builds an object from part of a payload; cmd_check reaches
    # the builders through schemas.BUILDERS
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    found = [f"cli.py:{line}: {name}" for name in READER_BUILDERS
             for line in mentions_outside_readers(source, name)]
    assert found == [], ("a builder outside cli._carrier and cli._triple:\n"
                         + "\n".join(found))


#: The verify runners of cli.py, and what reads their inputs there.
VERIFY_RUNNERS = ("_verify_triple", "_verify_action", "_verify_fan",
                  "_verify_complex", "_verify_kernel")
CLI_READERS = ("_carrier", "_triple", "_kernel_reader") + tuple(
    name for name in dir(schemas) if name.startswith("build_"))


def mentions_inside(source, name, function):
    """Lines inside the module-level ``function`` that mention ``name``."""
    return sorted(set(mentions(source, name))
                  - set(mentions_outside(source, name, function)))


def test_the_scan_finds_a_reader_inside_a_runner():
    source = ("def _verify_complex(cx):\n    return complex_checks(cx)\n"
              "def _verify_fan(payload):\n"
              "    return kernel_checks(schemas.build_fan(payload))\n")
    assert [mentions_inside(source, "build_fan", runner)
            for runner in ("_verify_complex", "_verify_fan")] == [[], [4]]


def test_the_verify_runners_read_nothing():
    # cmd_verify runs every reader before the first runner, so a malformed
    # input is refused before any check runs; a runner computes on built
    # objects only
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert all(hasattr(cli, runner) for runner in VERIFY_RUNNERS)
    assert {"build_complex", "build_fan", "build_group"} <= set(CLI_READERS)
    found = [f"cli.py:{line}: {runner} names {name}"
             for runner in VERIFY_RUNNERS for name in CLI_READERS
             for line in mentions_inside(source, name, runner)]
    assert found == [], "a verify runner reads:\n" + "\n".join(found)


def test_the_scan_finds_a_mention_outside_a_class():
    source = ("class Element:\n    def __init__(self):\n        self.check()\n"
              "    def check(self):\n        pass\n"
              "def validate(kappa):\n    return kappa.check()\n")
    assert mentions_outside(source, "check", "Element") == [7]


def test_only_the_checking_constructor_checks_conjugation_compatibility():
    # algebra results and assemblies are conjugation compatible by
    # construction; EquivIncidenceElement checks data from outside
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in mentions_outside(path.read_text(encoding="utf-8"),
                                          "validate_definition",
                                          "EquivIncidenceElement")]
    assert found == [], ("validate_definition outside "
                         "EquivIncidenceElement:\n" + "\n".join(found))


def degree_walks(source):
    """Lines that mention ``is_in_truncated`` outside both gates,
    ``validate_kernel`` and ``solve_kernel``."""
    return sorted(set(mentions_outside(source, "is_in_truncated",
                                       "validate_kernel"))
                  & set(mentions_outside(source, "is_in_truncated",
                                         "solve_kernel")))


def test_the_scan_finds_a_degree_walk_outside_the_gates():
    source = ("def validate_kernel(k):\n    return is_in_truncated(k)\n"
              "def solve_kernel(k):\n    checks = (is_in_truncated,)\n"
              "def solve_g(k):\n    incidence.is_in_truncated(k)\n"
              "def is_in_truncated(k):\n    pass\n")
    assert degree_walks(source) == [6]


def test_only_the_gates_walk_the_kernel_degree_bound():
    # validate_kernel and solve_kernel check deg kappa <= r once per
    # kernel; the solvers check only the unit diagonal and the mirror
    # constraints, which bound the degree of every defect they fill
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in degree_walks(path.read_text(encoding="utf-8"))]
    assert found == [], ("is_in_truncated outside validate_kernel and "
                         "solve_kernel:\n" + "\n".join(found))


def test_the_scan_finds_a_zero_denominator_outside_the_rational_reader():
    source = ("def json_rational(s):\n    try:\n        return Fraction(s)\n"
              "    except ZeroDivisionError:\n        raise\n"
              "def exact_vector(v):\n    try:\n        return Fraction(v)\n"
              "    except ZeroDivisionError:\n        raise\n")
    assert mentions_outside(source, "ZeroDivisionError",
                            "json_rational") == [9]


def test_only_the_rational_reader_parses_a_rational_string():
    # a rational string's zero denominator is caught in exactly one place,
    # status.json_rational, which every matrix entry and coefficient of a
    # document goes through
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in mentions_outside(path.read_text(encoding="utf-8"),
                                          "ZeroDivisionError",
                                          "json_rational")]
    assert found == [], ("ZeroDivisionError outside status.json_rational:\n"
                         + "\n".join(found))


def unwitnessed_failures(source):
    """Lines of every ``CheckResult.failed(...)`` call that passes no
    witness, by position or by keyword."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "failed"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "CheckResult"
        and len(node.args) < 2
        and all(k.arg != "witness" for k in node.keywords))


def test_the_scan_finds_a_failure_without_a_witness():
    source = ('CheckResult.failed("a", witness=(0, 1))\n'
              'CheckResult.failed("b", (0, 1))\n'
              'CheckResult.failed("c", detail="x != y")\n'
              'CheckResult.failed("d")\n'
              'other.failed("e")\n')
    assert unwitnessed_failures(source) == [3, 4]


def test_every_ehrhart_failure_names_a_witness():
    # an identity of equivariant elements fails on an interval, a counting
    # check on a group element and an order; each failure says which
    source = (PACKAGE / "ehrhart.py").read_text(encoding="utf-8")
    found = [f"ehrhart.py:{line}" for line in unwitnessed_failures(source)]
    assert found == [], "failures without a witness:\n" + "\n".join(found)


def _constant_text(node):
    """The constant pieces of a string or f-string expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [part.value for part in node.values
                if isinstance(part, ast.Constant)]
    return []


def refusal_texts(source):
    """(line, text) for each constant piece of an ``InputProblem(...)``
    message and of the label a ``_reject`` call reports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "InputProblem" and node.args:
            message = node.args[0]
        elif node.func.id == "_reject" and len(node.args) > 2:
            message = node.args[2]
        else:
            continue
        found.extend((node.lineno, text) for text in _constant_text(message))
    return sorted(found)


def string_constants(source):
    """Every string constant of a module, f-string pieces included."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def unpinned_refusals(source, pinned):
    """The refusal texts of ``source`` that no string of ``pinned``
    contains, as (line, text)."""
    return [(line, text) for line, text in refusal_texts(source)
            if not any(text in string for string in pinned)]


def test_the_scan_finds_an_unpinned_refusal():
    source = ('raise InputProblem("pinned refusal")\n'
              'raise InputProblem(f"--what {w} is never pinned")\n'
              'raise InputProblem(str(exc))\n'
              'code = _reject(args, "kls", "unpinned label", res)\n'
              'raise ValueError("not a refusal")\n')
    pinned = string_constants('assert err == "error: pinned refusal\\n"\n'
                              'flag = f"--what {what}"\n')
    assert unpinned_refusals(source, pinned) == [
        (2, " is never pinned"), (4, "unpinned label")]


def test_every_command_line_refusal_is_pinned_by_a_test():
    # each refusal of the command line, a request it cannot answer (exit
    # 2) or a kernel or action it rejects (exit 1), has its text in a test
    pinned = [string for path in sorted(Path(__file__).parent.glob("*.py"))
              for string in string_constants(path.read_text(encoding="utf-8"))]
    found = [f"cli.py:{line}: {text!r}" for line, text in unpinned_refusals(
        (PACKAGE / "cli.py").read_text(encoding="utf-8"), pinned)]
    assert found == [], "refusals no test pins:\n" + "\n".join(found)


ROOT = PACKAGE.parents[1]
# References from tests do not count: code that neither the package nor the
# benchmark reaches is dead unless TEST_ONLY names it.
SCANNED = [PACKAGE, ROOT / "bench"]

#: Package definitions that only the tests use, each kept on purpose.
TEST_ONLY = {
    "check_hl_relation": "oracle: open-box = half-open-box * g^-1",
    "hstar_via_localh": "oracle: h* through the cylinder's local h",
    "check_hstar_identity": "oracle: the crossing identity on the cylinder",
    "fixed_fan": "oracle: the fixed fan of a group element",
    "delta_invert": "oracle: Delta ell determines ell",
    "chain": "builder: chains, the simplest non-Eulerian posets",
    "simplex_face_lattice": "builder: simplex face lattices",
    "adjoin_max": "builder: adjoins a maximum",
    "semisuspension": "builder: completes a near-Eulerian poset",
    "conjugacy_classes": "PermAction method the benchmark traces by name",
}


def _definitions(tree):
    """(name, line) of every function, class and non-dunder method."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def _references(tree):
    """Names, attribute names and imported names a module mentions."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs.add(alias.name.split(".")[-1])
                if alias.asname:
                    refs.add(alias.asname)
    return refs


def _all_references(sources):
    refs = set()
    for tree in sources.values():
        refs |= _references(tree)
    return refs


def unreferenced_definitions(sources, targets, allowed=()):
    """Definitions in ``targets`` that no module of ``sources`` mentions.

    Both arguments map a label to a parsed module.  A definition counts as
    referenced when its name appears anywhere except as its own
    definition, so a function mentioned only inside its own body is still
    referenced; the scan is a guard against dead code, not a call graph.
    Names in ``allowed`` are not reported.
    """
    refs = _all_references(sources)
    return sorted((label, line, name) for label, tree in targets.items()
                  for name, line in _definitions(tree)
                  if name not in refs and name not in allowed)


def stale_allowances(sources, targets, allowed):
    """Allowed names that ``targets`` no longer defines, or that some
    module of ``sources`` now mentions, as (name, problem)."""
    refs = _all_references(sources)
    defined = {name for tree in targets.values()
               for name, _line in _definitions(tree)}
    return sorted([(name, "not defined") for name in allowed
                   if name not in defined]
                  + [(name, "referenced") for name in allowed
                     if name in refs])


def _parse_all(paths):
    return {str(path.relative_to(ROOT)): ast.parse(
                path.read_text(encoding="utf-8"))
            for base in paths for path in sorted(base.rglob("*.py"))}


def test_the_scan_finds_an_unreferenced_definition():
    tree = ast.parse("class A:\n    def used(self):\n        pass\n"
                     "    def unused(self):\n        pass\n"
                     "    def __repr__(self):\n        return ''\n"
                     "def helper():\n    return A().used()\n"
                     "helper()\n")
    found = unreferenced_definitions({"m": tree}, {"m": tree})
    assert found == [("m", 4, "unused")]


def test_the_scan_checks_its_allow_list():
    target = ast.parse("def used():\n    pass\n"
                       "def oracle():\n    pass\n"
                       "def dead():\n    pass\n")
    source = ast.parse("used()\n")
    sources = {"m": target, "s": source}
    allowed = {"oracle": "", "used": "", "gone": ""}
    assert unreferenced_definitions(sources, {"m": target}, allowed) == [
        ("m", 5, "dead")]
    assert stale_allowances(sources, {"m": target}, allowed) == [
        ("gone", "not defined"), ("used", "referenced")]


def test_every_package_definition_is_referenced():
    sources = _parse_all(SCANNED)
    targets = {label: tree for label, tree in sources.items()
               if label.startswith("src/")}
    found = [f"{label}:{line}: {name}" for label, line, name
             in unreferenced_definitions(sources, targets, TEST_ONLY)]
    assert found == [], "unreferenced definitions:\n" + "\n".join(found)
    stale = [f"{name}: {problem}" for name, problem
             in stale_allowances(sources, targets, TEST_ONLY)]
    assert stale == [], "stale TEST_ONLY entries:\n" + "\n".join(stale)


def _defaulted_parameters(tree):
    """(owner, callee, name, position, line) for every defaulted parameter.

    ``owner`` is the enclosing class name or None, and ``callee`` the name
    calls use: the class name for ``__init__``.  Other dunder methods are
    reached through syntax, not calls, and are skipped.  ``position`` is
    the index of the parameter among a call's positional arguments (the
    ``self``/``cls`` slot of a method does not count), or None for a
    keyword-only parameter.
    """
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from params(child, owner)
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    def params(func, owner):
        name = func.name
        if name.startswith("__") and name.endswith("__"):
            if name != "__init__" or owner is None:
                return
            name = owner
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in func.decorator_list)
        shift = 1 if owner is not None and not static else 0
        args = func.args.posonlyargs + func.args.args
        first = len(args) - len(func.args.defaults)
        for k in range(first, len(args)):
            yield owner, name, args[k].arg, k - shift, func.lineno
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield owner, name, arg.arg, None, func.lineno

    yield from visit(tree, None)


def _calls(tree):
    """(receiver, callee, positional count, keyword names) of every call.

    ``receiver`` is the class a call names explicitly (``C(...)``,
    ``C.method(...)`` or ``cls(...)`` inside class C), else None.  A
    ``*args`` or ``**kwargs`` argument counts as setting every position
    or every keyword.
    """
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield call(child, owner)
            yield from visit(child, child.name if isinstance(
                child, ast.ClassDef) else owner)

    def call(node, owner):
        func = node.func
        receiver = None
        if isinstance(func, ast.Name):
            callee = func.id
            if callee == "cls" and owner is not None:
                callee = receiver = owner
        elif isinstance(func, ast.Attribute):
            callee = func.attr
            if isinstance(func.value, ast.Name):
                receiver = func.value.id
        else:
            callee = None
        if any(isinstance(a, ast.Starred) for a in node.args):
            positional = float("inf")
        else:
            positional = len(node.args)
        keywords = {k.arg for k in node.keywords}
        return receiver, callee, positional, keywords

    yield from visit(tree, None)


def unset_defaults(sources, targets, allowed=()):
    """Defaulted parameters in ``targets`` that no call in ``sources`` sets.

    Calls are matched by name: a call naming a class explicitly reaches
    only that class's definitions, any other call every definition of
    that name.  A parameter is set by a call that passes it by keyword or
    reaches its position.  Results and ``allowed`` name a parameter as
    "function(name)", "Class(name)" for ``__init__`` and
    "Class.method(name)"; allowed ones are not reported.
    """
    classes = {node.name for tree in sources.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    calls = {}
    for tree in sources.values():
        for receiver, callee, positional, keywords in _calls(tree):
            if receiver not in classes:
                receiver = None
            calls.setdefault(callee, []).append(
                (receiver, positional, keywords))
    found = []
    for label, tree in targets.items():
        for owner, callee, name, position, line in \
                _defaulted_parameters(tree):
            key = f"{callee}({name})" if owner in (None, callee) \
                else f"{owner}.{callee}({name})"
            if key in allowed:
                continue
            if not any(receiver in (None, owner)
                       and (name in keywords or None in keywords
                            or (position is not None
                                and positional > position))
                       for receiver, positional, keywords
                       in calls.get(callee, ())):
                found.append((label, line, key))
    return sorted(found)


#: Defaulted parameters that no package or benchmark call sets, each kept
#: on purpose.
DEFAULTS_KEPT = {
    "EquivFanAction(max_group)":
        "the acceptance tests bound the group of a fan action",
    "build_group(max_group)": "the acceptance tests pass a group bound",
    "relative_g(g)": "the acceptance tests pass a g solved once per lattice",
}


def test_the_scan_finds_an_unset_default():
    source = (
        "class A:\n"
        "    def __init__(self, x, y=0, z=1):\n        pass\n"
        "    def m(self, a, b=2):\n        pass\n"
        "    @classmethod\n"
        "    def make(cls, v, w=3):\n        return cls(v, 1, z=w)\n"
        "    def __eq__(self, other, deep=False):\n        return True\n"
        "def f(p, q=None, *, r=1, s=2):\n    pass\n"
        "def g(p, q=1):\n    pass\n"
        "A.make(0)\n"
        "A(0).m(1)\n"
        "f(0, 1, s=3)\n"
        "g(*[1, 2])\n")
    tree = ast.parse(source)
    assert unset_defaults({"m": tree}, {"m": tree}) == [
        ("m", 4, "A.m(b)"), ("m", 7, "A.make(w)"), ("m", 11, "f(r)")]
    assert unset_defaults({"m": tree}, {"m": tree},
                          {"A.m(b)", "f(r)"}) == [("m", 7, "A.make(w)")]
    # a call naming another class does not reach A's method; one on an
    # unknown receiver reaches every method of the name
    other = ast.parse("class B:\n    pass\nB.m(1, 2)\n")
    assert unset_defaults({"m": tree, "o": other}, {"m": tree})[0] == (
        "m", 4, "A.m(b)")
    other = ast.parse("x.m(1, 2)\n")
    assert unset_defaults({"m": tree, "o": other}, {"m": tree})[0] == (
        "m", 7, "A.make(w)")
    # dropping y from the constructor call leaves it unset
    tree = ast.parse(source.replace("cls(v, 1, z=w)", "cls(v)"))
    assert unset_defaults({"m": tree}, {"m": tree})[:2] == [
        ("m", 2, "A(y)"), ("m", 2, "A(z)")]


def test_every_defaulted_parameter_is_set_by_some_call():
    sources = _parse_all(SCANNED)
    targets = {label: tree for label, tree in sources.items()
               if label.startswith("src/")}
    found = [f"{label}:{line}: {key}" for label, line, key
             in unset_defaults(sources, targets, DEFAULTS_KEPT)]
    assert found == [], "defaults no call sets:\n" + "\n".join(found)
    stale = sorted(set(DEFAULTS_KEPT) - {
        key for _label, _line, key in unset_defaults(sources, targets)})
    assert stale == [], "stale DEFAULTS_KEPT entries:\n" + "\n".join(stale)


def float_uses(source):
    """(line, what) for every float constant and ``float(...)`` call.

    The one exception is the degree sentinel ``NEG_INF = float("-inf")``:
    the zero polynomial's degree must compare below every integer.
    """
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["NEG_INF"]):
            allowed.update(id(sub) for sub in ast.walk(node.value))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...)"))
    return sorted(found)


def test_the_scan_finds_a_float():
    source = ('NEG_INF = float("-inf")\n'
              "x = 0.5\n"
              "y = float(3)\n"
              "z = [1, 2e3]\n")
    assert float_uses(source) == [(2, "0.5"), (3, "float(...)"),
                                  (4, "2000.0")]


def test_no_module_uses_a_float():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, what in float_uses(path.read_text(encoding="utf-8"))]
    assert found == [], "floats in the package:\n" + "\n".join(found)
