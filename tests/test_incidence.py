"""Incidence algebra: convolution, kernels, and the f/g/Z solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from klspoly.incidence import (CarrierMismatch, IncidenceElement,
                               MirrorConstraintViolated, NotInvertible,
                               WeakRank, convolve, delta, delta_op,
                               eulerian_kernel,
                               h_polynomial, hat, invert, is_multiplicative,
                               is_rank_alternating, is_unitriangular, rev,
                               solve_f, solve_g, toric_h_boundary,
                               validate_kernel, z_function)
from klspoly.polynomial import Poly
from klspoly.poset import (Poset, boolean_algebra, cross_polytope_face_lattice,
                           cube_face_lattice, direct_product, from_covers,
                           polygon)
from klspoly.schemas import (build_poset, fixture_path, load_fixture,
                             load_kernel_file)
from klspoly.status import VerificationFailure
from klspoly.verify import builder_corpus, square_fan_setup

B3 = boolean_algebra(3)
WR3 = WeakRank.natural(B3)
PAIRS3 = sorted(B3.intervals())

ONE_T = Poly([1, 1])


def rand_element(draw_ints, unitriangular):
    vals = {}
    k = 0
    for (i, j) in PAIRS3:
        if i == j:
            vals[(i, j)] = Poly([1]) if unitriangular else Poly(
                [draw_ints[k % len(draw_ints)] or 1])
        else:
            c0 = draw_ints[k % len(draw_ints)]
            c1 = draw_ints[(k + 1) % len(draw_ints)]
            vals[(i, j)] = Poly([c0, c1])
        k += 3
    return IncidenceElement(B3, WR3, vals)


int_lists = st.lists(st.integers(min_value=-4, max_value=4), min_size=5,
                     max_size=24)


@given(int_lists, int_lists, int_lists)
@settings(max_examples=50, deadline=None)
def test_convolution_is_associative_with_identity(a, b, c):
    p = rand_element(a, False)
    q = rand_element(b, False)
    r = rand_element(c, False)
    assert convolve(convolve(p, q), r) == convolve(p, convolve(q, r))
    d = delta(B3, WR3)
    assert convolve(d, p) == p and convolve(p, d) == p


@given(int_lists, int_lists)
@settings(max_examples=50, deadline=None)
def test_rev_and_hat_are_ring_antihomomorphism_and_homomorphism(a, b):
    p = rand_element(a, False)
    q = rand_element(b, False)
    # rev is multiplicative over the weak rank split
    assert rev(convolve(p, q)) == convolve(rev(p), rev(q))
    assert hat(convolve(p, q)) == convolve(hat(p), hat(q))
    assert rev(rev(p)) == p
    assert hat(hat(p)) == p


@given(int_lists)
@settings(max_examples=50, deadline=None)
def test_unitriangular_elements_invert(a):
    p = rand_element(a, True)
    pinv = invert(p)
    assert convolve(p, pinv) == delta(B3, WR3)
    assert convolve(pinv, p) == delta(B3, WR3)


def test_invert_requires_invertible_diagonal():
    vals = {(i, j): Poly([1]) for (i, j) in PAIRS3}
    vals[(0, 0)] = Poly([0, 1])  # diagonal value t has no constant term
    p = IncidenceElement(B3, WR3, vals)
    with pytest.raises(NotInvertible):
        invert(p)


def test_carriers_must_match():
    other = boolean_algebra(2)
    p = delta(B3, WR3)
    q = delta(other, WeakRank.natural(other))
    with pytest.raises(CarrierMismatch):
        convolve(p, q)


def _multiplicative_on_every_chain(kappa):
    poset = kappa.poset
    return all(kappa.value(i, w) * kappa.value(w, j) == kappa.value(i, j)
               for (i, j) in poset.intervals()
               for w in poset.elements_between(i, j))


@pytest.mark.parametrize("poset", [boolean_algebra(3), cube_face_lattice(3)],
                         ids=["boolean-3", "cube-3"])
def test_atom_multiplicativity_agrees_with_the_full_chain_check(poset):
    kappa = eulerian_kernel(poset)
    assert is_multiplicative(kappa) and _multiplicative_on_every_chain(kappa)
    for (i, j) in poset.intervals():
        for bad in (Poly([]), Poly([1]), kappa.value(i, j) * 2,
                    kappa.value(i, j) + Poly([0, 0, 1])):
            if bad == kappa.value(i, j):
                continue
            corrupted = IncidenceElement(poset, kappa.weak_rank,
                                         {**kappa.vals, (i, j): bad})
            res = is_multiplicative(corrupted)
            assert bool(res) == _multiplicative_on_every_chain(corrupted)
            assert not res
            a, w, b = res.witness
            assert (corrupted.value(a, w) * corrupted.value(w, b)
                    != corrupted.value(a, b))


def test_eulerian_kernel_properties():
    kappa = eulerian_kernel(B3)
    assert kappa.value(0, 7) == Poly([-1, 1]) ** 3
    assert validate_kernel(kappa)
    assert is_multiplicative(kappa)
    assert is_rank_alternating(kappa)
    assert is_unitriangular(kappa)
    # kernel inverse is the degree reversal
    assert invert(kappa) == rev(kappa)


def test_boolean_solvers_are_trivial():
    for n in range(1, 6):
        b = boolean_algebra(n)
        kappa = eulerian_kernel(b)
        g = solve_g(kappa)
        f = solve_f(kappa)
        assert all(g.value(i, j) == Poly([1]) for (i, j) in b.intervals())
        assert all(f.value(i, j) == Poly([1]) for (i, j) in b.intervals())
        z = z_function(kappa, g=g, f=f)
        assert z.value(b.bottom(), b.top()) == ONE_T ** n


def test_a_failed_z_identity_names_its_interval():
    # a g off by one at the top interval breaks g * kappa = rev(g) there
    kappa = eulerian_kernel(B3)
    top = (B3.bottom(), B3.top())
    vals = dict(solve_g(kappa).vals)
    vals[top] = vals[top] + Poly([1])
    g = IncidenceElement(B3, WR3, vals)
    with pytest.raises(VerificationFailure, match=r"on interval \(0, 7\)"
                       ) as info:
        z_function(kappa, g=g, f=solve_f(kappa))
    assert info.value.interval == top == (0, 7)


def test_solver_mirror_constraint_names_interval():
    # perturb two intervals of weak rank 2; the first in weak-rank order,
    # [{}, {1,3}], is named by both the left and the right solver
    kappa = eulerian_kernel(B3)
    vals = dict(kappa.vals)
    vals[(2, 7)] = Poly([2, -2, 1])
    vals[(0, 5)] = Poly([1, -3, 1])
    bad = IncidenceElement(B3, WR3, vals)
    for solver in (solve_g, solve_f):
        with pytest.raises(MirrorConstraintViolated) as err:
            solver(bad)
        assert err.value.interval == (0, 5)
        assert str(err.value) == ("mirror constraint fails on interval "
                                  "[{}, {1,3}] at middle degree 1: -1 != 0")


def test_polygon_and_cube_g_values():
    for k in range(3, 9):
        p = polygon(k)
        g = solve_g(eulerian_kernel(p))
        assert g.value(p.bottom(), p.top()) == Poly([1, k - 3])
    c = cube_face_lattice(3)
    g = solve_g(eulerian_kernel(c))
    assert g.value(c.bottom(), c.top()) == Poly([1, 4])


def test_h_polynomials():
    for n in range(1, 6):
        b = boolean_algebra(n)
        assert h_polynomial(b) == Poly([1])
        assert toric_h_boundary(b) == Poly([1] * n)
    # face poset of the 5-cycle complex (no adjoined top): h = 1 + 3t + t^2
    covers = [(0, 1 + v) for v in range(5)]
    for e in range(5):
        covers += [(1 + e, 6 + e), (1 + (e + 1) % 5, 6 + e)]
    cycle = from_covers(11, covers)
    assert h_polynomial(cycle) == Poly([1, 3, 1])


def test_z_symmetry_on_eulerian_posets():
    for poset in (boolean_algebra(3), polygon(6), cube_face_lattice(2)):
        kappa = eulerian_kernel(poset)
        z = z_function(kappa)
        assert rev(z) == z


def test_weak_rank_validation():
    wr = WeakRank.natural(B3)
    assert wr.validate()
    assert wr.value(0, 7) == 3
    # non-additive values are rejected at construction
    values = {pair: 1 if pair[0] != pair[1] else 0 for pair in PAIRS3}
    with pytest.raises(ValueError, match="not-additive"):
        WeakRank(B3, values)


SCALED_POSETS = {"boolean3": B3, "pentagon": polygon(5),
                 "cube3": cube_face_lattice(3)}
nonzero_rationals = st.fractions(min_value=-7, max_value=7,
                                 max_denominator=19).filter(bool)


def _scaled(element, c):
    """c^(rho(y) - rho(x)) times every value, coefficientwise in Fraction."""
    wr = element.weak_rank
    return IncidenceElement(element.poset, wr, {
        (i, j): Poly([x * c ** wr.value(i, j) for x in v.coeffs])
        for (i, j), v in element.vals.items()})


@given(nonzero_rationals, st.sampled_from(sorted(SCALED_POSETS)))
@settings(max_examples=12, deadline=None)
@example(c=Fraction(11, 17), name="cube3")
def test_scaled_kernel_scales_g_f_and_z(c, name):
    # kappa -> c^(rho(y) - rho(x)) kappa is an automorphism of the
    # incidence algebra that commutes with rev, so g, f and Z scale alike
    kappa = eulerian_kernel(SCALED_POSETS[name])
    kappa_c = _scaled(kappa, c)
    g, f = solve_g(kappa), solve_f(kappa)
    g_c, f_c = solve_g(kappa_c), solve_f(kappa_c)
    assert g_c == _scaled(g, c)
    assert f_c == _scaled(f, c)
    assert z_function(kappa_c, g_c, f_c) == _scaled(z_function(kappa, g, f), c)


# -- one row of g, one column of f ---------------------------------------------

LINE_POSETS = builder_corpus() + [
    ("boolean-6", boolean_algebra(6)), ("cube-4", cube_face_lattice(4)),
    ("cross-4", cross_polytope_face_lattice(4)),
    ("polygon-12xboolean-2", direct_product(polygon(12), boolean_algebra(2)))]
EULERIAN_CORPUS = [(name, p) for name, p in builder_corpus() if p.is_eulerian()]


@pytest.mark.parametrize("c", [1, Fraction(11, 13)], ids=["eulerian", "c=11/13"])
@pytest.mark.parametrize("poset", [p for _name, p in LINE_POSETS],
                         ids=[name for name, _p in LINE_POSETS])
def test_each_line_equals_the_full_solve(poset, c):
    # rev(g) = g * kappa stays inside a row and rev(f) = kappa * f inside a
    # column, so a line alone, or its part inside an interval, is the full
    # solve's values there; c = 11/13 solves with Fraction operands
    kappa = _scaled(eulerian_kernel(poset), c)
    g, f = solve_g(kappa), solve_f(kappa)
    elements = range(poset.n)
    for x in elements:
        assert solve_g(kappa, row=x) == g.select(
            [(x, y) for y in elements if poset.leq(x, y)])
        assert solve_f(kappa, column=x) == f.select(
            [(w, x) for w in elements if poset.leq(w, x)])
    for (x, y) in poset.intervals():
        inside = poset.elements_between(x, y)
        assert solve_g(kappa, row=(x, y)) == g.select([(x, w) for w in inside])
        assert solve_f(kappa, column=(x, y)) == f.select(
            [(w, y) for w in inside])


def _dual(poset):
    """The order dual, ranked by max(rho) - rho."""
    top = max(poset.rank)
    return Poset(poset.down, labels=poset.labels,
                 rank=[top - r for r in poset.rank])


@pytest.mark.parametrize("poset", [p for _name, p in EULERIAN_CORPUS],
                         ids=[name for name, _p in EULERIAN_CORPUS])
def test_the_column_of_f_is_the_row_of_g_on_the_dual(poset):
    # f_P(x, 1) = g_{P*}(1, x) for the Eulerian kernel: the right-sided
    # recursion on P against the left-sided one on the order dual
    top = poset.top()
    f = solve_f(eulerian_kernel(poset), column=top)
    g = solve_g(eulerian_kernel(_dual(poset)), row=top)
    for x in range(poset.n):
        assert f.value(x, top) == g.value(top, x)


def test_a_row_names_the_mirror_failure_of_the_full_solve():
    b3 = build_poset(load_fixture("boolean3.json", expect="poset")[1])
    kappa = load_kernel_file(fixture_path("corrupted_kernel_b3.json"), b3)
    with pytest.raises(MirrorConstraintViolated) as full:
        solve_g(kappa)
    with pytest.raises(MirrorConstraintViolated) as row:
        solve_g(kappa, row=0)
    assert row.value.interval == full.value.interval == (0, 3)
    assert str(row.value) == str(full.value)


# -- naive Fraction references for the sum-of-products loops -----------------
# Each reference runs the triple loop i <= w <= j over all elements with
# Fraction coefficient lists, sharing nothing with the package's arithmetic.

REFERENCE_POSETS = {"boolean3": B3, "pentagon": polygon(5),
                    "cube3": cube_face_lattice(3)}
REFERENCE_RANKS = {name: WeakRank.natural(p)
                   for name, p in REFERENCE_POSETS.items()}


def _fr(poly):
    return [Fraction(c) for c in poly.coeffs]


def _add(a, b):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
            for k in range(n)]


def _mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _table(element):
    """Every interval's value as a Fraction list (empty for zero)."""
    return {pair: _fr(element.vals[pair]) if pair in element.vals else []
            for pair in element.poset.intervals()}


def _by_rank(poset, wr):
    return sorted(poset.intervals(), key=lambda p: (wr.value(*p), p))


def _between(poset, i, j):
    return [w for w in range(poset.n) if poset.leq(i, w) and poset.leq(w, j)]


def ref_convolve(a, b):
    ta, tb = _table(a), _table(b)
    out = {}
    for (i, j) in a.poset.intervals():
        acc = []
        for w in _between(a.poset, i, j):
            acc = _add(acc, _mul(ta[(i, w)], tb[(w, j)]))
        out[(i, j)] = _trim(acc)
    return out


def ref_invert(p):
    t = _table(p)
    poset = p.poset
    q = {}
    for (i, j) in _by_rank(poset, p.weak_rank):
        if i == j:
            q[(i, j)] = t[(i, i)]
            continue
        acc = []
        for w in _between(poset, i, j):
            if w != j:
                acc = _add(acc, _mul(q[(i, w)], t[(w, j)]))
        q[(i, j)] = [-c * t[(j, j)][0] for c in acc]
    return {pair: _trim(v) for pair, v in q.items()}


def ref_solve(kappa, left):
    """g (left=True: rev g = g kappa) or f (rev f = kappa f)."""
    t = _table(kappa)
    poset, wr = kappa.poset, kappa.weak_rank
    out = {}
    for (i, j) in _by_rank(poset, wr):
        if i == j:
            out[(i, j)] = [Fraction(1)]
            continue
        acc = []
        for w in _between(poset, i, j):
            if left and w != j:
                acc = _add(acc, _mul(out[(i, w)], t[(w, j)]))
            elif not left and w != i:
                acc = _add(acc, _mul(t[(i, w)], out[(w, j)]))
        out[(i, j)] = [-c for c in acc[: (wr.value(i, j) - 1) // 2 + 1]]
    return {pair: _trim(v) for pair, v in out.items()}


def _agrees(element, reference):
    assert {pair: v.coeffs for pair, v in element.vals.items()} == {
        pair: v for pair, v in reference.items() if v}
    return True


def _well_formed(element):
    """Only interval keys and nonzero canonical Poly values."""
    intervals = element.poset.intervals()
    for (i, j), v in element.vals.items():
        assert intervals.contains(i, j)
        assert type(v) is Poly and v
        assert v == Poly(v.coeffs)
    return True


def _coefficient(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4, 5, 6)))


def random_element(poset, wr, rng, diagonal=None):
    """Random values on about two thirds of the intervals; the diagonal is
    ``diagonal(rng)`` when given."""
    vals = {}
    for (i, j) in poset.intervals():
        if i == j and diagonal is not None:
            vals[(i, j)] = Poly([diagonal(rng)])
        elif rng.random() < 0.65:
            vals[(i, j)] = Poly([_coefficient(rng)
                                 for _ in range(rng.randint(1, 3))])
    return IncidenceElement(poset, wr, vals)


def random_kernel(poset, rng):
    """The Eulerian kernel rescaled by c^r(x, y) phi(y) / phi(x).

    Both factors are multiplicative along chains, so the rescaling is an
    algebra automorphism commuting with rev, and the result is a kernel
    whose values carry assorted denominators.
    """
    kappa = eulerian_kernel(poset)
    wr = kappa.weak_rank
    c = Fraction(rng.choice((-3, -2, 2, 5)), rng.choice((1, 3, 7)))
    phi = [Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2, 5)))
           for _ in range(poset.n)]
    return IncidenceElement(poset, wr, {
        (i, j): Poly([x * c ** wr.value(i, j) * phi[j] / phi[i]
                      for x in v.coeffs])
        for (i, j), v in kappa.vals.items()})


seeds = st.integers(min_value=0, max_value=2 ** 32)


@given(st.sampled_from(sorted(REFERENCE_POSETS)), seeds)
@settings(max_examples=15, deadline=None)
@example(name="cube3", seed=0)
def test_convolve_and_invert_match_a_fraction_reference(name, seed):
    poset, wr = REFERENCE_POSETS[name], REFERENCE_RANKS[name]
    rng = random.Random(seed)
    a = random_element(poset, wr, rng)
    b = random_element(poset, wr, rng)
    product = convolve(a, b)
    assert _well_formed(product) and _agrees(product, ref_convolve(a, b))
    p = random_element(poset, wr, rng, diagonal=lambda r: r.choice((1, -1)))
    inverse = invert(p)
    assert _well_formed(inverse) and _agrees(inverse, ref_invert(p))


@given(st.sampled_from(sorted(REFERENCE_POSETS)), seeds)
@settings(max_examples=10, deadline=None)
@example(name="cube3", seed=0)
def test_solvers_match_a_fraction_reference(name, seed):
    kappa = random_kernel(REFERENCE_POSETS[name], random.Random(seed))
    g, f = solve_g(kappa), solve_f(kappa)
    assert _well_formed(g) and _agrees(g, ref_solve(kappa, left=True))
    assert _well_formed(f) and _agrees(f, ref_solve(kappa, left=False))
    assert rev(g) == convolve(g, kappa) and rev(f) == convolve(kappa, f)


@given(st.sampled_from(sorted(REFERENCE_POSETS)), seeds)
@settings(max_examples=10, deadline=None)
def test_every_algebra_result_is_well_formed(name, seed):
    poset, wr = REFERENCE_POSETS[name], REFERENCE_RANKS[name]
    rng = random.Random(seed)
    a = random_element(poset, wr, rng)
    b = random_element(poset, wr, rng)
    kappa = random_kernel(poset, rng)
    results = [a + b, a - b, a - a, -a, a * b, a.scale(0), a.scale(Fraction(1, 2)),
               a.select([(i, j) for (i, j) in poset.intervals() if (i + j) % 2]),
               rev(kappa), hat(kappa),
               delta_op(kappa), solve_g(kappa), solve_f(kappa),
               invert(kappa), z_function(kappa)]
    assert all(_well_formed(e) for e in results)
    assert (a - a).vals == {} and a.scale(0).vals == {}


def test_convolve_mixes_integer_and_rational_operands():
    rng = random.Random(7)
    for name in ("boolean3", "cube3"):
        poset, wr = REFERENCE_POSETS[name], REFERENCE_RANKS[name]
        integer = eulerian_kernel(poset)
        rational = random_element(poset, wr, rng)
        assert any(v.den != 1 for v in rational.vals.values())
        for a, b in ((integer, rational), (rational, integer)):
            product = convolve(a, b)
            assert _well_formed(product) and _agrees(product, ref_convolve(a, b))


def test_convolve_drops_cancelled_sums_and_reduces_the_rest():
    # in B3, {1} = 1 and {2} = 2 are the two elements of [{}, {1,2}] = [0, 3]
    b = IncidenceElement(B3, WR3, {(1, 1): Poly([1]), (2, 2): Poly([1]),
                                   (1, 3): Poly([1]), (2, 3): Poly([3])})
    cancel = IncidenceElement(B3, WR3, {(0, 1): Poly([0, "1/2"]),
                                        (0, 2): Poly([0, "-1/6"])})
    product = convolve(cancel, b)
    assert product.vals == {(0, 1): Poly([0, "1/2"]), (0, 2): Poly([0, "-1/6"])}
    halves = IncidenceElement(B3, WR3, {(0, 1): Poly(["1/2"]),
                                        (0, 2): Poly(["1/6"])})
    product = convolve(halves, b)
    one = product.vals[(0, 3)]
    assert one == Poly([1]) and one.num == (1,) and one.den == 1
    for a in (cancel, halves):
        assert _well_formed(convolve(a, b))
        assert _agrees(convolve(a, b), ref_convolve(a, b))


def test_natural_weak_rank_equals_the_checked_construction():
    for poset in (B3, polygon(5), cube_face_lattice(3)):
        rho = poset.rank
        checked = WeakRank(poset, {(i, j): rho[j] - rho[i]
                                   for (i, j) in poset.intervals()})
        assert WeakRank.natural(poset) == checked
    # a strictly increasing rank that skips a step is still checked
    skipping = from_covers(3, [(0, 1), (1, 2)], rank=[0, 2, 3])
    assert not skipping.validate_rank(skipping.rank)
    assert WeakRank.natural(skipping).value(0, 2) == 3
    flat = from_covers(3, [(0, 1), (1, 2)], rank=[0, 1, 1])
    with pytest.raises(ValueError) as err:
        WeakRank.natural(flat)
    assert str(err.value) == ("invalid weak rank: not-positive; "
                              "witness=(1, 2); value 0 on strict interval")


def test_restrict_equals_the_checked_construction_on_every_fixed_poset():
    _fan, faction, kappa = square_fan_setup()
    action, wr = faction.action, kappa.weak_rank
    for w in action.elements:
        sub, emb, _pos = action.fixed_poset(w)
        checked = WeakRank(sub, {(a, b): wr.value(emb[a], emb[b])
                                 for (a, b) in sub.intervals()})
        restricted = wr.restrict(sub, emb)
        assert restricted == checked
        assert hash(restricted) == hash(checked)
        assert restricted.order() == checked.order()
        assert all(restricted.value(a, b) == checked.value(a, b)
                   for (a, b) in sub.intervals())


def test_a_shifted_rank_vector_is_the_same_weak_rank():
    # the upper set of an atom keeps the ambient ranks 1..3, while its own
    # natural rank starts at 0
    upper, emb = B3.upper_set(1)
    restricted = WR3.restrict(upper, emb)
    natural = WeakRank.natural(upper)
    assert restricted.rho == (1, 2, 2, 3) and natural.rho == (0, 1, 1, 2)
    assert restricted == natural and hash(restricted) == hash(natural)
    assert restricted != WeakRank(upper, {
        (a, b): 2 * natural.value(a, b) for (a, b) in upper.intervals()})


def test_a_natural_weak_rank_does_not_walk_the_chains():
    skipping = from_covers(3, [(0, 1), (1, 2)], rank=[0, 2, 3])
    assert WeakRank.natural(skipping).value(0, 2) == 3
    assert skipping.intervals()._between is None


@pytest.mark.parametrize("edit, message", [
    (lambda values: values.pop((2, 6)),
     "weak rank missing on interval (2, 6)"),
    (lambda values: values.update({(3, 3): 1}),
     "invalid weak rank: diagonal; witness=(3, 3)"),
    (lambda values: values.update({(1, 3): 0}),
     "invalid weak rank: not-positive; witness=(1, 3); "
     "value 0 on strict interval"),
    (lambda values: values.update({(1, 3): 2}),
     "invalid weak rank: not-additive; witness=(0, 1, 3); 1 + 2 != 2"),
], ids=["missing", "diagonal", "not-positive", "not-additive"])
def test_the_checked_construction_names_its_refusal(edit, message):
    values = {(i, j): WR3.value(i, j) for (i, j) in PAIRS3}
    edit(values)
    with pytest.raises(ValueError) as err:
        WeakRank(B3, values)
    assert str(err.value) == message


def test_scaling_by_an_unsupported_type_names_the_type():
    a = eulerian_kernel(B3)
    with pytest.raises(TypeError, match="by a str$"):
        a.scale("1/2")
    with pytest.raises(TypeError, match="by a float$"):
        a.scale(0.5)
    assert a.scale(Poly([2])) == a.scale(2)


def test_the_public_constructor_still_checks_its_keys():
    with pytest.raises(ValueError, match="not an interval"):
        IncidenceElement(B3, WR3, {(7, 0): Poly([1])})
    assert IncidenceElement(B3, WR3, {(0, 7): Poly()}).vals == {}
