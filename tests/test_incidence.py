"""Incidence algebra: convolution, kernels, and the f/g/Z solvers."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from klspoly.incidence import (CarrierMismatch, IncidenceElement,
                               MirrorConstraintViolated, NotInvertible,
                               WeakRank, convolve, delta, eulerian_kernel,
                               h_polynomial, hat, invert, is_multiplicative,
                               is_rank_alternating, is_unitriangular, rev,
                               solve_f, solve_g, toric_h_boundary,
                               validate_kernel, z_function)
from klspoly.polynomial import Poly
from klspoly.poset import (boolean_algebra, cube_face_lattice, from_covers,
                           polygon)

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


def test_solver_mirror_constraint_names_interval():
    kappa = eulerian_kernel(B3)
    vals = dict(kappa.vals)
    vals[(0, 3)] = Poly([2, -2, 1])  # perturb one strict interval
    bad = IncidenceElement(B3, WR3, vals)
    with pytest.raises(MirrorConstraintViolated) as err:
        solve_g(bad)
    assert err.value.interval in set(PAIRS3)
    z, zp = err.value.interval
    assert B3.labels[z] in str(err.value) and B3.labels[zp] in str(err.value)


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
