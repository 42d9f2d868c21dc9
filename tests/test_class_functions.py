"""The class-function contract of ClassPoly and the per-class solvers."""

from fractions import Fraction

import pytest

from klspoly import equivariant
from klspoly.equivariant import ClassPoly, equiv_solve_g, perm_inv, perm_mul
from klspoly.incidence import solve_g
from klspoly.polynomial import Poly
from klspoly.verify import hexagon_dihedral_setup, square_fan_setup

from conftest import dihedral_polygon_action, random_class_poly, seeded_rng


def _brute_induce(cp, group):
    """Averaged conjugation: (1/|H|) sum of f(x^-1 g x) over x in G with
    the conjugate in H."""
    out = {}
    for g in group:
        total = Poly([])
        for x in group:
            conj = perm_mul(perm_mul(perm_inv(x), g), x)
            if conj in cp.group.elements:
                total = total + cp.ev(conj)
        out[g] = total * Fraction(1, len(cp.group))
    return out


def _setups():
    _fan, faction, _kappa = square_fan_setup()
    return {"hexagon-d6": dihedral_polygon_action(6),
            "square-fan-z4": faction.action}


@pytest.mark.parametrize("name", ["hexagon-d6", "square-fan-z4"])
def test_induce_agrees_with_averaged_conjugation(name):
    act = _setups()[name]
    whole = act.stabilizer()
    rng = seeded_rng(7)
    subgroups = {act.stabilizer(z) for z in range(act.poset.n)}
    subgroups |= {act.stabilizer(i, j) for (i, j) in act.poset.intervals()}
    assert len(subgroups) >= 2
    for sub in sorted(subgroups, key=lambda h: sorted(h.elements)):
        for _ in range(3):
            cp = random_class_poly(sub, rng)
            induced = cp.induce(whole)
            expected = _brute_induce(cp, whole)
            assert {g: induced.ev(g) for g in whole} == expected


def test_class_poly_constructor_rejects_non_class_functions():
    act = dihedral_polygon_action(6)
    whole = act.stabilizer()
    values = {w: Poly([1]) for w in whole}
    rotation = next(w for w in act.generators if w[1] == 2)
    values[rotation] = Poly([2])  # r differs from its conjugate r^-1
    with pytest.raises(ValueError, match="not constant"):
        ClassPoly(whole, values)
    vertex = act.stabilizer(1)
    outside = {w: Poly([1]) for w in vertex}
    outside[rotation] = Poly([1])
    with pytest.raises(ValueError, match="outside the carrier"):
        ClassPoly(vertex, outside)
    missing = {w: Poly([1]) for w in whole if w != act.identity}
    with pytest.raises(ValueError, match="missing value"):
        ClassPoly(whole, missing)
    # one value per class representative is enough
    assert ClassPoly(whole, {r: Poly([1]) for r in whole.reps}) \
        == ClassPoly.constant(whole, Poly([1]))


def test_solve_g_runs_once_per_whole_group_class(monkeypatch):
    # conjugate elements have isomorphic fixed posets: one solve per class
    # of the whole group serves every stabilizer class representative in it
    _triple, action, kappa = hexagon_dihedral_setup()
    assert len(action) == 12
    reps = {w for (i, j) in action.poset.intervals()
            for w in action.stabilizer(i, j).reps}
    classes = set(action.stabilizer().reps)
    calls = []

    def counting_solve_g(p):
        calls.append(p)
        return solve_g(p)

    monkeypatch.setattr(equivariant, "solve_g", counting_solve_g)
    equiv_solve_g(kappa)
    assert len(calls) == len(classes) == 6 < len(reps) == 10
