"""Shared helpers: group actions, random equivariant elements, and the
benchmark's input modules."""

import importlib
import random
import sys
from pathlib import Path

from klspoly.equivariant import (ClassPoly, EquivIncidenceElement, PermAction,
                                 perm_inv, perm_mul)
from klspoly.incidence import WeakRank
from klspoly.polynomial import Poly
from klspoly.poset import polygon


def dihedral_polygon_action(k):
    """The full dihedral group (order 2k) on the face lattice of a k-gon."""
    p = polygon(k)
    rot = [0] + [1 + (i + 1) % k for i in range(k)] \
        + [1 + k + (i + 1) % k for i in range(k)] + [p.n - 1]
    # reflection through vertex 0: vertices i -> -i, edge i -> -(i+1)
    ref = [0] + [1 + (-i) % k for i in range(k)] \
        + [1 + k + (-(i + 1)) % k for i in range(k)] + [p.n - 1]
    return PermAction(p, [tuple(rot), tuple(ref)])


def random_class_poly(stab, rng, max_deg=2, span=3):
    """Random polynomial-valued class function on a concrete subgroup."""
    values = {}
    remaining = set(stab)
    while remaining:
        u = min(remaining)
        cls = {perm_mul(perm_mul(x, u), perm_inv(x)) for x in stab}
        poly = Poly([rng.randint(-span, span)
                     for _ in range(rng.randint(1, max_deg + 1))])
        for v in cls:
            values[v] = poly
        remaining -= cls
    return ClassPoly(stab, values)


def random_equiv_element(action, weak_rank, rng, max_deg=2):
    """A random valid equivariant incidence element.

    Values are drawn freely on one representative of each interval orbit
    and transported to the rest of the orbit by conjugation, which is the
    only freedom the definition leaves.  Construction is re-validated by
    EquivIncidenceElement itself.
    """
    poset = action.poset
    vals = {}
    for (i, j) in sorted(poset.intervals()):
        if (i, j) in vals:
            continue
        cp = random_class_poly(action.stabilizer(i, j), rng, max_deg=max_deg)
        for w in action.elements:
            key = (w[i], w[j])
            if key in vals:
                continue
            stab = action.stabilizer(*key)
            winv = perm_inv(w)
            vals[key] = ClassPoly(
                stab,
                {u: cp.ev(perm_mul(perm_mul(winv, u), w)) for u in stab})
    return EquivIncidenceElement(action, weak_rank, vals)


def natural_weak_rank(action):
    return WeakRank.natural(action.poset)


def seeded_rng(seed):
    return random.Random(seed)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """A module of ``bench/``, imported with bytecode writing off, so that
    nothing under ``bench/`` is written."""
    sys.path.insert(0, str(BENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(BENCH))
