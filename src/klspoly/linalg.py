"""Exact rational linear algebra for the geometry modules.

Everything is over Fraction: Gaussian elimination, canonical span bases,
greedy basis extension, coordinate solves and characteristic polynomials.
Matrices are tuples of row tuples; vectors are tuples.  All outputs are
deterministic functions of the input order, which the geometry code relies
on (complement bases must be reproducible even though the invariants
computed from them are basis-independent).
"""

from fractions import Fraction

from .polynomial import Poly


def frac_vector(v):
    return tuple(Fraction(x) for x in v)


def frac_matrix(m):
    return tuple(frac_vector(row) for row in m)


def identity_matrix(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(frac_vector(r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                factor = mat[k][c]
                mat[k] = [x - factor * y for x, y in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat], pivots


def mat_rank(rows):
    _, pivots = rref(rows)
    return len(pivots)


def span_basis(vectors):
    """Canonical basis of the span: the nonzero rows of the reduced form."""
    reduced, pivots = rref(vectors)
    return [reduced[k] for k in range(len(pivots))]


def extend_basis(basis, candidates):
    """Greedily extend a basis by the first independent candidates.

    Returns the list of adopted candidate vectors (unreduced, in input
    order); basis + adopted spans basis + candidates.
    """
    current = [frac_vector(b) for b in basis]
    rank = mat_rank(current)
    adopted = []
    for v in candidates:
        v = frac_vector(v)
        trial = current + [v]
        r = mat_rank(trial)
        if r > rank:
            current = trial
            rank = r
            adopted.append(v)
    return adopted


def solve_linear(a, b):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    a = frac_matrix(a)
    b = frac_vector(b)
    if not a:
        return () if not any(b) else None
    ncols = len(a[0])
    augmented = [row + (bi,) for row, bi in zip(a, b)]
    reduced, pivots = rref(augmented)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][ncols]
    return tuple(x)


def express(basis, v):
    """Coordinates of v in the given basis (columns), or None."""
    if not basis:
        return () if not any(frac_vector(v)) else None
    columns = tuple(zip(*[frac_vector(b) for b in basis]))
    return solve_linear(columns, v)


def charpoly(m):
    """Characteristic polynomial det(tI - M), monic, exact.

    Faddeev-LeVerrier: only matrix products and traces, no elimination, so
    integer matrices give integer coefficients directly.
    """
    m = frac_matrix(m)
    n = len(m)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = identity_matrix(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        c = -trace(mk) / k
        coeffs[n - k] = c
        if k < n:
            mk = tuple(tuple(mk[i][j] + (c if i == j else 0)
                             for j in range(n)) for i in range(n))
    return Poly(coeffs)


def fixed_space_dim(m):
    """Dimension of the fixed space of a square matrix."""
    n = len(m)
    return n - mat_rank(mat_sub(frac_matrix(m), identity_matrix(n)))
