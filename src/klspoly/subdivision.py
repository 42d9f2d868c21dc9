"""Strong formal subdivisions, mapping cylinders, and local invariants.

A strong formal subdivision sigma: X -> Y between lower Eulerian posets is
an order-preserving, rank-increasing, strongly surjective map whose fibers
satisfy a signed-count condition.  Such maps correspond bijectively to
triples (Gamma, rho, q): Gamma a lower Eulerian poset, rho a rank function,
q a join-admissible element above the minimum.  The cylinder direction
glues X below Y along sigma; the inverse direction splits Gamma at q.
A triple makes that split once: it holds the intervals of its X x X,
X x Y and Y x Y blocks, and every mask over an incidence element is a
``select`` over one of them.

Given a kernel kappa on the cylinder, the local h-polynomial h_sigma and
local invariant ell_sigma of the subdivision are defined on mixed
X-to-Y intervals by

    (t - 1) h_sigma = g * (kappa restricted to the pairs (x, sigma(x)))
    ell_sigma = h_sigma * g^{-1}

and Delta ell_sigma recovers the mixed block of g itself; the checkers
here verify that and its f/Z companions by two disjoint code paths.

g, f and Z depend on the kernel alone, not on q, so every triple on the
same Gamma shares them.  solve_kernel(kappa), the gate of the local
theory, checks once that kappa is multiplicative, unit-diagonal, within
the weak rank and rank-alternating, and returns a KernelSolution: g and
its inverse, with f and Z (the Z identities and symmetry verified) solved
on first use.  local_invariants and the check_* functions accept either a
raw kernel, solved on entry, or a KernelSolution shared across triples;
the per-triple identities run on every call either way.  Plain and
equivariant local invariants share LocalInvariants.  relative_g solves
its lattice's Eulerian kernel once and reads that solution on both of
its routes.
"""

from __future__ import annotations

from .incidence import (
    IncidenceElement,
    _elements_agree,
    convolve,
    delta_op,
    eulerian_kernel,
    hat,
    invert,
    is_in_truncated,
    is_multiplicative,
    is_rank_alternating,
    is_unitriangular,
    rev,
    solve_f,
    solve_g,
    z_function,
)
from .polynomial import ZERO, poly_div_t_minus_1, poly_dot, poly_rev
from .poset import Poset, bits, direct_product, segment_subdivision
from .status import CheckResult, InputError, json_int


class SubdivisionError(InputError):
    """A subdivision, triple, or local-invariant contract was violated."""


class KernelRejected(SubdivisionError):
    """solve_kernel refused a kernel that lacks a required property.

    ``result`` is the failed check, its witness the offending chain or
    interval.  Its reason is "diagonal" or "degree" as validate_kernel
    reports them, or names the property ``prop`` the kernel lacks:
    "kernel-not-multiplicative" or "kernel-not-rank-alternating".
    """

    def __init__(self, res, prop=None):
        super().__init__(f"kernel is not {prop}: {res.describe()}" if prop
                         else f"kernel rejected: {res.describe()}")
        self.result = res if prop is None else CheckResult.failed(
            "kernel-not-" + prop.replace(" ", "-"), witness=res.witness,
            detail=res.detail)


class StrongFormalSubdivision:
    """A map sigma: X -> Y between ranked lower Eulerian posets.

    X and Y are ranked: each Poset.rank is the vector it was given or its
    natural rank.  Given ranks need not be zero at the bottom, and the
    relative shift between them is meaningful.  sigma is stored as a tuple
    indexed by X elements.
    """

    __slots__ = ("X", "Y", "sigma")

    def __init__(self, X, Y, sigma):
        if X.rank is None or Y.rank is None:
            raise SubdivisionError("both posets must carry rank vectors")
        sigma = tuple(json_int(s, "sigma entry", SubdivisionError)
                      for s in sigma)
        if len(sigma) != X.n:
            raise SubdivisionError("sigma must assign a target to every element of X")
        if any(not 0 <= s < Y.n for s in sigma):
            raise SubdivisionError("sigma values out of range")
        self.X = X
        self.Y = Y
        self.sigma = sigma

    def __repr__(self):
        return f"StrongFormalSubdivision({self.X!r} -> {self.Y!r})"

    def validate(self):
        """Check the four defining conditions; the failure reason names the
        condition and the witness gives the offending elements."""
        X, Y, sigma = self.X, self.Y, self.sigma
        res = X.is_lower_eulerian()
        if not res:
            return CheckResult.failed("source-not-lower-eulerian", detail=res.describe())
        res = Y.is_lower_eulerian()
        if not res:
            return CheckResult.failed("target-not-lower-eulerian", detail=res.describe())
        for x in range(X.n):
            for x2 in bits(X.up[x]):
                if not Y.leq(sigma[x], sigma[x2]):
                    return CheckResult.failed("order-preserving", witness=(x, x2))
        for x in range(X.n):
            if X.rank[x] > Y.rank[sigma[x]]:
                return CheckResult.failed(
                    "rank-increasing", witness=x,
                    detail=f"rho_X = {X.rank[x]} > rho_Y(sigma) = {Y.rank[sigma[x]]}")
        hit = set(sigma)
        if len(hit) != Y.n:
            missing = next(y for y in range(Y.n) if y not in hit)
            return CheckResult.failed("strongly-surjective", witness=missing,
                                      detail="sigma is not surjective")
        for x in range(X.n):
            for y in bits(Y.up[sigma[x]]):
                found = False
                signed = 0
                for x2 in bits(X.up[x]):
                    if sigma[x2] == y:
                        if X.rank[x2] == Y.rank[y]:
                            found = True
                        signed += 1 if (Y.rank[y] - X.rank[x2]) % 2 == 0 else -1
                if not found:
                    return CheckResult.failed("strongly-surjective", witness=(x, y))
                if signed != 1:
                    return CheckResult.failed("signed-count", witness=(x, y),
                                              detail=f"signed fiber count {signed} != 1")
        return CheckResult.passed()


class SubdivisionTriple:
    """(Gamma, rho, q): a ranked lower Eulerian poset with a distinguished
    non-minimal element whose join with every element exists.

    All invariants are enforced at construction.  X = elements not above q,
    Y = elements above q, sigma(x) = x v q; the triple holds the intervals
    of its X x X, X x Y and Y x Y blocks in interval order, and every mask
    is a ``select`` over one of them.
    """

    __slots__ = ("gamma", "q", "_sigma_of", "_xx", "_xy", "_yy")

    def __init__(self, gamma, q):
        res = gamma.is_lower_eulerian()
        if not res:
            raise SubdivisionError(f"poset is not lower Eulerian: {res.describe()}")
        q = json_int(q, "q", SubdivisionError)
        if not 0 <= q < gamma.n:
            raise SubdivisionError("q out of range")
        if q == gamma.bottom():
            raise SubdivisionError("q must differ from the minimum")
        sigma_of = {}
        for z in range(gamma.n):
            if gamma.leq(q, z):
                continue
            j = gamma.join(z, q)
            if j is None:
                raise SubdivisionError(f"q is not join-admissible: no join of "
                                       f"{gamma.labels[z]} and {gamma.labels[q]}")
            sigma_of[z] = j
        # X, the key set of sigma_of, is a lower set: (i, j) lies in X x X
        # when j is in X, and in Y x Y when i is in Y
        pairs = gamma.intervals()
        self._xx = tuple(p for p in pairs if p[1] in sigma_of)
        self._xy = tuple(p for p in pairs
                         if p[0] in sigma_of and p[1] not in sigma_of)
        self._yy = tuple(p for p in pairs if p[0] not in sigma_of)
        self.gamma = gamma
        self.q = q
        self._sigma_of = sigma_of

    def __repr__(self):
        return f"SubdivisionTriple({self.gamma!r}, q={self.gamma.labels[self.q]})"

    def sigma_of(self, x):
        """The join x v q, for x in the X part."""
        return self._sigma_of[x]

    # -- masks over incidence elements -------------------------------------
    # Each mask works on ordinary and equivariant elements alike.

    def mask_xy(self, p):
        """Restrict to intervals with lower end in X and upper end in Y."""
        return p.select(self._xy)

    def mask_xx(self, p):
        return p.select(self._xx)

    def mask_yy(self, p):
        return p.select(self._yy)

    def mask_interior(self, p):
        """Restrict to the pairs (x, sigma(x)); only X elements have one."""
        return p.select(self._sigma_of.items())

    def xy_pairs(self):
        """The X x Y intervals, in the poset's interval order."""
        return self._xy

    def to_json(self):
        return {"poset": self.gamma.to_json(), "q": self.q}

    @classmethod
    def from_json(cls, payload):
        return cls(Poset.from_json(payload["poset"]), payload["q"])


def triple_to_sfs(triple):
    """Split a triple into the subdivision it encodes.

    X = elements not above q (rank inherited), Y = elements above q (rank
    inherited minus one), sigma(x) = x v q.
    """
    gamma = triple.gamma
    xpos, xemb = gamma.lower_complement(triple.q)
    ypos, yemb = gamma.upper_set(triple.q)
    xpos = xpos.with_rank([gamma.rank[z] for z in xemb])
    ypos = ypos.with_rank([gamma.rank[z] - 1 for z in yemb])
    yindex = {z: k for k, z in enumerate(yemb)}
    sigma = [yindex[triple.sigma_of(z)] for z in xemb]
    return StrongFormalSubdivision(xpos, ypos, sigma)


def mapping_cylinder(sfs):
    """Glue X under Y along sigma and return the resulting triple.

    Elements of X keep their rank; elements of Y are shifted up by one;
    x <= y exactly when sigma(x) <= y.  The result is validated lower
    Eulerian with q = the minimum of Y (loud failure otherwise).
    """
    X, Y, sigma = sfs.X, sfs.Y, sfs.sigma
    nx = X.n
    up = []
    for x in range(nx):
        m = X.up[x]
        ymask = Y.up[sigma[x]]
        up.append(m | (ymask << nx))
    for y in range(Y.n):
        up.append(Y.up[y] << nx)
    labels = [f"X:{l}" for l in X.labels] + [f"Y:{l}" for l in Y.labels]
    rank = list(X.rank) + [r + 1 for r in Y.rank]
    gamma = Poset(up, labels, rank)
    q = nx + Y.bottom()
    return SubdivisionTriple(gamma, q)


class KernelSolution:
    """A kernel solved once, for every triple on its carrier.

    Built by solve_kernel, which checks that kappa is multiplicative and
    rank-alternating and solves g and its inverse.  f and Z are solved on
    first access and kept on this instance; Z goes through z_function, so
    its defining identities and its symmetry are verified once per kernel.
    """

    __slots__ = ("kappa", "g", "g_inv", "_f", "_z")

    def __init__(self, kappa, g, g_inv):
        self.kappa = kappa
        self.g = g
        self.g_inv = g_inv
        self._f = None
        self._z = None

    def __repr__(self):
        return f"KernelSolution(on {self.kappa.poset!r})"

    @property
    def poset(self):
        return self.kappa.poset

    @property
    def weak_rank(self):
        return self.kappa.weak_rank

    @property
    def f(self):
        if self._f is None:
            self._f = solve_f(self.kappa)
        return self._f

    @property
    def z(self):
        if self._z is None:
            self._z = z_function(self.kappa, g=self.g, f=self.f)
        return self._z


def solve_kernel(kappa):
    """Check and solve a kernel once; a KernelSolution passes through.

    kappa must be multiplicative, unit-diagonal, of degree at most the
    weak rank and rank-alternating, checked in that order; KernelRejected
    names the first failure's chain or interval.  MirrorConstraintViolated
    propagates from the g solver.
    """
    if isinstance(kappa, KernelSolution):
        return kappa
    for check, prop in ((is_multiplicative, "multiplicative"),
                        (is_unitriangular, None), (is_in_truncated, None),
                        (is_rank_alternating, "rank alternating")):
        res = check(kappa)
        if not res:
            raise KernelRejected(res, prop)
    g = solve_g(kappa)
    return KernelSolution(kappa, g, invert(g))


class LocalInvariants:
    """h_sigma, ell_sigma and Delta ell_sigma of a subdivision, plus the g
    they were computed from, on the cylinder: plain or equivariant."""

    __slots__ = ("triple", "g", "h_sigma", "ell_sigma", "delta_ell")

    def __init__(self, triple, g, h_sigma, ell_sigma, delta_ell):
        self.triple = triple
        self.g = g
        self.h_sigma = h_sigma
        self.ell_sigma = ell_sigma
        self.delta_ell = delta_ell

    def __repr__(self):
        return f"LocalInvariants(on {self.triple!r})"


def local_invariants(triple, weak_rank, kappa):
    """Compute h_sigma, ell_sigma, Delta ell_sigma on the cylinder.

    kappa is a kernel or its KernelSolution; a raw kernel is checked and
    solved by solve_kernel.  Its carrier must be the triple's poset with
    this weak rank.  The division by (t - 1) is exact for such kernels and
    NotDivisible propagates if the input data is inconsistent.

    Structural facts are verified before returning: degrees stay below the
    interval weak rank, ell is symmetric, h and ell agree on the pairs
    (x, sigma(x)), and the lowest coefficients match the kernel's top
    coefficient on the interior pairs.
    """
    gamma = triple.gamma
    if kappa.poset != gamma or kappa.weak_rank != weak_rank:
        raise SubdivisionError("kernel carrier does not match the triple")
    solution = solve_kernel(kappa)
    kappa, g = solution.kappa, solution.g
    kappa_interior = triple.mask_interior(kappa)
    h_sigma = IncidenceElement._unchecked(gamma, weak_rank, {
        pair: poly_div_t_minus_1(poly)
        for pair, poly in convolve(g, kappa_interior).vals.items()})
    ell_sigma = convolve(h_sigma, solution.g_inv)
    delta_ell = delta_op(ell_sigma)

    rho = weak_rank.rho
    h_vals, ell_vals, kappa_vals = h_sigma.vals, ell_sigma.vals, kappa.vals
    for (i, j) in triple.xy_pairs():
        r = rho[j] - rho[i]
        hv = h_vals.get((i, j), ZERO)
        lv = ell_vals.get((i, j), ZERO)
        if hv.degree > r - 1 or lv.degree > r - 1:
            raise SubdivisionError(f"local invariant degree exceeds {r - 1} on ({i}, {j})")
        if poly_rev(lv, r - 1) != lv:
            raise SubdivisionError(f"ell is not symmetric on ({i}, {j}): {lv!r}")
        kr = kappa_vals.get((i, j), ZERO).coeff(r)
        if triple.sigma_of(i) == j:
            if hv != lv:
                raise SubdivisionError(f"h != ell on interior pair ({i}, {j})")
            if lv.coeff(0) != kr:
                raise SubdivisionError(f"ell constant term != kernel top on ({i}, {j})")
        else:
            if lv.coeff(0) != 0:
                raise SubdivisionError(f"ell constant term nonzero on ({i}, {j})")
        if hv.coeff(0) != kr:
            raise SubdivisionError(f"h constant term != kernel top on ({i}, {j})")
    return LocalInvariants(triple, g, h_sigma, ell_sigma, delta_ell)


# The three identities below use only the algebra operations (*, + and
# unary -) and the triple's masks, so they check ordinary incidence
# elements and equivariant ones alike.  Delta ell lives on X x Y, X is a
# lower set and Y an upper set, so Delta ell * p reads p only on Y x Y and
# p * Delta ell only on X x X: each side is one product, of masked blocks.


def theorem_g_identities(triple, g, g_inv, delta_ell):
    """The mixed block of g equals Delta ell * g|_Y, and Delta ell is
    recovered as g|_{X/Y} * g^{-1}."""
    g_xy = triple.mask_xy(g)
    res = _elements_agree("theorem-g", g_xy, delta_ell * triple.mask_yy(g))
    if not res:
        return res
    return _elements_agree("delta-ell-from-g", delta_ell, g_xy * g_inv)


def corollary_f_identity(triple, f, delta_ell_hat):
    """Mixed block of f equals -f|_X * hat(Delta ell)."""
    return _elements_agree("corollary-f", triple.mask_xy(f),
                           -(triple.mask_xx(f) * delta_ell_hat))


def corollary_z_identity(triple, z, delta_ell_hat, delta_ell_rev):
    """Mixed block of Z equals -Z|_X * hat(Delta ell) + rev(Delta ell) * Z|_Y."""
    return _elements_agree("corollary-z", triple.mask_xy(z),
                           -(triple.mask_xx(z) * delta_ell_hat)
                           + delta_ell_rev * triple.mask_yy(z))


def check_theorem_g(triple, kappa):
    """Theorem g on a triple; kappa is a kernel or its KernelSolution.

    Left side: solver output, masked.  Right side: convolutions of the
    local invariants.  The code paths share nothing but the solver.
    """
    solution = solve_kernel(kappa)
    li = local_invariants(triple, solution.weak_rank, solution)
    return theorem_g_identities(triple, solution.g, solution.g_inv,
                                li.delta_ell)


def check_corollary_f(triple, kappa):
    """Corollary f on a triple; kappa is a kernel or its KernelSolution."""
    solution = solve_kernel(kappa)
    li = local_invariants(triple, solution.weak_rank, solution)
    return corollary_f_identity(triple, solution.f, hat(li.delta_ell))


def check_corollary_z(triple, kappa):
    """Corollary Z on a triple; kappa is a kernel or its KernelSolution."""
    solution = solve_kernel(kappa)
    li = local_invariants(triple, solution.weak_rank, solution)
    return corollary_z_identity(triple, solution.z, hat(li.delta_ell),
                                rev(li.delta_ell))


# --------------------------------------------------------------------------
# relative g-polynomials
# --------------------------------------------------------------------------


def relative_g(face_lattice, face, g=None):
    """Relative g-polynomial g(Q, F) of an Eulerian lattice Q at a face F.

    Defined by the recursion sum over E in [F, Q] of g(E, F) g([E, Q])
    equal to g(Q), with g(F, F) = g([0, F]); its solved form is
    g(Q, F) = sum over E in [F, Q] of g([0, E]) g^{-1}(E, Q).  The result
    is checked against the independent route Delta ell at the full
    interval of the triple (Q, its rank, q = F); a mismatch raises
    SubdivisionError.

    Both routes read one KernelSolution of the lattice's Eulerian kernel.
    A precomputed g of that kernel may be passed for the solved form
    instead; it is then inverted here.
    """
    res = face_lattice.is_eulerian()
    if not res:
        raise SubdivisionError(f"relative g needs an Eulerian lattice: {res.describe()}")
    bot, top = face_lattice.bottom(), face_lattice.top()
    if face == bot:
        raise SubdivisionError("relative g needs a nonempty face")
    solution = solve_kernel(eulerian_kernel(face_lattice))
    if g is None:
        g, g_inv = solution.g, solution.g_inv
    else:
        g_inv = invert(g)
    result = poly_dot((g.value(bot, e), g_inv.value(e, top))
                      for e in face_lattice.elements_between(face, top))

    if face != top:
        triple = SubdivisionTriple(face_lattice, face)
        li = local_invariants(triple, solution.weak_rank, solution)
        other = li.delta_ell.value(bot, top)
    else:
        other = solution.g.value(bot, top)
    if result != other:
        raise SubdivisionError(
            f"relative g mismatch: solved form gives {result!r}, "
            f"local invariant gives {other!r}")
    return result


# --------------------------------------------------------------------------
# products and composition
# --------------------------------------------------------------------------


def id_sfs(poset):
    """The identity map as a subdivision of a ranked lower Eulerian poset."""
    return StrongFormalSubdivision(poset, poset, tuple(range(poset.n)))


def product_sfs(s1, s2):
    """Componentwise product of two subdivisions."""
    X = direct_product(s1.X, s2.X)
    Y = direct_product(s1.Y, s2.Y)
    sigma = []
    for i1 in range(s1.X.n):
        for i2 in range(s2.X.n):
            sigma.append(s1.sigma[i1] * s2.Y.n + s2.sigma[i2])
    return StrongFormalSubdivision(X, Y, sigma)


def _cylinder_data(sfs):
    """The mapping cylinder of sfs and its local invariants, from the
    solved Eulerian kernel of the cylinder."""
    triple = mapping_cylinder(sfs)
    solution = solve_kernel(eulerian_kernel(triple.gamma))
    return triple, local_invariants(triple, solution.weak_rank, solution)


def check_product_identities(s1, s2):
    """Product laws for local invariants.

    Verifies, all on Eulerian-kernel cylinders with natural weak ranks:
    the product map is a subdivision; ell of the product is the product of
    the factor ells; the mixed block of g on the product cylinder is the
    double convolution of Delta ell with the factor target g's; and the
    identity-factor laws h_{id x sigma} = g x h_sigma,
    ell_{id x sigma} = delta x ell_sigma.  The target g's come from
    solve_kernel, so the targets' kernels are checked multiplicative and
    rank alternating too.
    """
    sp = product_sfs(s1, s2)
    res = sp.validate()
    if not res:
        return CheckResult.failed("product-not-sfs", witness=res.witness,
                                  detail=res.describe())
    _, li1 = _cylinder_data(s1)
    _, li2 = _cylinder_data(s2)
    tp, lip = _cylinder_data(sp)

    # a cylinder lists X first, then Y shifted by |X|
    nx1, nx2, ny2 = s1.X.n, s2.X.n, s2.Y.n
    nxp = sp.X.n
    # ell of product = product of ells, on every mixed pair
    for (i, j) in tp.xy_pairs():
        x1, x2 = divmod(i, nx2)
        y1, y2 = divmod(j - nxp, ny2)
        lhs = lip.ell_sigma.value(i, j)
        rhs = (li1.ell_sigma.value(x1, nx1 + y1)
               * li2.ell_sigma.value(x2, nx2 + y2))
        if lhs != rhs:
            return CheckResult.failed("product-ell", witness=(i, j),
                                      detail=f"{lhs!r} != {rhs!r}")

    # mixed block of g via Delta ell against the *target* g's
    gy1 = solve_kernel(eulerian_kernel(s1.Y)).g
    gy2 = solve_kernel(eulerian_kernel(s2.Y)).g
    for (i, j) in tp.xy_pairs():
        x1, x2 = divmod(i, nx2)
        y1, y2 = divmod(j - nxp, ny2)
        sb1, sb2 = s1.sigma[x1], s2.sigma[x2]
        products = []
        for yt1 in s1.Y.elements_between(sb1, y1):
            for yt2 in s2.Y.elements_between(sb2, y2):
                d = lip.delta_ell.value(i, nxp + yt1 * ny2 + yt2)
                if d:
                    products.append(
                        (d, gy1.value(yt1, y1) * gy2.value(yt2, y2)))
        acc = poly_dot(products)
        if acc != lip.g.value(i, j):
            return CheckResult.failed("product-g-cylinder", witness=(i, j),
                                      detail=f"{lip.g.value(i, j)!r} != {acc!r}")

    # identity-factor laws, with the first factor replaced by the identity
    # map of s1.Y, whose g is gy1
    sid = product_sfs(id_sfs(s1.Y), s2)
    tid, liid = _cylinder_data(sid)
    nxi = sid.X.n
    for (i, j) in tid.xy_pairs():
        b1, x2 = divmod(i, nx2)
        b2, y2 = divmod(j - nxi, ny2)
        h_lhs = liid.h_sigma.value(i, j)
        h_rhs = gy1.value(b1, b2) * li2.h_sigma.value(x2, nx2 + y2)
        if h_lhs != h_rhs:
            return CheckResult.failed("id-factor-h", witness=(i, j),
                                      detail=f"{h_lhs!r} != {h_rhs!r}")
        l_lhs = liid.ell_sigma.value(i, j)
        l_rhs = li2.ell_sigma.value(x2, nx2 + y2) if b1 == b2 else ZERO
        if l_lhs != l_rhs:
            return CheckResult.failed("id-factor-ell", witness=(i, j),
                                      detail=f"{l_lhs!r} != {l_rhs!r}")
    return CheckResult.passed()


def check_composition(s1, s2):
    """ell of a composite subdivision is the convolution of the factor ells.

    s1: X -> Y and s2: Y -> Z must share the middle poset.  All three
    cylinders carry natural weak ranks and Eulerian kernels.
    """
    if s1.Y != s2.X:
        raise SubdivisionError("middle posets do not match")
    comp = StrongFormalSubdivision(s1.X, s2.Y,
                                   tuple(s2.sigma[s1.sigma[x]] for x in range(s1.X.n)))
    res = comp.validate()
    if not res:
        return CheckResult.failed("composite-not-sfs", witness=res.witness,
                                  detail=res.describe())
    _, li1 = _cylinder_data(s1)
    _, li2 = _cylinder_data(s2)
    tc, lic = _cylinder_data(comp)
    nx1, nx2, nxc = s1.X.n, s2.X.n, comp.X.n
    for (i, j) in tc.xy_pairs():
        x = i
        z = j - nxc
        products = []
        for y in range(s1.Y.n):
            if s1.Y.leq(s1.sigma[x], y) and s2.Y.leq(s2.sigma[y], z):
                a = li1.ell_sigma.value(x, nx1 + y)
                if a:
                    b = li2.ell_sigma.value(y, nx2 + z)
                    if b:
                        products.append((a, b))
        acc = poly_dot(products)
        if acc != lic.ell_sigma.value(i, j):
            return CheckResult.failed("composition", witness=(i, j),
                                      detail=f"{lic.ell_sigma.value(i, j)!r} != {acc!r}")
    return CheckResult.passed()


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def segment_subdivision_sfs(s):
    """The subdivision of a segment by s interior points, onto the
    undivided segment."""
    return segment_refinement_sfs(s, ())


def segment_refinement_sfs(fine, coarse_positions):
    """Refinement between segment subdivisions.

    fine: number of interior points of the finer subdivision.
    coarse_positions: sorted interior positions (subset of 1..fine) kept by
    the coarser one.
    """
    coarse_positions = sorted(set(int(p) for p in coarse_positions))
    if any(not 1 <= p <= fine for p in coarse_positions):
        raise SubdivisionError("coarse positions must be interior to the fine subdivision")
    X = segment_subdivision(fine)
    Y = segment_subdivision(len(coarse_positions))
    cuts = [0] + coarse_positions + [fine + 1]
    vert_of = {p: k for k, p in enumerate(cuts)}
    nvf = fine + 2
    nvc = len(cuts)

    def edge_containing(p):
        for k in range(len(cuts) - 1):
            if cuts[k] <= p < cuts[k + 1]:
                return k
        raise AssertionError

    sigma = [0]
    for p in range(nvf):
        if p in vert_of:
            sigma.append(1 + vert_of[p])
        else:
            sigma.append(1 + nvc + edge_containing(p))
    for e in range(fine + 1):
        sigma.append(1 + nvc + edge_containing(e))
    return StrongFormalSubdivision(X, Y, sigma)
