"""Translation plane attached to a scattered polynomial: spread and homologies.

The spread consists of the Desarguesian lines whose direction avoids the
linear set of f, together with the multiplicative translates h U_f.  The
latter are stored by coset representative (h modulo F_q^*), so components
have O(1) membership tests and the plane is never materialized pointwise.

Collineation classification, the collineation-group check and the spread
and kernel audits are closed forms over discrete logs, not walks over
H_f = F_{q^n}^* G_f, over the components or over points.  The eigenvalue
logs of the diagonalized stabilizer locate the homologies of each
stabilizer class directly; the generators of H_f are checked by one exact
polynomial identity and one vectorized map on slopes; the homology groups
and the audits rest on two facts already certified: f is scattered (the
slope census) and G_f = P^-1 {diag(alpha, alpha^(q^s))} P (diagonalize).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    HallCase,
    InternalError,
    NotInS,
    NotScattered,
    SmallQ,
)
from ._linalg import kernel_mod, solve_mod
from .field_tower import FieldTower, _digits, _pack
from .linearized import LinearizedPoly, add_code_arrays
from .scatter import is_scattered, linear_set, slope_census
from .stabilizer import Mat2, compute_stabilizer, diagonalize
from .standard_form import image_polynomial, maps_onto

import numpy as np


def _plane_preconditions(f: LinearizedPoly):
    T = f.tower
    if T.q <= 3:
        raise SmallQ("plane analysis requires q > 3")
    if T.n <= 2:
        raise HallCase("n = 2 yields a Hall plane; out of scope")
    if not is_scattered(f):
        raise NotScattered("plane construction needs a scattered polynomial")


@dataclass
class Spread:
    """B_f = (D minus L_f) union {h U_f}; components carry tagged descriptors.

    Descriptors: ("D", m) is the Desarguesian line of slope m not on L_f,
    ("Dinf",) the vertical line x = 0, ("U", j) the translate g^j U_f with
    j ranging over a transversal of F_{q^n}^* / F_q^*.
    """

    tower: FieldTower
    f: LinearizedPoly
    lf_slopes: frozenset          # slope codes on L_f (zero slope included if kernel)
    slope_rep: dict               # slope code -> log of a fiber representative x
    kernel_rep_log: int
    h_class_count: int            # (q^n - 1)/(q - 1)

    @property
    def component_count(self):
        return self.tower.size + 1

    def components(self):
        T = self.tower
        yield ("Dinf",)
        for m in range(T.size):
            if m not in self.lf_slopes:
                yield ("D", m)
        for j in range(self.h_class_count):
            yield ("U", j)

    def desarguesian_count(self):
        return self.tower.size + 1 - len(self.lf_slopes)

    def membership(self, comp, point) -> bool:
        T = self.tower
        x, y = point
        if x == 0 and y == 0:
            return True
        if comp[0] == "Dinf":
            return x == 0
        if comp[0] == "D":
            return x != 0 and T.mul_code(comp[1], x) == y
        j = comp[1]
        h = T.pow_code(T.gen_code, j)
        if x == 0:
            return y == 0
        return self.f.evaluate_code(T.div_code(x, h)) == T.div_code(y, h)

    def component_of(self, point):
        """The unique component through a nonzero point."""
        T = self.tower
        x, y = point
        if x == 0 and y == 0:
            raise InternalError("the origin lies on every component")
        if x == 0:
            return ("Dinf",)
        m = T.div_code(y, x)
        if m not in self.lf_slopes:
            return ("D", m)
        step = T.mult_order // (T.q - 1)
        if m == 0:
            x0_log = self.kernel_rep_log
        else:
            x0_log = self.slope_rep[m]
        j = (T.dlog(x) - x0_log) % T.mult_order % step
        return ("U", j)


def build_spread(f: LinearizedPoly) -> Spread:
    _plane_preconditions(f)
    T = f.tower
    census = slope_census(f)
    slopes = set()
    rep = {}
    for slog, rlog in zip(census.slope_logs, census.rep_logs):
        code = T.pow_code(T.gen_code, slog)
        slopes.add(code)
        rep[code] = rlog
    if census.kernel_count:
        slopes.add(0)
    return Spread(T, f, frozenset(slopes), rep, census.kernel_rep_log,
                  T.mult_order // (T.q - 1))


def verify_spread_axioms(spread: Spread) -> dict:
    """Count audit of B_f: q^n + 1 components, read from the spread.

    The Desarguesian lines off L_f and the (q^n - 1)/(q - 1) translates
    number q^n + 1 exactly when |L_f| = (q^n - 1)/(q - 1).  The other axioms
    follow from facts already certified.  Lines meet lines trivially, and a
    line meets a translate nontrivially only when its slope lies on L_f,
    which the spread excludes.  Two translates h1 U_f and h2 U_f meet
    nontrivially exactly when f(c x) = c f(x) for some x != 0 with
    c = h1/h2 outside F_q, that is when two points of one slope fiber differ
    by a factor outside F_q; build_spread refuses such a non-scattered f.
    q^n + 1 components of q^n - 1 nonzero vectors each that pairwise meet
    only in 0 then cover all q^(2n) - 1 nonzero vectors.
    """
    count = spread.desarguesian_count() + spread.h_class_count
    if count != spread.component_count:
        return {"ok": False, "reason": f"component count {count}"}
    return {"ok": True, "components": count,
            "desarguesian": spread.desarguesian_count(),
            "translates": spread.h_class_count}


def linear_collineations(f: LinearizedPoly) -> dict:
    """Order and structure of the group of linear collineations of the plane.

    The group is F_{q^n}^* G_f; each element factors uniquely as a scalar
    kernel homology times diag(1, alpha^(q^s - 1)) in diagonalized
    coordinates, giving order (q^n - 1)(q^t - 1)/(q - 1).  Both generators
    are shown to permute the spread without walking its points.  The scalar
    generator g I fixes every F_{q^n}-line and sends g^j U_f to g^(j+1) U_f,
    a permutation of the translate indices modulo (q^n - 1)/(q - 1).  For the
    generator M of G_f, one exact check U_f M = U_f gives h U_f M = h U_f for
    every h, and M permutes the lines by the Moebius map
    m -> (b + m d)/(a + m c) on slopes, which must be a bijection of
    PG(1, q^n) that preserves the slopes of L_f.  Needs exp/log tables.
    """
    T = f.tower
    T.require_tables("the collineation check")
    _plane_preconditions(f)
    spread = build_spread(f)
    Mf = compute_stabilizer(f)
    t = Mf.t
    q = T.q
    order = (q**T.n - 1) * (q**t - 1) // (q - 1)
    # unique-decomposition data: the image of alpha -> alpha^(q^s - 1)
    if t > 1:
        kappa_order = _homology_factor_order(T, diagonalize(Mf).s, t)
        if kappa_order != (q**t - 1) // (q - 1):
            raise InternalError("homology factor has unexpected order")
    else:
        kappa_order = 1
    if Mf.generator is not None:
        M = Mf.generator
        if not maps_onto(f, M, f):
            raise InternalError("the stabilizer generator does not fix U_f")
        if not _moebius_preserves_lines(spread, M):
            raise InternalError("the stabilizer generator fails to permute the lines")
    return {
        "order": order,
        "t": t,
        "kernel_homology_order": q**T.n - 1,
        "cyclic_factor_order": kappa_order,
        "generators_permute_spread": True,
    }


def _moebius_preserves_lines(spread: Spread, M: Mat2) -> bool:
    """Does M permute the lines through the origin and fix the slope set of L_f?

    The line of slope m (direction (1, m)) goes to the direction
    (a + m c, b + m d); the vertical line (0, 1) goes to (c, d).  Slopes are
    element codes, with the code q^n standing for the vertical direction.
    """
    T = spread.tower
    M_order, size = T.mult_order, T.size
    exp, log = T.exp_table, T.log_table

    def mul(codes, k):
        if k == 0:
            return np.zeros_like(codes)
        lk = int(log[k])
        return np.where(codes == 0, 0, exp[(log[codes] + lk) % M_order])

    m = np.arange(size + 1, dtype=np.int64)
    m[size] = 0                                   # placeholder for the vertical line
    den = add_code_arrays(T, np.full(size + 1, M.a, dtype=np.int64), mul(m, M.c))
    num = add_code_arrays(T, np.full(size + 1, M.b, dtype=np.int64), mul(m, M.d))
    den[size], num[size] = M.c, M.d
    image = np.where(den == 0, size,
                     np.where(num == 0, 0, exp[(log[num] - log[den]) % M_order]))
    if np.unique(image).size != size + 1:
        return False
    on_L = np.zeros(size + 1, dtype=bool)
    on_L[list(spread.lf_slopes)] = True
    return bool(on_L[image[on_L]].all())


@dataclass
class HomologyReport:
    case: str                    # "i" or "ii"
    t: int
    X: tuple | None
    Y: tuple | None
    group_order: int             # order of each symmetric homology group
    group_X: list = field(default_factory=list, repr=False)
    group_Y: list = field(default_factory=list, repr=False)
    cyclic_ok: bool = False
    exchange_ok: bool = False
    elations: int = 0
    central_classes_scanned: int = 0
    H_f_order: int = 0
    decomposition_ok: bool = False

    def to_json(self, tower=None, style="g^k"):
        def fmt_pt(pt):
            if pt is None or tower is None:
                return pt
            return [tower.format_code(pt[0], style), tower.format_code(pt[1], style)]

        return {
            "case": self.case,
            "t": self.t,
            "X": fmt_pt(self.X),
            "Y": fmt_pt(self.Y),
            "homology_group_order": self.group_order,
            "elations": self.elations,
            "H_f_order": self.H_f_order,
            "decomposition_ok": self.decomposition_ok,
            "cyclic": self.cyclic_ok,
            "axes_coaxes_exchanged": self.exchange_ok,
        }


def classify_central_collineations(f: LinearizedPoly) -> HomologyReport:
    """Affine central collineations of the plane with axis through the origin.

    Covers all of H_f modulo kernel homologies.  Each class is d M with d in
    a transversal of F_{q^n}^*/F_q^* and M in a transversal of G_f/F_q^*;
    in diagonalized coordinates its eigenvalues are (d x, d x^(q^s)), so the
    class contains a homology exactly when one eigenvalue can be scaled to 1
    by a kernel homology while the other stays different from 1.  That
    happens only for log d = -log x or -log y modulo (q^n - 1)/(q - 1), so
    each stabilizer class visits at most two d and the work is
    O((q^t - 1)/(q - 1)); central_classes_scanned still counts every class
    d M covered.  For t = 1, H_f is the scalar group and d I - I is
    invertible for every d != 1, so there is no central collineation.
    Elations would show up as defective classes, which cannot occur in a
    simultaneously diagonalizable family; the count is still computed.
    """
    _plane_preconditions(f)
    T = f.tower
    spread = build_spread(f)
    Mf = compute_stabilizer(f)
    t = Mf.t
    q = T.q
    M_order = T.mult_order
    step = M_order // (q - 1)
    hf_order = (q**T.n - 1) * (q**t - 1) // (q - 1)
    if t == 1:
        # H_f consists of the scalar maps d I; for d != 1 the map d I - I is
        # invertible, so no nonidentity element fixes a nonzero point and
        # there is no affine central collineation at all.
        return HomologyReport("i", 1, None, None, 1, [], [], True, True, 0,
                              step, hf_order, True)
    diag = diagonalize(Mf)
    s = diag.s
    X, Y = diag.eigen_points   # the rows of P, normalized
    L = linear_set(f)
    for pt in (X, Y):
        if pt[0] == 1 and L.contains_slope(pt[1]):
            raise InternalError("candidate center lies on the linear set")
        if spread.component_of(pt if pt[0] else (0, 1))[0] == "U":
            raise InternalError("candidate center is not a Desarguesian component")
    # M-classes: one representative per projective class of G_f; x = 0
    # only for the zero matrix
    classes = {}
    for m, (x, y) in zip(Mf.elements, diag.diag_pairs):
        if x:
            classes.setdefault(T.dlog(x) % step, (m, x, y))
    if len(classes) != (q**t - 1) // (q - 1):
        raise InternalError("unexpected number of stabilizer classes")
    group_X, group_Y = [], []
    elations = 0
    for m, x, y in classes.values():
        lx, ly = T.dlog(x), T.dlog(y)
        if lx == ly and not m.is_scalar():
            elations += 1  # defective class; cannot occur in a diagonalizable family
        # a class d m holds a homology only when d x or d y lies in F_q^*
        for dd in sorted({-lx % step, -ly % step}):
            ex = (dd + lx) % step == 0   # d*x lands in F_q^*
            ey = (dd + ly) % step == 0
            if ex and ey and (lx - ly) % M_order == 0:
                continue  # the kernel-homology class of the identity
            d = T.pow_code(T.gen_code, dd)
            lam = m.scale(d)
            if ex:
                mu = lam.scale(T.inv_code(T.mul_code(d, x)))
                group_X.append(mu)
            if ey:
                mu = lam.scale(T.inv_code(T.mul_code(d, y)))
                group_Y.append(mu)
    expected = (q**t - 1) // (q - 1)
    idm = Mat2.identity(T)
    group_X = [m for m in group_X if not m.is_identity()]
    group_Y = [m for m in group_Y if not m.is_identity()]
    ok_sizes = len(group_X) == expected - 1 and len(group_Y) == expected - 1
    if not ok_sizes:
        raise InternalError("homology group sizes disagree with (q^t-1)/(q-1)")
    group_X.append(idm)
    group_Y.append(idm)
    # group_X fixes its axis, the first row of P, pointwise and scales its
    # center, the second row; group_Y the other way round
    kappas = (_homology_kappas(diag.P, group_X, 1), _homology_kappas(diag.P, group_Y, 0))
    exchange_ok = None not in kappas
    cyclic_ok = exchange_ok and all(_all_roots_of_unity(T, k, expected) for k in kappas)
    decomposition_ok = _homology_factor_order(T, s, t) == expected
    return HomologyReport("ii", t, X, Y, expected, group_X, group_Y,
                          cyclic_ok, exchange_ok, elations, len(classes) * step,
                          hf_order, decomposition_ok)


def _homology_factor_order(T: FieldTower, s, t):
    """Order of kappa_0 = omega^(q^s)/omega, omega primitive in F_{q^t}.

    In diagonalized coordinates G_f is {diag(alpha, alpha^(q^s))}, and
    d diag(alpha, alpha^(q^s)) = (d alpha) diag(1, kappa) with kappa a power
    of kappa_0.  The factorization of H_f into a kernel homology times
    diag(1, kappa) is unique exactly when kappa_0 has order (q^t - 1)/(q - 1),
    the index of F_q^* in F_{q^t}^*.
    """
    omega = T.subfield_primitive_code(t)
    return T.order_of(T.div_code(T.frob_code(omega, s), omega))


def _homology_kappas(P: Mat2, group, slot):
    """The kappa with P mu P^-1 = diag(1, kappa) (slot 1) or diag(kappa, 1)
    (slot 0) for each mu in group, or None when some mu is not of that form:
    P mu = D P says that mu fixes the row of P in the other slot and scales
    the row in the given slot by kappa."""
    T = P.tower
    rows = ((P.a, P.b), (P.c, P.d))
    fixed, moved = rows[1 - slot], rows[slot]
    i = 0 if moved[0] else 1
    kappas = []
    for mu in group:
        image = mu.apply(moved)
        kappa = T.div_code(image[i], moved[i])
        if kappa == 0 or mu.apply(fixed) != fixed or image != (
                T.mul_code(kappa, moved[0]), T.mul_code(kappa, moved[1])):
            return None
        kappas.append(kappa)
    return kappas


def _all_roots_of_unity(T: FieldTower, kappas, N) -> bool:
    """Are kappas N distinct roots of z^N = 1, i.e. all of mu_N?

    A root of z^N = 1 is a kappa with log kappa = 0 mod (q^n - 1)/N.  N
    distinct roots are all of mu_N, a cyclic group of order N, so a group
    with these kappas is cyclic without walking the powers of a generator.
    """
    root = T.mult_order // N
    return len(kappas) == len(set(kappas)) == N and all(T.dlog(k) % root == 0 for k in kappas)


def _is_homology_group(P: Mat2, group, slot, N) -> bool:
    """Is P mu P^-1 = diag(1, kappa) (slot 1) or diag(kappa, 1) (slot 0) for
    every mu in group, with N distinct kappa, each a root of z^N = 1?"""
    kappas = _homology_kappas(P, group, slot)
    return kappas is not None and _all_roots_of_unity(P.tower, kappas, N)


@dataclass
class PseudoregulusCase:
    """Marker: the stabilizer has t = n, so the plane is an Andre plane."""

    t: int

    def to_json(self, *_args, **_kw):
        return "pseudoregulus"


@dataclass
class ReducibilityWitness:
    """Invariant proper subgroup of a conjugated translate component.

    The component W = (h U_f)^phi with phi: X -> X P^{-1} is a graph
    {(y, g(y))}; the subgroup {(y, g(y)) : y in F_{q^t}} is invariant under
    the stabilizer of W inside P H_f P^{-1}, which certifies that the plane
    is not a generalized Andre plane.
    """

    h_code: int
    g: LinearizedPoly
    t: int
    subgroup_size: int
    stabilizer_order: int
    verified: bool

    def to_json(self, tower=None, style="g^k"):
        doc = {
            "h": tower.format_code(self.h_code, style) if tower else self.h_code,
            "g": self.g.to_json(style)["coeffs"],
            "t": self.t,
            "invariant_subgroup_size": self.subgroup_size,
            "component_stabilizer_order": self.stabilizer_order,
            "verified": self.verified,
        }
        return doc


def reducibility_witness(f: LinearizedPoly, h=1):
    """Executable certificate that the plane is not a generalized Andre plane.

    Returns a PseudoregulusCase marker when t = n (the plane is then an
    Andre plane and no witness exists); raises NotInS when the stabilizer is
    trivial.
    """
    _plane_preconditions(f)
    T = f.tower
    Mf = compute_stabilizer(f)
    if Mf.t == 1:
        raise NotInS("no standard-form machinery applies; stabilizer is scalar")
    if Mf.t == T.n:
        return PseudoregulusCase(Mf.t)
    diag = diagonalize(Mf)
    s = diag.s
    t = Mf.t
    hc = h if isinstance(h, int) else h.code
    Pinv = diag.P.inverse()
    hU = Mat2.scalar(T, hc) * Pinv      # X -> X (h I) P^{-1} carries U_f onto W
    g = image_polynomial(f, hU)
    subfield = T.subfield_elements(t)
    sub_set = set(subfield)
    checked = 0
    for al in subfield[:-1]:
        D = Mat2.diag(T, al, T.frob_code(al, s))
        for y in subfield:
            yy, gy = D.apply((y, g.evaluate_code(y)))
            if yy not in sub_set or g.evaluate_code(yy) != gy:
                raise InternalError("invariant-subgroup check failed")
            checked += 1
    return ReducibilityWitness(hc, g, t, T.q**t, T.q**t - 1, True)


def semilinear_part_audit(f: LinearizedPoly, sample_size=6, seed=0) -> dict:
    """Search for properly semilinear maps fixing a component pointwise.

    For sampled Frobenius twists p^k (k not a multiple of en) and sampled
    components W, solves the exact linear system for matrices A with
    sigma(w) A = w on all of W.  Nonsingular solutions would contradict the
    triviality of the companion automorphism of any affine central
    collineation; each one found is checked against the spread and counted
    as a violation if it stabilizes it.
    """
    _plane_preconditions(f)
    T = f.tower
    spread = build_spread(f)
    rng = T.rng(("semilinear", seed))
    cases = []
    violations = 0
    candidates = 0
    comps = list(spread.components())
    twists = list(range(1, T.en))
    key_twists = twists if len(twists) <= 3 else [twists[0], twists[len(twists) // 2], twists[-1]]
    line_comp = ("D", next(m for m in range(T.size) if m not in spread.lf_slopes))
    picks = [(k, comp) for k in key_twists
             for comp in (("Dinf",), line_comp,
                          ("U", rng.randrange(spread.h_class_count)))]
    while len(picks) < sample_size:
        picks.append((twists[rng.randrange(len(twists))],
                      comps[rng.randrange(len(comps))]))
    for k, comp in picks:
        basis_pts = _component_basis(spread, comp)
        A, b = _pointwise_fix_system(T, basis_pts, k)
        sol = solve_mod(A, b, T.p)
        n_solutions = 0
        if sol is not None:
            hom = kernel_mod(A, T.p)
            seen = set()
            import itertools as _it

            combos = _it.product(range(T.p), repeat=len(hom)) if len(hom) <= 4 else [()]
            for combo in combos:
                v = sol.copy()
                for c, hv in zip(combo, hom):
                    v = (v + c * hv) % T.p
                key = tuple(int(z) for z in v)
                if key in seen:
                    continue
                seen.add(key)
                en = T.en
                Acand = Mat2(T, _pack(list(v[0:en]), T.p), _pack(list(v[en:2 * en]), T.p),
                             _pack(list(v[2 * en:3 * en]), T.p), _pack(list(v[3 * en:]), T.p))
                if Acand.det() == 0:
                    continue
                n_solutions += 1
                candidates += 1
                if _semilinear_stabilizes(spread, Acand, k):
                    violations += 1
        cases.append({"p_exponent": k, "component": str(comp),
                      "nonsingular_solutions": n_solutions})
    return {"samples": len(cases), "candidates": candidates,
            "violations": violations, "cases": cases}


def _component_basis(spread: Spread, comp):
    T = spread.tower
    if comp[0] == "Dinf":
        return [(0, int(T.p**i)) for i in range(T.en)]
    if comp[0] == "D":
        return [(int(T.p**i), T.mul_code(comp[1], int(T.p**i))) for i in range(T.en)]
    h = T.pow_code(T.gen_code, comp[1])
    return [(T.mul_code(h, int(T.p**i)),
             T.mul_code(h, spread.f.evaluate_code(int(T.p**i)))) for i in range(T.en)]


def _pointwise_fix_system(T: FieldTower, basis_pts, k):
    """Linear system for A with sigma(w) A = w on the F_p-span of basis_pts."""
    en = T.en
    rows, rhs = [], []
    for (wx, wy) in basis_pts:
        sx, sy = T.pow_code(wx, T.p**k), T.pow_code(wy, T.p**k)
        Mx, My = T.mul_matrix(sx), T.mul_matrix(sy)
        for coord, target in ((0, wx), (1, wy)):
            block = np.zeros((en, 4 * en), dtype=np.int64)
            block[:, (0 + coord) * en:(1 + coord) * en] = Mx  # a (coord 0) or b (coord 1)
            block[:, (2 + coord) * en:(3 + coord) * en] = My  # c or d
            rows.append(block)
            rhs.extend(_digits(target, T.p, en))
    A = np.vstack(rows) % T.p
    return A, np.array(rhs, dtype=np.int64) % T.p


def _semilinear_stabilizes(spread: Spread, A: Mat2, k) -> bool:
    T = spread.tower
    pk = T.p**k
    for comp in spread.components():
        pts = _component_basis(spread, comp)
        images = [A.apply((T.pow_code(x, pk), T.pow_code(y, pk))) for (x, y) in pts]
        nz = [pt for pt in images if pt != (0, 0)]
        target = spread.component_of(nz[0])
        for pt in nz:
            if not spread.membership(target, pt):
                return False
    return True


def kernel_scalar_audit(f: LinearizedPoly) -> bool:
    """Exactly the F_q-scalar maps stabilize every component of the spread.

    A scalar map lambda I fixes every line through the origin and sends the
    translate g^j U_f to g^(j + log lambda) U_f, the index map that
    linear_collineations uses for its scalar generator.  Translate indices
    run modulo (q^n - 1)/(q - 1), and distinct indices are distinct
    components because f is scattered.  So lambda I fixes every component
    exactly when log lambda = 0 mod (q^n - 1)/(q - 1).  The audit checks that
    this holds for every a in F_q^*, and fails for the generator of
    F_{q^n}^* and the primitive elements of the proper subfields that lie
    outside F_q (membership by Frobenius).
    """
    _plane_preconditions(f)
    T = f.tower
    step = T.mult_order // (T.q - 1)
    if any(T.dlog(a) % step for a in T.subfield_elements(1)[:-1]):
        return False
    probes = [T.gen_code] + [T.subfield_primitive_code(t)
                             for t in range(2, T.n) if T.n % t == 0]
    return all(T.dlog(a) % step for a in probes if not T.subfield_member_code(a, 1))
