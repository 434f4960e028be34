"""Translation plane attached to a scattered polynomial: spread and homologies.

The spread consists of the Desarguesian lines whose direction avoids the
linear set of f, together with the multiplicative translates h U_f, so it is
fixed by the slopes of L_f alone: a spread is that slope set and the number
(q^n - 1)/(q - 1) of translates, indexed by h modulo F_q^*.  The plane is
never materialized pointwise, and no point is ever located on a component.

Collineation classification, the collineation group, the Andre witness and
the spread and kernel audits are closed forms, not walks over
H_f = F_{q^n}^* G_f, over its classes, over the components, over points or
over F_{q^t}.  They rest on two facts already certified: f is scattered (the
slope census) and G_f = P^-1 {diag(alpha, alpha^(q^s))} P (diagonalize).
The homology groups are the cyclic groups generated by P^-1 diag(1, kappa_0)
P and P^-1 diag(kappa_0, 1) P with kappa_0 = omega^(q^s)/omega.  Their
order (q^t - 1)/(q - 1), and that their generators lie in H_f, follow from
that form with gcd(s, t) = 1 (`DiagonalizationResult.s`), so neither is
checked.  That the generators of H_f permute the spread is no check but a
consequence of verify_field: the generator of G_f lies in the kernel of the
stabilizer system and is a nonzero element of a matrix field, hence
invertible, so it fixes U_f.  The invariant subgroup of the Andre witness is
checked on an F_p-basis of F_{q^t}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HallCase,
    InternalError,
    NotInS,
    NotScattered,
    SmallQ,
)
from ._linalg import solve_mod
from .field_tower import FieldTower, _digits
from .linearized import LinearizedPoly
from .scatter import is_scattered, linear_set
from .stabilizer import Mat2, compute_stabilizer, diagonalize, transversal_points
from .standard_form import image_polynomial

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


def build_spread(f: LinearizedPoly) -> Spread:
    _plane_preconditions(f)
    T = f.tower
    return Spread(T, f, frozenset(linear_set(f).slopes), T.mult_order // (T.q - 1))


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
    coordinates, giving order (q^n - 1)(q^t - 1)/(q - 1).  The factors
    alpha^(q^s - 1) form the cyclic group generated by kappa_0 =
    omega^(q^s - 1), of order (q^t - 1)/(q^gcd(s, t) - 1) = (q^t - 1)/(q - 1)
    since gcd(s, t) = 1 (`DiagonalizationResult.s`); for t = 1 it is 1.
    Both generators permute the spread by facts already certified, so
    nothing is walked or checked here.  The scalar generator g I fixes every
    F_{q^n}-line and sends g^j U_f to g^(j+1) U_f, a permutation of the
    translate indices modulo (q^n - 1)/(q - 1).  The generator M of G_f
    lies in the kernel S(f, f), so U_f M lies in U_f, and verify_field made
    it a nonzero element of a matrix field, so M is invertible and
    U_f M = U_f: every translate h U_f is fixed.  M permutes the F_{q^n}-lines through the
    origin, and a line that meets U_f goes to one that meets U_f M = U_f,
    so M permutes the lines on L_f and with them the lines off L_f, the
    spread's other components.
    """
    _plane_preconditions(f)
    T = f.tower
    t = compute_stabilizer(f).t
    q = T.q
    return {
        "order": (q**T.n - 1) * (q**t - 1) // (q - 1),
        "t": t,
        "kernel_homology_order": q**T.n - 1,
        "cyclic_factor_order": (q**t - 1) // (q - 1),
        "generators_permute_spread": True,
    }


@dataclass
class HomologyReport:
    case: str                    # "i" or "ii"
    t: int
    X: tuple | None
    Y: tuple | None
    group_order: int             # order N of each symmetric homology group
    cyclic_ok: bool = False
    exchange_ok: bool = False
    elations: int = 0
    H_f_order: int = 0
    decomposition_ok: bool = False

    def to_json(self, tower):
        def fmt_pt(pt):
            return None if pt is None else [tower.format_code(pt[0]), tower.format_code(pt[1])]

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

    Read from the certified diagonal form G_f = P^-1 {diag(alpha,
    alpha^(q^s))} P, with no walk of G_f or of H_f = F_{q^n}^* G_f.  Every
    element of H_f is d P^-1 diag(alpha, alpha^(q^s)) P, which fixes a
    nonzero vector exactly when d alpha or d alpha^(q^s) is 1; scaled so,
    it is P^-1 diag(1, kappa) P or P^-1 diag(kappa, 1) P with kappa =
    alpha^(q^s - 1) a power of kappa_0 = omega^(q^s)/omega, omega primitive
    in F_{q^t}.  So the homologies form two cyclic groups, generated by
    mu_X = P^-1 diag(1, kappa_0) P and mu_Y = P^-1 diag(kappa_0, 1) P, each
    fixing one row of P (its axis) and scaling the other (its center); the
    centers X and Y are the transversal points.  The groups have order
    N = (q^t - 1)/(q - 1), with nothing to check: kappa_0 = omega^(q^s - 1)
    has order (q^t - 1)/gcd(q^s - 1, q^t - 1) = (q^t - 1)/(q^gcd(s, t) - 1),
    and gcd(s, t) = 1 for scattered f (`DiagonalizationResult.s`).  The same
    order makes the factorization of H_f into a kernel homology times
    diag(1, kappa) unique, so decomposition_ok holds.  Both generators are
    scalar multiples of A = P^-1 diag(omega, omega^(q^s)) P or of its
    inverse (mu_X = omega^-1 A, mu_Y = omega^(q^s) A^-1), and A lies in
    P^-1 D_j P = G_f by the certified form, so cyclic_ok and exchange_ok
    hold too.  For t = 1, H_f is the scalar group and d I - I is invertible
    for every d != 1, so there is no central collineation.
    """
    _plane_preconditions(f)
    T = f.tower
    t = compute_stabilizer(f).t
    q = T.q
    hf_order = (q**T.n - 1) * (q**t - 1) // (q - 1)
    if t == 1:
        # H_f consists of the scalar maps d I; for d != 1 the map d I - I is
        # invertible, so no nonidentity element fixes a nonzero point and
        # there is no affine central collineation at all.
        return HomologyReport("i", 1, None, None, 1, True, True, 0, hf_order, True)
    X, Y = transversal_points(f)
    # elations = 0: with the certified diagonal form, a class whose two
    # eigenvalues are equal is scalar
    return HomologyReport("ii", t, X, Y, (q**t - 1) // (q - 1), cyclic_ok=True,
                          exchange_ok=True, elations=0, H_f_order=hf_order,
                          decomposition_ok=True)


@dataclass
class PseudoregulusCase:
    """Marker: the stabilizer has t = n, so the plane is an Andre plane."""

    t: int

    def to_json(self, tower):
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

    def to_json(self, tower):
        return {
            "h": tower.format_code(self.h_code),
            "g": self.g.to_json()["coeffs"],
            "t": self.t,
            "invariant_subgroup_size": self.subgroup_size,
            "component_stabilizer_order": self.stabilizer_order,
            "verified": self.verified,
        }


def reducibility_witness(f: LinearizedPoly, h=1):
    """Executable certificate that the plane is not a generalized Andre plane.

    The component W = (h U_f) P^-1 is the graph of g = image_polynomial(f,
    h P^-1) and is fixed by P G_f P^-1 = {diag(alpha, alpha^(q^s))}.  The
    witness is that this group also fixes the proper subgroup
    {(y, g(y)) : y in F_{q^t}}, checked on an F_p-basis by
    _andre_subgroup_invariant.  Returns a PseudoregulusCase marker when
    t = n (the plane is then an Andre plane and no witness exists); raises
    NotInS when the stabilizer is trivial.
    """
    _plane_preconditions(f)
    T = f.tower
    Mf = compute_stabilizer(f)
    if Mf.t == 1:
        raise NotInS("no standard-form machinery applies; stabilizer is scalar")
    if Mf.t == T.n:
        return PseudoregulusCase(Mf.t)
    diag = diagonalize(Mf)
    t = Mf.t
    Pinv = diag.P.inverse()
    hU = Mat2.scalar(T, h) * Pinv      # X -> X (h I) P^{-1} carries U_f onto W
    g = image_polynomial(f, hU)
    if not _andre_subgroup_invariant(g, diag.s, t):
        raise InternalError("invariant-subgroup check failed")
    return ReducibilityWitness(h, g, t, T.q**t, T.q**t - 1, True)


def _andre_subgroup_invariant(g: LinearizedPoly, s, t) -> bool:
    """Does every diag(alpha, alpha^(q^s)), alpha in F_{q^t}, map the subgroup
    {(y, g(y)) : y in F_{q^t}} into itself, i.e. g(alpha y) = alpha^(q^s) g(y)?

    Both sides are F_p-bilinear in (alpha, y), so the identity holds on all
    of F_{q^t} x F_{q^t} once it holds for alpha and y in the F_p-basis
    omega^i (i < e t) of F_{q^t}, omega primitive: (e t)^2 checks instead
    of (q^t - 1) q^t.
    """
    T = g.tower
    omega = T.subfield_primitive_code(t)
    basis = [T.pow_code(omega, i) for i in range(T.e * t)]
    return all(g.evaluate_code(T.mul_code(al, y))
               == T.mul_code(T.frob_code(al, s), g.evaluate_code(y))
               for al in basis for y in basis)


def semilinear_part_audit(f: LinearizedPoly, sample_size=6, seed=0) -> dict:
    """Audit that no properly semilinear map fixes a component pointwise.

    For sampled Frobenius twists sigma = x^(p^k), 1 <= k < en, and sampled
    components W, sets up the exact F_p-linear system for the matrices A
    with sigma(w) A = w on all of W.  For scattered f with n >= 3 the system
    has no solution at all, singular or not, so every case reports
    "nonsingular_solutions": 0 and there is never a candidate to test
    against the spread.  Proof: the vectors fixed by the semilinear map
    phi(w) = sigma(w) A form a space V over Fix(sigma) = F_(p^d),
    d = gcd(k, en) < en, and Fix(sigma)-independent vectors of V are
    F_{q^n}-independent (apply phi to a shortest dependency with a leading
    coefficient 1 and subtract: the difference is shorter, so every
    coefficient is fixed by sigma).  On a line W = <w>, V would hold the
    p^en vectors x w, so x^sigma = x for every x, against sigma != id.  On
    a translate W = h U_f, V has a Fix(sigma)-basis of at most two vectors
    w1, w2 and p^en = |W| <= |V| <= p^(2d); as d divides en and d < en,
    d = en/2 and W = V = Fix(sigma) w1 + Fix(sigma) w2.  Then the F_q-space
    W meets the F_{q^n}-line <w1> in at least the q^(n/2) vectors of
    Fix(sigma) w1, an F_q-dimension of at least n/2 > 1, against
    scatteredness.  A consistent system therefore raises InternalError.
    """
    _plane_preconditions(f)
    T = f.tower
    spread = build_spread(f)
    rng = T.rng(("semilinear", seed))
    cases = []
    twists = list(range(1, T.en))
    key_twists = twists if len(twists) <= 3 else [twists[0], twists[len(twists) // 2], twists[-1]]
    line_comp = ("D", next(m for m in range(T.size) if m not in spread.lf_slopes))
    picks = [(k, comp) for k in key_twists
             for comp in (("Dinf",), line_comp,
                          ("U", rng.randrange(spread.h_class_count)))]
    while len(picks) < sample_size:
        picks.append((twists[rng.randrange(len(twists))],
                      _component_at(spread, rng.randrange(spread.component_count))))
    for k, comp in picks:
        A, b = _pointwise_fix_system(T, _component_basis(spread, comp), k)
        if solve_mod(A, b, T.p) is not None:
            raise InternalError(f"the twist p^{k} fixes the component {comp} pointwise")
        cases.append({"p_exponent": k, "component": str(comp),
                      "nonsingular_solutions": 0})
    return {"samples": len(cases), "candidates": 0, "violations": 0, "cases": cases}


def _component_at(spread: Spread, i):
    """Descriptor number i of spread.components(), found without listing them."""
    lines = spread.desarguesian_count()  # ("Dinf",) and the ("D", m)
    if i == 0:
        return ("Dinf",)
    if i >= lines:
        return ("U", i - lines)
    # the (i-1)-th code off L_f: each slope of L_f at or below it shifts it up
    m = i - 1
    for s in sorted(spread.lf_slopes):
        if s > m:
            break
        m += 1
    return ("D", m)


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
