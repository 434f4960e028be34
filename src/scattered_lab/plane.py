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
that form with gcd(s, t) = 1 (`MatrixField`), so neither is
checked.  That the generators of H_f permute the spread is no check but a
consequence of verify_field: the generator of G_f lies in the kernel of the
stabilizer system and is a nonzero element of a matrix field, hence
invertible, so it fixes U_f.  The invariant subgroup of the Andre witness
follows from the support of the standard form's class solve, which writes
no coefficient off s mod t.  What the form proves is held in no field:
HomologyReport and ReducibilityWitness write it into their JSON as
constants (cyclic groups, axes and coaxes exchanged, H_f decomposed, no
elation, a verified invariant subgroup of order q^t).
"""

from __future__ import annotations

from .errors import (
    HallCase,
    InternalError,
    NotScattered,
    SmallQ,
)
from ._linalg import solve_mod
from .field_tower import FieldTower, _digits
from .linearized import LinearizedPoly
from .scatter import is_scattered, linear_set
from .stabilizer import compute_stabilizer, diagonalize
from .standard_form import _standard_pair

import numpy as np


def _plane_preconditions(f: LinearizedPoly):
    T = f.tower
    if T.q <= 3:
        raise SmallQ("plane analysis requires q > 3")
    if T.n <= 2:
        raise HallCase("n = 2 yields a Hall plane; out of scope")
    if not is_scattered(f):
        raise NotScattered("plane construction needs a scattered polynomial")


class Spread:
    """B_f = (D minus L_f) union {h U_f}; components carry tagged descriptors.

    Descriptors: ("D", m) is the Desarguesian line of slope m not on L_f,
    ("Dinf",) the vertical line x = 0, ("U", j) the translate g^j U_f with
    j ranging over a transversal of F_{q^n}^* / F_q^*.
    """

    __slots__ = ("tower", "f", "lf_slopes", "h_class_count")

    def __init__(self, tower: FieldTower, f: LinearizedPoly, lf_slopes: frozenset,
                 h_class_count: int):
        self.tower = tower
        self.f = f
        self.lf_slopes = lf_slopes            # slope codes on L_f (zero slope included if kernel)
        self.h_class_count = h_class_count    # (q^n - 1)/(q - 1)

    @property
    def component_count(self):
        return self.tower.size + 1

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
    since gcd(s, t) = 1 (`MatrixField`); for t = 1 it is 1.
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


class HomologyReport:
    __slots__ = ("case", "t", "X", "Y", "group_order", "H_f_order")

    def __init__(self, case: str, t: int, X: tuple | None, Y: tuple | None, group_order: int,
                 H_f_order: int):
        self.case = case                  # "i" or "ii"
        self.t = t
        self.X = X
        self.Y = Y
        self.group_order = group_order    # order N of each symmetric homology group
        self.H_f_order = H_f_order

    def to_json(self, tower):
        def fmt_pt(pt):
            return None if pt is None else [tower.format_code(pt[0]), tower.format_code(pt[1])]

        return {
            "case": self.case,
            "t": self.t,
            "X": fmt_pt(self.X),
            "Y": fmt_pt(self.Y),
            "homology_group_order": self.group_order,
            "elations": 0,
            "H_f_order": self.H_f_order,
            "decomposition_ok": True,
            "cyclic": True,
            "axes_coaxes_exchanged": True,
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
    centers X and Y are the rows of P, the eigen-points of diagonalize.
    Neither lies on L_f, with nothing to check.  Suppose v != 0 in U_f lies
    on the F_(q^n)-line <X> of one row X.  Every M in G_f fixes <X> and U_f,
    so vM lies in <X> meet U_f for every M in G_f with zero.  M -> vM is
    one-to-one: vM = vN gives v (M - N) = 0, and M - N is zero or invertible
    in the field G_f with zero.  So <X> meet U_f has at least q^t > q
    elements, an F_q-dimension above 1, against scatteredness.  The groups
    have order N = (q^t - 1)/(q - 1), with nothing to check:
    kappa_0 = omega^(q^s - 1) has order (q^t - 1)/gcd(q^s - 1, q^t - 1)
    = (q^t - 1)/(q^gcd(s, t) - 1), and gcd(s, t) = 1 for scattered f
    (`MatrixField`).  The same order makes the factorization
    of H_f into a kernel homology times diag(1, kappa) unique: H_f
    decomposes.  Both generators are scalar
    multiples of A = P^-1 diag(omega, omega^(q^s)) P or of its inverse
    (mu_X = omega^-1 A, mu_Y = omega^(q^s) A^-1), and A lies in
    P^-1 D_j P = G_f by the certified form, so both groups are cyclic and
    exchange axes and coaxes.  There is no elation: a class of H_f whose
    two eigenvalues are equal is scalar.  For t = 1, H_f is the scalar group
    and d I - I is invertible for every d != 1, so there is no central
    collineation.
    """
    _plane_preconditions(f)
    T = f.tower
    Mf = compute_stabilizer(f)
    t, q = Mf.t, T.q
    hf_order = (q**T.n - 1) * (q**t - 1) // (q - 1)
    if t == 1:
        return HomologyReport("i", 1, None, None, 1, hf_order)
    X, Y = diagonalize(Mf).eigen_points
    return HomologyReport("ii", t, X, Y, (q**t - 1) // (q - 1), hf_order)


class PseudoregulusCase:
    """Marker: the stabilizer has t = n, so the plane is an Andre plane."""

    __slots__ = ("t",)

    def __init__(self, t: int):
        self.t = t

    def to_json(self, tower):
        return "pseudoregulus"


class ReducibilityWitness:
    """Invariant proper subgroup of a conjugated component.

    The component W = U_f P^{-1} is the graph {(y, g(y))}; the subgroup
    {(y, g(y)) : y in F_{q^t}} is invariant under the stabilizer of W inside
    P H_f P^{-1}, which certifies that the plane is not a generalized Andre
    plane: the support of g proves it (`reducibility_witness`), and the
    tests re-check it by a walk.
    """

    __slots__ = ("g", "t")

    def __init__(self, g: LinearizedPoly, t: int):
        self.g = g
        self.t = t

    def to_json(self, tower):
        # the subgroup is F_(q^t), W's stabilizer P G_f P^-1; "verified" rests
        # on the support of the class solve that built g.  W is the translate
        # h U_f with h = 1 = g^0, conjugated by P.
        return {
            "h": "g^0",
            "g": self.g.to_json()["coeffs"],
            "t": self.t,
            "invariant_subgroup_size": tower.q**self.t,
            "component_stabilizer_order": tower.q**self.t - 1,
            "verified": True,
        }


def reducibility_witness(f: LinearizedPoly):
    """Executable certificate that the plane is not a generalized Andre plane.

    The class solve (`_standard_pair`) gives g = h0 with U_f P^-1 = U_h0 and
    no coefficient off s mod t, so g(alpha y) = alpha^(q^s) g(y) for alpha
    in F_(q^t), as t divides n: P G_f P^-1 = {diag(alpha, alpha^(q^s))}
    fixes W = U_f P^-1 = U_g and its proper subgroup
    {(y, g(y)) : y in F_(q^t)}, with nothing to check.  Returns a
    PseudoregulusCase marker when t = n (an Andre plane, no witness); raises
    NotInS when the stabilizer is trivial.
    """
    _plane_preconditions(f)
    T = f.tower
    t = compute_stabilizer(f).t
    if t == T.n:
        return PseudoregulusCase(t)
    _, h0 = _standard_pair(f)
    return ReducibilityWitness(h0, t)


def semilinear_part_audit(f: LinearizedPoly, seed=0) -> dict:
    """Audit that no properly semilinear map fixes a component pointwise.

    For up to three Frobenius twists sigma = x^(p^k), 1 <= k < en (the
    first, middle and last), and for each of them three components W (the
    vertical line, the first Desarguesian line off L_f and one seeded
    translate), sets up the exact F_p-linear system for the matrices A with
    sigma(w) A = w on all of W.  For scattered f with n >= 3 the system
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
    for k, comp in picks:
        A, b = _pointwise_fix_system(T, _component_basis(spread, comp), k)
        if solve_mod(A, b, T.p) is not None:
            raise InternalError(f"the twist p^{k} fixes the component {comp} pointwise")
        cases.append({"p_exponent": k, "component": str(comp),
                      "nonsingular_solutions": 0})
    return {"samples": len(cases), "candidates": 0, "violations": 0, "cases": cases}


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
