"""Constructors for the known scattered families, with predicted stabilizers.

Each constructor validates the displayed parameter conditions exactly and
attaches the predicted stabilizer as a triple (W, s, t): the prediction is
W G_f W^-1 = {diag(alpha, alpha^(q^s)) : alpha in F_(q^t)}, decided by one
basis certificate (`stabilizer.conjugates_to_diagonal`) without listing an
element.  Families whose full parameter conditions are not displayed
(family 3, and family 4 for even q) are gated on a computational
scatteredness check instead and marked ComputationOnly.
"""

from __future__ import annotations

import math

from .errors import BadParams, InternalError, UnsupportedParams
from .field_tower import FieldTower
from .linearized import LinearizedPoly
from .scatter import is_scattered
from .stabilizer import Mat2, MatrixField, conjugates_to_diagonal

CHECKED = "Checked"
COMPUTATION_ONLY = "ComputationOnly"


class FamilyInstance:
    """A family member with its predicted stabilizer: W G_f W^-1 = D(s, t).

    D(s, t) = {diag(alpha, alpha^(q^s)) : alpha in F_(q^t)}, W is
    predicted_conjugator, s is predicted_s and t is predicted_t.
    """

    __slots__ = ("family_id", "params", "poly", "predicted_t", "predicted_s",
                 "predicted_conjugator", "validity", "shape")

    def __init__(self, family_id: int, params: dict, poly: LinearizedPoly, predicted_t: int,
                 predicted_s: int, predicted_conjugator: Mat2, validity: str, shape: str):
        self.family_id = family_id
        self.params = params
        self.poly = poly
        self.predicted_t = predicted_t
        self.predicted_s = predicted_s
        self.predicted_conjugator = predicted_conjugator
        self.validity = validity
        self.shape = shape

    @property
    def predicted_order(self):
        """|G_f| = q^t - 1 (group order, zero excluded)."""
        return self.poly.tower.q**self.predicted_t - 1

    def matches(self, Mf: MatrixField) -> bool:
        """Is Mf (G_f with zero) exactly the predicted field?"""
        return conjugates_to_diagonal(Mf, self.predicted_conjugator,
                                      self.predicted_s, self.predicted_t)

    def to_json(self):
        T = self.poly.tower
        params = {}
        for k, v in self.params.items():
            params[k] = T.format_code(v) if k in ("delta", "h") else v
        return {
            "family": self.family_id,
            "params": params,
            "poly": self.poly.to_json()["coeffs"],
            "predicted_stabilizer": {
                "order": self.predicted_order,
                "t": self.predicted_t,
                "shape": self.shape,
            },
            "validity": self.validity,
        }


def psi_theta(T: FieldTower, h, t, s):
    """theta = h^{q^s} + h^{q^{s(t-1)}}."""
    return T.add_code(T.frob_code(h, s), T.frob_code(h, (s * (t - 1)) % T.n))


def make_pseudoregulus(T: FieldTower, s: int) -> FamilyInstance:
    """f(x) = x^{q^s} with gcd(s, n) = 1."""
    if not 1 <= s < T.n or math.gcd(s, T.n) != 1:
        raise BadParams(f"need gcd(s, n) = 1 and 1 <= s < n, got s={s}")
    poly = LinearizedPoly.monomial(T, s)
    return FamilyInstance(1, {"s": s}, poly, T.n, s, Mat2.identity(T), CHECKED,
                          "diag(alpha, alpha^(q^s)), alpha in F_(q^n)*")


def make_lp(T: FieldTower, s: int, delta) -> FamilyInstance:
    """f(x) = x^{q^s} + delta x^{q^{n-s}}, gcd(s,n) = 1, n > 3, N(delta) not 0 or 1."""
    d = int(delta)
    if math.gcd(s, T.n) != 1 or not 1 <= s < T.n:
        raise BadParams(f"need gcd(s, n) = 1, got s={s}")
    if T.n <= 3:
        raise BadParams("Lunardon-Polverino shape needs n > 3")
    if T.rel_norm_code(d, 1) in (0, 1):
        raise BadParams("norm of delta over F_q must avoid 0 and 1")
    coeffs = [0] * T.n
    coeffs[s] = 1
    coeffs[T.n - s] = d
    poly = LinearizedPoly(T, coeffs)
    if T.n % 2 == 0:
        return FamilyInstance(2, {"s": s, "delta": d}, poly, 2, 1, Mat2.identity(T), CHECKED,
                              "diag(alpha, alpha^q), alpha in F_(q^2)*")
    return FamilyInstance(2, {"s": s, "delta": d}, poly, 1, 0, Mat2.identity(T), CHECKED,
                          "diag(alpha, alpha), alpha in F_q*")


def _family3_half(T: FieldTower, s: int) -> int:
    """n/2, after the conditions of family 3 that do not depend on delta."""
    if T.n not in (6, 8):
        raise BadParams("this family is defined for n in {6, 8}")
    half = T.n // 2
    if math.gcd(s, half) != 1:
        raise BadParams(f"need gcd(s, n/2) = 1, got s={s}")
    if not 1 <= s < T.n:
        raise BadParams(f"need 1 <= s < n, got s={s}")
    return half


def _check_family4_field(T: FieldTower):
    """The condition of family 4 that does not depend on delta."""
    if T.n != 6:
        raise BadParams("this family lives in F_(q^6)[x]")


def _check_psi_shape(T: FieldTower, t: int):
    """The condition of family 5 that depends on neither h nor s."""
    if T.n != 2 * t or t < 3:
        raise BadParams(f"need n = 2t with t >= 3, got n={T.n}, t={t}")


def make_family3(T: FieldTower, s: int, delta) -> FamilyInstance:
    """f(x) = delta x^{q^s} + x^{q^{s + n/2}}, n in {6, 8}; scatteredness re-checked."""
    d = int(delta)
    half = _family3_half(T, s)
    if T.rel_norm_code(d, half) in (0, 1):
        raise BadParams("norm of delta over F_(q^(n/2)) must avoid 0 and 1")
    coeffs = [0] * T.n
    coeffs[s % T.n] = T.add_code(coeffs[s % T.n], d)
    coeffs[(s + half) % T.n] = T.add_code(coeffs[(s + half) % T.n], 1)
    poly = LinearizedPoly(T, coeffs)
    if not is_scattered(poly):
        raise BadParams("delta fails the computational scatteredness gate")
    return FamilyInstance(3, {"s": s, "delta": d}, poly, half, s % half, Mat2.identity(T),
                          COMPUTATION_ONLY,
                          "diag(alpha, alpha^(q^s)), alpha in F_(q^(n/2))*")


def make_family4(T: FieldTower, delta) -> FamilyInstance:
    """f(x) = x^q + x^{q^3} + delta x^{q^5} over F_{q^6}."""
    d = int(delta)
    _check_family4_field(T)
    validity = CHECKED
    if T.p != 2:
        lhs = T.add_code(T.mul_code(d, d), d)
        if lhs != 1:
            raise BadParams("need delta^2 + delta = 1 for odd q")
    else:
        validity = COMPUTATION_ONLY
    coeffs = [0] * 6
    coeffs[1], coeffs[3], coeffs[5] = 1, 1, d
    poly = LinearizedPoly(T, coeffs)
    if not is_scattered(poly):
        raise BadParams("delta fails the computational scatteredness gate")
    return FamilyInstance(4, {"delta": d}, poly, 2, 1, Mat2.identity(T), validity,
                          "diag(alpha, alpha^q), alpha in F_(q^2)*")


def make_psi(T: FieldTower, h, t: int, s: int) -> FamilyInstance:
    """The four-term family on F_{q^{2t}}, t >= 3, q odd, N_{q^n/q^t}(h) = -1.

    The predicted stabilizer is D(1, 2) = {diag(alpha, alpha^q)}, alpha in
    F_(q^2), for even t.  For odd t it is P_theta G_f P_theta^-1 = D(1, 2),
    with theta = psi_theta(h, t, s) and P_theta = (1 theta; 1 -theta).  Proof:
    * G_f = {M = (alpha, xi theta; xi/theta, alpha)} with alpha in F_q and xi
      in ker(x^(q^s) + x), and P_theta M = diag(alpha + xi, alpha - xi) P_theta.
    * xi^(q^(2s)) = xi and gcd(2s, 2t) = 2 put xi in F_(q^2).  s is odd, as
      gcd(s, 2t) = 1, so xi^q = xi^(q^s) = -xi and beta = alpha + xi has
      beta^q = alpha - xi.
    * The xi form the trace-zero line of F_(q^2) over F_q, which meets F_q
      only in 0 for odd q, so beta runs over all of F_(q^2).
    """
    hc = int(h)
    n, q, M = T.n, T.q, T.mult_order
    _check_psi_shape(T, t)
    if math.gcd(s, n) != 1:
        raise BadParams(f"need gcd(s, n) = 1, got s={s}")
    if not 1 <= s < T.n:
        raise BadParams(f"need 1 <= s < n, got s={s}")
    if T.p == 2:
        raise BadParams("q must be odd for this family")
    if T.rel_norm_code(hc, t) != T.neg_code(1):
        raise BadParams("norm of h over F_(q^t) must be -1")
    coeffs = [0] * n
    terms = [
        (s % n, 1),
        ((s * (t - 1)) % n, 1),
        ((s * (t + 1)) % n, T.pow_code(hc, 1 + q**s)),
        ((s * (2 * t - 1)) % n, T.pow_code(hc, (1 - q ** (s * (2 * t - 1))) % M)),
    ]
    for e_exp, c in terms:
        coeffs[e_exp] = T.add_code(coeffs[e_exp], c)
    poly = LinearizedPoly(T, coeffs)
    if t % 2 == 0:
        return FamilyInstance(5, {"h": hc, "t": t, "s": s}, poly, 2, 1, Mat2.identity(T),
                              CHECKED, "diag(alpha, alpha^q), alpha in F_(q^2)*")
    theta = psi_theta(T, hc, t, s)
    if theta == 0:
        raise InternalError("degenerate theta = 0; stabilizer shape undefined")
    return FamilyInstance(5, {"h": hc, "t": t, "s": s}, poly, 2, 1,
                          Mat2(T, 1, theta, 1, T.neg_code(theta)), CHECKED,
                          "(alpha, xi*theta; xi/theta, alpha), alpha in F_q, xi^(q^s) = -xi")


def psi_standard_form_closed(T: FieldTower, h, t: int, s: int, formula) -> LinearizedPoly:
    """Closed standard forms of the four-term family where one is known.

    formula="trinomial", t = 3 (any valid h):
        (1 - h^(1+q^(2s))) x^(q^s) + (h + h^2) x^(q^(3s)) + h^(1+q^(2s)) (h + h^(q^s)) x^(q^(5s)).
    formula="series", t odd with h in F_q (so h^2 = -1, q = 1 mod 4): the
    alternating series
        h * sum_i (-1)^i x^(u^(2i-1)) + sum_i (-1)^(i+1) x^(u^(t+2i)), u = q^s.
    """
    hc = int(h)
    n, q, M = T.n, T.q, T.mult_order
    if n != 2 * t:
        raise BadParams(f"need n = 2t, got n={n}, t={t}")
    if not 1 <= s < T.n:
        raise BadParams(f"need 1 <= s < n, got s={s}")
    in_fq = T.subfield_member_code(hc, 1)
    if formula == "trinomial":
        if t != 3:
            raise UnsupportedParams("the trinomial form is displayed only for t = 3")
        c1 = T.sub_code(1, T.pow_code(hc, 1 + q ** (2 * s)))
        c2 = T.add_code(hc, T.mul_code(hc, hc))
        c3 = T.mul_code(T.pow_code(hc, 1 + q ** (2 * s)),
                        T.add_code(hc, T.frob_code(hc, s)))
        coeffs = [0] * n
        for e_exp, c in [((s) % n, c1), ((3 * s) % n, c2), ((5 * s) % n, c3)]:
            coeffs[e_exp] = T.add_code(coeffs[e_exp], c)
        return LinearizedPoly(T, coeffs)
    if formula == "series":
        if t % 2 == 0 or not in_fq:
            raise UnsupportedParams("the series form needs odd t and h in F_q")
        if T.mul_code(hc, hc) != T.neg_code(1):
            raise BadParams("for h in F_q the norm condition forces h^2 = -1")
        coeffs = [0] * n
        for i in range(1, t + 1):
            e_exp = (s * (2 * i - 1)) % n
            term = T.neg_code(hc) if i % 2 else hc
            coeffs[e_exp] = T.add_code(coeffs[e_exp], term)
        for i in range(1, t):
            e_exp = (s * (t + 2 * i)) % n
            term = 1 if i % 2 else T.neg_code(1)
            coeffs[e_exp] = T.add_code(coeffs[e_exp], term)
        return LinearizedPoly(T, coeffs)
    raise UnsupportedParams(f"unknown formula {formula!r}")


# -- deterministic parameter searches ----------------------------------------


def find_lp_delta(T: FieldTower):
    """The first delta (in g^k order) with N_{q^n/q}(delta) not in {0, 1}:
    N(g^k) = g^(k (q^n - 1)/(q - 1)) is 1 exactly when (q - 1) | k, so it is
    g itself for q > 2; q = 2 has none."""
    if T.q == 2:
        raise BadParams("no valid delta exists")
    return T.gen_code


def _first_delta(T: FieldTower, make, bound, refusal):
    """The first g^k, k < bound, that make(g^k) accepts without BadParams;
    BadParams(refusal) when there is none."""
    for k in range(bound):
        d = T.pow_code(T.gen_code, k)
        try:
            make(d)
            return d
        except BadParams:
            continue
    raise BadParams(refusal)


def find_family3_delta(T: FieldTower, s=1):
    """First delta among g^k, k < 2000, that make_family3 accepts: its
    norm condition and scatteredness gate.  The conditions that do not
    depend on delta are refused first."""
    _family3_half(T, s)
    return _first_delta(T, lambda d: make_family3(T, s, d), min(T.mult_order, 2000),
                        "no valid delta found within the search limit")


def find_family4_delta(T: FieldTower):
    """Roots of delta^2 + delta - 1 for odd q; gated scan for q even.  n != 6
    is refused first."""
    _check_family4_field(T)
    if T.p == 2:
        return _first_delta(T, lambda d: make_family4(T, d), T.mult_order, "no valid delta found")
    roots = T.solve_quadratic(1, T.neg_code(1))
    if not roots:
        raise BadParams("delta^2 + delta = 1 has no root in this field")
    return min(roots, key=T.element_key)


def find_psi_h(T: FieldTower, t: int, index=0):
    """index-th h (in g^k order) with N_{q^n/q^t}(h) = -1: for n = 2t and odd q,
    N(g^j) = g^(j (q^t + 1)) is -1 = g^(M/2) exactly when j = (q^t - 1)/2 mod q^t - 1."""
    _check_psi_shape(T, t)
    if T.p == 2:
        raise BadParams("q must be odd")
    order = T.q**t - 1
    return T.pow_code(T.gen_code, order // 2 + index * order)


def catalog(T: FieldTower) -> list[FamilyInstance]:
    """Every family instance constructible on this tower with default searches.

    A tower that a family does not live on is refused with BadParams by its
    search or constructor before any candidate is built, and skipped here.
    """
    out = [make_pseudoregulus(T, s) for s in range(1, T.n) if math.gcd(s, T.n) == 1]
    t = T.n // 2
    builders = (
        lambda: make_lp(T, 1, find_lp_delta(T)),
        lambda: make_family3(T, 1, find_family3_delta(T)),
        lambda: make_family4(T, find_family4_delta(T)),
        lambda: make_psi(T, find_psi_h(T, t), t, 1),
    )
    for build in builders:
        try:
            out.append(build())
        except BadParams:
            pass
    return out
