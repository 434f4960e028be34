"""Standard forms of scattered polynomials and GL/GammaL equivalence.

A scattered polynomial whose stabilizer is larger than the scalar group is
GL-equivalent to one whose exponents all lie in a single residue class
s mod t, t = gcd of the exponent differences.  The witness matrix comes out
of the simultaneous diagonalization of the stabilizer; the remaining (a, b,
inversion) freedom is resolved by an exhaustive scan over b with the lowest
coefficient normalized to 1, taking the lexicographically smallest
coefficient vector in the g^k element order (zero sorts last).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, NotBijective, NotInS, NotScattered, NotStandard
from .field_tower import FieldTower
from .linearized import LinearizedPoly
from .scatter import is_scattered
from .stabilizer import Mat2, compute_stabilizer, diagonalize


@dataclass
class StandardFormResult:
    """Standard form h with witness P such that U_f P^{-1} = U_h."""

    h: LinearizedPoly
    P: Mat2
    s: int
    t: int
    canonical: bool = True

    def to_json(self, style="g^k"):
        return {
            "h": self.h.to_json(style)["coeffs"],
            "P": self.P.to_json(style),
            "s": self.s,
            "t": self.t,
            "canonical": self.canonical,
        }


def in_class_S(f: LinearizedPoly) -> bool:
    """True when the stabilizer of U_f is strictly larger than the F_q-scalars."""
    Mf = compute_stabilizer(f)
    return Mf.t > 1


def _vector_key(tower: FieldTower, coeffs):
    return tuple(tower.element_key(c) for c in coeffs)


def _ab_min(r: LinearizedPoly):
    """Lex-min of {normalized a*r(bx)} over b, with the witness (a, b).

    Normalization fixes the lowest-index nonzero coefficient to 1, which
    pins a; the scan over b is exhaustive, vectorized in the log domain.
    Returns (poly, a_code, b_code).
    """
    T = r.tower
    T.require_tables("the scan over b")
    M = T.mult_order
    supp = r.support
    if not supp:
        raise NotStandard("zero polynomial")
    i0 = supp[0]
    qi = [pow(T.q, i, M) for i in range(T.n)]
    lr = {i: T.dlog(r.coeffs[i]) for i in supp}
    cand = np.arange(M, dtype=np.int64)
    for i in supp[1:]:
        rho = (lr[i] - lr[i0]) % M
        ei = (qi[i] - qi[i0]) % M
        vals = (rho + cand * ei) % M
        best = vals.min()
        cand = cand[vals == best]
    lam = int(cand[0])
    b = T.pow_code(T.gen_code, lam)
    scaled = r.transform(1, b)
    a = T.inv_code(scaled.coeffs[i0])
    return scaled.scale(a), a, b


def _canonicalize_witness(h: LinearizedPoly):
    """(h_c, branch, a, b) with h_c = a*h(bx) or a*h^{-1}(bx), lex-minimal."""
    T = h.tower
    cache = T.cache("canonical")
    if h.coeffs in cache:
        return cache[h.coeffs]
    candidates = [(_ab_min(h), "direct")]
    try:
        hinv = h.invert()
        candidates.append((_ab_min(hinv), "inverse"))
    except NotBijective:
        pass
    best = min(candidates, key=lambda c: _vector_key(T, c[0][0].coeffs))
    (poly, a, b), branch = best
    out = (poly, branch, a, b)
    cache[h.coeffs] = out
    return out


def canonicalize(h: LinearizedPoly) -> LinearizedPoly:
    """Canonical representative of the orbit {a h(bx)} union {a h^{-1}(bx)}."""
    if h.delta_profile().t_h == 1:
        raise NotStandard("polynomial is not in standard form")
    return _canonicalize_witness(h)[0]


def _uv_from(f: LinearizedPoly, Pinv: Mat2):
    """The pair of q-polynomials (u, v) with (x, f(x)) Pinv = (u(x), v(x))."""
    T = f.tower
    x = LinearizedPoly.identity(T)
    u = x.scale(Pinv.a) + f.scale(Pinv.c)
    v = x.scale(Pinv.b) + f.scale(Pinv.d)
    return u, v


def image_polynomial(f: LinearizedPoly, W: Mat2) -> LinearizedPoly:
    """g with U_f W = U_g, when the first-coordinate map is invertible."""
    u, v = _uv_from(f, W)
    return v.compose(u.invert())


def maps_onto(f: LinearizedPoly, W: Mat2, g: LinearizedPoly) -> bool:
    """Exact check that U_f W = U_g (as a polynomial identity v = g o u)."""
    u, v = _uv_from(f, W)
    try:
        u.invert()
    except NotBijective:
        return False
    return v == g.compose(u)


def _standard_shape(Mf, W: Mat2, s, t) -> bool:
    """Is W Mf W^-1 = {diag(al, al^(q^s)) : al in F_(q^t)}?

    Conjugation is F_p-linear, so a conjugated basis inside that F_p-space,
    whose order q^t equals |Mf| when Mf.t = t, spans all of it.
    """
    T = Mf.tower
    Winv = W.inverse()
    for b in Mf.basis:
        c = W * b * Winv
        if not c.is_diagonal() or T.frob_code(c.a, t) != c.a or T.frob_code(c.a, s) != c.d:
            return False
    return True


def to_standard_form(f: LinearizedPoly) -> StandardFormResult:
    """Standard form of f with the conjugating witness, canonicalized.

    Pipeline: diagonalize the stabilizer field by P, push U_f through
    X -> X P^{-1}, read off h, then canonicalize.  The result satisfies
    t_h = t, G_h all diagonal and G_h = {diag(alpha, alpha^{q^s})} over
    F_{q^t}; those consequences are re-verified on every call, the last on
    G_h = Pc G_f Pc^-1, which follows from U_f Pc^-1 = U_h.
    """
    T = f.tower
    cache = T.cache("standard_form")
    if f.coeffs in cache:
        return cache[f.coeffs]
    Mf = compute_stabilizer(f)
    if Mf.t == 1:
        raise NotInS("stabilizer is the scalar group; no standard form exists")
    diag = diagonalize(Mf)
    P = diag.P
    u, v = _uv_from(f, P.inverse())
    try:
        uinv = u.invert()
    except NotBijective as exc:
        raise InternalError(
            "first-coordinate map is singular, contradicting scatteredness") from exc
    h0 = v.compose(uinv)
    s0, t0 = h0.standard_form_params()
    if t0 != Mf.t:
        raise InternalError(f"exponent gcd {t0} disagrees with stabilizer degree {Mf.t}")
    h_c, branch, a, b = _canonicalize_witness(h0)
    D_inv = Mat2.diag(T, b, T.inv_code(a))
    if branch == "direct":
        Pc = D_inv * P
    else:
        Pc = D_inv * Mat2(T, 0, 1, 1, 0) * P
    if not maps_onto(f, Pc.inverse(), h_c):
        raise InternalError("witness matrix fails to map U_f onto U_h")
    s, t = h_c.standard_form_params()
    if math.gcd(s, t) != 1:
        raise InternalError("standard form of a scattered polynomial must have (s, t) = 1")
    if t != Mf.t or not _standard_shape(Mf, Pc, s, t):
        raise InternalError("stabilizer of the standard form has unexpected shape")
    result = StandardFormResult(h_c, Pc, s, t, canonical=True)
    cache[f.coeffs] = result
    return result


@dataclass
class EquivalenceResult:
    equivalent: bool | None      # None = undecidable by this artifact
    mode: str                    # "GL", "GammaL" or "Undecidable"
    witness: Mat2 | None = None
    sigma_p_exponent: int | None = None
    reason: str = ""

    def to_json(self, style="g^k"):
        doc = {"equivalent": self.equivalent, "mode": self.mode, "reason": self.reason}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json(style)
        if self.sigma_p_exponent is not None:
            doc["sigma_p_exponent"] = self.sigma_p_exponent
        return doc


def _branches(r: LinearizedPoly):
    out = [(r, False)]
    try:
        out.append((r.invert(), True))
    except NotBijective:
        pass
    return out


def _non_s_scan(f: LinearizedPoly, g: LinearizedPoly):
    """(a, b)-orbit and inversion search for polynomials without standard form."""
    T = f.tower
    J = Mat2(T, 0, 1, 1, 0)
    for rf, inv_f in _branches(f):
        pf, af, bf = _ab_min(rf)
        for rg, inv_g in _branches(g):
            pg, ag, bg = _ab_min(rg)
            if pf.coeffs != pg.coeffs:
                continue
            # U_canon = U_f [J?] D_f = U_g [J?] D_g with D = diag(b^{-1}, a)
            Df = Mat2.diag(T, T.inv_code(bf), af)
            Dg = Mat2.diag(T, T.inv_code(bg), ag)
            W = (J if inv_f else Mat2.identity(T)) * Df
            W = W * (( (J if inv_g else Mat2.identity(T)) * Dg).inverse())
            if maps_onto(f, W, g):
                return EquivalenceResult(True, "GL", witness=W)
    return EquivalenceResult(None, "Undecidable",
                             reason="no structural witness; full GL search is out of scope")


def gl_equivalent(f: LinearizedPoly, g: LinearizedPoly) -> EquivalenceResult:
    """Decide U_f ~ U_g under GL(2, q^n), with witness when equivalent.

    Both inputs must be scattered.  Inside the standard-form class the
    question reduces to equality of canonical forms; different stabilizer
    orders are immediately non-equivalent (the order is a GL-invariant, and
    equal orders put both inputs in the class or both out of it); outside
    the class only the diagonal/antidiagonal structural witnesses are
    searched and failure is reported as undecidable.
    """
    if not is_scattered(f) or not is_scattered(g):
        raise NotScattered("equivalence testing is defined for scattered inputs")
    if compute_stabilizer(f).order != compute_stabilizer(g).order:
        return EquivalenceResult(False, "GL", reason="stabilizer orders differ")
    if not in_class_S(f):
        return _non_s_scan(f, g)
    rf, rg = to_standard_form(f), to_standard_form(g)
    if rf.h != rg.h:
        return EquivalenceResult(False, "GL", reason="canonical standard forms differ")
    W = rf.P.inverse() * rg.P
    if not maps_onto(f, W, g):
        raise InternalError("assembled witness fails the exhaustive check")
    return EquivalenceResult(True, "GL", witness=W)


def gammal_equivalent(f: LinearizedPoly, g: LinearizedPoly) -> EquivalenceResult:
    """Decide equivalence under GammaL(2, q^n) by scanning coefficient twists.

    Loops sigma over all p-power automorphisms applied to g; equivalent when
    some twist is GL-equivalent to f.  The witness pair (P, sigma) satisfies
    U_f P = U_{g^sigma}.
    """
    if not is_scattered(f) or not is_scattered(g):
        raise NotScattered("equivalence testing is defined for scattered inputs")
    T = f.tower
    # the stabilizer order is a GammaL-invariant: G_(g^sigma) = (G_g)^sigma
    if compute_stabilizer(f).order != compute_stabilizer(g).order:
        return EquivalenceResult(False, "GammaL", reason="stabilizer orders differ")
    undecidable = False
    for k in range(T.en):
        gk = g.twist(k)
        res = gl_equivalent(f, gk)
        if res.equivalent:
            return EquivalenceResult(True, "GammaL", witness=res.witness,
                                     sigma_p_exponent=k)
        if res.equivalent is None:
            undecidable = True
    if undecidable:
        return EquivalenceResult(None, "Undecidable",
                                 reason="GL search undecidable for some twist")
    return EquivalenceResult(False, "GammaL", reason="no coefficient twist matches")
