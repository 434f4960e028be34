"""Standard forms of scattered polynomials and GL/GammaL equivalence.

A scattered polynomial whose stabilizer is larger than the scalar group is
GL-equivalent to one whose exponents all lie in a single residue class
s mod t, t = gcd of the exponent differences.  The witness matrix comes out
of the simultaneous diagonalization of the stabilizer, which also names the
class, so the standard form and its inverse are each solved for on their
class, n/t unknowns over F_{q^n}, with no F_p-inversion.  The remaining (a, b,
inversion) freedom is resolved with the lowest coefficient normalized to 1,
taking the lexicographically smallest coefficient vector in the g^k element
order (zero sorts last).  With b = g^lam each coefficient's log is linear in
lam mod q^n - 1, so the least b is found term by term, one linear
congruence each, with no scan over F_{q^n}^*: `canonicalize` answers on
every field, while `to_standard_form` needs G_f and so the census.

Equivalence is one F_p-kernel, S(f, g) = {M : U_f M in U_g}.  For scattered
f, g with n >= 3 a rank-1 M would put n - 1 >= 2 F_q-dimensions of U_g on
one F_(q^n)-line, so every nonzero M is invertible and the kernel is nonzero
exactly when U_f ~ U_g.  Only f is checked for scatteredness up front: an
invertible W in the kernel with U_f W = U_g proves that g is scattered too,
so g's census runs only on the paths that answer "not equivalent" or raise.
"""

from __future__ import annotations

import math

from .errors import InternalError, NotBijective, NotInS, NotScattered, NotStandard
from .field_tower import FieldTower
from .linearized import LinearizedPoly
from .scatter import is_scattered
from .stabilizer import Mat2, MatrixField, compute_stabilizer, diagonalize


class StandardFormResult:
    """Canonical standard form h with witness P such that U_f P^{-1} = U_h.

    Two results are equal when all four values are.
    """

    __slots__ = ("h", "P", "s", "t")

    def __init__(self, h: LinearizedPoly, P: Mat2, s: int, t: int):
        self.h = h
        self.P = P
        self.s = s
        self.t = t

    def _values(self):
        return (self.h, self.P, self.s, self.t)

    def __eq__(self, other):
        if not isinstance(other, StandardFormResult):
            return NotImplemented
        return self._values() == other._values()

    def to_json(self):
        return {
            "h": self.h.to_json()["coeffs"],
            "P": self.P.to_json(),
            "s": self.s,
            "t": self.t,
            "canonical": True,
        }


def _vector_key(tower: FieldTower, coeffs):
    return tuple(tower.element_key(c) for c in coeffs)


def _min_exponent(M, terms):
    """The least lam in [0, M) that makes ((rho + lam e) mod M for (rho, e)
    in terms) lexicographically least.

    The minimizers of the terms so far are a progression {c + k m}, m | M,
    starting from every lam (c = 0, m = 1).  On it the next term takes the
    values (A + k m e) mod M with A = rho + c e, and {k m e mod M} is the
    multiples of g = gcd(m e, M): the least value is A mod g, reached
    exactly when k (m e / g) = -(A // g) mod M / g.  m e / g is a unit there,
    so the minimizers are the progression with first element c + k0 m and
    step m M / g, one modular inverse away.
    """
    c, m = 0, 1
    for rho, e in terms:
        A = (rho + c * e) % M
        g = math.gcd(m * e, M)
        mod = M // g
        k0 = -(A // g) * pow(m * e // g, -1, mod) % mod
        c, m = c + k0 * m, m * mod
    return c


def _ab_min(r: LinearizedPoly):
    """Lex-min of {normalized a*r(bx)} over b, with the witness (a, b).

    Normalization fixes the lowest-index nonzero coefficient to 1, which
    pins a.  With b = g^lam the other coefficients have logs
    (rho_i + lam e_i) mod M, rho_i = log r_i - log r_i0 and
    e_i = q^i - q^i0, so the least b (in the g^k order) is `_min_exponent`
    in closed form, with no scan and no table (`FieldTower.dlog` runs
    Pohlig-Hellman without one).  Returns (poly, a_code, b_code).
    """
    T = r.tower
    M = T.mult_order
    supp = r.support
    if not supp:
        raise NotStandard("zero polynomial")
    i0 = supp[0]
    l0, q0 = T.dlog(r.coeffs[i0]), pow(T.q, i0, M)
    lam = _min_exponent(M, [((T.dlog(r.coeffs[i]) - l0) % M, (pow(T.q, i, M) - q0) % M)
                            for i in supp[1:]])
    b = T.pow_code(T.gen_code, lam)
    scaled = r.transform(1, b)
    a = T.inv_code(scaled.coeffs[i0])
    return scaled.scale(a), a, b


def _canonicalize_witness(h: LinearizedPoly, s, t):
    """(h_c, branch, a, b) with h_c = a*h(bx) or a*h^{-1}(bx), lex-minimal.

    Every exponent of h is congruent to s mod t, and t divides n, so
    h(alpha x) = alpha^(q^s) h(x) for alpha in F_(q^t).  Applying h^-1 to
    both sides gives h^-1(beta y) = beta^(q^-s) h^-1(y) with
    beta = alpha^(q^s), which runs over F_(q^t) too, so every exponent of
    h^-1 is congruent to -s mod t: the inverse branch is the solution r of
    r o h = x on that class, and there is none when h is not bijective.
    Only the n/t equations at x^(q^m) with t | m have terms, so the system
    is square.
    """
    T = h.tower
    candidates = [(_ab_min(h), "direct")]
    hinv = h.solve_on_class(LinearizedPoly.identity(T), -s, t)
    if hinv is not None:
        candidates.append((_ab_min(hinv), "inverse"))
    (poly, a, b), branch = min(candidates, key=lambda c: _vector_key(T, c[0][0].coeffs))
    return poly, branch, a, b


def canonicalize(h: LinearizedPoly) -> LinearizedPoly:
    """Canonical representative of the orbit {a h(bx)} union {a h^{-1}(bx)}.

    Raises NotStandard when t_h = 1 and ZeroPolynomial for h = 0.
    """
    return _canonicalize_witness(h, *h.standard_form_params())[0]


def _uv_from(f: LinearizedPoly, Pinv: Mat2):
    """The pair of q-polynomials (u, v) with (x, f(x)) Pinv = (u(x), v(x))."""
    T = f.tower

    def plus_x(a, g):               # a x + g
        return LinearizedPoly._of(T, (T.add_code(a, g.coeffs[0]),) + g.coeffs[1:])

    return plus_x(Pinv.a, f.scale(Pinv.c)), plus_x(Pinv.b, f.scale(Pinv.d))


def image_polynomial(f: LinearizedPoly, W: Mat2) -> LinearizedPoly:
    """g with U_f W = U_g, when the first-coordinate map u is invertible.

    (x, f(x)) W = (u(x), v(x)), and g is the solution of g o u = v on the
    class 0 mod 1; raises NotBijective when u has a kernel.
    """
    u, v = _uv_from(f, W)
    g = u.solve_on_class(v, 0, 1)
    if g is None:
        raise NotBijective("polynomial has nontrivial kernel")
    return g


def _standard_pair(f: LinearizedPoly):
    """(form, h0): the diagonal form of G_f and h0 with U_f P^-1 = U_h0, solved
    for on its class s mod t (proof in `to_standard_form`); NotScattered from
    the census before the stabilizer is built, NotInS for t = 1.  The
    standard-form and plane tasks both read it, so it is memoized per tower
    like the census and the stabilizer."""
    cache = f.tower.cache("standard_pair")
    if f.coeffs in cache:
        return cache[f.coeffs]
    if not is_scattered(f):
        raise NotScattered("polynomial is not scattered")
    Mf = compute_stabilizer(f)
    if Mf.t == 1:
        raise NotInS("stabilizer is the scalar group; no standard form exists")
    form = diagonalize(Mf)
    u, v = _uv_from(f, form.P.inverse())
    h0 = u.solve_on_class(v, form.s, form.t)
    if h0 is None:
        raise InternalError("no standard form on the certified class, contradicting "
                            "scatteredness")
    cache[f.coeffs] = form, h0
    return form, h0


def to_standard_form(f: LinearizedPoly) -> StandardFormResult:
    """Standard form of f with the conjugating witness, canonicalized.

    Pipeline: diagonalize the stabilizer field by P, push U_f through
    X -> X P^{-1} to {(u(x), v(x))}, solve for h0 = v o u^-1 on its
    residue class (`_standard_pair`), then canonicalize to h_c = a h0(b x)
    or a h0^-1(b x), with h0^-1 solved for on its class too.  What the result
    promises follows from the certified diagonal form
    P G_f P^-1 = D(s0, t) = {diag(alpha, alpha^(q^s0))} and is not checked
    again:
    - u and v are bijective.  D(s0, t) fixes U_f P^-1 and acts on the line
      X = 0 as y -> alpha^(q^s0) y, so U_f P^-1 meets that line in an
      F_(q^t)-space; U_f P^-1 is scattered with U_f, so the meet has
      F_q-dimension at most 1 < t and is zero: u has no kernel.  The line
      Y = 0 gives the same for v.
    - So U_f P^-1 = U_h0 with h0 bijective, and G_h0 = D(s0, t): h0 has
      h0(alpha x) = alpha^(q^s0) h0(x) for alpha in F_(q^t), so every
      exponent of h0 is congruent to s0 mod t.  r o u = v has no other
      solution on that class, since r o u = 0 with u bijective forces
      r = 0; a None from the solve would contradict the certificate and
      raises InternalError.  h0^-1 is found on the class -s0 mod t
      (`_canonicalize_witness`).
    - The scaling X -> X diag(b^-1, a), after the swap of the coordinates in
      the inverse branch, carries U_h0 onto U_(h_c), so U_f Pc^-1 = U_(h_c).
    - So G_(h_c) = Pc G_f Pc^-1.  That is D(s0, t) in the direct branch,
      since diagonal matrices commute, and D(t - s0, t) in the inverse
      branch, since the swap turns diag(alpha, alpha^(q^s0)) into
      diag(beta, beta^(q^(t - s0))) with beta = alpha^(q^s0).
    - A polynomial h with G_h = D(s', t), as h0 and h_c are, has every
      exponent congruent to s' mod t, as above, so t divides t_h.  A larger
      t_h would put D(s', t_h), of order q^(t_h), into G_h with zero, of
      order q^t.  So h_c has (s, t) = (s0, t) in the direct branch and
      (t - s0, t) in the inverse one, and both are taken from the form.
    - gcd(s, t) = 1 for scattered f (`MatrixField`), so s0 >= 1
      when t > 1, and t - s0 lies in [1, t) as s does.
    """
    T = f.tower
    form, h0 = _standard_pair(f)
    P = form.P
    h_c, branch, a, b = _canonicalize_witness(h0, form.s, form.t)
    # Pc = diag(b, a^-1) P, with the rows of P swapped first in the inverse branch
    rows = (P.a, P.b, P.c, P.d) if branch == "direct" else (P.c, P.d, P.a, P.b)
    ainv = T.inv_code(a)
    Pc = Mat2._of(T, *(T.mul_code(b, x) for x in rows[:2]),
                  *(T.mul_code(ainv, x) for x in rows[2:]))
    s = form.s if branch == "direct" else form.t - form.s
    return StandardFormResult(h_c, Pc, s, form.t)


class EquivalenceResult:
    __slots__ = ("equivalent", "mode", "witness", "sigma_p_exponent", "reason")

    def __init__(self, equivalent: bool, mode: str, witness: Mat2 | None = None,
                 sigma_p_exponent: int | None = None, reason: str = ""):
        self.equivalent = equivalent
        self.mode = mode                  # "GL" or "GammaL"
        self.witness = witness
        self.sigma_p_exponent = sigma_p_exponent
        self.reason = reason

    def to_json(self):
        doc = {"equivalent": self.equivalent, "mode": self.mode, "reason": self.reason}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        if self.sigma_p_exponent is not None:
            doc["sigma_p_exponent"] = self.sigma_p_exponent
        return doc


def _pair_kernel(f: LinearizedPoly, g: LinearizedPoly):
    """S(f, g), and whether its first basis matrix W proves U_f W = U_g.

    W proves it when det W != 0 and one product with the pair system puts
    W's digit row in its kernel (`MatrixField.outside`, the check that
    `verify_field` runs on G_f).  W in the kernel gives g(u(x)) = v(x) for
    (x, f(x)) W = (u(x), v(x)), so U_f W lies in U_g; an invertible W makes
    |U_f W| = q^n = |U_g|, so the two are equal.  Such a W maps each
    F_(q^n)-line onto one, so U_g = U_f W is scattered with U_f, and g needs
    no census.
    """
    S = MatrixField.of_pair(f, g)
    if not S.basis:
        return S, False
    return S, S.basis[0].det() != 0 and not S.outside(S.coords[:1]).any()


def _witness(f: LinearizedPoly, S: MatrixField, proven: bool) -> Mat2:
    """The first basis matrix of a nonzero S = S(f, g), for scattered f, g.

    S(f, g) = (G_f with zero) W, so its order must equal |G_f| + 1.  For
    scattered g the witness is proven (`_pair_kernel`): a singular W would
    put U_g on one F_(q^n)-line.
    """
    if S.order != compute_stabilizer(f).order:
        raise InternalError(f"|S(f, g)| = {S.order} differs from |G_f| + 1")
    if not proven:
        raise InternalError("kernel witness fails the exhaustive check")
    return S.basis[0]


def _require_scattered(*polys: LinearizedPoly):
    if not all(is_scattered(f) for f in polys):
        raise NotScattered("equivalence testing is defined for scattered inputs")


def _orders_agree(f: LinearizedPoly, g: LinearizedPoly) -> bool:
    return compute_stabilizer(f).order == compute_stabilizer(g).order


def gl_equivalent(f: LinearizedPoly, g: LinearizedPoly) -> EquivalenceResult:
    """Decide U_f ~ U_g under GL(2, q^n), with witness when equivalent.

    Both inputs must be scattered.  The answer is the kernel S(f, g), and
    its first basis matrix is the witness.  f is checked first; a proven
    witness W (`_pair_kernel`) shows that g is scattered too, so g's census
    runs only when there is none.  A nonzero S gives U_f W = U_g with W
    invertible, so G_g = W^-1 G_f W and the stabilizer orders agree; only
    an empty S computes G_g, to report whether the orders already differ
    (the order is a GL-invariant).  n = 2 is refused with HallCase by
    compute_stabilizer.
    """
    _require_scattered(f)
    S, proven = _pair_kernel(f, g)
    if not proven:
        _require_scattered(g)
    if S.basis:
        return EquivalenceResult(True, "GL", witness=_witness(f, S, proven))
    if not _orders_agree(f, g):
        return EquivalenceResult(False, "GL", reason="stabilizer orders differ")
    return EquivalenceResult(False, "GL", reason="no nonzero M with U_f M in U_g")


def gammal_equivalent(f: LinearizedPoly, g: LinearizedPoly) -> EquivalenceResult:
    """Decide equivalence under GammaL(2, q^n), one kernel per coefficient twist.

    Loops sigma over all p-power automorphisms applied to g; equivalent when
    some twist g^sigma has a nonzero S(f, g^sigma).  The witness pair
    (P, sigma) satisfies U_f P = U_{g^sigma}.  Scatteredness and the
    stabilizer order are checked once: g^sigma is scattered with g, and
    G_(g^sigma) = (G_g)^sigma.  Unlike gl_equivalent, the order check comes
    first: it costs two stabilizers, and saves up to en kernels.
    """
    _require_scattered(f, g)
    if not _orders_agree(f, g):
        return EquivalenceResult(False, "GammaL", reason="stabilizer orders differ")
    for k in range(f.tower.en):
        S, proven = _pair_kernel(f, g.twist(k))
        if S.basis:
            return EquivalenceResult(True, "GammaL", witness=_witness(f, S, proven),
                                     sigma_p_exponent=k)
    return EquivalenceResult(False, "GammaL", reason="no coefficient twist matches")
