"""The rank-distance code spanned by x and f(x), and its right idealizer.

Codewords are the q-polynomials a x + b f(x); the minimum distance is the
minimum rank over nonzero codewords.  Rank is invariant under scalar
multiples, so one word per projective class (a : b) suffices, and the rank
of each class is a fiber size of the slope census of f (the kernel form of
the scattered <=> MRD correspondence): the exact distance is one reduction
over the census counts, with no rank computation.  The right idealizer is
the kernel of an exact F_p-linear system: membership in the code is the
annihilator condition of its coefficient-vector span, and composition by f
is an F_p-linear operator on coefficient vectors.  The idealizer is kept as
its system and kernel basis (`stabilizer.FpSpace`), so its order is p^dim
and membership is one matrix-vector product; its elements are listed only
on request.  It is certified a field by the explicit isomorphism
(a b; c d) -> a x + c f from the certified stabilizer field G_f, checked on
the F_p-basis of G_f and its generator alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Mismatch, NotAField, TooLarge
from ._linalg import kernel_mod, rank_mod
from .field_tower import FieldTower, _digits
from .linearized import LinearizedPoly
from .scatter import slope_census
from .stabilizer import FpSpace, compute_stabilizer


@dataclass
class RdCode:
    """C_f = {a x + b f(x)} with implicit codeword access by (a, b)."""

    tower: FieldTower
    f: LinearizedPoly

    def codeword(self, a, b) -> LinearizedPoly:
        """a x + b f; `LinearizedPoly.scale` refuses a or b outside [0, q^n)."""
        x = LinearizedPoly.identity(self.tower)
        return x.scale(a) + self.f.scale(b)

    @property
    def degenerate(self):
        """True when f is a scalar multiple of x, so the span is 1-dimensional."""
        return all(c == 0 for c in self.f.coeffs[1:])


def code_of(f: LinearizedPoly) -> RdCode:
    return RdCode(f.tower, f)


def min_distance(C: RdCode) -> int:
    """Minimum rank over nonzero codewords, read off the slope census of f.

    No rank is computed.  The word x + b f (b != 0) vanishes exactly on 0
    and the fiber of f(x)/x at -1/b, and f vanishes on its kernel, so every
    class has rank n - log_q(fiber + 1); the class (1, 0) has rank n.  Hence
    d = n - k for the largest fiber dimension k < n, with k = 0 when every
    fiber is trivial (dimension n is the zero word, when f is c x or 0).
    The census needs exp/log tables and refuses other fields with TooLarge.
    """
    T = C.tower
    census = slope_census(C.f)
    dims = {T.log_q(c + 1) for c in set(census.counts.tolist()) | {census.kernel_count}}
    return T.n - max(k for k in dims | {0} if k < T.n)


def min_distance_naive(C: RdCode) -> int:
    """Full enumeration over all q^(2n) coefficient pairs; oracle use only."""
    T = C.tower
    if T.size ** 2 > 1 << 18:
        raise TooLarge("naive enumeration is reserved for tiny fields")
    best = T.n + 1
    for a in range(T.size):
        for b in range(T.size):
            if a == 0 and b == 0:
                continue
            w = C.codeword(a, b)
            if w.is_zero():
                continue
            best = min(best, w.rank())
    return best


@dataclass(eq=False)
class Idealizer(FpSpace):
    tower: FieldTower
    system: np.ndarray        # its kernel mod p is the idealizer, on coefficient vectors
    basis: tuple              # F_p-basis of that kernel, as LinearizedPoly

    @staticmethod
    def key(w):
        return w.coeffs

    @staticmethod
    def from_key(tower, codes):
        return LinearizedPoly(tower, codes)


def _poly_vec(f: LinearizedPoly):
    T = f.tower
    out = []
    for c in f.coeffs:
        out.extend(_digits(c, T.p, T.en))
    return out


def _code_annihilator(C: RdCode):
    """Rows N with N v = 0 exactly for coefficient vectors v of members of C."""
    T = C.tower
    rows = []
    for m in range(T.en):
        beta = int(T.p**m)
        rows.append(_poly_vec(C.codeword(beta, 0)))
        rows.append(_poly_vec(C.codeword(0, beta)))
    return kernel_mod(np.array(rows, dtype=np.int64), T.p)


def _right_compose_operator(T: FieldTower, f: LinearizedPoly):
    """Matrix of phi -> f o phi on coefficient vectors.

    Coefficient k of f o phi is sum_i f_i phi_(k-i)^(q^i), so block (k, j)
    is the F_p-matrix of the monomial f_(k-j) x^(q^(k-j)); the n monomial
    matrices come from one `FieldTower.qpoly_matrices` call.
    """
    n, en = T.n, T.en
    blocks = T.qpoly_matrices(np.diag(f.coeffs))
    shift = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n   # shift[k, j] = k - j
    return blocks[shift].transpose(0, 2, 1, 3).reshape(n * en, n * en)


def right_idealizer(C: RdCode) -> Idealizer:
    """{phi : c o phi in C for all c in C}, i.e. phi in C and f o phi in C."""
    T = C.tower
    N = _code_annihilator(C)
    Tf = _right_compose_operator(T, C.f)
    return Idealizer.from_system(T, np.vstack([N, (N @ Tf) % T.p]))


def stabilizer_to_right_idealizer(M, f: LinearizedPoly) -> LinearizedPoly:
    """The map (a b; c d) -> a x + c f underlying the group isomorphism."""
    x = LinearizedPoly.identity(f.tower)
    return x.scale(M.a) + f.scale(M.c)


def verify_idealizer_field(I: Idealizer, f: LinearizedPoly):
    """Certify I = I_R(C_f) as a field of order q^t by phi: G_f -> I; returns (t, phi(alpha)).

    phi(M) = a x + c f is F_p-linear, so its images of the G_f basis lying
    in I and F_p-independent, with |I| = |G_f| + 1, make phi a bijection of
    G_f with zero onto I.  phi(alpha b) = phi(b) o phi(alpha) on the basis
    holds on all of G_f, as both sides are F_p-linear in b, so phi(alpha^k)
    = phi(alpha)^k for the generator alpha of G_f: the nonzero part of I is
    the cyclic group generated by phi(alpha), of order q^t - 1, and I is a
    field.  No rank of an element and no power is computed.  Raises
    NotAField when I's basis leaves the kernel of I.system, and Mismatch
    when a part of the isomorphism fails.
    """
    Mf = compute_stabilizer(f)
    if not all(I.contains(b) for b in I.basis):
        raise NotAField("a basis element lies outside the kernel of the system")
    if I.order != Mf.order:
        raise Mismatch(f"right idealizer order {I.order} != stabilizer order {Mf.order}")
    images = [stabilizer_to_right_idealizer(M, f) for M in Mf.basis]
    if not all(I.contains(phi) for phi in images):
        raise Mismatch("stabilizer image escapes the right idealizer")
    vecs = np.array([_poly_vec(phi) for phi in images], dtype=np.int64)
    if rank_mod(vecs, f.tower.p) != len(images):
        raise Mismatch("stabilizer does not biject onto the right idealizer")
    phi_alpha = stabilizer_to_right_idealizer(Mf.generator, f)
    for b in Mf.basis:
        if (stabilizer_to_right_idealizer(Mf.generator * b, f)
                != stabilizer_to_right_idealizer(b, f).compose(phi_alpha)):
            raise Mismatch("isomorphism is not multiplicative")
    return Mf.t, phi_alpha


def check_idealizer_matches_stabilizer(f: LinearizedPoly) -> dict:
    """|I_R(C_f)| = |G_f| + 1 and the explicit isomorphism works (verify_idealizer_field).

    Raises Mismatch when any part fails; returns a small report otherwise.
    """
    IR = right_idealizer(code_of(f))
    t, _ = verify_idealizer_field(IR, f)
    return {"order": IR.order, "t": t, "matches": True}
