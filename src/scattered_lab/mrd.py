"""The rank-distance code spanned by x and f(x), and its right idealizer.

Codewords are the q-polynomials a x + b f(x); the minimum distance is the
minimum rank over nonzero codewords.  Rank is invariant under scalar
multiples, so one word per projective class (a : b) suffices, and the rank
of each class is a fiber size of the slope census of f (the kernel form of
the scattered <=> MRD correspondence): the exact distance is one reduction
over the census counts, with no rank computation.  The right idealizer
needs no system of its own: phi in C_f with f o phi in C_f is the pair
equation of the stabilizer, so I_R(C_f) is the image of the memoized
kernel S(f, f) under (a b; c d) -> a x + c f, kept as the images of its
F_p-basis.  For scattered f that map is an isomorphism from the certified
field G_f with zero, so I_R is a field with no check of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLarge
from .field_tower import FieldTower
from .linearized import LinearizedPoly
from .scatter import slope_census
from .stabilizer import compute_stabilizer


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
class Idealizer:
    """An F_p-space of q-polynomials kept as an F_p-basis; order p^len(basis)."""

    tower: FieldTower
    basis: tuple              # F_p-basis, as LinearizedPoly

    @property
    def order(self):
        return self.tower.p ** len(self.basis)


def right_idealizer(C: RdCode) -> Idealizer:
    """I_R(C_f) = {phi : c o phi in C_f for all c in C_f}, read off G_f's kernel.

    C_f is closed under left scalar multiplication, so the condition is
    phi in C_f and f o phi in C_f: phi = a x + c f and f o phi = b x + d f,
    which is the pair equation b x + d f = f(a x + c f) of M = (a b; c d).
    So I_R is the image of the kernel S(f, f) of the memoized
    `compute_stabilizer(f, check_scattered=False)` under the F_p-linear
    map phi(M) = a x + c f, and the images of its basis span I_R.  When f
    is not in F_(q^n) x, x and f are F_(q^n)-independent: phi(M) = 0 forces
    a = c = 0, then b x + d f = 0 forces b = d = 0, so phi is one-to-one
    and the images are a basis.  A degenerate f = c x (0 included) spans
    C_f = F_(q^n) x, which every beta x keeps, so I_R has the basis
    {X^m x : m < en} and order q^n.  A scattered f at n = 2 raises HallCase
    from compute_stabilizer.
    """
    T = C.tower
    if C.degenerate:
        x = LinearizedPoly.identity(T)
        return Idealizer(T, tuple(x.scale(int(T.p**m)) for m in range(T.en)))
    S = compute_stabilizer(C.f, check_scattered=False)
    return Idealizer(T, tuple(stabilizer_to_right_idealizer(M, C.f) for M in S.basis))


def stabilizer_to_right_idealizer(M, f: LinearizedPoly) -> LinearizedPoly:
    """The map (a b; c d) -> a x + c f underlying the group isomorphism."""
    x = LinearizedPoly.identity(f.tower)
    return x.scale(M.a) + f.scale(M.c)


def verify_idealizer_field(f: LinearizedPoly):
    """(t, phi(alpha)) for I = right_idealizer(code_of(f)) and scattered f.

    Nothing is checked beyond `verify_field`, which certified G_f with zero
    as a field of order q^t generated by alpha; the rest is proof.
    right_idealizer built I as the image of G_f with zero under
    phi(M) = a x + c f, one-to-one because a scattered f is not in
    F_(q^n) x, so the images of G_f's basis lie in I, are F_p-independent
    and |I| = q^t.  For M in G_f, f o phi(M) = b_M x + d_M f, so for any N
    phi(N) o phi(M) = a_N phi(M) + c_N (b_M x + d_M f)
                    = (a_M a_N + b_M c_N) x + (c_M a_N + d_M c_N) f
                    = phi(M N).
    G_f with zero is a field, so M N = N M and phi is a ring isomorphism
    onto I: I is a field, and its nonzero part is the cyclic group of
    order q^t - 1 generated by phi(alpha).
    """
    Mf = compute_stabilizer(f)
    return Mf.t, stabilizer_to_right_idealizer(Mf.generator, f)


def check_idealizer_matches_stabilizer(f: LinearizedPoly) -> dict:
    """|I_R(C_f)| = |G_f| + 1 for scattered f, by the isomorphism of
    verify_idealizer_field; a small report."""
    IR = right_idealizer(code_of(f))
    t, _ = verify_idealizer_field(f)
    return {"order": IR.order, "t": t, "matches": True}
