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
field G_f with zero, so I_R is a field with no check of its own.  Every
function takes f itself.
"""

from __future__ import annotations

from .errors import NotScattered, TooLarge
from .linearized import LinearizedPoly
from .scatter import is_scattered, slope_census
from .stabilizer import compute_stabilizer


def min_distance(f: LinearizedPoly) -> int:
    """Minimum rank over nonzero codewords of C_f, read off the slope census of f.

    No rank is computed.  The word x + b f (b != 0) vanishes exactly on 0
    and the fiber of f(x)/x at -1/b, and f vanishes on its kernel, so every
    class has rank n - log_q(fiber + 1); the class (1, 0) has rank n.  Hence
    d = n - k for the largest fiber dimension k < n, with k = 0 when every
    fiber is trivial (dimension n is the zero word, when f is c x or 0).
    The census needs exp/log tables and refuses other fields with TooLarge.
    """
    T = f.tower
    census = slope_census(f)
    dims = {T.log_q(c + 1) for c in set(census.counts.tolist()) | {census.kernel_count}}
    return T.n - max(k for k in dims | {0} if k < T.n)


def min_distance_naive(f: LinearizedPoly) -> int:
    """Full enumeration of a x + b f over all q^(2n) pairs (a, b); oracle use only."""
    T = f.tower
    if T.size ** 2 > 1 << 18:
        raise TooLarge("naive enumeration is reserved for tiny fields")
    x = LinearizedPoly.identity(T)
    best = T.n + 1
    for a in range(T.size):
        for b in range(T.size):
            if a == 0 and b == 0:
                continue
            w = x.scale(a) + f.scale(b)
            if w.is_zero():
                continue
            best = min(best, w.rank())
    return best


def right_idealizer(f: LinearizedPoly) -> tuple:
    """An F_p-basis of I_R(C_f) = {phi : c o phi in C_f for all c in C_f},
    as q-polynomials read off G_f's kernel; |I_R| = p^len(basis).

    C_f is closed under left scalar multiplication, so the condition is
    phi in C_f and f o phi in C_f: phi = a x + c f and f o phi = b x + d f,
    which is the pair equation b x + d f = f(a x + c f) of M = (a b; c d).
    So I_R is the image of the kernel S(f, f) of the memoized
    `compute_stabilizer(f)` under the F_p-linear map phi(M) = a x + c f,
    and the images of its basis span I_R.  When f is not in F_(q^n) x, x
    and f are F_(q^n)-independent: phi(M) = 0 forces a = c = 0, then
    b x + d f = 0 forces b = d = 0, so phi is one-to-one and the images are
    a basis.  A degenerate f = c x (0 included) spans C_f = F_(q^n) x,
    which every beta x keeps, so I_R has the basis {X^m x : m < en} and
    order q^n.  A scattered f at n = 2 raises HallCase from
    compute_stabilizer.
    """
    T = f.tower
    x = LinearizedPoly.identity(T)
    if not any(f.coeffs[1:]):
        return tuple(x.scale(T.p**m) for m in range(T.en))
    return tuple(x.scale(M.a) + f.scale(M.c) for M in compute_stabilizer(f).basis)


def verify_idealizer_field(f: LinearizedPoly):
    """(t, phi(alpha)) for I = right_idealizer(f) and scattered f.

    Nothing is checked beyond `verify_field`, which certified G_f with zero
    as a field of order q^t generated by alpha; the rest is proof.
    right_idealizer built I as the image of G_f with zero under the
    codeword map phi(M) = a x + c f, one-to-one because a scattered f is not in
    F_(q^n) x, so the images of G_f's basis lie in I, are F_p-independent
    and |I| = q^t.  For M in G_f, f o phi(M) = b_M x + d_M f, so for any N
    phi(N) o phi(M) = a_N phi(M) + c_N (b_M x + d_M f)
                    = (a_M a_N + b_M c_N) x + (c_M a_N + d_M c_N) f
                    = phi(M N).
    G_f with zero is a field, so M N = N M and phi is a ring isomorphism
    onto I: I is a field, and its nonzero part is the cyclic group of
    order q^t - 1 generated by phi(alpha).  A non-scattered f raises
    NotScattered from the census, before the stabilizer is built.
    """
    if not is_scattered(f):
        raise NotScattered("polynomial is not scattered")
    Mf = compute_stabilizer(f)
    alpha = Mf.generator
    return Mf.t, LinearizedPoly.identity(f.tower).scale(alpha.a) + f.scale(alpha.c)
