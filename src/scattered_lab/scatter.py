"""Scatteredness tests, linear sets on PG(1,q^n) and the slope census.

The workhorse is a single pass over F_{q^n}^* recording, for every attained
value of f(x)/x, the size of its fiber.  A polynomial is scattered exactly
when every fiber has size q - 1, equivalently when the number of distinct
slopes is (q^n - 1)/(q - 1).  The census keeps the attained slopes, their
fiber sizes and the kernel size, and nothing pointwise: the linear set, the
minimum distance and the plane's spread are all read from the slopes and
counts.  Censuses are memoized per tower, in an LRU memo of
`field_tower.CACHE_SIZE` entries.  f is F_q-linear, so
f(c x)/(c x) = f(x)/x for every c in F_p^*: each fiber is a union of
F_p^*-classes, and the pass visits one code per class, those whose top
nonzero digit is 1, and multiplies its counts by p - 1.  Their values come
from the F_p-matrix of f (`_linalg.class_values`: one product with the
tower's digit block for the low levels, p-adic doubling above), their logs
from a per-tower cache (`FieldTower.class_logs`), and the fibers from one
bincount (a sort would be faster on big fields, but its first call in a
process costs about 0.5 MB of peak memory).  On fields without tables
(more than 2^23 elements) the census, and with it every analysis built on
it, raises TooLarge before doing any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import class_values
from .errors import TooLarge, ZeroPolynomial
from .linearized import LinearizedPoly

# pairs of F_q-projective classes the naive projective scan may visit: about
# 80 000 at (7,4) take 0.3 s, so the bound allows a few seconds of work
PROJECTIVE_PAIR_BOUND = 1 << 20
# ordered pairs of nonzero elements the pairs scan holds in its M x M
# arrays: at the bound each int64 array takes 8 MB
PAIR_ARRAY_BOUND = 1 << 20


@dataclass(frozen=True, eq=False)
class SlopeCensus:
    """Fiber statistics of x -> f(x)/x over F_{q^n}^*.

    slope_logs: discrete logs of the attained nonzero slopes, sorted
        ascending, as a read-only int64 array; the zero slope is tracked
        separately because its fiber is the punctured kernel.
    counts: fiber sizes aligned with slope_logs, as a read-only int64 array.
    kernel_count: |ker f| - 1.

    Two censuses are equal when their entries are, whatever the sequence
    type; the readers gather, search or reduce the arrays directly.
    """

    slope_logs: np.ndarray
    counts: np.ndarray
    kernel_count: int

    def __eq__(self, other):
        return (isinstance(other, SlopeCensus) and self.kernel_count == other.kernel_count
                and np.array_equal(self.slope_logs, other.slope_logs)
                and np.array_equal(self.counts, other.counts))

    @property
    def n_slopes(self):
        return len(self.slope_logs) + (1 if self.kernel_count else 0)


def slope_census(f: LinearizedPoly) -> SlopeCensus:
    T = f.tower
    T.require_tables("the slope census")
    cache = T.cache("census")
    if f.coeffs in cache:
        return cache[f.coeffs]
    # f(c x)/(c x) = f(x)/x for c in F_p^*: one code per class, counts * (p - 1)
    vals = class_values(T.p, f.fp_matrix(), T.class_block)
    logs = T.class_logs
    nz = np.flatnonzero(vals)
    kernel_classes = vals.size - nz.size
    if kernel_classes:
        vals, logs = vals[nz], logs[nz]
    slogs = T.log_table[vals] - logs
    slogs %= T.mult_order
    counts = np.bincount(slogs, minlength=T.mult_order)
    attained = np.flatnonzero(counts)
    fibers = counts[attained] * (T.p - 1)
    attained.flags.writeable = fibers.flags.writeable = False
    census = SlopeCensus(attained, fibers, kernel_classes * (T.p - 1))
    cache[f.coeffs] = census
    return census


def is_scattered(f: LinearizedPoly) -> bool:
    """Fiber-count characterization, one pass over the multiplicative group."""
    T = f.tower
    if f.is_zero():
        return False
    return slope_census(f).n_slopes * (T.q - 1) == T.mult_order


def is_scattered_naive(f: LinearizedPoly, mode="projective") -> bool:
    """Direct pairwise test: z f(y) = y f(z) forces y, z to be F_q-dependent.

    mode "pairs" scans every ordered pair of nonzero field elements in
    M x M arrays, and raises TooLarge up front when M^2 exceeds
    PAIR_ARRAY_BOUND; mode "projective" scans one representative per
    F_q-projective class, which is equivalent because the vanishing
    condition is homogeneous in both arguments.  The projective scan is a
    Python loop over unordered pairs of classes and raises TooLarge up front
    when there are more than PROJECTIVE_PAIR_BOUND.
    """
    T = f.tower
    M = T.mult_order
    step = M // (T.q - 1)
    if mode == "pairs":
        T.require_tables("pairs mode")
        if M * M > PAIR_ARRAY_BOUND:
            raise TooLarge(f"{M * M} ordered pairs exceed the pairs scan's bound "
                           f"of {PAIR_ARRAY_BOUND}")
        vals = f.eval_all_logs()
        karr = np.arange(M, dtype=np.int64)
        # code of z * f(y) at position (log y, log z)
        fl = np.where(vals > 0, T.log_table[np.maximum(vals, 1)], 0)
        zero = vals == 0
        prod = T.exp_table[(fl[:, None] + karr[None, :]) % M]
        prod = np.where(zero[:, None], 0, prod)
        eq = prod == prod.T
        dep = ((karr[:, None] - karr[None, :]) % M % step) == 0
        return bool(np.all(~eq | dep))
    if step * (step - 1) // 2 > PROJECTIVE_PAIR_BOUND:
        raise TooLarge(f"{step * (step - 1) // 2} pairs of projective classes exceed "
                       f"the naive scan's bound of {PROJECTIVE_PAIR_BOUND}")
    # one representative g^a per projective class: a in [0, M/(q-1))
    reps = range(step)
    for ia, a in enumerate(reps):
        ya = T.pow_code(T.gen_code, a)
        fa = f.evaluate_code(ya)
        for b in list(reps)[ia + 1:]:
            zb = T.pow_code(T.gen_code, b)
            fb = f.evaluate_code(zb)
            lhs = T.mul_code(zb, fa)
            rhs = T.mul_code(ya, fb)
            if lhs == rhs:
                return False
    return True


@dataclass(frozen=True)
class LinearSet:
    """The linear set of f on the projective line, as normalized slopes.

    Points are (1, m) for each attained slope m of f(x)/x; the point (0, 1)
    never arises from a subspace of shape {(x, f(x))}, so has_infinity is
    False for every polynomial input and is kept only for the wire format.
    A nontrivial kernel shows up as the zero slope, i.e. the point (1, 0).
    """

    slopes: tuple  # element codes, sorted in g^k order (zero last)
    scattered: bool

    @property
    def size(self):
        return len(self.slopes)

    @property
    def has_infinity(self):
        return False

    def to_json(self, tower, emit_points=False):
        doc = {
            "size": self.size,
            "scattered": self.scattered,
            "has_infinity": self.has_infinity,
        }
        if emit_points:
            doc["slopes"] = [tower.format_code(m) for m in self.slopes]
        return doc


def linear_set(f: LinearizedPoly) -> LinearSet:
    T = f.tower
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial spans no linear set")
    census = slope_census(f)
    # slope_logs is sorted, so the gather is already in g^k order
    slopes = T.exp_table[census.slope_logs].tolist()
    if census.kernel_count:
        slopes.append(0)
    return LinearSet(tuple(slopes), is_scattered(f))
