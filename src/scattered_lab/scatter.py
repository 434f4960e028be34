"""Scatteredness tests, linear sets on PG(1,q^n) and the slope census.

The workhorse is a single pass over F_{q^n}^* recording, for every attained
value of f(x)/x, the size of its fiber.  A polynomial is scattered exactly
when every fiber has size q - 1, equivalently when the number of distinct
slopes is (q^n - 1)/(q - 1).  The census keeps the attained slopes, their
fiber sizes and the kernel size, and nothing pointwise: the linear set, the
minimum distance and the plane's spread are all read from the slopes and
counts.  Censuses are memoized per tower, in an LRU memo of
`field_tower.CACHE_SIZE` entries.  The linear set is a view of its census,
gathering the slope codes only when they are read.  f is F_q-linear, so
f(c x)/(c x) = f(x)/x for every c in F_p^*: each fiber is a union of
F_p^*-classes, and the pass visits one code per class, those whose top
nonzero digit is 1, and multiplies its counts by p - 1.  Their values come
from the F_p-matrix of f (`_linalg.class_values`: one product with the
tower's digit block for the low levels, and above them the p-adic doubling
of `_linalg.linear_values`, offset by each level's leading column), their
logs from a per-tower cache (`FieldTower.class_logs`), and the fibers from
one bincount (a sort would be faster on big fields, but its first call in
a process costs about 0.5 MB of peak memory).  The memo is also the record
of scatteredness that `compute_stabilizer` reads.  On fields without tables
(more than 2^23 elements) the census, and with it every analysis built on
it, raises TooLarge before doing any work.
"""

from __future__ import annotations

import numpy as np

from ._linalg import class_values
from .errors import TooLarge, ZeroPolynomial
from .linearized import LinearizedPoly

# pairs of F_q-projective classes the naive projective scan may visit: about
# 80 000 at (7,4) take 0.3 s, so the bound allows a few seconds of work
PROJECTIVE_PAIR_BOUND = 1 << 20


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

    __slots__ = ("slope_logs", "counts", "kernel_count")

    def __init__(self, slope_logs: np.ndarray, counts: np.ndarray, kernel_count: int):
        self.slope_logs = slope_logs
        self.counts = counts
        self.kernel_count = kernel_count

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
    kernel_classes = vals.size - np.count_nonzero(vals)
    if kernel_classes:
        nz = vals != 0
        vals, logs = vals[nz], logs[nz]
    slogs = T.log_table[vals] - logs
    slogs %= T.mult_order
    counts = np.bincount(slogs, minlength=T.mult_order)
    attained = np.flatnonzero(counts != 0)
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


def is_scattered_naive(f: LinearizedPoly) -> bool:
    """Direct pairwise test: z f(y) = y f(z) forces y, z to be F_q-dependent.

    The scan visits one representative per F_q-projective class, which is
    equivalent to scanning every pair of nonzero elements because the
    vanishing condition is homogeneous in both arguments.  It is a Python
    loop over unordered pairs of classes and raises TooLarge up front when
    there are more than PROJECTIVE_PAIR_BOUND.
    """
    T = f.tower
    step = T.mult_order // (T.q - 1)
    if step * (step - 1) // 2 > PROJECTIVE_PAIR_BOUND:
        raise TooLarge(f"{step * (step - 1) // 2} pairs of projective classes exceed "
                       f"the naive scan's bound of {PROJECTIVE_PAIR_BOUND}")
    # one representative y = g^a per projective class, a in [0, M/(q-1)),
    # with f(y) evaluated once
    reps = [T.pow_code(T.gen_code, a) for a in range(step)]
    points = [(y, f.evaluate_code(y)) for y in reps]
    for ia, (ya, fa) in enumerate(points):
        for zb, fb in points[ia + 1:]:
            if T.mul_code(zb, fa) == T.mul_code(ya, fb):
                return False
    return True


class LinearSet:
    """The linear set of f on the projective line, as a view of its census.

    Points are (1, m) for each attained slope m of f(x)/x; the point (0, 1)
    never arises from a subspace of shape {(x, f(x))}, so the wire format's
    "has_infinity" is the constant false.
    A nontrivial kernel shows up as the zero slope, i.e. the point (1, 0).
    """

    __slots__ = ("tower", "census", "scattered")

    def __init__(self, tower, census: SlopeCensus, scattered: bool):
        self.tower = tower
        self.census = census
        self.scattered = scattered

    @property
    def size(self):
        return self.census.n_slopes

    @property
    def slopes(self):
        """Element codes in g^k order (slope_logs is sorted), zero last."""
        slopes = self.tower.exp_table[self.census.slope_logs].tolist()
        if self.census.kernel_count:
            slopes.append(0)
        return tuple(slopes)

    def to_json(self, emit_points=False):
        doc = {
            "size": self.size,
            "scattered": self.scattered,
            "has_infinity": False,
        }
        if emit_points:
            doc["slopes"] = [self.tower.format_code(m) for m in self.slopes]
        return doc


def linear_set(f: LinearizedPoly) -> LinearSet:
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial spans no linear set")
    return LinearSet(f.tower, slope_census(f), is_scattered(f))
