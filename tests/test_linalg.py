"""The elimination on packed rows against the numpy eliminations it
replaced: the outer-product update and the eagerly reduced broadcast update."""

import numpy as np
import pytest

from scattered_lab._linalg import _packed_rref, kernel_mod, rank_mod, solve_mod
from scattered_lab.errors import TooLarge
from scattered_lab.families import catalog
from scattered_lab.stabilizer import _pair_system

from oracles import (inv_mod_matrix, kernel_by_outer, rref_by_outer, rref_eager, rref_mod,
                     solve_by_outer)


def _matrices(p, seed):
    """Random matrices mod p: square, wide, tall, of low rank, zero, with zero
    columns, and with entries outside [0, p)."""
    rng = np.random.default_rng(seed)
    out = [rng.integers(0, p, size=shape) for shape in ((6, 6), (4, 9), (9, 4), (1, 5), (5, 1))]
    out.append(rng.integers(0, p, size=(7, 3)) @ rng.integers(0, p, size=(3, 8)))
    out.append(np.zeros((3, 4), dtype=np.int64))
    wide = rng.integers(0, p, size=(5, 10))
    wide[:, [0, 3, 4]] = 0
    out.append(wide)
    out.append(rng.integers(-3 * p, 3 * p, size=(5, 7)))
    return out


def _check_against_oracles(A, p):
    """rref_mod, kernel_mod, rank_mod and solve_mod on A against the oracles,
    with right-hand sides that are consistent (A times a vector) and, when
    A has rank below its row count, ones that may not be."""
    R, pivots = rref_mod(A, p)
    R0, pivots0 = rref_by_outer(A, p)
    assert pivots == pivots0 and np.array_equal(R, R0)
    R1, pivots1 = rref_eager(A, p)
    assert pivots == pivots1 and np.array_equal(R, R1)
    K = kernel_mod(A, p)
    assert np.array_equal(K, kernel_by_outer(A, p))
    exact = np.asarray(A, dtype=np.int64).astype(object) % p
    assert not (exact.dot(K.T.astype(object)) % p).any()
    assert rank_mod(A, p) == len(pivots) and len(pivots) + len(K) == np.shape(A)[1]
    rng = np.random.default_rng(len(pivots))
    rows, cols = np.shape(A)
    consistent = exact.dot(rng.integers(0, p, size=cols).astype(object)) % p
    for b in (consistent, rng.integers(0, p, size=rows)):
        x, x0 = solve_mod(A, b, p), solve_by_outer(A, b, p)
        assert (x is None) == (x0 is None) and (x is None or np.array_equal(x, x0))
    assert solve_mod(A, consistent, p) is not None


@pytest.mark.parametrize("p", [2, 3, 5, 13, 257])
def test_rref_and_kernel_match_outer_product_oracle(p):
    for A in _matrices(p, p):
        _check_against_oracles(A, p)


def test_packed_rows_on_edge_shapes():
    # zero rows or zero columns; the Schur shape at n = 23 and p = 2, tall
    # and of rank below its column count; and p = 2^61 - 1, whose slots would
    # be wider than 64 bits, which every elimination refuses before packing
    for p in (2, 7):
        for shape in ((0, 5), (4, 0), (0, 0), (1, 1)):
            _check_against_oracles(np.zeros(shape, dtype=np.int64), p)
    rng = np.random.default_rng(23)
    tall = rng.integers(0, 2, size=(483, 40)) @ rng.integers(0, 2, size=(40, 46)) % 2
    _check_against_oracles(tall, 2)
    assert len(kernel_mod(tall, 2)) >= 6
    p = (1 << 61) - 1
    full = rng.integers(0, p, size=(9, 12))
    for A in (full, full.T, np.ones((1, 1), dtype=np.int64)):
        for solve in (rref_mod, kernel_mod, rank_mod, lambda A, p: solve_mod(A, A[:, 0], p)):
            with pytest.raises(TooLarge):
                solve(A, p)
    # one pivot adds below p (p - 1): below 2^64 for the largest prime under
    # 2^32, whose slots are 8 bytes, and above it for the smallest over 2^32
    assert _packed_rref(np.ones((1, 1), dtype=np.int64), 4294967291)[2] == 64
    with pytest.raises(TooLarge):
        _packed_rref(np.ones((1, 1), dtype=np.int64), 4294967311)


def test_pair_systems_and_inverses_match_oracle(tower):
    for key in ((3, 1, 4), (5, 1, 4), (2, 2, 4)):
        T = tower(*key)
        for inst in catalog(T):
            A = _pair_system(inst.poly, inst.poly)
            assert np.array_equal(kernel_mod(A, T.p), kernel_by_outer(A, T.p))
            M = inst.poly.fp_matrix()
            inv = inv_mod_matrix(M, T.p)
            R0, pivots0 = rref_by_outer(np.hstack([M, np.eye(T.en, dtype=np.int64)]), T.p)
            assert pivots0 == list(range(T.en)) and np.array_equal(inv, R0[:, T.en:])


def _large_p_matrices(p, seed):
    """Random matrices mod a large p: one of full row rank 48, one of rank 30
    whose other rows are combinations of those, and a wide one with zero
    columns."""
    rng = np.random.default_rng(seed)
    full = rng.integers(0, p, size=(48, 60))
    base = rng.integers(0, p, size=(30, 56)).astype(object)
    mixed = rng.integers(0, p, size=(20, 30)).astype(object).dot(base) % p
    low = np.vstack([base, mixed]).astype(np.int64)[rng.permutation(50)]
    wide = rng.integers(0, p, size=(44, 70))
    wide[:, [0, 5, 6, 40]] = 0
    return [full, low, wide]


@pytest.mark.parametrize("p", [1048573, 1073741827])
def test_lazy_reduction_matches_eager_elimination(p):
    # near 2^20, the largest p of make_field, a pivot adds below 2^40 to a
    # slot and 8-byte slots hold every entry; above 2^30 it adds up to
    # p^2 > 2^60, the slots would be wider than 64 bits, and the elimination
    # is refused before packing
    if p > 1 << 30:
        for A in _large_p_matrices(p, p % 1000):
            with pytest.raises(TooLarge):
                rref_mod(A, p)
        return
    assert _packed_rref(np.ones((48, 60), dtype=np.int64), p)[2] == 64
    pivot_counts = []
    for A in _large_p_matrices(p, p % 1000):
        R, pivots = rref_mod(A, p)
        R0, pivots0 = rref_eager(A, p)
        assert pivots == pivots0 and np.array_equal(R, R0)
        pivot_counts.append(len(pivots))
    assert pivot_counts == [48, 30, 44]
