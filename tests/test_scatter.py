import random

import numpy as np
import pytest

from scattered_lab._linalg import class_block, class_codes, class_values, linear_values
from scattered_lab.errors import TooLarge
from scattered_lab.families import catalog
from scattered_lab.field_tower import make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.scatter import (
    is_scattered,
    is_scattered_naive,
    linear_set,
    slope_census,
)
from scattered_lab.standard_form import image_polynomial
from scattered_lab.stabilizer import Mat2, compute_stabilizer

from oracles import (
    TABLE_FIELDS,
    field_id,
    line_intersection_dim,
    linear_set_by_sort,
    scattered_by_fibers,
    slope_census_by_full_table,
    slope_fibers,
)


def test_is_scattered_examples(tower):
    T = tower(5, 1, 4)
    assert not is_scattered(LinearizedPoly.identity(T))         # f = x, n > 1
    assert is_scattered(LinearizedPoly.monomial(T, 1))          # gcd(1, 4) = 1
    assert is_scattered(LinearizedPoly.monomial(T, 3))
    assert not is_scattered(LinearizedPoly.monomial(T, 2))      # F_{q^2}-linear
    d = T.gen_code
    assert T.rel_norm_code(d, 1) not in (0, 1)
    assert is_scattered(LinearizedPoly(T, [0, 1, 0, d]))        # Lunardon-Polverino
    assert not is_scattered(LinearizedPoly.zero(T))


def test_census_matches_dict_oracle(tower):
    T = tower(3, 1, 4)
    rng = random.Random(7)
    for _ in range(20):
        f = LinearizedPoly(T, [rng.randrange(81) for _ in range(4)])
        if f.is_zero():
            continue
        fibers, kernel = slope_fibers(T, f)
        census = slope_census(f)
        assert census.kernel_count == kernel
        got = {T.pow_code(T.gen_code, s): c
               for s, c in zip(census.slope_logs, census.counts)}
        assert got == fibers
        assert is_scattered(f) == scattered_by_fibers(T, f)


def test_linear_set_sizes(tower):
    T = tower(5, 1, 4)
    ls = linear_set(LinearizedPoly.monomial(T, 1))
    assert ls.size == 156 and ls.scattered and ls.to_json()["has_infinity"] is False
    # four-term family at (5,6) spans 3906 = (5^6 - 1)/4 points
    T6 = tower(5, 1, 6)
    from scattered_lab.families import find_psi_h, make_psi

    psi = make_psi(T6, find_psi_h(T6, 3), 3, 1).poly
    ls6 = linear_set(psi)
    assert ls6.size == 3906 and ls6.scattered
    assert is_scattered(psi) == (ls6.size == (T6.size - 1) // 4)


def test_linear_set_trivial_and_kernel(tower):
    T = tower(5, 1, 4)
    ls = linear_set(LinearizedPoly.identity(T))
    assert ls.size == 1 and ls.slopes == (1,) and not ls.scattered
    # x^q - x is scattered with kernel F_q: the zero slope appears
    f = LinearizedPoly(T, [T.neg_code(1), 1, 0, 0])
    ls2 = linear_set(f)
    assert is_scattered(f)
    assert ls2.size == 156
    assert slope_census(f).kernel_count == 4
    # zero slope sorts last in the g^k order
    assert ls2.slopes[-1] == 0


def test_scattered_iff_max_size(tower):
    # the two independent code paths must agree: fiber census and set size
    T = tower(3, 1, 4)
    rng = random.Random(11)
    for _ in range(25):
        f = LinearizedPoly(T, [rng.randrange(81) for _ in range(4)])
        if f.is_zero():
            continue
        assert is_scattered(f) == (linear_set(f).size == (81 - 1) // 2)


def test_naive_oracle_agreement(tower):
    T3 = tower(3, 1, 3)
    rng = random.Random(13)
    for _ in range(40):
        f = LinearizedPoly(T3, [rng.randrange(27) for _ in range(3)])
        r = is_scattered(f)
        assert r == is_scattered_naive(f, "pairs")
        assert r == is_scattered_naive(f, "projective")


def test_projective_scan_evaluates_each_class_once(tower, monkeypatch):
    # f(y) once per class representative, (q^n - 1)/(q - 1) calls in all,
    # whatever the answer; the scan still agrees with the pairs mode and the
    # census on catalog instances and seeded f
    calls = []
    evaluate = LinearizedPoly.evaluate_code

    def counted(f, x):
        calls.append(x)
        return evaluate(f, x)

    monkeypatch.setattr(LinearizedPoly, "evaluate_code", counted)
    for key in ((3, 1, 3), (2, 2, 3), (5, 1, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("projective-scan")
        polys = [inst.poly for inst in catalog(T)]
        polys += [LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
                  for _ in range(4)]
        for f in polys:
            calls.clear()
            answer = is_scattered_naive(f, "projective")
            assert len(calls) == T.mult_order // (T.q - 1), (key, f.coeffs)
            assert answer == is_scattered_naive(f, "pairs") == is_scattered(f), f.coeffs


def test_census_fibers_are_punctured_fq_spaces(tower):
    # the fiber of f(x)/x at m is ker(f - m x) minus 0, an F_q-space, so every
    # fiber size, and a nonzero kernel count, is q^k - 1 with
    # k = n - rank(f - m x).  A fiber of more than q - 1 elements therefore
    # holds at least q + 1 projective classes, and a non-scattered f has a
    # colliding pair of classes that avoids any one given class
    for key in ((3, 1, 4), (5, 1, 3), (2, 2, 3), (2, 1, 5)):
        T = tower(*key)
        rng = T.rng("fiber-spaces")
        polys = [LinearizedPoly(T, [T.neg_code(1), 1] + [0] * (T.n - 2))]   # ker = F_q
        polys += [LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
                  for _ in range(8)]
        large = kernels = 0
        for f in polys:
            census = slope_census(f)
            for s, count in zip(census.slope_logs.tolist(), census.counts.tolist()):
                minus_m = LinearizedPoly.monomial(T, 0, T.neg_code(T.pow_code(T.gen_code, s)))
                k = T.n - (f + minus_m).rank()
                assert k >= 1 and count == T.q**k - 1, (key, f.coeffs, s)
                large += count > T.q - 1
            assert census.kernel_count == T.q ** (T.n - f.rank()) - 1, (key, f.coeffs)
            kernels += census.kernel_count > 0
        assert large and kernels, key


def test_pairs_scan_refused_past_its_bound(tower):
    # at (5,6) the M x M index array alone would take about 2 GB
    f = LinearizedPoly.monomial(tower(5, 1, 6), 1)
    with pytest.raises(TooLarge, match="pairs scan"):
        is_scattered_naive(f, "pairs")


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_census_matches_full_table_oracle(tower, key):
    # one code per F_p^*-class against every code: p = 2, e > 1, blocks
    # with and without doubled levels, the zero map and a map with a kernel
    T = tower(*key)
    rng = T.rng("class-census")
    polys = [LinearizedPoly.zero(T), LinearizedPoly.monomial(T, 1, T.gen_code),
             LinearizedPoly(T, [T.neg_code(1), 1] + [0] * (T.n - 2)),
             LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])]
    assert slope_census(polys[2]).kernel_count == T.q - 1   # ker(x^q - x) = F_q
    for f in polys:
        assert slope_census(f) == slope_census_by_full_table(f), f.coeffs


@pytest.mark.parametrize("key, whole_block", [((3, 1, 4), True), ((7, 1, 4), True),
                                               ((5, 1, 6), False), ((3, 1, 8), False),
                                               ((13, 1, 4), False)],
                         ids=["3_1_4", "7_1_4", "5_1_6", "3_1_8", "13_1_4"])
def test_census_with_kernels_matches_full_table_oracle(tower, key, whole_block):
    # class values read off one block product (3,4), (7,4), and with the top
    # levels doubled by offset `linear_values` tables, one level at (5,6) and
    # (13,4) and two at (3,8), for maps whose kernels are F_q, a F_q and
    # F_(q^2) moved by random maps on both sides
    T = tower(*key)
    assert (len(T.class_block) == T.en) is whole_block
    rng = T.rng("kernel-census")

    def rand():
        return LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])

    a = rng.randrange(1, T.size)
    cores = [LinearizedPoly(T, [T.neg_code(1), 1] + [0] * (T.n - 2)),
             LinearizedPoly(T, [T.neg_code(T.pow_code(a, T.q - 1)), 1] + [0] * (T.n - 2)),
             LinearizedPoly(T, [T.neg_code(1), 0, 1] + [0] * (T.n - 3))]
    kernels = []
    for core in cores:
        for _ in range(3):
            f = rand().compose(core).compose(rand())
            census = slope_census(f)
            assert census == slope_census_by_full_table(f), f.coeffs
            kernels.append(census.kernel_count + 1)
    # every core has a kernel, and a random map on either side only enlarges it
    assert min(kernels) >= T.q and max(kernels) >= T.q**2


@pytest.mark.parametrize("p, rows, en", [(2, 3, 5), (3, 4, 4), (5, 2, 3), (7, 3, 2), (3, 5, 6),
                                         (257, 1, 2)])
def test_class_values_of_any_linear_map(p, rows, en):
    # every block size from one level to all of them: the levels above the
    # block are doubled
    rng = np.random.default_rng(p + en)
    A = rng.integers(0, p, size=(rows, en))
    want = linear_values(p, A)[class_codes(p, en)]
    for levels in range(1, en + 1):
        assert np.array_equal(class_values(p, A, class_block(p, levels)), want), levels


def test_class_codes_one_per_scalar_class():
    for p, en in ((2, 4), (3, 3), (5, 2)):
        codes = class_codes(p, en).tolist()
        assert len(codes) == (p**en - 1) // (p - 1) == len(set(codes))
        # the top nonzero digit is 1
        assert all(c // p ** (len(np.base_repr(c, p)) - 1) == 1 for c in codes)


def test_scatteredness_gl_invariant(tower):
    T = tower(5, 1, 4)
    d = T.gen_code
    f = LinearizedPoly(T, [0, 1, 0, d])
    rng = T.rng("glinv")
    # a f(bx) keeps scatteredness
    for _ in range(10):
        a, b = rng.randrange(1, 625), rng.randrange(1, 625)
        assert is_scattered(f.transform(a, b))
    # generic GL images, when the first coordinate map is invertible
    done = 0
    while done < 8:
        P = Mat2(T, rng.randrange(625), rng.randrange(625),
                 rng.randrange(625), rng.randrange(625))
        if P.det() == 0:
            continue
        try:
            g = image_polynomial(f, P)
        except Exception:
            continue
        assert is_scattered(g)
        done += 1


def test_line_intersection_bound(tower):
    T = tower(5, 1, 4)
    f = LinearizedPoly(T, [0, 1, 0, T.gen_code])
    rng = T.rng("linedim")
    assert is_scattered(f)
    for _ in range(40):
        pt = (1, rng.randrange(625))
        assert line_intersection_dim(f, pt) <= 1
    assert line_intersection_dim(f, (0, 1)) == 0
    # a non-scattered map has a fat line
    f2 = LinearizedPoly.monomial(T, 2)
    dims = [line_intersection_dim(f2, (1, m)) for m in range(625)]
    assert max(dims) > 1


def test_line_intersection_direct_enumeration(tower):
    # oracle: count the subspace points on the line by literal scanning
    T = tower(3, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    rng = T.rng("linedirect")
    for _ in range(15):
        m = rng.randrange(81)
        on_line = sum(
            1 for x in range(1, 81)
            if T.mul_code(m, x) == f.evaluate_code(x))
        dim = line_intersection_dim(f, (1, m))
        assert 3**dim - 1 == on_line


def test_enumerations_refuse_table_less_tower():
    T = make_field(5, 1, 4, table_bound=0)
    f = LinearizedPoly.monomial(T, 1)
    for call in (lambda: is_scattered(f), lambda: compute_stabilizer(f),
                 f.eval_all_logs, lambda: is_scattered_naive(f, "pairs")):
        with pytest.raises(TooLarge):
            call()


def test_linear_set_json(tower):
    T = tower(5, 1, 4)
    ls = linear_set(LinearizedPoly.monomial(T, 1))
    doc = ls.to_json(emit_points=True)
    assert doc["size"] == 156 and doc["scattered"] and not doc["has_infinity"]
    assert len(doc["slopes"]) == 156
    assert all(isinstance(s, str) for s in doc["slopes"])


def test_linear_set_matches_sorted_powers(tower):
    # the gather from the sorted census against one pow_code and a sort per
    # slope, on catalog instances, seeded random f and f with a kernel
    rng = random.Random(2024)
    polys = []
    for key in ((3, 1, 4), (5, 1, 4), (5, 1, 5), (5, 1, 6)):
        T = tower(*key)
        polys += [inst.poly for inst in catalog(T)]
        polys += [LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
                  for _ in range(6)]
    T = tower(5, 1, 4)
    with_kernel = LinearizedPoly(T, [T.neg_code(1), 1, 0, 0])   # x^q - x, kernel F_q
    polys.append(with_kernel)
    for f in polys:
        if not f.is_zero():
            assert linear_set(f).slopes == linear_set_by_sort(f), f.coeffs
    assert linear_set(with_kernel).slopes[-1] == 0
    assert linear_set(with_kernel).size == slope_census(with_kernel).n_slopes


def test_census_arrays_are_read_only(tower):
    # the census is memoized, so its arrays must not be writable by a reader
    T = tower(5, 1, 4)
    census = slope_census(LinearizedPoly(T, [T.neg_code(1), 1, 0, 0]))
    assert census.kernel_count == T.q - 1
    for arr in (census.slope_logs, census.counts):
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
