import numpy as np
import pytest

from scattered_lab.errors import HallCase, TooLarge
from scattered_lab.field_tower import make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.families import catalog, find_lp_delta, make_lp
from scattered_lab.scatter import is_scattered
from scattered_lab.mrd import (
    check_idealizer_matches_stabilizer,
    code_of,
    min_distance,
    min_distance_naive,
    right_idealizer,
    stabilizer_to_right_idealizer,
    verify_idealizer_field,
)
from scattered_lab.stabilizer import compute_stabilizer

from oracles import (
    BUILDER_FIELDS,
    builder_id,
    builder_tower,
    element_set_of,
    elements_of,
    min_distance_by_ranks,
    min_distance_by_sampling,
    poly_vec,
    right_compose_operator_by_blocks,
    right_idealizer_by_annihilator,
    same_span,
)


def test_codeword_generators(tower):
    T = tower(5, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    C = code_of(f)
    x = LinearizedPoly.identity(T)
    assert C.codeword(1, 0) == x
    assert C.codeword(0, 1) == f
    rng = T.rng("codewords")
    for _ in range(20):
        a, b = rng.randrange(625), rng.randrange(625)
        w = C.codeword(a, b)
        if not w.is_zero():
            assert w.rank() >= 3  # scattered: rank at least n - 1


def test_min_distance_examples(tower):
    T3 = tower(3, 1, 4)
    assert min_distance(code_of(LinearizedPoly.monomial(T3, 1))) == 3
    # degenerate code spanned by x alone: all nonzero words invertible
    assert min_distance(code_of(LinearizedPoly.identity(T3))) == 4
    # non-scattered x^{q^2} over n = 4 has words of rank 2
    assert min_distance(code_of(LinearizedPoly.monomial(T3, 2))) == 2
    T5 = tower(5, 1, 4)
    lp = make_lp(T5, 1, find_lp_delta(T5)).poly
    assert min_distance(code_of(lp)) == 3


def test_min_distance_naive_agreement(tower):
    T = tower(2, 1, 4)
    for coeffs in [(0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 1, 0), (1, 1, 1, 1)]:
        C = code_of(LinearizedPoly(T, list(coeffs)))
        assert min_distance(C) == min_distance_naive(C)


def test_min_distance_guards(tower):
    T = tower(5, 1, 4)
    C = code_of(LinearizedPoly.monomial(T, 1))
    # sampled ranks yield an upper bound on the true distance
    d_exact = min_distance(C)
    d_sample = min_distance_by_sampling(C, sample_size=300)
    assert d_sample >= d_exact


def test_exact_distance_on_a_large_table_field():
    # 2^21 + 1 projective classes: exact mode is one reduction over the
    # census, with no bound on the number of classes below the table bound
    T = make_field(2, 1, 21)
    assert min_distance(code_of(LinearizedPoly.monomial(T, 1))) == 20


def test_singleton_equality_for_scattered(tower):
    # log_q |C_f| = 2n with d = n - 1 meets the rank-metric Singleton bound
    T = tower(3, 1, 4)
    for inst in catalog(T):
        C = code_of(inst.poly)
        assert not C.degenerate   # |C_f| = q^(2n)
        d = min_distance(C)
        assert d == T.n - 1
        n = T.n
        assert 2 * n == n * (n - d + 1)


def test_kernel_dim_bound_scattered(tower):
    T = tower(3, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    C = code_of(f)
    rng = T.rng("kernels")
    for _ in range(30):
        a, b = rng.randrange(81), rng.randrange(1, 81)
        w = C.codeword(a, b)
        assert w.kernel_dim() <= 1


def test_right_idealizer_orders(tower):
    T = tower(3, 1, 4)
    IR = right_idealizer(code_of(LinearizedPoly.monomial(T, 1)))
    assert IR.order == 81  # q^n for the monomial family
    T5 = tower(5, 1, 4)
    lp = make_lp(T5, 1, find_lp_delta(T5)).poly
    IR5 = right_idealizer(code_of(lp))
    assert IR5.order == 25
    x = LinearizedPoly.identity(T5)
    for lam in T5.subfield_elements(1):
        assert x.scale(lam).coeffs in element_set_of(IR5)


def test_idealizer_field_verification(tower):
    T = tower(5, 1, 4)
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    t, gen = verify_idealizer_field(lp)
    assert t == 2
    assert gen.coeffs in element_set_of(right_idealizer(code_of(lp)))
    # generator composes to the identity after q^t - 1 steps
    x = LinearizedPoly.identity(T)
    acc = x
    for _ in range(24):
        acc = acc.compose(gen)
    assert acc == x


def test_idealizer_matches_stabilizer_families(tower):
    for key in ((3, 1, 4), (5, 1, 4)):
        T = tower(*key)
        for inst in catalog(T):
            rep = check_idealizer_matches_stabilizer(inst.poly)
            Mf = compute_stabilizer(inst.poly)
            assert rep["order"] == Mf.order and rep["t"] == Mf.t


def test_explicit_isomorphism_map(tower):
    T = tower(5, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    Mf = compute_stabilizer(f)
    IR = right_idealizer(code_of(f))
    iset = element_set_of(IR)
    rng = T.rng("isomap")
    elems = list(elements_of(Mf))
    for _ in range(15):
        M1, M2 = (elems[rng.randrange(len(elems))] for _ in range(2))
        phi1 = stabilizer_to_right_idealizer(M1, f)
        assert phi1.coeffs in iset
        lhs = stabilizer_to_right_idealizer(M1 * M2, f)
        rhs = stabilizer_to_right_idealizer(M2, f).compose(
            stabilizer_to_right_idealizer(M1, f))
        assert lhs == rhs


def test_psi_idealizer_order(tower):
    from scattered_lab.families import find_psi_h, make_psi

    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    IR = right_idealizer(code_of(psi))
    assert IR.order == 25
    rep = check_idealizer_matches_stabilizer(psi)
    assert rep["t"] == 2


@pytest.mark.parametrize("key", [(5, 1, 4), (7, 1, 4), (5, 1, 5)])
def test_min_distance_matches_rank_oracle_catalog(tower, key):
    T = tower(*key)
    for inst in catalog(T):
        C = code_of(inst.poly)
        assert min_distance(C) == min_distance_by_ranks(C) == T.n - 1


@pytest.mark.parametrize("key", [(2, 1, 4), (3, 1, 3), (3, 1, 4), (5, 1, 3)])
def test_min_distance_matches_rank_oracle_random(tower, key):
    T = tower(*key)
    rng = T.rng("mrd-differential")
    polys = [LinearizedPoly.zero(T), LinearizedPoly.identity(T),
             LinearizedPoly.monomial(T, 0, T.gen_code),
             LinearizedPoly.monomial(T, 1), LinearizedPoly.monomial(T, T.n - 1)]
    # sparse draws hit kernels and large fibers more often than dense ones
    for density in (1, 2, T.n):
        for _ in range(8):
            coeffs = [0] * T.n
            for i in rng.sample(range(T.n), density):
                coeffs[i] = rng.randrange(T.size)
            polys.append(LinearizedPoly(T, coeffs))
    distances = set()
    for f in polys:
        C = code_of(f)
        d = min_distance(C)
        assert d == min_distance_by_ranks(C), f
        distances.add(d)
    assert len(distances) > 1


def test_min_distance_no_table_tower():
    # ranks in generic arithmetic on a table-less tower agree with the census
    # on the table tower; there the census refuses and sampled ranks still run
    T = make_field(3, 1, 4, table_bound=0)
    T1 = make_field(3, 1, 4)
    assert not T.has_tables
    rng = T.rng("mrd-no-table")
    polys = [LinearizedPoly.monomial(T, 1), LinearizedPoly.monomial(T, 2),
             LinearizedPoly.identity(T)]
    polys += [LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
              for _ in range(6)]
    for f in polys:
        C = code_of(f)
        d = min_distance(code_of(LinearizedPoly(T1, f.coeffs)))
        assert d == min_distance_by_ranks(C)
        assert min_distance_by_sampling(C) >= d
        with pytest.raises(TooLarge):
            min_distance(C)


@pytest.mark.parametrize("case", BUILDER_FIELDS, ids=builder_id)
def test_right_compose_operator_matches_block_oracle(tower, case):
    # f o phi from LinearizedPoly.compose against the block operator that the
    # annihilator oracle of the right idealizer applies to coefficient vectors
    T = builder_tower(tower, case)
    rng = T.rng("right-compose")
    phis = [LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)]) for _ in range(3)]
    for f in (LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)]),
              LinearizedPoly.monomial(T, T.n - 1, T.gen_code), LinearizedPoly.zero(T)):
        op = right_compose_operator_by_blocks(T, f)
        for phi in phis:
            assert (op @ poly_vec(phi) % T.p).tolist() == poly_vec(f.compose(phi))


def _idealizer_cases(tower):
    """On each of (3,4), (5,4), (7,4), (5,5), (5,6), (2,2,4) and (3,2,3):
    every catalog instance, 0, x, g x, every monomial x^(q^i) and g x^(q^i),
    and seeded random f with 1, 2 and n terms; at n = 2, non-scattered f."""
    polys = []
    for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5), (5, 1, 6), (2, 2, 4), (3, 2, 3)):
        T = tower(*key)
        polys += [inst.poly for inst in catalog(T)]
        polys += [LinearizedPoly.zero(T), LinearizedPoly.identity(T),
                  LinearizedPoly.monomial(T, 0, T.gen_code)]
        polys += [LinearizedPoly.monomial(T, i, c) for i in range(1, T.n)
                  for c in (1, T.gen_code)]
        rng = T.rng("idealizer-differential")
        for density in (1, 2, T.n):
            for _ in range(10):
                coeffs = [0] * T.n
                for i in rng.sample(range(T.n), density):
                    coeffs[i] = rng.randrange(T.size)
                polys.append(LinearizedPoly(T, coeffs))
    # at n = 2, f = a x + b x^q with b != 0 is scattered, so the
    # non-scattered f are the c x
    for key in ((5, 1, 2), (7, 1, 2), (2, 2, 2)):
        T = tower(*key)
        rng = T.rng("idealizer-n2")
        polys += [LinearizedPoly.monomial(T, 0, c) for c in [0, 1] + rng.sample(range(2, T.size), 6)]
    return polys


def test_right_idealizer_matches_annihilator_oracle(tower):
    # the images of the S(f, f) basis are a basis of the kernel of the
    # annihilator system
    orders = set()
    polys = _idealizer_cases(tower)
    for f in polys:
        T = f.tower
        IR = right_idealizer(code_of(f))
        got = np.array([poly_vec(w) for w in IR.basis], dtype=np.int64).reshape(-1, T.n * T.en)
        want = right_idealizer_by_annihilator(f)
        assert len(IR.basis) == len(want), f
        assert same_span(got, want, T.p), f
        orders.add((T.n, IR.order == T.q**T.n))
    assert len(polys) > 300
    assert {(4, True), (4, False), (2, True)} <= orders


def test_right_idealizer_refuses_scattered_n2(tower):
    # the kernel S(f, f) is read through compute_stabilizer, which refuses a
    # scattered f at n = 2 as the mrd task does
    f = LinearizedPoly.monomial(tower(5, 1, 2), 1)
    assert is_scattered(f)
    with pytest.raises(HallCase):
        right_idealizer(code_of(f))
