import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scattered_lab.errors import (
    BadElement,
    DegreeTooLarge,
    InternalError,
    NonPrime,
    NotADivisor,
    TooLarge,
)
from scattered_lab.field_tower import (
    CACHE_SIZE,
    ENUM_BOUND,
    FieldTower,
    _digits,
    _is_prime,
    _prime_divisors,
    field_from_json,
    first_irreducible,
    is_irreducible,
    make_field,
)
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.scatter import slope_census

from oracles import (
    BUILDER_FIELDS,
    TABLE_FIELDS,
    builder_id,
    builder_tower,
    exp_table_by_giant_steps,
    field_id,
    irreducible_by_trial_division,
    mul_by_digit_loop,
    mul_matrix_by_codes,
    order_by_walk,
    pow_by_digit_loop,
    repeated_power,
    repeated_q_power,
    sqrt_by_log_table,
)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    T = make_field(2, 1, 2)
    assert T.modulus == (1, 1, 1)
    assert T.size == 4


def test_modulus_irreducibility_by_trial_division(tower):
    # the chosen modulus must be irreducible, certified by the naive oracle
    T = tower(5, 1, 4)
    assert irreducible_by_trial_division(list(T.modulus), 5)
    assert T.size == 625


def test_modulus_irreducibility_e2(tower):
    T = tower(3, 2, 3)
    assert T.q == 9 and T.size == 729
    assert irreducible_by_trial_division(list(T.modulus), 3)


def test_modulus_is_lex_first(tower):
    # nothing below the chosen candidate index may be irreducible
    T = tower(5, 1, 4)
    chosen = sum(c * 5**i for i, c in enumerate(T.modulus[:-1]))
    for v in range(chosen):
        coeffs = []
        w = v
        for _ in range(4):
            coeffs.append(w % 5)
            w //= 5
        coeffs.append(1)
        assert not irreducible_by_trial_division(coeffs, 5)


# every monic polynomial of degree 1-6 over F_2, 1-4 over F_3, 1-3 over F_5 and F_7
IRREDUCIBILITY_RANGES = [(2, 6), (3, 4), (5, 3), (7, 3)]


@pytest.mark.parametrize("p, top", IRREDUCIBILITY_RANGES)
def test_is_irreducible_matches_trial_division(p, top):
    # the rank test against the naive oracle on every monic polynomial, in
    # the enumeration order of first_irreducible, whose pick is the first hit
    seen = []
    for d in range(1, top + 1):
        verdicts = []
        for tail in itertools.product(range(p), repeat=d):
            coeffs = list(reversed(tail)) + [1]
            verdicts.append(is_irreducible(coeffs, p))
            assert verdicts[-1] == irreducible_by_trial_division(coeffs, p), coeffs
            seen.append(coeffs)
        first = next(i for i, irreducible in enumerate(verdicts) if irreducible)
        assert first_irreducible(p, d) == tuple(_digits(first, p, d)) + (1,)
    if p == 2:
        # X^4 + X^2 + 1 = (X^2 + X + 1)^2: Phi - I has rank 3, but X^16 != X
        assert [1, 0, 1, 0, 1] in seen and not is_irreducible([1, 0, 1, 0, 1], 2)


def test_first_irreducible_matches_unfiltered_search():
    # skipping candidates with the root 0 or 1 keeps every pick: each (p, d)
    # with p^d <= 2^16, against Berlekamp's test on every candidate in order
    for p in filter(_is_prime, range(2, 2**16 + 1)):
        d = 1
        while p**d <= 2**16:
            first = next(v for v in range(p**d) if is_irreducible(_digits(v, p, d) + [1], p))
            assert first_irreducible(p, d) == tuple(_digits(first, p, d)) + (1,), (p, d)
            d += 1


def test_determinism_and_json_roundtrip(tower):
    T = tower(5, 1, 4)
    T2 = make_field(5, 1, 4)
    assert T.spec() == T2.spec()
    T3 = field_from_json(T.spec())
    assert T3.spec() == T.spec()


def test_construction_errors():
    with pytest.raises(NonPrime):
        make_field(6, 1, 2)
    with pytest.raises(DegreeTooLarge):
        make_field(2, 1, 50)
    with pytest.raises(DegreeTooLarge):
        make_field(5, 1, 1)
    # the size is refused before p is tested, so a p above 2^40, past the
    # range of the prime test, never reaches it
    with pytest.raises(DegreeTooLarge):
        make_field(3317044064679887385961981 + 2, 1, 2)
    # and a huge degree is refused without forming (or printing) p^(e*n)
    for n in (10**5, 10**12):
        with pytest.raises(DegreeTooLarge):
            make_field(3, 1, n)
    with pytest.raises(BadElement):
        make_field(2, 1, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2


def test_prime_test_refuses_past_its_exact_range():
    # trial division runs up to ENUM_BOUND = 2^40, the largest group order a
    # tower meets; past it both functions refuse before dividing once
    assert _prime_divisors(ENUM_BOUND) == (2,) and not _is_prime(ENUM_BOUND)
    psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
    start = time.perf_counter()
    for m in (ENUM_BOUND + 1, psi_12, 2**61 - 1, psi_13, psi_13 + 2, 2**89 - 1):
        for fn in (_is_prime, _prime_divisors):
            with pytest.raises(TooLarge):
                fn(m)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("outside", ["zero", "zero-digits", "field-size", "wrapped", "negative"])
def test_generator_outside_the_field_refused(outside):
    # 0 passed the primitivity test (no power of 0 is 1), and a code out of
    # range ran past the exp/log tables; each is refused before that test
    T = make_field(5, 1, 4)
    g = T.gen_code
    gen = {"zero": 0, "zero-digits": [0] * T.en, "field-size": T.size,
           "wrapped": g + T.size, "negative": -1}[outside]
    doc = {**T.spec(), "generator": gen}
    with pytest.raises(BadElement, match="outside"):
        field_from_json(doc)
    if not isinstance(gen, list):
        with pytest.raises(BadElement, match="outside"):
            make_field(5, 1, 4, generator=gen)


@pytest.mark.parametrize("digits", [[1, 1], [1, 1, 0, 0, 0, 0], []])
def test_generator_digit_array_needs_en_digits(digits):
    # a short or long array was packed as it came: [1, 1] and [1, 1, 0, 0, 0, 0]
    # both built generator 6 and echoed [1, 1, 0, 0]
    doc = {"p": 5, "n": 4, "generator": digits}
    with pytest.raises(BadElement, match="length 4"):
        field_from_json(doc)
    assert field_from_json({**doc, "generator": [1, 1, 0, 0]}).spec()["generator"] \
        == [1, 1, 0, 0]


def test_frobenius_examples(tower):
    T = tower(5, 1, 4)
    g = T.gen_code
    assert T.frob_code(g, 0) == g
    # subfield elements are fixed pointwise
    for c in T.subfield_elements(1):
        for k in range(4):
            assert T.frob_code(c, k) == c
    # x = g, k = 2 -> g^25, against the repeated-5th-powering oracle
    assert T.frob_code(g, 2) == repeated_q_power(T, g, 2)
    assert T.frob_code(g, 2) == T.pow_code(g, 25)


@pytest.mark.parametrize("case", BUILDER_FIELDS, ids=builder_id)
def test_frobenius_matrix_matches_repeated_q_power(tower, case):
    # column i of frob_stack[k] is (X^i)^(q^k), each q-th power by repeated
    # multiplication
    T = builder_tower(tower, case)
    assert np.array_equal(T.frob_stack[0], np.eye(T.en))
    for i in range(T.en):
        x = T.p**i
        for k in range(1, T.n):
            x = repeated_q_power(T, x, 1)
            assert T.frob_stack[k][:, i].tolist() == _digits(x, T.p, T.en), (i, k)


def test_frobenius_order_and_additivity(tower):
    T = tower(5, 1, 4)
    rng = T.rng("frobtest")
    for _ in range(50):
        a, b = rng.randrange(625), rng.randrange(625)
        assert T.frob_code(a, T.n) == a
        for k in range(T.n):
            assert T.frob_code(T.add_code(a, b), k) == \
                T.add_code(T.frob_code(a, k), T.frob_code(b, k))


def test_rel_norm_examples(tower):
    T = tower(5, 1, 4)
    g = T.gen_code
    assert T.rel_norm_code(1, 2) == 1
    assert T.rel_norm_code(0, 1) == 0
    # N_{q^4/q}(g) = g^156 by the direct exponentiation oracle
    assert T.rel_norm_code(g, 1) == repeated_power(T, g, 156)
    with pytest.raises(NotADivisor):
        T.rel_norm_code(g, 3)


def test_norm_multiplicative_and_lands_in_subfield(tower):
    T = tower(5, 1, 4)
    rng = T.rng("normtest")
    for t in (1, 2, 4):
        for _ in range(30):
            a, b = rng.randrange(1, 625), rng.randrange(1, 625)
            na, nb = T.rel_norm_code(a, t), T.rel_norm_code(b, t)
            assert T.rel_norm_code(T.mul_code(a, b), t) == T.mul_code(na, nb)
            assert T.subfield_member_code(na, t)


def test_subfield_membership(tower):
    T = tower(5, 1, 4)
    g = T.gen_code
    for t in (1, 2, 4):
        assert T.subfield_member_code(0, t)
        assert T.subfield_member_code(1, t)
    assert not T.subfield_member_code(g, 1)
    assert not T.subfield_member_code(g, 2)
    # g^26 lies in F_25: verified by the x^25 = x oracle
    x = T.pow_code(g, 26)
    assert repeated_power(T, x, 25) == x
    assert T.subfield_member_code(x, 2)


def test_subfield_sizes(tower):
    for (p, e, n) in ((5, 1, 4), (3, 2, 3)):
        T = tower(p, e, n)
        for t in range(1, n + 1):
            if n % t:
                continue
            members = [c for c in range(T.size) if T.subfield_member_code(c, t)]
            assert len(members) == T.q**t
            assert sorted(T.subfield_elements(t)) == members


def test_subfield_primitive_orders(tower):
    T = tower(5, 1, 4)
    assert T.subfield_primitive_code(4) == T.gen_code
    assert order_by_walk(T, T.subfield_primitive_code(1)) == 4
    assert order_by_walk(T, T.subfield_primitive_code(2)) == 24
    for t in (1, 2, 4):
        assert order_by_walk(T, T.subfield_primitive_code(t)) == T.q**t - 1


def test_generator_is_primitive(tower):
    T = tower(5, 1, 4)
    assert order_by_walk(T, T.gen_code) == 624
    T9 = tower(3, 2, 3)
    assert order_by_walk(T9, T9.gen_code) == 728


@pytest.mark.parametrize("key", [(5, 1, 4), (3, 2, 3), (2, 1, 6), (13, 1, 2)], ids=field_id)
@pytest.mark.parametrize("tables", [True, False], ids=["tables", "tableless"])
def test_order_test_matches_walk_oracle(tower, key, tables):
    # has_order(a, N), given a^N = 1, at every divisor N of q^n - 1 that
    # a's order divides
    T = tower(*key) if tables else make_field(*key, table_bound=0)
    M = T.mult_order
    divisors = [N for N in range(1, M + 1) if M % N == 0]
    rng = T.rng("order-test")
    for a in [1, T.gen_code, T.neg_code(1)] + [rng.randrange(1, T.size) for _ in range(12)]:
        order = order_by_walk(T, a)
        for N in divisors:
            if N % order == 0:
                assert T.has_order(a, N) is (N == order), (a, N)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 624), b=st.integers(0, 624), c=st.integers(0, 624))
def test_field_axioms(a, b, c):
    T = make_field(5, 1, 4)
    assert T.add_code(a, b) == T.add_code(b, a)
    assert T.mul_code(a, b) == T.mul_code(b, a)
    assert T.add_code(T.add_code(a, b), c) == T.add_code(a, T.add_code(b, c))
    assert T.mul_code(T.mul_code(a, b), c) == T.mul_code(a, T.mul_code(b, c))
    assert T.mul_code(a, T.add_code(b, c)) == \
        T.add_code(T.mul_code(a, b), T.mul_code(a, c))
    if a:
        assert T.mul_code(a, T.inv_code(a)) == 1


def test_element_parsing_and_formatting(tower):
    T = tower(5, 1, 4)
    assert T.parse_element("0") == 0
    assert T.parse_element("1") == 1
    assert T.parse_element("g") == T.gen_code
    assert T.parse_element("g^10") == T.pow_code(T.gen_code, 10)
    assert T.parse_element(2) == 2
    assert T.parse_element([1, 2, 0, 3]) == 1 + 2 * 5 + 3 * 125
    assert T.format_code(0) == "0"
    k = 123
    assert T.format_code(T.pow_code(T.gen_code, k)) == f"g^{k}"
    with pytest.raises(BadElement):
        T.parse_element("h^2")
    with pytest.raises(BadElement):
        T.parse_element([1, 2])
    for outside in (7, 5, -3):   # an int is an F_p scalar, never reduced mod p
        with pytest.raises(BadElement):
            T.parse_element(outside)


def test_towers_with_the_costliest_group_orders():
    # 2^38 - 1 and 1047197^2 - 1 take the most trial-division steps of the
    # domain (`test_arith` checks their factorizations); the towers build
    assert make_field(2, 1, 38).mult_order == 2**38 - 1
    assert make_field(1047197, 1, 2).mult_order == 1047197**2 - 1


def test_no_table_fallback_agrees(tower):
    T = tower(5, 1, 4)
    Tn = make_field(5, 1, 4, table_bound=0)
    assert not Tn.has_tables
    rng = T.rng("fallback")
    for _ in range(100):
        a, b = rng.randrange(625), rng.randrange(625)
        assert Tn.mul_code(a, b) == T.mul_code(a, b)
        if a:
            assert Tn.inv_code(a) == T.inv_code(a)
            assert Tn.dlog(a) == T.dlog(a)
        assert Tn.frob_code(a, 3) == T.frob_code(a, 3)
    assert Tn.sqrt_code(T.mul_code(17, 17)) in (17, Tn.neg_code(17))


@pytest.mark.parametrize("key", [(3, 1, 3), (3, 1, 5), (5, 1, 3), (7, 1, 3), (3, 2, 3),
                                 (5, 1, 4), (11, 1, 2), (13, 1, 3)], ids=field_id)
def test_table_less_square_roots_match_brute_force(key):
    # Tonelli-Shanks on every element, against the set of squares; q^n - 1 is
    # 2 mod 4 at (3,1,3), (3,1,5) and (7,1,3), where it makes one pass
    U = make_field(*key, table_bound=0)
    assert not U.has_tables
    squares = {U.mul_code(x, x) for x in range(U.size)}
    for a in range(U.size):
        r = U.sqrt_code(a)
        if a in squares:
            assert r is not None and U.mul_code(r, r) == a, (key, a)
        else:
            assert r is None, (key, a)


SQRT_CASES = [(key, False) for key in TABLE_FIELDS if key[0] % 2] + [
    ((5, 1, 4), True), ((3, 2, 3), True), ((13, 1, 6), True)]


@pytest.mark.parametrize("key, table_less", SQRT_CASES,
                         ids=[field_id(key) + ("_tableless" if bare else "")
                              for key, bare in SQRT_CASES])
def test_square_roots_match_log_table_oracle(tower, key, table_less):
    # Tonelli-Shanks on seeded elements and squares against the halved log
    # of the tabled tower (the same spec, so the same codes): None exactly
    # for a non-square, and otherwise a root equal to the oracle's up to sign
    T = tower(*key)
    U = make_field(*key, table_bound=0) if table_less else T
    assert U.has_tables is not table_less
    rng = T.rng("sqrt-oracle")
    codes = [0, 1, T.neg_code(1), T.gen_code] + [rng.randrange(T.size) for _ in range(40)]
    for a in codes + [T.mul_code(c, c) for c in codes[:20]]:
        want, got = sqrt_by_log_table(T, a), U.sqrt_code(a)
        if want is None:
            assert got is None, (key, a)
        else:
            assert U.mul_code(got, got) == a and got in (want, T.neg_code(want)), (key, a)


def test_quadratic_solver_odd_and_even_char(tower):
    T = tower(5, 1, 4)
    rng = T.rng("quad")
    for _ in range(40):
        r1, r2 = rng.randrange(625), rng.randrange(625)
        b = T.neg_code(T.add_code(r1, r2))
        c = T.mul_code(r1, r2)
        assert set(T.solve_quadratic(b, c)) == {r1, r2}
    # char 2: the returned set is every root, found by trying all elements,
    # with tables and without them (the same spec, so the same codes)
    for key in ((2, 1, 5), (2, 2, 4)):
        T2, U = tower(*key), make_field(*key, table_bound=0)
        assert not U.has_tables and U.spec() == T2.spec()
        rng = T2.rng("quad2")
        for _ in range(40):
            b, c = rng.randrange(T2.size), rng.randrange(T2.size)
            roots = [r for r in range(T2.size) if T2.add_code(
                T2.add_code(T2.mul_code(r, r), T2.mul_code(b, r)), c) == 0]
            assert T2.solve_quadratic(b, c) == U.solve_quadratic(b, c) == roots, (key, b, c)


def test_spec_writes_the_construction_values():
    T = FieldTower(5, 1, 4, (2, 0, 0, 0, 1), 6, 0, table_bound=0)
    assert T.spec() == {"p": 5, "e": 1, "n": 4, "modulus": [2, 0, 0, 0, 1],
                        "generator": [1, 1, 0, 0], "seed": 0}


def test_log_q_exact(tower):
    T = tower(5, 1, 4)
    assert [T.log_q(5**k) for k in range(6)] == list(range(6))
    for m in (0, 2, 6, 24, 26, 124, 5**4 + 1):
        with pytest.raises(InternalError):
            T.log_q(m)
    T2 = tower(2, 2, 4)  # q = 4: powers of p that are not powers of q are refused
    assert T2.log_q(64) == 3
    with pytest.raises(InternalError):
        T2.log_q(8)


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_exp_table_matches_giant_step_build(tower, key):
    T = tower(*key)
    assert np.array_equal(T.exp_table, exp_table_by_giant_steps(T))


def _same_root(T, got, want):
    return got is None if want is None else got in (want, T.neg_code(want))


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_scalar_tables_match_table_less_tower(tower, key):
    # every scalar operation on the int32 exp/log tables against the digit
    # loops, companion-matrix products and powers and BSGS of the table-less
    # tower
    T, U = tower(*key), make_field(*key, table_bound=0)
    assert T.has_tables and not U.has_tables
    p, M = T.p, T.mult_order
    rng = T.rng("scalar-tables")
    # 0, 1, -1 (the code p - 1, g^(M/2) for odd p), g and the largest code
    special = [0, 1, p - 1, T.gen_code, T.size - 1]
    codes = special + [rng.randrange(T.size) for _ in range(40)]
    pairs = [(a, b) for a in special for b in special]
    pairs += [(a, U.neg_code(a)) for a in codes] + [(a, a) for a in codes]
    pairs += [(rng.randrange(T.size), rng.randrange(T.size)) for _ in range(60)]
    for a, b in pairs:
        for op in ("add_code", "sub_code", "mul_code"):
            got, want = getattr(T, op)(a, b), getattr(U, op)(a, b)
            assert got == want and type(got) is int, (op, a, b)
    for a in codes:
        assert T.neg_code(a) == U.neg_code(a)
        for k in (0, 1, 2, p, M - 1, M + 3, rng.randrange(M)):
            assert T.pow_code(a, k) == U.pow_code(a, k)
        for k in range(T.n + 1):
            assert T.frob_code(a, k) == U.frob_code(a, k)
    for a in [c for c in codes if c][:20]:
        assert T.inv_code(a) == U.inv_code(a)
        assert T.dlog(a) == U.dlog(a)
        assert _same_root(T, T.sqrt_code(a), U.sqrt_code(a))
    assert T.neg_code(1) == p - 1 and T.add_code(1, p - 1) == 0


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_tables_are_read_only_int32(tower, key):
    T = tower(*key)
    for view, table in ((T.exp_view, T.exp_table), (T.log_view, T.log_table)):
        assert view.obj is table and view.readonly
        assert table.dtype == np.int32 and not table.flags.writeable


def test_table_bound_past_int32_refused():
    T = make_field(3, 1, 4, table_bound=0)
    values = (T.p, T.e, T.n, T.modulus, T.gen_code, T.seed)
    with pytest.raises(TooLarge, match="int32"):
        FieldTower(*values, table_bound=1 << 31)
    with pytest.raises(TooLarge):
        make_field(3, 1, 4, table_bound=1 << 40)
    assert FieldTower(*values, table_bound=(1 << 31) - 1).has_tables


def test_memo_caches_are_bounded_lru():
    T = make_field(3, 1, 3)
    polys = [LinearizedPoly(T, [0, a, b]) for a in range(1, T.size) for b in range(T.size)]
    polys = polys[:CACHE_SIZE + 10]
    first = [slope_census(f) for f in polys]
    cache = T.cache("census")
    assert len(cache) == CACHE_SIZE
    assert polys[0].coeffs not in cache and polys[-1].coeffs in cache
    # a hit refreshes its entry: the next insertion evicts the oldest other one
    oldest, second = polys[10].coeffs, polys[11].coeffs
    assert cache[oldest] is first[10]
    slope_census(polys[0])
    assert len(cache) == CACHE_SIZE and oldest in cache and second not in cache
    # evicted entries are recomputed to the same answers
    again = [slope_census(f) for f in polys]
    assert again == first
    assert len(cache) == CACHE_SIZE


@pytest.mark.parametrize("case", BUILDER_FIELDS, ids=builder_id)
def test_mul_matrices_match_per_code_oracle(tower, case):
    T = builder_tower(tower, case)
    rng = T.rng("mul-matrices")
    codes = [0, 1, T.gen_code, T.size - 1] + [rng.randrange(T.size) for _ in range(6)]
    stack = T.mul_matrices(codes)
    assert stack.shape == (len(codes), T.en, T.en)
    for c, got in zip(codes, stack):
        want = mul_matrix_by_codes(T, c)
        assert np.array_equal(got, want) and np.array_equal(T.mul_matrix(c), want)


@pytest.mark.parametrize("key", TABLE_FIELDS + [(7, 1, 10), (3, 1, 20), (2, 1, 31)],
                         ids=field_id)
def test_table_less_arithmetic_matches_digit_loop_oracle(key):
    # the companion-matrix product, power, inverse and negation of a tower
    # without tables against the schoolbook product reduced by long division;
    # TABLE_FIELDS are the keys of BUILDER_FIELDS
    U = make_field(*key, table_bound=0)
    assert not U.has_tables
    p, M = U.p, U.mult_order
    rng = U.rng("digit-loop")
    codes = [1, p - 1, U.gen_code, U.size - 1] + [rng.randrange(1, U.size) for _ in range(8)]
    pairs = [(a, b) for a in [0] + codes[:4] for b in [0] + codes[:4]]
    pairs += [(rng.randrange(U.size), rng.randrange(U.size)) for _ in range(30)]
    for a, b in pairs:
        assert U.mul_code(a, b) == mul_by_digit_loop(U, a, b), (a, b)
    for a in codes:
        for k in (0, 1, -1, M - 1, M + 3, rng.randrange(M)):
            assert U.pow_code(a, k) == pow_by_digit_loop(U, a, k % M), (a, k)
        assert mul_by_digit_loop(U, a, U.inv_code(a)) == 1, a
        # -a is the F_p scalar p - 1 times a
        assert U.neg_code(a) == mul_by_digit_loop(U, p - 1, a), a
    assert U.neg_code(0) == 0
