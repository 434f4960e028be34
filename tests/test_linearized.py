import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scattered_lab._linalg import linear_values
from scattered_lab.errors import BadElement, NotBijective, NotStandard, ZeroPolynomial
from scattered_lab.families import find_lp_delta, make_lp
from scattered_lab.field_tower import _digits, _pack, make_field
from scattered_lab.linearized import LinearizedPoly

from oracles import (
    BUILDER_FIELDS,
    TABLE_FIELDS,
    builder_id,
    builder_tower,
    eval_all_logs_by_terms,
    field_id,
    fp_matrix_by_evaluation,
    from_fp_matrix,
    from_fp_matrix_by_scalars,
    inv_mod_matrix,
    invert_by_fp_matrix,
    invert_by_fq_matrix,
    qpoly_readback,
    trace_dual_basis,
    affine_values_by_terms,
    rank_by_row_reduction,
)


def rand_poly(T, rng):
    return LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])


def test_evaluate_examples(tower):
    T = tower(5, 1, 4)
    x = LinearizedPoly.identity(T)
    for c in (0, 1, 17, T.gen_code):
        assert x.evaluate_code(c) == c
    xq = LinearizedPoly.monomial(T, 1)
    for c in T.subfield_elements(1):
        assert xq.evaluate_code(c) == c
    # f = x^5 + g x^25 at x = g equals g^5 + g^26
    g = T.gen_code
    f = LinearizedPoly(T, [0, 1, g, 0])
    expected = T.add_code(T.pow_code(g, 5), T.pow_code(g, 26))
    assert f.evaluate_code(g) == expected


def test_evaluate_additive_and_homogeneous(tower):
    T = tower(5, 1, 4)
    rng = T.rng("evaltest")
    f = rand_poly(T, rng)
    for _ in range(30):
        a, b = rng.randrange(625), rng.randrange(625)
        lam = T.subfield_elements(1)[rng.randrange(4)]
        assert f.evaluate_code(T.add_code(a, b)) == \
            T.add_code(f.evaluate_code(a), f.evaluate_code(b))
        assert f.evaluate_code(T.mul_code(lam, a)) == \
            T.mul_code(lam, f.evaluate_code(a))


def test_compose_identity_and_monomials(tower):
    T = tower(5, 1, 4)
    x = LinearizedPoly.identity(T)
    rng = T.rng("composetest")
    f = rand_poly(T, rng)
    assert x.compose(f) == f and f.compose(x) == f
    for i in range(4):
        for j in range(4):
            lhs = LinearizedPoly.monomial(T, i).compose(LinearizedPoly.monomial(T, j))
            assert lhs == LinearizedPoly.monomial(T, (i + j) % 4)


def test_compose_pointwise_agreement_3_1_3(tower):
    # compose(x^3 + x, x^3) = x^9 + x^3, checked on every element of F_27
    T = tower(3, 1, 3)
    f = LinearizedPoly(T, [1, 1, 0])
    g = LinearizedPoly.monomial(T, 1)
    fg = f.compose(g)
    assert fg == LinearizedPoly(T, [0, 1, 1])
    for c in range(27):
        assert fg.evaluate_code(c) == f.evaluate_code(g.evaluate_code(c))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_compose_associative(data):
    T = make_field(3, 1, 3)
    polys = [LinearizedPoly(T, [data.draw(st.integers(0, 26)) for _ in range(3)])
             for _ in range(3)]
    f, g, h = polys
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_fp_matrix_examples(tower):
    T = tower(5, 1, 4)
    assert (LinearizedPoly.identity(T).fp_matrix() == np.eye(4, dtype=np.int64)).all()
    assert not LinearizedPoly.zero(T).fp_matrix().any()
    # the matrix of x^5 is the tower Frobenius matrix
    assert (LinearizedPoly.monomial(T, 1).fp_matrix() == T.frob_stack[1]).all()


def test_from_fp_matrix_roundtrip(tower):
    # the oracle's trace-dual readback inverts fp_matrix
    for key in ((5, 1, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("matrixtest")
        for _ in range(8):
            f = rand_poly(T, rng)
            assert from_fp_matrix(T, f.fp_matrix()) == f
    T = tower(3, 1, 3)
    assert from_fp_matrix(T, LinearizedPoly.monomial(T, 1).fp_matrix()) \
        == LinearizedPoly.monomial(T, 1)


@pytest.mark.parametrize("case", BUILDER_FIELDS, ids=builder_id)
def test_from_fp_matrix_matches_scalar_readback(tower, case):
    # the oracle's readback matrix against en * n scalar products per matrix,
    # on the matrices of random polynomials and of their inverses
    T = builder_tower(tower, case)
    rng = T.rng("readback")
    mats = []
    for _ in range(6):
        A = rand_poly(T, rng).fp_matrix()
        mats.append(A)
        inv = inv_mod_matrix(A, T.p)
        if inv is not None:
            mats.append(inv)
    for A in mats:
        assert from_fp_matrix(T, A) == from_fp_matrix_by_scalars(T, A)
    assert qpoly_readback(T).shape == (T.n * T.en, T.en * T.en)


def test_trace_dual_basis(tower):
    # Tr(X^j beta_k) = [j = k], with Tr(y) the sum of the p^m-th powers of y
    for key in ((5, 1, 4), (2, 3, 3)):
        T = tower(*key)
        for j in range(T.en):
            for k, beta in enumerate(trace_dual_basis(T)):
                y = T.mul_code(int(T.p**j), beta)
                tr = 0
                for m in range(T.en):
                    tr = T.add_code(tr, T.pow_code(y, T.p**m))
                assert tr == (1 if j == k else 0)


def _invert_or_none(invert, f):
    try:
        return invert(f).coeffs
    except NotBijective:
        return None


def test_invert_matches_fq_matrix_oracle(tower):
    # three routes: the class solve, the F_p-matrix inverse read back through
    # the trace-dual basis, and the F_q-matrix inverse read back through a
    # Moore system
    towers = [tower(*key) for key in ((5, 1, 4), (5, 1, 6), (3, 2, 3), (2, 2, 4), (2, 3, 3))]
    towers.append(make_field(3, 2, 3, table_bound=0))
    for T in towers:
        rng = T.rng("invert-oracle")
        answers = []
        for _ in range(200 if T.has_tables else 40):
            f = rand_poly(T, rng)
            answers.append(_invert_or_none(LinearizedPoly.invert, f))
            assert answers[-1] == _invert_or_none(invert_by_fp_matrix, f)
            assert answers[-1] == _invert_or_none(invert_by_fq_matrix, f)
        # both outcomes are exercised on every tower
        assert None in answers and any(a is not None for a in answers)


def test_rank_oracle_agreement(tower):
    for key in ((5, 1, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("ranktest")
        for _ in range(12):
            f = rand_poly(T, rng)
            assert f.rank() == rank_by_row_reduction(T, f)


def test_invert_examples(tower):
    T = tower(5, 1, 4)
    x = LinearizedPoly.identity(T)
    assert x.invert() == x
    for s in (1, 3):
        assert LinearizedPoly.monomial(T, s).invert() == \
            LinearizedPoly.monomial(T, (4 - s) % 4)
    rng = T.rng("inverttest")
    done = 0
    while done < 10:
        f = rand_poly(T, rng)
        if f.rank() < 4:
            with pytest.raises(NotBijective):
                f.invert()
            continue
        fi = f.invert()
        assert f.compose(fi) == x and fi.compose(f) == x
        done += 1


def test_invert_lp_without_tables():
    # the class solve on F_(7^10), where every product is a companion-matrix
    # product: the Lunardon-Polverino member of `families --family 2 --q 7 --n 10`
    T = make_field(7, 1, 10)
    assert not T.has_tables
    f = make_lp(T, 1, find_lp_delta(T)).poly
    g = f.invert()
    x = LinearizedPoly.identity(T)
    assert f.compose(g) == x and g.compose(f) == x


def test_invert_psi_closed_form(tower):
    # q = 1 mod 4, t odd, h = rho with rho^2 = -1:
    # the compositional inverse is (1/4)(x^u - x^{u^{t-1}} + x^{u^{t+1}} + x^{u^{2t-1}})
    T = tower(5, 1, 6)
    from scattered_lab.families import make_psi

    rho = min(T.solve_quadratic(0, 1), key=T.element_key)
    psi = make_psi(T, rho, 3, 1).poly
    t, s, n = 3, 1, 6
    quarter = T.inv_code(4)
    coeffs = [0] * n
    coeffs[s % n] = quarter
    coeffs[(s * (t - 1)) % n] = T.neg_code(quarter)
    coeffs[(s * (t + 1)) % n] = quarter
    coeffs[(s * (2 * t - 1)) % n] = quarter
    assert psi.invert() == LinearizedPoly(T, coeffs)


def _params_or_none(f):
    try:
        return f.standard_form_params()
    except NotStandard:
        return None


def test_delta_profile_examples(tower):
    # t_h = gcd(n, exponent differences) and s = least exponent mod t_h
    T = tower(5, 1, 4)
    d = T.gen_code
    lp = LinearizedPoly(T, [0, 1, 0, d])
    assert lp.standard_form_params() == (1, 2)
    assert LinearizedPoly.monomial(T, 3).standard_form_params() == (3, 4)
    T6 = tower(5, 1, 6)
    assert LinearizedPoly(T6, [1, 0, 1, 0, 1, 0]).standard_form_params() == (0, 2)
    assert LinearizedPoly(T6, [0, 1, 0, 0, 1, 0]).standard_form_params() == (1, 3)
    # same Lunardon-Polverino shape with odd n is not standard
    T5 = tower(5, 1, 5)
    lp5 = LinearizedPoly(T5, [0, 1, 0, 0, T5.gen_code])
    with pytest.raises(NotStandard):
        lp5.standard_form_params()
    with pytest.raises(ZeroPolynomial):
        LinearizedPoly.zero(T).standard_form_params()


def test_coefficient_codes_out_of_range_are_refused(tower):
    # -1 would read log_table[-1] (the code q^n - 1) and never leave add_code;
    # q^n would index past the tables
    T = tower(5, 1, 4)
    for bad in (-1, T.size):
        with pytest.raises(BadElement):
            LinearizedPoly(T, [0, 1, 0, bad])
        with pytest.raises(BadElement):
            LinearizedPoly.monomial(T, 1, bad)


def test_internal_results_skip_the_range_check(monkeypatch):
    # sums, scalings, transforms, compositions, twists and class solves are
    # built from codes in range; only codes from outside are checked
    T = make_field(5, 1, 4)
    rng = T.rng("unchecked")
    f, g = rand_poly(T, rng), rand_poly(T, rng)
    a, b = rng.randrange(1, T.size), rng.randrange(1, T.size)
    u = LinearizedPoly.monomial(T, 1, a)

    def results():
        return [f + g, f.scale(a), f.transform(a, b), f.compose(g),
                f.twist(1), u.solve_on_class(g, 0, 1)]

    want = [r.coeffs for r in results()]
    seen = []
    monkeypatch.setattr(T, "check_codes", lambda *codes, what="": seen.extend(codes))
    got = results()
    assert [r.coeffs for r in got] == want
    assert seen == [a, a, b]   # the arguments of scale and transform only
    for r in got:
        assert all(type(c) is int and 0 <= c < T.size for c in r.coeffs)


def test_subfield_linear_monomial_params(tower):
    # x^{q^3} over n = 6: t_h = 6 and s = 3, with gcd(s, t) = 3 flagging
    # F_{q^3}-linearity (hence non-scatteredness); the call still returns
    T = tower(5, 1, 6)
    s, t = LinearizedPoly.monomial(T, 3).standard_form_params()
    assert (s, t) == (3, 6)
    import math

    assert math.gcd(s, t) != 1


def test_delta_profile_invariance(tower):
    T = tower(5, 1, 4)
    rng = T.rng("deltainv")
    for _ in range(10):
        f = rand_poly(T, rng)
        if f.is_zero():
            continue
        a = rng.randrange(1, 625)
        b = rng.randrange(1, 625)
        g = f.transform(a, b)
        assert g.support == f.support
        assert _params_or_none(g) == _params_or_none(f)


def test_standard_scattered_is_bijective(tower):
    # scattered polynomials in standard form must be invertible
    T = tower(5, 1, 4)
    from scattered_lab.scatter import is_scattered

    d = T.gen_code
    lp = LinearizedPoly(T, [0, 1, 0, d])
    assert is_scattered(lp) and lp.standard_form_params()[1] == 2
    lp.invert()  # must not raise


def test_json_roundtrip(tower):
    T = tower(5, 1, 4)
    rng = T.rng("jsontest")
    f = rand_poly(T, rng)
    doc = f.to_json()
    assert LinearizedPoly.from_json(T, doc) == f


def test_repr_readable(tower):
    T = tower(5, 1, 4)
    f = LinearizedPoly(T, [0, 1, 0, T.gen_code])
    s = repr(f)
    assert "x^q" in s and "g^1" in s


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_bulk_evaluation_matches_term_by_term_oracle(tower, key):
    T = tower(*key)
    rng = T.rng("bulk-evaluation")
    polys = [LinearizedPoly.zero(T), LinearizedPoly.monomial(T, 1, T.gen_code),
             LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])]
    for f in polys:
        assert np.array_equal(f.eval_all_logs(), eval_all_logs_by_terms(f))


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_affine_values_with_offset_match_digitwise_oracle(tower, key):
    # a + m c for every code m: the table of multiplication by c started at
    # the digits of a, at a = 0 (no offset) and at two a != 0
    T = tower(*key)
    rng = T.rng("affine-values")
    for c in (1, rng.randrange(1, T.size)):
        got = linear_values(T.p, T.mul_matrix(c))
        assert np.array_equal(got, affine_values_by_terms(T, 0, c))
        for a in (1, rng.randrange(1, T.size)):
            got = linear_values(T.p, T.mul_matrix(c), T.digit_rows([a]))
            assert np.array_equal(got, affine_values_by_terms(T, a, c)), a


@pytest.mark.parametrize("p, rows, en", [(2, 3, 5), (3, 4, 4), (5, 2, 3), (7, 3, 2), (257, 1, 2)])
def test_linear_values_of_any_affine_map(p, rows, en):
    # not the matrix of a field map: rectangular, arbitrary entries
    rng = np.random.default_rng(p)
    A = rng.integers(0, p, size=(rows, en))
    offset = rng.integers(1, p, size=rows)
    assert linear_values(p, A).tolist() == [_pack(A @ np.array(_digits(c, p, en)) % p, p)
                                            for c in range(p**en)]
    assert linear_values(p, A, offset).tolist() == [
        _pack((offset + A @ np.array(_digits(c, p, en))) % p, p) for c in range(p**en)]


@pytest.mark.parametrize("case", BUILDER_FIELDS, ids=builder_id)
def test_fp_matrix_matches_evaluation_oracle(tower, case):
    T = builder_tower(tower, case)
    rng = T.rng("fp-matrix")
    polys = [LinearizedPoly.zero(T), LinearizedPoly.identity(T),
             LinearizedPoly.monomial(T, T.n - 1, T.gen_code)] + [rand_poly(T, rng) for _ in range(3)]
    stack = T.qpoly_matrices([f.coeffs for f in polys])
    for f, got in zip(polys, stack):
        want = fp_matrix_by_evaluation(f)
        assert np.array_equal(got, want) and np.array_equal(f.fp_matrix(), want)
