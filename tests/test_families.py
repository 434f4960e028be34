import math

import pytest

from scattered_lab.errors import BadParams, UnsupportedParams
from scattered_lab.field_tower import make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.families import (
    FamilyInstance,
    catalog,
    find_family3_delta,
    find_family4_delta,
    find_lp_delta,
    find_psi_h,
    make_family3,
    make_family4,
    make_lp,
    make_psi,
    make_pseudoregulus,
    psi_standard_form_closed,
    psi_theta,
)
from scattered_lab.scatter import is_scattered
from scattered_lab.stabilizer import Mat2, compute_stabilizer
from scattered_lab.standard_form import canonicalize, to_standard_form

from scattered_lab import families

from oracles import (
    element_set_of,
    field_id,
    find_lp_delta_by_walk,
    predicted_set_by_listing,
    twisted_eigenspace,
)


def test_pseudoregulus_params(tower):
    T = tower(5, 1, 4)
    inst = make_pseudoregulus(T, 1)
    assert inst.poly == LinearizedPoly.monomial(T, 1)
    assert inst.predicted_order == 624
    with pytest.raises(BadParams):
        make_pseudoregulus(T, 2)
    with pytest.raises(BadParams):
        make_pseudoregulus(T, 0)


def test_lp_params(tower):
    T = tower(5, 1, 4)
    d = find_lp_delta(T)
    assert T.rel_norm_code(d, 1) not in (0, 1)
    inst = make_lp(T, 1, d)
    assert inst.predicted_order == 24 and inst.predicted_t == 2
    T5 = tower(5, 1, 5)
    inst5 = make_lp(T5, 1, find_lp_delta(T5))
    assert inst5.predicted_order == 4 and inst5.predicted_t == 1
    with pytest.raises(BadParams):
        make_lp(T, 1, 1)  # N(1) = 1
    with pytest.raises(BadParams):
        make_lp(T, 2, d)  # gcd(2, 4) != 1
    T3 = tower(5, 1, 2)
    with pytest.raises(BadParams):
        make_lp(T3, 1, T3.gen_code)  # n > 3 required


@pytest.mark.parametrize("key", [(2, 1, 4), (2, 1, 6), (2, 2, 4), (3, 1, 2), (3, 1, 4),
                                 (3, 2, 3), (5, 1, 4), (7, 1, 4)], ids=field_id)
def test_lp_delta_closed_form_matches_walk(tower, key):
    # the index-th k with (q - 1) not dividing k against the walk of every
    # power of g; q = 2 has no such k, and both refuse every index there
    T = tower(*key)
    count = T.mult_order // (T.q - 1) * (T.q - 2)
    for index in sorted({0, 1, 2, T.q - 2, T.q - 1, 2 * T.q, count - 1, count, count + 5}):
        try:
            want = find_lp_delta_by_walk(T, index)
        except BadParams:
            with pytest.raises(BadParams, match="no valid delta exists"):
                find_lp_delta(T, index)
        else:
            assert find_lp_delta(T, index) == want, index


@pytest.mark.parametrize("search, key, args, message", [
    # NotADivisor from a norm over F_(q^(n/2)) before
    (find_family3_delta, (5, 1, 5), (), r"n in \{6, 8\}"),
    # 2000 constructions, then "no valid delta found within the search limit"
    (find_family3_delta, (5, 1, 4), (), r"n in \{6, 8\}"),
    (find_family3_delta, (5, 1, 6), (3,), r"gcd\(s, n/2\) = 1, got s=3"),
    # a construction per power of g, then "no valid delta found"
    (find_family4_delta, (2, 1, 4), (), r"F_\(q\^6\)"),
    (find_family4_delta, (3, 1, 4), (), r"F_\(q\^6\)"),
    # "-1 is not a norm in this configuration" before, from a floor division
    (find_psi_h, (5, 1, 5), (2,), r"need n = 2t with t >= 3, got n=5, t=2"),
    # "q must be odd" before
    (find_psi_h, (2, 1, 4), (2,), r"need n = 2t with t >= 3, got n=4, t=2"),
])
def test_searches_refuse_delta_free_conditions_first(tower, monkeypatch, search, key, args,
                                                     message):
    def not_reached(*_):
        raise AssertionError("a candidate delta was built")

    monkeypatch.setattr(families, "make_family3", not_reached)
    monkeypatch.setattr(families, "make_family4", not_reached)
    with pytest.raises(BadParams, match=message):
        search(tower(*key), *args)


def test_family3_params(tower):
    T = tower(5, 1, 6)
    d = find_family3_delta(T)
    inst = make_family3(T, 1, d)
    assert inst.validity == "ComputationOnly"
    assert inst.predicted_order == 5**3 - 1
    assert is_scattered(inst.poly)
    T4 = tower(5, 1, 4)
    with pytest.raises(BadParams):
        make_family3(T4, 1, T4.gen_code)  # n must be 6 or 8
    with pytest.raises(BadParams):
        make_family3(T, 1, 1)  # norm condition


def test_family4_params(tower):
    T = tower(5, 1, 6)
    d = find_family4_delta(T)
    lhs = T.add_code(T.mul_code(d, d), d)
    assert lhs == 1
    inst = make_family4(T, d)
    assert inst.predicted_order == 24
    with pytest.raises(BadParams):
        make_family4(T, T.gen_code if T.add_code(
            T.mul_code(T.gen_code, T.gen_code), T.gen_code) != 1 else 3)
    T4 = tower(5, 1, 4)
    with pytest.raises(BadParams):
        make_family4(T4, 2)


def test_psi_params(tower):
    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    assert T.rel_norm_code(h, 3) == T.neg_code(1)
    inst = make_psi(T, h, 3, 1)
    assert inst.predicted_order == 24 and inst.validity == "Checked"
    with pytest.raises(BadParams):
        make_psi(T, h, 3, 2)  # gcd(2, 6) != 1
    with pytest.raises(BadParams):
        make_psi(T, 1, 3, 1)  # N(1) = 1 != -1
    T4 = tower(5, 1, 4)
    with pytest.raises(BadParams):
        make_psi(T4, 1, 2, 1)  # t >= 3
    T2 = tower(2, 2, 4)
    with pytest.raises(BadParams):
        make_psi(T2, T2.gen_code, 2, 1)  # q odd and t >= 3
    T26 = make_field(2, 1, 6)
    with pytest.raises(BadParams):
        make_psi(T26, T26.gen_code, 3, 1)  # q must be odd


def test_all_checked_instances_scattered(tower):
    for key in ((5, 1, 4), (5, 1, 5), (5, 1, 6), (3, 1, 4)):
        T = tower(*key)
        for inst in catalog(T):
            assert is_scattered(inst.poly), (key, inst.family_id)


def test_predicted_stabilizers_exact(tower):
    # the table of stabilizers as executable assertions: the conjugator
    # certificate, and element-for-element against the listed prediction
    for key in ((5, 1, 4), (5, 1, 5), (5, 1, 6), (3, 1, 8)):
        T = tower(*key)
        for inst in catalog(T):
            Mf = compute_stabilizer(inst.poly)
            assert inst.matches(Mf), (key, inst.family_id)
            assert element_set_of(Mf) == predicted_set_by_listing(inst), (key, inst.family_id)
            assert Mf.group_order == inst.predicted_order


def test_psi_stabilizer_even_t():
    # t = 4 (so n = 8) falls under the standard-form extension: diag over F_{q^2}
    T = make_field(3, 1, 8)
    h = find_psi_h(T, 4)
    inst = make_psi(T, h, 4, 1)
    Mf = compute_stabilizer(inst.poly)
    assert inst.matches(Mf)
    assert element_set_of(Mf) == predicted_set_by_listing(inst)
    assert Mf.t == 2 and Mf.group_order == 8


def _mispredicted(inst, **changed):
    """inst with the given fields changed."""
    values = {name: getattr(inst, name) for name in FamilyInstance.__slots__}
    return FamilyInstance(**{**values, **changed})


def test_prediction_certificate_rejects_wrong_triples(tower):
    # each mutated (W, s, t) describes another F_p-space of matrices
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1)
    Mf = compute_stabilizer(psi.poly)
    assert psi.matches(Mf)
    two_theta = T.add_code(psi_theta(T, psi.params["h"], 3, 1),
                           psi_theta(T, psi.params["h"], 3, 1))
    assert not _mispredicted(psi, predicted_conjugator=Mat2(
        T, 1, two_theta, 1, T.neg_code(two_theta))).matches(Mf)
    assert not _mispredicted(psi, predicted_conjugator=Mat2.identity(T)).matches(Mf)
    frob = make_pseudoregulus(T, 1)
    assert frob.matches(compute_stabilizer(frob.poly))
    assert not _mispredicted(frob, predicted_s=5).matches(compute_stabilizer(frob.poly))
    T4 = tower(5, 1, 4)
    lp = make_lp(T4, 1, find_lp_delta(T4))
    assert lp.matches(compute_stabilizer(lp.poly))
    assert not _mispredicted(lp, predicted_t=1).matches(compute_stabilizer(lp.poly))
    # F_25 lies in D(1, 4), so only the order |G_f| = 25 rejects t = 4
    assert not _mispredicted(lp, predicted_t=4).matches(compute_stabilizer(lp.poly))


def test_eigen_sign_identity(tower):
    # (alpha + xi)^q = alpha - xi for alpha in F_q and xi with xi^{q^s} = -xi
    T = tower(5, 1, 6)
    for al in T.subfield_elements(1)[:-1] + [0]:
        for xi in twisted_eigenspace(T, 1, -1):
            assert T.frob_code(T.add_code(al, xi), 1) == T.sub_code(al, xi)


def test_theta_subfield_specialization(tower):
    # h in F_{q^t} forces theta^2 = -4, giving the (alpha, -4 eta; eta, alpha) shape
    T = tower(5, 1, 6)
    rho = min(T.solve_quadratic(0, 1), key=T.element_key)
    assert T.subfield_member_code(rho, 3)
    theta = psi_theta(T, rho, 3, 1)
    assert T.mul_code(theta, theta) == T.neg_code(4)


def test_closed_form_unsupported(tower):
    T = tower(5, 1, 6)
    with pytest.raises(UnsupportedParams):
        psi_standard_form_closed(T, find_psi_h(T, 3), 3, 1, formula="series")
    T8 = make_field(3, 1, 8)
    with pytest.raises(UnsupportedParams):
        psi_standard_form_closed(T8, find_psi_h(T8, 4), 4, 1)


def test_series_form_tests_membership_in_F_q_by_frobenius(tower):
    # over F_9 (e = 2) the roots of x^2 + 1 lie in F_q with codes above q,
    # and the code 3, below q, lies outside F_q
    T = tower(3, 2, 6)
    h = min(T.solve_quadratic(0, 1))
    assert h > T.q and T.subfield_member_code(h, 1)
    ser = psi_standard_form_closed(T, h, 3, 1, formula="series")
    assert canonicalize(ser) == to_standard_form(make_psi(T, h, 3, 1).poly).h
    assert not T.subfield_member_code(3, 1)
    with pytest.raises(UnsupportedParams):
        psi_standard_form_closed(T, 3, 3, 1, formula="series")


def test_psi_inverse_identity_large_no_table_field():
    # t = 5 at q = 13: the displayed compositional inverse of the four-term
    # polynomial, checked exactly in F_13^10 without exp/log tables
    T = make_field(13, 1, 10)
    assert not T.has_tables
    rho = 5
    assert T.mul_code(rho, rho) == T.neg_code(1)
    psi = make_psi(T, rho, 5, 1).poly
    q, n, t, s = 13, 10, 5, 1
    quarter = T.inv_code(4)
    coeffs = [0] * n
    coeffs[s % n] = quarter
    coeffs[(s * (t - 1)) % n] = T.neg_code(quarter)
    coeffs[(s * (t + 1)) % n] = quarter
    coeffs[(s * (2 * t - 1)) % n] = quarter
    inv = LinearizedPoly(T, coeffs)
    x = LinearizedPoly.identity(T)
    assert psi.compose(inv) == x and inv.compose(psi) == x
    # the series closed form has standard parameters (1, 2)
    ser = psi_standard_form_closed(T, rho, 5, 1, formula="series")
    assert ser.standard_form_params() == (1, 2)
    assert math.gcd(*ser.standard_form_params()) == 1


def test_instance_json(tower):
    T = tower(5, 1, 6)
    inst = make_psi(T, find_psi_h(T, 3), 3, 1)
    doc = inst.to_json()
    assert doc["family"] == 5
    assert doc["predicted_stabilizer"]["order"] == 24
    assert isinstance(doc["params"]["h"], str)
