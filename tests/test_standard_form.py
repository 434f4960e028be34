import pytest

from scattered_lab.errors import InternalError, NotInS, NotScattered, NotStandard
from scattered_lab.field_tower import make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.families import (
    catalog,
    find_lp_delta,
    find_psi_h,
    make_lp,
    make_psi,
    psi_standard_form_closed,
)
from scattered_lab.scatter import is_scattered, linear_set
from scattered_lab.standard_form import (
    _ab_min,
    _branches,
    _standard_shape,
    canonicalize,
    gammal_equivalent,
    gl_equivalent,
    in_class_S,
    maps_onto,
    to_standard_form,
)
from scattered_lab.stabilizer import compute_stabilizer

from oracles import (
    ab_min_by_scan,
    canonical_by_scan,
    standard_form_stabilizer_by_census,
    standard_shape_by_walk,
)


def test_in_class_S_examples(tower):
    T = tower(5, 1, 4)
    assert in_class_S(LinearizedPoly.monomial(T, 1))
    assert in_class_S(make_lp(T, 1, find_lp_delta(T)).poly)
    T5 = tower(5, 1, 5)
    assert not in_class_S(make_lp(T5, 1, find_lp_delta(T5)).poly)
    T6 = tower(5, 1, 6)
    assert in_class_S(make_psi(T6, find_psi_h(T6, 3), 3, 1).poly)


def test_to_standard_form_idempotent(tower):
    T = tower(5, 1, 4)
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    sf = to_standard_form(lp)
    sf2 = to_standard_form(sf.h)
    assert sf2.h == sf.h
    assert sf.t == 2 and sf.s == 1 and sf.canonical


def test_witness_maps_exactly(tower):
    # U_f P^{-1} = U_h, verified on every point of the subspace
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    sf = to_standard_form(psi)
    Pinv = sf.P.inverse()
    assert maps_onto(psi, Pinv, sf.h)
    for xc in range(0, T.size, 97):
        pt = Pinv.apply((xc, psi.evaluate_code(xc)))
        assert sf.h.evaluate_code(pt[0]) == pt[1]


def test_trinomial_closed_form(tower):
    T = tower(5, 1, 6)
    for idx in range(3):
        h = find_psi_h(T, 3, index=idx)
        psi = make_psi(T, h, 3, 1).poly
        sf = to_standard_form(psi)
        tri = psi_standard_form_closed(T, h, 3, 1, formula="trinomial")
        assert sf.h == canonicalize(tri)
        assert sf.t == 2 and sf.h.delta_profile().t_h == 2
        # exponents s, 3s, 5s are all congruent to s mod 2
        assert tri.standard_form_params() == (1, 2)
        assert tri.support == (1, 3, 5)


def test_series_closed_form_rho(tower):
    T = tower(5, 1, 6)
    rho = min(T.solve_quadratic(0, 1), key=T.element_key)
    psi = make_psi(T, rho, 3, 1).poly
    ser = psi_standard_form_closed(T, rho, 3, 1, formula="series")
    tri = psi_standard_form_closed(T, rho, 3, 1, formula="trinomial")
    # both displayed forms describe the same GL-orbit representative
    assert canonicalize(ser) == canonicalize(tri) == to_standard_form(psi).h


def test_standard_form_stabilizer_shape(tower):
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    sf = to_standard_form(psi)
    Gh = compute_stabilizer(sf.h)
    assert Gh.t == sf.t
    assert all(m.is_diagonal() for m in Gh.elements)
    predicted = {(al, 0, 0, T.frob_code(al, sf.s)) for al in T.subfield_elements(sf.t)}
    assert Gh.element_set() == frozenset(predicted)


def test_standard_form_stabilizer_is_the_conjugated_field(tower):
    for key in ((5, 1, 4), (7, 1, 4), (5, 1, 6), (7, 1, 6)):
        T = tower(*key)
        for inst in catalog(T):
            Mf = compute_stabilizer(inst.poly)
            if Mf.t == 1:
                continue
            sf = to_standard_form(inst.poly)
            Gh, conjugated = standard_form_stabilizer_by_census(inst.poly, sf)
            assert Gh.order == len(conjugated) == Mf.order
            assert Gh.element_set() == conjugated
            assert standard_shape_by_walk(T, conjugated, sf.s, sf.t)
            assert _standard_shape(Mf, sf.P, sf.s, sf.t)
            # a twist off by one (mod t) is rejected by both checks
            wrong = (sf.s + 1) % sf.t
            assert not standard_shape_by_walk(T, conjugated, wrong, sf.t)
            assert not _standard_shape(Mf, sf.P, wrong, sf.t)


def test_not_in_S_raises(tower):
    T5 = tower(5, 1, 5)
    lp5 = make_lp(T5, 1, find_lp_delta(T5)).poly
    with pytest.raises(NotInS):
        to_standard_form(lp5)


def test_canonicalize_monomial(tower):
    T = tower(5, 1, 4)
    for s in (1, 3):
        c = canonicalize(LinearizedPoly.monomial(T, s))
        assert c == LinearizedPoly.monomial(T, min(s, 4 - s))
    T6 = tower(5, 1, 6)
    assert canonicalize(LinearizedPoly.monomial(T6, 5)) == LinearizedPoly.monomial(T6, 1)


def test_canonicalize_idempotent_and_orbit_invariant(tower):
    T = tower(5, 1, 4)
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    c = canonicalize(lp)
    assert canonicalize(c) == c
    rng = T.rng("canon")
    for _ in range(6):
        a, b = rng.randrange(1, 625), rng.randrange(1, 625)
        assert canonicalize(lp.transform(a, b)) == c
    # the inverse branch lands on the same canonical form
    assert canonicalize(lp.invert()) == c


def test_canonicalize_requires_standard(tower):
    T5 = tower(5, 1, 5)
    lp5 = make_lp(T5, 1, find_lp_delta(T5)).poly
    with pytest.raises(NotStandard):
        canonicalize(lp5)


def test_essential_uniqueness(tower):
    # any two valid standard forms of the same f differ by (a, b, inversion)
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    sf = to_standard_form(psi)
    rng = T.rng("uniq")
    for _ in range(5):
        a, b = rng.randrange(1, T.size), rng.randrange(1, T.size)
        other = sf.h.transform(a, b)  # another standard form of the same orbit
        assert other.delta_profile().t_h == sf.t
        assert canonicalize(other) == sf.h


def test_gl_equivalent_scaled(tower):
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    g = f.transform(17, 23)
    res = gl_equivalent(f, g)
    assert res.equivalent is True
    assert maps_onto(f, res.witness, g)


def test_gl_equivalent_psi_trinomial(tower):
    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    psi = make_psi(T, h, 3, 1).poly
    tri = psi_standard_form_closed(T, h, 3, 1)
    res = gl_equivalent(psi, tri)
    assert res.equivalent is True
    assert maps_onto(psi, res.witness, tri)


def test_gl_not_equivalent_different_stabilizers(tower):
    T = tower(5, 1, 4)
    pr = LinearizedPoly.monomial(T, 1)
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    res = gl_equivalent(pr, lp)
    assert res.equivalent is False
    assert "stabilizer" in res.reason or "canonical" in res.reason


def test_gl_requires_scattered(tower):
    T = tower(5, 1, 4)
    with pytest.raises(NotScattered):
        gl_equivalent(LinearizedPoly.identity(T), LinearizedPoly.monomial(T, 1))


def test_gl_non_S_pair(tower):
    # outside the standard-form class only structural witnesses are found
    T5 = tower(5, 1, 5)
    lp5 = make_lp(T5, 1, find_lp_delta(T5)).poly
    g = lp5.transform(7, 11)
    res = gl_equivalent(lp5, g)
    assert res.equivalent is True and maps_onto(lp5, res.witness, g)
    gi = lp5.invert().transform(3, 2)
    res2 = gl_equivalent(lp5, gi)
    assert res2.equivalent is True and maps_onto(lp5, res2.witness, gi)
    # a different non-S polynomial of the same stabilizer order: undecidable
    other = make_lp(T5, 1, find_lp_delta(T5, index=5)).poly
    res3 = gl_equivalent(lp5, other)
    assert res3.equivalent in (None, True)
    if res3.equivalent is None:
        assert res3.mode == "Undecidable"


def test_gammal_twist(tower):
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    res = gammal_equivalent(psi, psi.twist(1))
    assert res.equivalent is True
    assert res.sigma_p_exponent is not None
    # reflexive with the identity twist
    res0 = gammal_equivalent(psi, psi)
    assert res0.equivalent is True


def test_gammal_inequivalent_psis(tower):
    # two h values with norm -1 whose canonical forms differ for every twist
    T = tower(5, 1, 6)
    found_ineq = False
    base = make_psi(T, find_psi_h(T, 3, 0), 3, 1).poly
    for idx in range(1, 6):
        other = make_psi(T, find_psi_h(T, 3, idx), 3, 1).poly
        res = gammal_equivalent(base, other)
        if res.equivalent is False:
            found_ineq = True
            break
    assert found_ineq, "expected at least one inequivalent pair among the h values"


def test_invariants_under_witness(tower):
    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    psi = make_psi(T, h, 3, 1).poly
    tri = psi_standard_form_closed(T, h, 3, 1)
    assert is_scattered(psi) and is_scattered(tri)
    assert compute_stabilizer(psi).order == compute_stabilizer(tri).order
    assert linear_set(psi).size == linear_set(tri).size


def test_no_table_canonicalize_agrees():
    # the scalar-arithmetic scan over b on a table-less tower agrees with the
    # table path, on the canonical form and on each branch with its (a, b)
    T1 = make_field(3, 1, 4)
    T0 = make_field(3, 1, 4, table_bound=0)
    coeffs = [0, 1, 0, T1.gen_code]
    h1, h0 = LinearizedPoly(T1, coeffs), LinearizedPoly(T0, coeffs)
    assert canonicalize(h1).coeffs == canonical_by_scan(h0).coeffs
    for r1, r0 in ((h1, h0), (h1.invert(), h0.invert())):
        p1, a1, b1 = _ab_min(r1)
        p0, a0, b0 = ab_min_by_scan(r0)
        assert (p1.coeffs, a1, b1) == (p0.coeffs, a0, b0)


def test_invert_internal_error_propagates(monkeypatch):
    # only NotBijective means "not invertible"; any other failure of invert()
    # is a bug and must surface instead of steering the answer
    T0 = make_field(5, 1, 4)
    h = to_standard_form(make_lp(T0, 1, find_lp_delta(T0)).poly).h
    T = make_field(5, 1, 4)  # fresh tower: no inverse or canonical form cached
    f = LinearizedPoly.monomial(T, 1)
    gen = compute_stabilizer(f).generator

    def broken(self):
        raise InternalError("broken inversion")

    monkeypatch.setattr(LinearizedPoly, "invert", broken)
    with pytest.raises(InternalError):
        maps_onto(f, gen, f)
    with pytest.raises(InternalError):
        _branches(f)
    with pytest.raises(InternalError):
        canonicalize(LinearizedPoly(T, h.coeffs))
    with pytest.raises(InternalError, match="broken inversion"):
        to_standard_form(make_lp(T, 1, find_lp_delta(T)).poly)
