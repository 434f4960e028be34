import json
import math

import numpy as np
import pytest

import scattered_lab.plane as plane
from scattered_lab import cli, selftest
from scattered_lab.errors import (HallCase, InternalError, NotBijective, NotInS, NotScattered,
                                  SmallQ, TooLarge)
from scattered_lab.field_tower import FieldTower, make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.families import (
    catalog,
    find_family3_delta,
    find_lp_delta,
    find_psi_h,
    make_family3,
    make_lp,
    make_psi,
    psi_theta,
)
from scattered_lab.plane import (
    PseudoregulusCase,
    ReducibilityWitness,
    Spread,
    build_spread,
    classify_central_collineations,
    kernel_scalar_audit,
    linear_collineations,
    reducibility_witness,
    semilinear_part_audit,
    verify_spread_axioms,
    _pointwise_fix_system,
    _component_basis,
)
from scattered_lab.scatter import is_scattered, linear_set
from scattered_lab.stabilizer import (Mat2, compute_stabilizer, conjugates_to_diagonal,
                                      diagonalize)
from scattered_lab.standard_form import image_polynomial, to_standard_form
from scattered_lab._linalg import solve_mod

from oracles import (
    andre_subgroup_by_walk,
    andre_witness_by_image,
    central_classes_by_scan,
    conjugated_pairs_by_inverse,
    cyclic_by_walk,
    component_of,
    decomposition_by_sampling,
    fiber_representatives,
    homology_groups,
    in_kernel,
    is_homology_group,
    kernel_scalar_by_walk,
    line_intersection_dim,
    maps_onto_by_inversion,
    mat_apply,
    mat_scale,
    membership,
    nonzero_of,
    spread_components,
    spread_cover_by_walk,
    spread_walk,
    _homology_factor_order,
    _homology_kappas,
)


def _groups(f, hr):
    """The listed homology groups (group_X, group_Y) of f; empty for t = 1."""
    if hr.t == 1:
        return [], []
    return homology_groups(diagonalize(compute_stabilizer(f)).P, hr.group_order)


def _differential_instances(tower):
    """Every catalog instance at (5,4), (7,4) and (5,5), plus seeded random
    scattered polynomials at (5,3)."""
    polys = [inst.poly for key in ((5, 1, 4), (7, 1, 4), (5, 1, 5))
             for inst in catalog(tower(*key))]
    T = tower(5, 1, 3)
    rng = T.rng("plane-differential")
    found = 0
    while found < 3:
        f = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
        if is_scattered(f):
            polys.append(f)
            found += 1
    return polys


def test_build_spread_counts(tower):
    T = tower(5, 1, 4)
    sp = build_spread(LinearizedPoly.monomial(T, 1))
    assert sp.component_count == 626
    assert sp.h_class_count == 156
    assert sp.desarguesian_count() == 470
    assert len(list(spread_components(sp))) == 626


def test_spread_refusals(tower):
    T3 = tower(3, 1, 4)
    with pytest.raises(SmallQ):
        build_spread(LinearizedPoly.monomial(T3, 1))
    T2 = tower(5, 1, 2)
    with pytest.raises(HallCase):
        build_spread(LinearizedPoly.monomial(T2, 1))
    T = tower(5, 1, 4)
    with pytest.raises(NotScattered):
        build_spread(LinearizedPoly.identity(T))


def test_spread_axioms_exhaustive(tower):
    T = tower(5, 1, 4)
    for poly in (LinearizedPoly.monomial(T, 1),
                 make_lp(T, 1, find_lp_delta(T)).poly):
        rep = verify_spread_axioms(build_spread(poly))
        assert rep["ok"], rep


def test_spread_axioms_large_field(tower):
    # 15626 components at (5,6): counting + algebraic pairwise audit
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    rep = verify_spread_axioms(build_spread(psi))
    assert rep["ok"], rep
    assert rep["components"] == 15626


def test_component_lookup_consistency(tower):
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    sp = build_spread(psi)
    assert sp.component_count == 15626
    rng = T.rng("lookup")
    for _ in range(300):
        x, y = rng.randrange(T.size), rng.randrange(T.size)
        if x == 0 and y == 0:
            continue
        comp = component_of(sp, (x, y))
        assert membership(sp, comp, (x, y))
        # the point (h x, h f(x)) of h U_f, with h = g^j, lies on ("U", j)
        j, x = rng.randrange(T.mult_order), rng.randrange(1, T.size)
        h = T.pow_code(T.gen_code, j)
        point = (T.mul_code(h, x), T.mul_code(h, psi.evaluate_code(x)))
        assert component_of(sp, point) == ("U", j % sp.h_class_count)


def test_linear_collineations_orders(tower):
    T = tower(5, 1, 4)
    rep = linear_collineations(LinearizedPoly.monomial(T, 1))
    assert rep["order"] == 624 * 156
    assert rep["generators_permute_spread"]
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    rep2 = linear_collineations(lp)
    assert rep2["order"] == 624 * 24 // 4
    # outside the standard-form class the group is the scalar kernel homology group
    T5 = tower(5, 1, 5)
    lp5 = make_lp(T5, 1, find_lp_delta(T5)).poly
    rep5 = linear_collineations(lp5)
    assert rep5["order"] == 5**5 - 1 and rep5["t"] == 1


def test_classification_pseudoregulus(tower):
    T = tower(5, 1, 4)
    hr = classify_central_collineations(LinearizedPoly.monomial(T, 1))
    assert hr.case == "ii" and hr.group_order == 156
    assert {hr.X, hr.Y} == {(1, 0), (0, 1)}
    assert hr.H_f_order == 624 * 156
    doc = hr.to_json(T)
    assert doc["elations"] == 0
    assert doc["cyclic"] is doc["axes_coaxes_exchanged"] is doc["decomposition_ok"] is True


def test_classification_psi(tower):
    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    hr = classify_central_collineations(make_psi(T, h, 3, 1).poly)
    theta = psi_theta(T, h, 3, 1)
    assert hr.case == "ii" and hr.group_order == 6
    assert {hr.X, hr.Y} == {(1, theta), (1, T.neg_code(theta))}
    assert hr.H_f_order == 15624 * 24 // 4


def test_classification_case_i(tower):
    T5 = tower(5, 1, 5)
    hr = classify_central_collineations(make_lp(T5, 1, find_lp_delta(T5)).poly)
    assert hr.case == "i" and hr.X is hr.Y is None
    assert hr.group_order == 1 and hr.to_json(T5)["elations"] == 0
    assert hr.H_f_order == 5**5 - 1


def test_homology_elements_fix_structure(tower):
    # each homology fixes its axis vectorwise and its center projectively
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    hr = classify_central_collineations(psi)
    sp = build_spread(psi)
    for mu in _groups(psi, hr)[0]:
        if mu == Mat2.identity(T):
            continue
        vX = (1, hr.X[1]) if hr.X[0] == 1 else (0, 1)
        assert mat_apply(mu, vX) == vX
        # all lines through the center stay fixed: the image of any point
        # moves along the center direction
        rng = T.rng("homology")
        vY = (1, hr.Y[1]) if hr.Y[0] == 1 else (0, 1)
        for _ in range(10):
            w = (rng.randrange(T.size), rng.randrange(T.size))
            im = mat_apply(mu, w)
            dx = (T.sub_code(im[0], w[0]), T.sub_code(im[1], w[1]))
            if dx == (0, 0):
                continue
            # dx must be proportional to vY
            lhs = T.mul_code(dx[0], vY[1])
            rhs = T.mul_code(dx[1], vY[0])
            assert lhs == rhs


def test_orbit_size_divisibility(tower):
    # (q^t - 1)/(q - 1) divides |L_f| and |L_f minus the two fixed points|
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    hr = classify_central_collineations(psi)
    L = linear_set(psi)
    m = hr.group_order
    assert L.size % m == 0
    on_L = sum(1 for pt in (hr.X, hr.Y) if pt[0] == 1 and pt[1] in L.slopes)
    assert on_L == 0
    assert (L.size - on_L) % m == 0


def test_reducibility_witness_psi_and_lp(tower):
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    w = reducibility_witness(psi)
    assert isinstance(w, ReducibilityWitness) and w.t == 2
    doc = w.to_json(T)
    assert doc["verified"] is True and doc["invariant_subgroup_size"] == 25
    T4 = tower(5, 1, 4)
    lp = make_lp(T4, 1, find_lp_delta(T4)).poly
    w4 = reducibility_witness(lp)
    assert isinstance(w4, ReducibilityWitness) and w4.t == 2
    # the witness subgroup sits inside a genuine component: cross-check a few points
    g = w4.g
    for y in T4.subfield_elements(2)[:10]:
        assert g.evaluate_code(y) is not None


def test_reducibility_pseudoregulus_marker(tower):
    T = tower(5, 1, 4)
    mark = reducibility_witness(LinearizedPoly.monomial(T, 1))
    assert isinstance(mark, PseudoregulusCase)
    assert mark.to_json(T) == "pseudoregulus"
    T5 = tower(5, 1, 5)
    with pytest.raises(NotInS):
        reducibility_witness(make_lp(T5, 1, find_lp_delta(T5)).poly)


def test_kernel_scalar_audit(tower):
    T = tower(5, 1, 4)
    assert kernel_scalar_audit(make_lp(T, 1, find_lp_delta(T)).poly)
    assert kernel_scalar_audit(LinearizedPoly.monomial(T, 1))


def test_semilinear_audit_no_violations(tower):
    T = tower(5, 1, 4)
    for poly in (LinearizedPoly.monomial(T, 1),
                 make_lp(T, 1, find_lp_delta(T)).poly):
        rep = semilinear_part_audit(poly)
        assert rep["violations"] == 0
        assert rep["samples"] == 9


def test_semilinear_system_detects_trivial_twist():
    # sanity of the solver: with the identity twist (k = en), every component
    # is fixed pointwise by the identity matrix, so solutions must exist
    T = make_field(5, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    sp = build_spread(f)
    pts = _component_basis(sp, ("Dinf",))
    A, b = _pointwise_fix_system(T, pts, T.en)  # p^en = identity on F_{q^n}
    sol = solve_mod(A, b, T.p)
    assert sol is not None


def test_pointwise_fix_systems_are_inconsistent(tower):
    # the theorem behind the semilinear audit: for scattered f with n >= 3 no
    # matrix A at all gives sigma(w) A = w on a component, for any twist
    # sigma != id; checked on every component and every twist, e = 1 and 2
    for key in ((5, 1, 3), (2, 2, 3)):
        T = tower(*key)
        for inst in catalog(T):
            sp = build_spread(inst.poly)
            for comp in spread_components(sp):
                pts = _component_basis(sp, comp)
                for k in range(1, T.en):
                    A, b = _pointwise_fix_system(T, pts, k)
                    assert solve_mod(A, b, T.p) is None, (key, inst.poly.coeffs, comp, k)


def test_semilinear_audit_raises_on_a_consistent_system(tower, monkeypatch):
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    assert semilinear_part_audit(f)["candidates"] == 0
    monkeypatch.setattr(plane, "solve_mod", lambda A, b, p: np.zeros(A.shape[1], dtype=np.int64))
    with pytest.raises(InternalError):
        semilinear_part_audit(f)


def test_pseudoregulus_twist_cases(tower):
    # the s and n-s Frobenius twists on a translate component: the pointwise
    # fix system must have no nonsingular solution
    T = tower(5, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    sp = build_spread(f)
    comp = ("U", 0)
    pts = _component_basis(sp, comp)
    for k in (1, 3):  # q^s and q^{n-s} twists (e = 1)
        A, b = _pointwise_fix_system(T, pts, k)
        sol = solve_mod(A, b, T.p)
        if sol is None:
            continue
        from scattered_lab._linalg import kernel_mod
        from scattered_lab.field_tower import _pack
        import itertools

        hom = kernel_mod(A, T.p)
        assert len(hom) <= 6
        for combo in itertools.product(range(T.p), repeat=len(hom)):
            v = sol.copy()
            for c, hv in zip(combo, hom):
                v = (v + c * hv) % T.p
            en = T.en
            cand = Mat2(T, _pack(list(v[0:en]), T.p), _pack(list(v[en:2 * en]), T.p),
                        _pack(list(v[2 * en:3 * en]), T.p), _pack(list(v[3 * en:]), T.p))
            assert cand.det() == 0, "nonsingular semilinear fixer should not exist"


def test_classification_matches_scan_oracle(tower):
    ts = set()
    for f in _differential_instances(tower):
        hr = classify_central_collineations(f)
        group_X, group_Y, elations = central_classes_by_scan(f)
        listed_X, listed_Y = _groups(f, hr)
        if hr.t > 1:
            assert [m.entries() for m in listed_X[:-1]] == [m.entries() for m in group_X]
            assert [m.entries() for m in listed_Y[:-1]] == [m.entries() for m in group_Y]
        else:
            assert listed_X == listed_Y == group_X == group_Y == []
        assert hr.to_json(f.tower)["elations"] == elations
        ts.add(hr.t)
    assert {1, 2, 4} <= ts


def test_collineation_checks_match_spread_walk(tower):
    # the generators of H_f permute the spread point by point, and no
    # invertible M outside H_f does
    for f in _differential_instances(tower):
        T = f.tower
        assert linear_collineations(f)["generators_permute_spread"]
        G = nonzero_of(compute_stabilizer(f))
        rng = T.rng("collineation-differential")
        in_H = [compute_stabilizer(f).generator, Mat2.scalar(T, T.gen_code),
                mat_scale(G[rng.randrange(len(G))], rng.randrange(1, T.size))]
        outside = []
        while len(outside) < 2:
            M = Mat2(T, *(rng.randrange(T.size) for _ in range(4)))
            if M.det():
                outside.append(M)
        for M in in_H + outside:
            lines_ok, translates_ok = spread_walk(f, M)
            assert (lines_ok and translates_ok) == (M in in_H)
            if maps_onto_by_inversion(f, M, f):
                assert translates_ok


def test_linear_collineations_needs_tables():
    T = make_field(5, 1, 4, table_bound=0)
    with pytest.raises(TooLarge):
        linear_collineations(LinearizedPoly.monomial(T, 1))


def test_spread_audit_matches_walk(tower):
    walked = set()
    for f in _differential_instances(tower):
        spread = build_spread(f)
        walk = spread_cover_by_walk(spread)
        walked.add(walk.pop("pointwise_cover_walked"))
        assert verify_spread_axioms(spread) == walk
        assert walk["ok"]
    assert walked == {True, False}


def test_spread_audits_reject_a_dropped_slope(tower):
    T = tower(5, 1, 4)
    spread = build_spread(make_lp(T, 1, find_lp_delta(T)).poly)
    dropped = min(spread.lf_slopes)
    broken = Spread(spread.tower, spread.f, spread.lf_slopes - {dropped}, spread.h_class_count)
    assert not verify_spread_axioms(broken)["ok"]
    assert not spread_cover_by_walk(broken)["ok"]
    # a point of the dropped slope's fiber lies on its line and on U_f at once
    x = T.pow_code(T.gen_code, fiber_representatives(spread.f)[dropped])
    point = (x, spread.f.evaluate_code(x))
    assert component_of(broken, point) == ("D", dropped)
    assert membership(broken, ("D", dropped), point)
    assert membership(broken, ("U", 0), point)


def test_kernel_scalar_audit_matches_walk(tower):
    for f in _differential_instances(tower):
        assert kernel_scalar_audit(f) is kernel_scalar_by_walk(f) is True


def test_kernel_audits_reject_a_scalar_outside_fq(tower, monkeypatch):
    # an F_q^* list that also holds the generator of F_{q^n}^*: that scalar
    # moves the translates, so both audits must fail
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    subfield_elements = T.subfield_elements
    monkeypatch.setattr(T, "subfield_elements",
                        lambda t: [T.gen_code] + subfield_elements(t))
    assert not kernel_scalar_audit(f)
    assert not kernel_scalar_by_walk(f)


def test_kernel_audits_reject_a_probe_inside_fq(tower, monkeypatch):
    # probes that a broken membership test puts outside F_q, while they are
    # F_q-scalars that fix every component: both audits must fail
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    primitive = T.subfield_primitive_code
    monkeypatch.setattr(T, "subfield_primitive_code", lambda t: primitive(1))
    monkeypatch.setattr(T, "subfield_member_code", lambda a, t: False)
    assert not kernel_scalar_audit(f)
    assert not kernel_scalar_by_walk(f)


def test_homology_closed_forms_match_walks(tower):
    ts = set()
    for f in _differential_instances(tower):
        hr = classify_central_collineations(f)
        if hr.t == 1:
            continue
        T = f.tower
        Mf = compute_stabilizer(f)
        doc = hr.to_json(T)
        assert doc["cyclic"] is True
        assert all(cyclic_by_walk(T, group) for group in _groups(f, hr))
        assert doc["decomposition_ok"] is True
        assert decomposition_by_sampling(T, Mf, diagonalize(Mf).P, Mf.s, hr.t)
        ts.add(hr.t)
    assert {2, 4, 5} <= ts


def test_homology_checks_reject_broken_groups(tower):
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    hr = classify_central_collineations(f)
    Mf = compute_stabilizer(f)
    diag = diagonalize(Mf)
    N = hr.group_order
    for group, slot in zip(_groups(f, hr), (1, 0)):
        assert is_homology_group(diag.P, group, slot, N)
        assert not is_homology_group(diag.P, group, 1 - slot, N)
        duplicated = [group[1]] + group[1:]     # one kappa twice, one missing
        # kappa = g, the generator of F_{q^n}^*, is no root of z^N = 1
        kappa_g = Mat2.diag(T, *((1, T.gen_code) if slot else (T.gen_code, 1)))
        off_root = [diag.P.inverse() * kappa_g * diag.P] + group[1:]
        # -mu moves the axis: N distinct roots, but no homology group
        negated = [mat_scale(mu, T.neg_code(1)) for mu in group]
        for broken in (duplicated, off_root, negated):
            assert not is_homology_group(diag.P, broken, slot, N)
            assert not cyclic_by_walk(T, broken)
    # a trivial twist s = 0 gives kappa_0 = 1, so the factorization is not unique
    assert _homology_factor_order(T, diag.s, hr.t) == N
    assert _homology_factor_order(T, 0, hr.t) == 1
    assert not decomposition_by_sampling(T, Mf, diag.P, 0, hr.t)


def test_classification_reads_no_element_list(tower, monkeypatch, capsys):
    # x^q over F_(7^6): G_f has 117 649 elements; the homology groups come
    # from the diagonal form alone.  The family predictions of selftest
    # criteria 1-4 and 6 and of `families --verify` are decided by the
    # conjugator certificate.  The library has no element list of G_f (only
    # the oracles list one), and no list of a subfield is read either
    def refuse(*_args):
        raise AssertionError("an element list was read")

    monkeypatch.setattr(FieldTower, "subfield_elements", refuse)
    hr = classify_central_collineations(LinearizedPoly.monomial(tower(7, 1, 6), 1))
    assert hr.case == "ii" and hr.t == 6 and hr.group_order == 19608
    doc = hr.to_json(tower(7, 1, 6))
    assert doc["cyclic"] is doc["axes_coaxes_exchanged"] is doc["decomposition_ok"] is True
    assert doc["elations"] == 0
    for criterion in (selftest.criterion_1, selftest.criterion_2, selftest.criterion_3,
                      selftest.criterion_4, selftest.criterion_6):
        criterion()
    assert cli.main(["families", "--family", "1", "--q", "7", "--n", "6", "--verify"]) == 0
    verified = json.loads(capsys.readouterr().out)["verified"]
    assert verified["matches_prediction"] is True and verified["stabilizer_order"] == 7**6 - 1


def test_reducibility_witness_walks_no_subfield(tower, monkeypatch):
    # family 3 at (7,6) has t = 3: the witness checks 3 x 3 basis pairs, not
    # the 342 * 343 pairs of F_(7^3)^* x F_(7^3)
    T = tower(7, 1, 6)
    f = make_family3(T, 1, find_family3_delta(T)).poly
    diagonalize(compute_stabilizer(f))   # certified before the patch

    def refuse(_t):
        raise AssertionError("the subfield was listed")

    monkeypatch.setattr(T, "subfield_elements", refuse)
    w = reducibility_witness(f)
    assert isinstance(w, ReducibilityWitness) and w.t == 3
    doc = w.to_json(T)
    assert doc["verified"] is True
    assert doc["invariant_subgroup_size"] == 343 and doc["component_stabilizer_order"] == 342


def test_andre_check_matches_walk(tower):
    # the witness is the standard form's class solve; the oracle solves for
    # the image of U_f under P^-1 on all n exponents, and the walk checks the
    # invariant subgroup on every pair (alpha, y)
    ts = set()
    for key in ((5, 1, 4), (7, 1, 4), (5, 1, 6), (7, 1, 6), (2, 2, 4)):
        T = tower(*key)
        rng = T.rng("andre-witness")
        polys = []
        for inst in catalog(T):
            if not 1 < compute_stabilizer(inst.poly).t < T.n:
                continue
            polys.append(inst.poly)
            images = 0
            while images < 2:
                W = Mat2(T, *(rng.randrange(T.size) for _ in range(4)))
                if W.det() == 0:
                    continue
                try:
                    polys.append(image_polynomial(inst.poly, W))
                except NotBijective:
                    continue
                images += 1
        for f in polys:
            Mf = compute_stabilizer(f)
            s, t = diagonalize(Mf).s, Mf.t
            g = reducibility_witness(f).g
            assert g == andre_witness_by_image(f)
            assert andre_subgroup_by_walk(g, s, t) is True
            # a wrong twist, and g + g_0 x with g_0 the generator of F_(q^n)^*
            perturbed = g + LinearizedPoly.identity(T).scale(T.gen_code)
            assert andre_subgroup_by_walk(g, s + 1, t) is False
            assert andre_subgroup_by_walk(perturbed, s, t) is False
            ts.add((T.e, T.n, t))
    assert {(1, 4, 2), (1, 6, 2), (1, 6, 3), (2, 4, 2)} <= ts


def test_homology_generator_negatives(tower):
    # psi at (5,6): t = 2, N = 6, and P has rows (1, theta), (1, -theta)
    T = tower(5, 1, 6)
    f = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    diag = diagonalize(compute_stabilizer(f))
    P = diag.P
    group_X, group_Y = homology_groups(P, 6)
    mu_X, mu_Y = group_X[0], group_Y[0]
    kappa = _homology_kappas(P, [mu_X], 1)
    assert kappa is not None and kappa == _homology_kappas(P, [mu_Y], 0)
    # the wrong slot, and -mu, which moves the axis
    assert _homology_kappas(P, [mu_X], 0) is None
    assert _homology_kappas(P, [mu_Y], 1) is None
    assert _homology_kappas(P, [mat_scale(mu_X, T.neg_code(1))], 1) is None
    assert _homology_kappas(P, [mat_scale(mu_Y, T.neg_code(1))], 0) is None


def test_certificate_proves_the_deleted_checks(tower):
    # the checks that the certified form P G_f P^-1 = D(s, t) proves, which
    # the library no longer runs: the transversal points lie off L_f,
    # A = P^-1 diag(omega, omega^(q^s)) P lies in G_f, ord(kappa_0) = N,
    # P b P^-1 = diag(x, x^(p^(e s))) for every basis matrix b, read by
    # inverting P where the twist search reads q-powers of the rows of P,
    # and the standard form has t_h0 = t,
    # U_f P^-1 = U_h, gcd(s, t) = 1 and P G_f P^-1 = D(s, t)
    polys = _differential_instances(tower)
    for key in ((3, 1, 4), (5, 1, 6), (7, 1, 6), (2, 2, 4), (3, 2, 3)):
        polys += [inst.poly for inst in catalog(tower(*key))]
    seen = set()
    for f in polys:
        T = f.tower
        Mf = compute_stabilizer(f)
        t = Mf.t
        if t == 1:
            continue
        diag = diagonalize(Mf)
        assert all(T.pow_code(x, T.p ** (T.e * diag.s)) == y
                   for x, y in conjugated_pairs_by_inverse(Mf.basis, diag.P))
        X, Y = diag.eigen_points
        assert line_intersection_dim(f, X) == line_intersection_dim(f, Y) == 0
        omega = T.subfield_primitive_code(t)
        A = diag.P.inverse() * Mat2.diag(T, omega, T.frob_code(omega, diag.s)) * diag.P
        assert in_kernel(Mf, A)
        assert _homology_factor_order(T, diag.s, t) == (T.q**t - 1) // (T.q - 1)
        assert image_polynomial(f, diag.P.inverse()).standard_form_params()[1] == t
        sf = to_standard_form(f)
        assert sf.t == t and math.gcd(sf.s, t) == 1
        assert maps_onto_by_inversion(f, sf.P.inverse(), sf.h)
        assert conjugates_to_diagonal(Mf, sf.P, sf.s, sf.t)
        seen.add((T.p, T.e, T.n, t))
    assert {(3, 1, 4, 2), (5, 1, 6, 3), (7, 1, 6, 6), (2, 2, 4, 2), (3, 2, 3, 3),
            (5, 1, 3, 3), (5, 1, 5, 5)} <= seen
