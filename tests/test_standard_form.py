import random

import pytest

from scattered_lab.errors import (HallCase, InternalError, NotBijective, NotInS, NotScattered,
                                  NotStandard)
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
from scattered_lab.stabilizer import (
    Mat2,
    MatrixField,
    _pair_system,
    compute_stabilizer,
    conjugates_to_diagonal,
    diagonalize,
)
from scattered_lab.standard_form import (
    _ab_min,
    _min_exponent,
    _pair_kernel,
    _uv_from,
    canonicalize,
    gammal_equivalent,
    gl_equivalent,
    image_polynomial,
    to_standard_form,
)

from oracles import (
    TABLE_FIELDS,
    ab_min_by_array_scan,
    ab_min_by_scan,
    branches,
    canonical_by_inversion,
    canonical_by_scan,
    element_set_of,
    elements_of,
    field_id,
    find_lp_delta_by_walk,
    gl_by_standard_forms,
    gl_solutions_by_brute_force,
    image_by_fp_matrix,
    invert_by_fp_matrix,
    lambda_by_array_scan,
    maps_onto_by_inversion,
    mat_apply,
    non_s_scan,
    standard_form_by_inversion,
    standard_form_stabilizer_by_census,
    standard_pair_by_inversion,
    standard_shape_by_walk,
)


def _in_class_S(f):
    """Is G_f larger than the F_q-scalars?"""
    return compute_stabilizer(f).t > 1


def test_in_class_S_examples(tower):
    T = tower(5, 1, 4)
    assert _in_class_S(LinearizedPoly.monomial(T, 1))
    assert _in_class_S(make_lp(T, 1, find_lp_delta(T)).poly)
    T5 = tower(5, 1, 5)
    assert not _in_class_S(make_lp(T5, 1, find_lp_delta(T5)).poly)
    T6 = tower(5, 1, 6)
    assert _in_class_S(make_psi(T6, find_psi_h(T6, 3), 3, 1).poly)


def test_to_standard_form_idempotent(tower):
    T = tower(5, 1, 4)
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    sf = to_standard_form(lp)
    sf2 = to_standard_form(sf.h)
    assert sf2.h == sf.h
    assert sf.t == 2 and sf.s == 1 and sf.to_json()["canonical"] is True


def test_witness_maps_exactly(tower):
    # U_f P^{-1} = U_h, verified on every point of the subspace
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    sf = to_standard_form(psi)
    Pinv = sf.P.inverse()
    assert maps_onto_by_inversion(psi, Pinv, sf.h)
    for xc in range(0, T.size, 97):
        pt = mat_apply(Pinv, (xc, psi.evaluate_code(xc)))
        assert sf.h.evaluate_code(pt[0]) == pt[1]


def test_trinomial_closed_form(tower):
    T = tower(5, 1, 6)
    for idx in range(3):
        h = find_psi_h(T, 3, index=idx)
        psi = make_psi(T, h, 3, 1).poly
        sf = to_standard_form(psi)
        tri = psi_standard_form_closed(T, h, 3, 1, formula="trinomial")
        assert sf.h == canonicalize(tri)
        assert sf.t == 2 and sf.h.standard_form_params()[1] == 2
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
    assert all(m.b == 0 and m.c == 0 for m in elements_of(Gh))
    predicted = {(al, 0, 0, T.frob_code(al, sf.s)) for al in T.subfield_elements(sf.t)}
    assert element_set_of(Gh) == frozenset(predicted)


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
            assert element_set_of(Gh) == conjugated
            assert standard_shape_by_walk(T, conjugated, sf.s, sf.t)
            assert conjugates_to_diagonal(Mf, sf.P, sf.s, sf.t)
            # a twist off by one (mod t) is rejected by both checks
            wrong = (sf.s + 1) % sf.t
            assert not standard_shape_by_walk(T, conjugated, wrong, sf.t)
            assert not conjugates_to_diagonal(Mf, sf.P, wrong, sf.t)


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
        assert other.standard_form_params()[1] == sf.t
        assert canonicalize(other) == sf.h


def test_gl_equivalent_scaled(tower):
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    g = f.transform(17, 23)
    res = gl_equivalent(f, g)
    assert res.equivalent is True
    assert maps_onto_by_inversion(f, res.witness, g)


def test_gl_equivalent_psi_trinomial(tower):
    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    psi = make_psi(T, h, 3, 1).poly
    tri = psi_standard_form_closed(T, h, 3, 1, formula="trinomial")
    res = gl_equivalent(psi, tri)
    assert res.equivalent is True
    assert maps_onto_by_inversion(psi, res.witness, tri)


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
    # outside the standard-form class the kernel decides every pair
    T5 = tower(5, 1, 5)
    lp5 = make_lp(T5, 1, find_lp_delta(T5)).poly
    assert lp5.coeffs == LinearizedPoly.from_json(
        T5, {"coeffs": ["0", "g^0", "0", "0", "g^1"]}).coeffs
    g = lp5.transform(7, 11)
    res = gl_equivalent(lp5, g)
    assert res.equivalent is True and maps_onto_by_inversion(lp5, res.witness, g)
    gi = lp5.invert().transform(3, 2)
    res2 = gl_equivalent(lp5, gi)
    assert res2.equivalent is True and maps_onto_by_inversion(lp5, res2.witness, gi)
    # LP with delta = g^2 and g^7: the same stabilizer order, not equivalent
    for k in (2, 7):
        other = LinearizedPoly.from_json(T5, {"coeffs": ["0", "g^0", "0", "0", f"g^{k}"]})
        res3 = gl_equivalent(lp5, other)
        assert res3.equivalent is False and res3.mode == "GL" and res3.witness is None
    # an image that no diagonal or antidiagonal witness reaches
    image = LinearizedPoly.from_json(
        T5, {"coeffs": ["g^837", "g^476", "g^3107", "g^2912", "g^600"]})
    assert non_s_scan(lp5, image) is None
    res4 = gl_equivalent(lp5, image)
    assert res4.equivalent is True and res4.mode == "GL"
    assert maps_onto_by_inversion(lp5, res4.witness, image)


def _with_images(T, polys, rng, count):
    """polys followed by count GL-images U_f W of each."""
    out = list(polys)
    for f in polys:
        made = 0
        while made < count:
            W = Mat2(T, *(rng.randrange(T.size) for _ in range(4)))
            if W.det() == 0:
                continue
            try:
                out.append(image_polynomial(f, W))
            except NotBijective:
                continue
            made += 1
    return out


def test_kernel_agrees_with_standard_forms_and_structural_scan(tower):
    # every equal-order pair of catalog and LP instances and their GL-images: the
    # kernel answer equals the standard-form route when t > 1, and is True
    # wherever the diagonal/antidiagonal scan finds a witness
    decided = {(in_s, eq): 0 for in_s in (True, False) for eq in (True, False)}
    for key in ((5, 1, 4), (7, 1, 4), (5, 1, 5), (5, 1, 6)):
        T = tower(*key)
        sources = [inst.poly for inst in catalog(T)]
        sources += [make_lp(T, 1, find_lp_delta_by_walk(T, i)).poly for i in (1, 2)]
        polys = _with_images(T, sources, T.rng("kernel-diff"), 1)
        for f in polys:
            Gf = compute_stabilizer(f)
            for g in polys:
                if compute_stabilizer(g).order != Gf.order:
                    continue
                res = gl_equivalent(f, g)
                assert res.equivalent is (res.witness is not None)
                if res.equivalent:
                    assert maps_onto_by_inversion(f, res.witness, g)
                if Gf.t > 1:
                    expected, W = gl_by_standard_forms(f, g)
                    assert res.equivalent is expected
                    assert W is None or maps_onto_by_inversion(f, W, g)
                else:
                    W = non_s_scan(f, g)
                    assert W is None or (res.equivalent and maps_onto_by_inversion(f, W, g))
                decided[Gf.t > 1, res.equivalent] += 1
    assert min(decided.values()) > 0


def test_kernel_agrees_with_brute_force_over_gl_2_81(tower):
    # all of GL(2, 81) against S(f, g), on every equal-order pair of the
    # catalog at (3,4) and LP instances with delta-indices 1..7
    T = tower(3, 1, 4)
    polys = {inst.poly.coeffs: inst.poly for inst in catalog(T)}
    for i in range(1, 8):
        lp = make_lp(T, 1, find_lp_delta_by_walk(T, i)).poly
        polys.setdefault(lp.coeffs, lp)
    pairs = negatives = 0
    for f in polys.values():
        for g in polys.values():
            if compute_stabilizer(f).order != compute_stabilizer(g).order:
                continue
            solutions = gl_solutions_by_brute_force(f, g)
            S = MatrixField.from_system(T, _pair_system(f, g))
            invertible = [m for m in solutions if Mat2(T, *m).det() != 0]
            singular = [m for m in solutions if Mat2(T, *m).det() == 0]
            assert singular == [(0, 0, 0, 0)]
            assert frozenset(solutions) == element_set_of(S)
            res = gl_equivalent(f, g)
            assert len(invertible) == (S.order - 1 if res.equivalent else 0)
            pairs += 1
            negatives += not res.equivalent
    assert (pairs, negatives) == (68, 32)


def test_pair_system_is_the_stabilizer_times_a_witness(tower):
    # S(f, f) is G_f with zero, and S(f, g) = (G_f with zero) W for U_g = U_f W
    for key in ((5, 1, 4), (5, 1, 5)):
        T = tower(*key)
        W = Mat2(T, 2, 3, 5, 7)
        for inst in catalog(T):
            f = inst.poly
            Gf = compute_stabilizer(f)
            assert Gf.order == inst.predicted_order + 1
            S = MatrixField.from_system(T, _pair_system(f, image_polynomial(f, W)))
            assert element_set_of(S) == frozenset((m * W).entries() for m in elements_of(Gf))


def test_gammal_twist(tower):
    T = tower(5, 1, 6)
    psi = make_psi(T, find_psi_h(T, 3), 3, 1).poly
    res = gammal_equivalent(psi, psi.twist(1))
    assert res.equivalent is True
    assert maps_onto_by_inversion(psi, res.witness, psi.twist(1).twist(res.sigma_p_exponent))
    # reflexive: the identity twist comes first
    res0 = gammal_equivalent(psi, psi)
    assert res0.equivalent is True and res0.sigma_p_exponent == 0


def test_gammal_non_S_pair(tower):
    # an image of a twist of LP at (5,5) is found with its twist; delta = g^2
    # is inequivalent under every twist
    T = tower(5, 1, 5)
    lp5 = make_lp(T, 1, find_lp_delta(T)).poly
    W = Mat2(T, 3, 5, 8, 13)
    for k in range(T.en):
        g = image_polynomial(lp5.twist(k), W)
        res = gammal_equivalent(lp5, g)
        assert res.equivalent is True and res.mode == "GammaL"
        assert maps_onto_by_inversion(lp5, res.witness, g.twist(res.sigma_p_exponent))
    other = LinearizedPoly.from_json(T, {"coeffs": ["0", "g^0", "0", "0", "g^2"]})
    assert gammal_equivalent(lp5, other).equivalent is False


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
    tri = psi_standard_form_closed(T, h, 3, 1, formula="trinomial")
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


@pytest.mark.parametrize("key", TABLE_FIELDS, ids=field_id)
def test_table_less_canonicalize_matches_tables(tower, key):
    # the closed-form _ab_min on a tower without tables (logs by
    # Pohlig-Hellman) against the tabled tower: the standard forms of the
    # catalog, and seeded class-S polynomials, two on each class s mod t
    T, U = tower(*key), make_field(*key, table_bound=0)
    polys = [to_standard_form(inst.poly).h for inst in catalog(T)
             if T.n > 2 and compute_stabilizer(inst.poly).t > 1]
    rng = T.rng("table-less canonicalize")
    for t in range(2, T.n + 1):
        if T.n % t == 0:
            for s in rng.sample(range(t), min(t, 2)):
                polys.append(LinearizedPoly(
                    T, [rng.randrange(1, T.size) if k % t == s else 0 for k in range(T.n)]))
    for h in polys:
        assert canonicalize(LinearizedPoly(U, h.coeffs)).coeffs == canonicalize(h).coeffs, h


def test_min_exponent_matches_array_scan():
    # the linear congruences against the M-array filter: moduli q^n - 1 and
    # arbitrary ones, up to four terms, e = 0 and e sharing factors with M
    rng = random.Random(19)
    moduli = [q**n - 1 for q in (2, 3, 4, 5, 7, 8, 9) for n in range(2, 7) if q**n < 120_000]
    for trial in range(3000):
        M = rng.choice(moduli) if trial % 2 else rng.randrange(1, 20_000)
        terms = []
        for _ in range(rng.randrange(1, 5)):
            e = rng.choice([0, rng.randrange(M), M // 2, M // 3 * rng.randrange(3)])
            terms.append((rng.randrange(M), e % M))
        assert _min_exponent(M, terms) == lambda_by_array_scan(M, terms), (M, terms)


def test_ab_min_matches_array_scan_on_catalog(tower):
    # every catalog instance, its inverse and a transform of it
    for key in ((5, 1, 4), (7, 1, 4), (5, 1, 6)):
        T = tower(*key)
        rng = T.rng("ab-min")
        for inst in catalog(T):
            f = inst.poly
            polys = [f, f.transform(rng.randrange(1, T.size), rng.randrange(1, T.size))]
            try:
                polys.append(f.invert())
            except NotBijective:
                pass
            for r in polys:
                got, want = _ab_min(r), ab_min_by_array_scan(r)
                assert (got[0].coeffs, got[1], got[2]) == (want[0].coeffs, want[1], want[2])


def test_pair_kernel_proof_matches_inversion_oracle(tower):
    # the proof of _pair_kernel, det W != 0 and W in the kernel of the pair
    # system, against U_f W = U_(g^sigma) with u inverted over F_p, for the
    # first basis matrix W of every S(f, g^sigma): catalog instances with two
    # GL images each, and random f, almost all of them not scattered
    seen = {}
    for key in ((5, 1, 4), (7, 1, 4), (5, 1, 6), (2, 2, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("pair-kernel-proof")

        def image(f):
            while True:
                W = Mat2(T, *(rng.randrange(T.size) for _ in range(4)))
                if W.det():
                    try:
                        return image_polynomial(f, W)
                    except NotBijective:
                        continue

        groups = [[inst.poly, image(inst.poly), image(inst.poly)] for inst in catalog(T)]
        randoms = [LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
                   for _ in range(5)]
        groups += [[f, g] for f, g in zip(randoms, randoms[1:])]
        for group in groups:
            for f in group:
                for g in group:
                    for k in range(T.en):
                        S, proven = _pair_kernel(f, g.twist(k))
                        if S.basis:
                            W = S.basis[0]
                            want = maps_onto_by_inversion(f, W, g.twist(k))
                            assert proven == want, (key, f.coeffs, g.coeffs, k, W.entries())
                            case = (W.det() == 0, want)
                            seen[case] = seen.get(case, 0) + 1
    # singular first matrices occur, and prove nothing
    assert set(seen) == {(True, False), (False, True)}, seen


def test_invert_internal_error_propagates(monkeypatch):
    # only NotBijective means "not invertible"; any other failure of invert()
    # is a bug and must surface instead of steering the answer
    T = make_field(5, 1, 4)  # fresh tower: no stabilizer cached
    f = LinearizedPoly.monomial(T, 1)

    def broken(self):
        raise InternalError("broken inversion")

    monkeypatch.setattr(LinearizedPoly, "invert", broken)
    with pytest.raises(InternalError):
        branches(f)
    # the standard form solves on its certified class instead; no solution
    # there contradicts the certificate
    monkeypatch.setattr(LinearizedPoly, "solve_on_class", lambda self, v, s, t: None)
    with pytest.raises(InternalError, match="certified class"):
        to_standard_form(make_lp(T, 1, find_lp_delta(T)).poly)


def _random_scattered(T, rng, count):
    """count seeded random scattered f over T, or fewer when 200 draws do not
    find them: a_0 = 0 and the other coefficients uniform, and at n = 6 also
    x^q + a x^(q^4), which lies in the standard-form class (t = 3) when
    scattered."""
    out = []
    x_q = LinearizedPoly.monomial(T, 1)
    for draw in range(200):
        if T.n == 6 and draw % 2:
            f = x_q + LinearizedPoly.monomial(T, 4, rng.randrange(1, T.size))
        else:
            f = LinearizedPoly(T, [0] + [rng.randrange(T.size) for _ in range(T.n - 1)])
        if is_scattered(f):
            out.append(f)
            if len(out) == count:
                break
    return out


CLASS_SOLVE_FIELDS = ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5), (5, 1, 6), (7, 1, 6),
                      (2, 2, 4), (3, 2, 3))


def test_class_solve_matches_inversion_oracle(tower):
    # every catalog instance, GL-images of them and seeded random scattered f:
    # h0 and h0^-1 solved on their classes are those of the F_p inversions,
    # and so are the standard form and canonicalize; a wrong class has none
    seen = {True: 0, False: 0}   # standard forms over e = 2 and e = 1 towers
    for key in CLASS_SOLVE_FIELDS:
        T = tower(*key)
        rng = T.rng("class-solve")
        sources = [inst.poly for inst in catalog(T)]
        polys = _with_images(T, sources, rng, 1) + _random_scattered(T, rng, 4)
        x = LinearizedPoly.identity(T)
        for f in polys:
            if compute_stabilizer(f).t == 1:
                with pytest.raises(NotInS):
                    to_standard_form(f)
                continue
            D = diagonalize(compute_stabilizer(f))
            u, v = _uv_from(f, D.P.inverse())
            P, h0, h0inv = standard_pair_by_inversion(f)
            assert P == D.P
            assert u.solve_on_class(v, D.s, D.t) == h0, (key, f)
            assert v.solve_on_class(u, -D.s, D.t) == h0inv, (key, f)
            assert u.solve_on_class(v, D.s + 1, D.t) is None
            assert v.solve_on_class(u, 1 - D.s, D.t) is None
            sf = to_standard_form(f)
            assert sf == standard_form_by_inversion(f), (key, f)
            for h in (h0, h0inv, sf.h, h0.transform(rng.randrange(1, T.size), 1 + T.gen_code)):
                assert canonicalize(h) == canonical_by_inversion(h), (key, h)
                s, t = h.standard_form_params()
                assert h.solve_on_class(x, -s, t) == invert_by_fp_matrix(h)
            seen[key[1] == 2] += 1
    assert min(seen.values()) > 0


def test_class_solve_refuses_a_singular_map(tower):
    # h = x^q + c x^(q^3) over F_(5^4) with a kernel: canonicalize has no
    # inverse branch, as on the inversion route, and r o h = v has a free
    # unknown for v = 0 and no solution for v = x
    T = tower(5, 1, 4)
    x, zero = LinearizedPoly.identity(T), LinearizedPoly.zero(T)
    singular = [h for h in (LinearizedPoly(T, [0, 1, 0, c]) for c in range(1, T.size, 7))
                if T.n - h.rank() > 0]
    assert singular
    for h in singular[:5]:
        assert h.solve_on_class(x, -1, 2) is None
        assert h.solve_on_class(zero, 1, 2) is None
        assert canonicalize(h) == canonical_by_inversion(h)


def test_image_polynomial_matches_fp_oracle(tower):
    # one class solve against v o u^-1 with u inverted over F_p, on a
    # table-less tower; when the first coordinate u has a kernel (u = 0 for
    # W = diag(0, 1), u = f for W = (0 0; 1 1)) both routes raise NotBijective
    T = make_field(5, 1, 4, table_bound=0)
    lp = make_lp(tower(5, 1, 4), 1, find_lp_delta(tower(5, 1, 4))).poly
    polys = [LinearizedPoly(T, lp.coeffs), LinearizedPoly(T, [T.neg_code(1), 0, 1, 0])]
    rng = T.rng("image")
    Ws = [Mat2.identity(T), Mat2(T, 0, 1, 1, 0), Mat2.diag(T, 0, 1), Mat2(T, 0, 0, 1, 1)]
    Ws += [Mat2(T, *(rng.randrange(T.size) for _ in range(4))) for _ in range(6)]
    outcomes = set()
    for f in polys:
        for W in Ws:
            try:
                want = image_by_fp_matrix(f, W)
            except NotBijective:
                with pytest.raises(NotBijective):
                    image_polynomial(f, W)
                outcomes.add(False)
                continue
            assert image_polynomial(f, W) == want, (f, W)
            outcomes.add(True)
    assert outcomes == {True, False}


def test_equivalent_target_needs_no_census():
    # a proven witness shows that g is scattered: no census of g is taken
    T = make_field(5, 1, 5)  # fresh tower: empty memos
    f = make_lp(T, 1, find_lp_delta(T)).poly
    g = image_polynomial(f, Mat2(T, 3, 5, 8, 13))
    res = gl_equivalent(f, g)
    assert res.equivalent and maps_onto_by_inversion(f, res.witness, g)
    census = T.cache("census")
    assert f.coeffs in census and g.coeffs not in census
    # an inequivalent target is still censused
    other = LinearizedPoly.from_json(T, {"coeffs": ["0", "g^0", "0", "0", "g^2"]})
    assert gl_equivalent(f, other).equivalent is False
    assert other.coeffs in census


def test_non_scattered_target_is_refused(tower):
    # g = 0, whose pair kernel is nonzero but singular; x^(q^2) over F_(3^4),
    # which is F_(q^2)-linear; and non-scattered g at n = 2, where a
    # scattered pair raises HallCase instead
    T5 = tower(5, 1, 5)
    lp5 = make_lp(T5, 1, find_lp_delta(T5)).poly
    T3 = tower(3, 1, 4)
    T2 = tower(5, 1, 2)
    x_q2 = LinearizedPoly.monomial(T2, 1)
    cases = [(lp5, LinearizedPoly.zero(T5)),
             (LinearizedPoly.monomial(T3, 1), LinearizedPoly.monomial(T3, 2)),
             (x_q2, LinearizedPoly.zero(T2)), (x_q2, LinearizedPoly.monomial(T2, 0, 7))]
    for f, g in cases:
        assert is_scattered(f) and not is_scattered(g)
        for equivalent in (gl_equivalent, gammal_equivalent):
            with pytest.raises(NotScattered, match="scattered inputs"):
                equivalent(f, g)
            with pytest.raises(NotScattered, match="scattered inputs"):
                equivalent(g, f)


def test_scattered_pair_at_n_2_is_a_hall_case(tower):
    # x^q against itself, a GL-image of it and a multiple of it: at n = 2 the
    # answer is HallCase whether or not the kernel holds a witness
    T = tower(5, 1, 2)
    f = LinearizedPoly.monomial(T, 1)
    targets = [f, image_polynomial(f, Mat2(T, 2, 3, 1, 7)), f.scale(T.gen_code)]
    for g in targets:
        assert is_scattered(g)
        for equivalent in (gl_equivalent, gammal_equivalent):
            with pytest.raises(HallCase):
                equivalent(f, g)
