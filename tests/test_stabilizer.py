import numpy as np
import pytest

from scattered_lab import scatter, stabilizer
from scattered_lab._linalg import kernel_mod
from scattered_lab.errors import (
    AllScalar,
    BadElement,
    NotAField,
    NotScattered,
)
from scattered_lab.families import catalog
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.mrd import verify_idealizer_field
from scattered_lab.scatter import linear_set
from scattered_lab.stabilizer import (
    Mat2,
    MatrixField,
    _conjugated_pairs,
    _pair_system,
    compute_stabilizer,
    conjugates_to_diagonal,
    diagonalize,
    verify_field,
)
from scattered_lab.standard_form import to_standard_form

from oracles import (
    BUILDER_FIELDS,
    builder_id,
    builder_tower,
    conjugated_pairs_by_inverse,
    conjugates_to_diagonal_by_inverse,
    diag_pairs,
    element_set_of,
    elements_of,
    in_kernel,
    mat_apply,
    mat_power,
    mat_vec,
    pair_system_by_blocks,
)


def test_pseudoregulus_exact_set(tower):
    T = tower(5, 1, 4)
    for s in (1, 3):
        Mf = compute_stabilizer(LinearizedPoly.monomial(T, s))
        assert Mf.verified and Mf.t == 4
        predicted = {(al, 0, 0, T.frob_code(al, s)) for al in range(1, 625)}
        predicted.add((0, 0, 0, 0))
        assert element_set_of(Mf) == frozenset(predicted)


def test_lp_dichotomy(tower):
    from scattered_lab.families import find_lp_delta, make_lp

    T4 = tower(5, 1, 4)
    Mf = compute_stabilizer(make_lp(T4, 1, find_lp_delta(T4)).poly)
    assert Mf.t == 2 and Mf.group_order == 24
    diag = diagonalize(Mf)
    assert diag.P == Mat2.identity(T4) and diag.s == 1
    T5 = tower(5, 1, 5)
    Mf5 = compute_stabilizer(make_lp(T5, 1, find_lp_delta(T5)).poly)
    assert Mf5.t == 1 and Mf5.group_order == 4


def test_soundness_exhaustive(tower):
    # every returned matrix maps every point of U_f back into U_f
    T = tower(3, 1, 3)
    f = LinearizedPoly.monomial(T, 1)
    Mf = compute_stabilizer(f)
    for m in elements_of(Mf):
        for xc in range(27):
            x, y = mat_apply(m, (xc, f.evaluate_code(xc)))
            assert f.evaluate_code(x) == y


def test_completeness_random_audit(tower):
    T = tower(5, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    Mf = compute_stabilizer(f)
    eset = element_set_of(Mf)
    rng = T.rng("completeness")
    audited = 0
    while audited < 1000:
        m = Mat2(T, rng.randrange(625), rng.randrange(625),
                 rng.randrange(625), rng.randrange(625))
        if m.det() == 0 or m.entries() in eset:
            continue
        images = (mat_apply(m, (xc, f.evaluate_code(xc))) for xc in range(1, 625))
        violated = any(f.evaluate_code(x) != y for x, y in images)
        assert violated
        audited += 1


def test_not_scattered_raises_and_unverified_path(tower):
    T = tower(5, 1, 4)
    f = LinearizedPoly.identity(T)
    # the solution space of f = x is huge (3 en-dimensional); it comes back
    # uncertified, as its kernel basis, with nothing listed
    raw = compute_stabilizer(f)
    assert not raw.verified and not scatter.is_scattered(f)
    assert raw.order == T.p ** (3 * T.en)
    # the memo hands back the same space; the callers that need a scattered
    # f refuse it, and diagonalize certifies nothing on the side
    assert compute_stabilizer(f) is raw
    with pytest.raises(NotScattered, match="polynomial is not scattered"):
        to_standard_form(f)
    with pytest.raises(NotScattered, match="polynomial is not scattered"):
        verify_idealizer_field(f)
    with pytest.raises(NotAField):
        diagonalize(raw)
    assert not raw.verified
    # a small non-scattered example contains singular nonzero solutions, so
    # it cannot be a field
    T3 = tower(3, 1, 3)
    raw3 = compute_stabilizer(LinearizedPoly.identity(T3))
    assert not raw3.verified
    assert any(any(m.entries()) and m.det() == 0 for m in elements_of(raw3))


def test_large_stabilizer_without_element_list(tower):
    # 13^6 elements: certified from the kernel basis and one generator,
    # where listing them was refused with TooLarge
    T = tower(13, 1, 6)
    Mf = compute_stabilizer(LinearizedPoly.monomial(T, 1))
    assert Mf.verified and Mf.t == 6 and Mf.order == 13**6
    for c in T.subfield_elements(1)[:-1]:
        assert in_kernel(Mf, Mat2.scalar(T, c))
    assert not in_kernel(Mf, Mat2(T, 0, 1, 0, 0))


def test_order_q_to_t_divides_n(tower):
    from scattered_lab.families import catalog

    for key in ((3, 1, 4), (5, 1, 4)):
        T = tower(*key)
        for inst in catalog(T):
            Mf = compute_stabilizer(inst.poly)
            assert Mf.order == T.q**Mf.t
            assert T.n % Mf.t == 0
            assert Mf.group_order == inst.predicted_order


def test_non_pseudoregulus_has_proper_subfield(tower):
    from scattered_lab.families import catalog

    T = tower(5, 1, 6)
    for inst in catalog(T):
        Mf = compute_stabilizer(inst.poly)
        if inst.family_id != 1:
            assert Mf.t < T.n


def _span_field(T, basis, system_of=None):
    """MatrixField with the given basis and the system whose kernel is the
    F_p-span of system_of (default: of basis)."""
    def digit_rows(maps):
        return np.array([mat_vec(m) for m in maps], dtype=np.int64)

    return MatrixField(T, kernel_mod(digit_rows(system_of or basis), T.p), digit_rows(basis))


def test_verify_field_on_manual_sets(tower):
    T = tower(5, 1, 4)
    # the scalar field {d I : d in F_q} with zero
    Mf = _span_field(T, [Mat2.identity(T)])
    assert element_set_of(Mf) == {Mat2.scalar(T, c).entries() for c in range(5)}
    t, gen = verify_field(Mf)
    assert t == 1 and mat_power(gen, 4) == Mat2.identity(T)
    # a basis matrix outside the kernel of the system
    with pytest.raises(NotAField, match="outside the kernel"):
        verify_field(_span_field(T, [Mat2.identity(T), Mat2(T, 0, 1, 0, 0)],
                                 system_of=[Mat2.identity(T)]))
    # a span with a singular nonzero element
    with pytest.raises(NotAField):
        verify_field(_span_field(T, [Mat2.identity(T), Mat2(T, 1, 1, 1, 1)]))


def test_diagonalize_pseudoregulus_is_identity(tower):
    T = tower(5, 1, 4)
    Mf = compute_stabilizer(LinearizedPoly.monomial(T, 1))
    diag = diagonalize(Mf)
    assert diag.P == Mat2.identity(T)
    assert diag.s == 1 and diag.t == 4
    assert diag.eigen_points == ((1, 0), (0, 1))


def test_diagonalize_conjugates_everything(tower):
    from scattered_lab.families import find_psi_h, make_psi, psi_theta

    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    Mf = compute_stabilizer(make_psi(T, h, 3, 1).poly)
    diag = diagonalize(Mf)
    Pinv = diag.P.inverse()
    for m in elements_of(Mf):
        c = diag.P * m * Pinv
        assert c.b == 0 and c.c == 0
    # the diagonal pairs are Frobenius-linked with exponent s
    for x, y in diag_pairs(Mf):
        assert T.frob_code(x, diag.s) == y
    theta = psi_theta(T, h, 3, 1)
    assert set(diag.eigen_points) == {(1, theta), (1, T.neg_code(theta))}


def test_conjugated_pairs_match_inverse_oracle(tower):
    # the pairs read off the rows of W against W b W^-1: the certificate's P,
    # P with its rows swapped or scaled, the identity and random W, on the
    # stabilizers of every catalog instance; a singular W is refused
    outcomes = set()
    for key in ((5, 1, 4), (3, 1, 4), (5, 1, 6), (2, 2, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("conjugated-pairs")
        for inst in catalog(T):
            Mf = compute_stabilizer(inst.poly)
            P = diagonalize(Mf).P if Mf.t > 1 else Mat2.identity(T)
            Ws = [P, Mat2(T, 0, 1, 1, 0) * P, Mat2.diag(T, T.gen_code, 1) * P,
                  Mat2.identity(T)]
            Ws += [Mat2(T, *(rng.randrange(T.size) for _ in range(4))) for _ in range(3)]
            for W in Ws:
                if W.det() == 0:
                    continue
                got = _conjugated_pairs(Mf.basis, W)
                assert got == conjugated_pairs_by_inverse(Mf.basis, W), (key, W)
                outcomes.add(got is None)
            singular = Mat2(T, 1, T.gen_code, 0, 0)
            with pytest.raises(ZeroDivisionError):
                _conjugated_pairs(Mf.basis, singular)
            if Mf.t > 1:
                with pytest.raises(ZeroDivisionError):
                    conjugates_to_diagonal(Mf, singular, diagonalize(Mf).s, Mf.t)
    assert outcomes == {True, False}


def test_conjugates_to_diagonal_matches_twist_oracle(tower):
    # the shared diagonal test against W b W^-1 and the twist s itself, for
    # every t' | n and s < 2 t', on the certificate's P, P with its rows
    # swapped, the identity and three seeded invertible W; the least twist
    # it compares is unique mod t', so s and s + t' agree
    seen = set()
    for key in ((5, 1, 4), (5, 1, 6), (2, 2, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("conjugates-to-diagonal")
        for inst in catalog(T):
            Mf = compute_stabilizer(inst.poly)
            Ws = [Mf.P, Mat2(T, 0, 1, 1, 0) * Mf.P, Mat2.identity(T)]
            while len(Ws) < 6:
                W = Mat2(T, *(rng.randrange(T.size) for _ in range(4)))
                if W.det():
                    Ws.append(W)
            for t in (d for d in range(1, T.n + 1) if T.n % d == 0):
                for s in range(2 * t):
                    for i, W in enumerate(Ws):
                        got = conjugates_to_diagonal(Mf, W, s, t)
                        assert got is conjugates_to_diagonal_by_inverse(Mf, W, s, t), \
                            (key, inst.family_id, t, s, i)
                        seen.add((got, i, s >= t))
            with pytest.raises(ZeroDivisionError):
                conjugates_to_diagonal(Mf, Mat2(T, 1, T.gen_code, 0, 0), Mf.s, Mf.t)
    # True on P and on swapped P with s >= t' too, and False on each W
    assert {(True, 0, False), (True, 0, True), (True, 1, False), (True, 1, True)} <= seen
    assert all((False, i, False) in seen for i in range(6))


def test_diagonalize_char2(tower):
    # Lunardon-Polverino over F_4 with n = 4 exercises the char-2 quadratic path
    from scattered_lab.families import find_lp_delta, make_lp

    T = tower(2, 2, 4)
    lp = make_lp(T, 1, find_lp_delta(T))
    Mf = compute_stabilizer(lp.poly)
    assert Mf.t == 2 and Mf.group_order == 15
    diag = diagonalize(Mf)
    for x, y in diag_pairs(Mf):
        assert T.frob_code(x, diag.s) == y


def test_diagonalize_all_scalar_raises(tower):
    T = tower(5, 1, 5)
    from scattered_lab.families import find_lp_delta, make_lp

    Mf = compute_stabilizer(make_lp(T, 1, find_lp_delta(T)).poly)
    with pytest.raises(AllScalar):
        diagonalize(Mf)


def _transversal_points(f):
    return diagonalize(compute_stabilizer(f)).eigen_points


def test_transversal_points(tower):
    T = tower(5, 1, 4)
    X, Y = _transversal_points(LinearizedPoly.monomial(T, 1))
    assert {X, Y} == {(1, 0), (0, 1)}
    # never on the linear set
    for f in (LinearizedPoly.monomial(T, 1), LinearizedPoly(T, [0, 1, 0, T.gen_code])):
        X, Y = _transversal_points(f)
        L = linear_set(f)
        for pt in (X, Y):
            if pt[0] == 1:
                assert pt[1] not in L.slopes
    from scattered_lab.families import find_lp_delta, make_lp

    T5 = tower(5, 1, 5)
    with pytest.raises(AllScalar):
        _transversal_points(make_lp(T5, 1, find_lp_delta(T5)).poly)


def test_transversal_points_build_no_linear_set(tower, monkeypatch):
    # the eigen-points are read off the diagonal form; L_f is never built
    from scattered_lab.families import find_psi_h, make_psi, psi_theta

    T = tower(5, 1, 6)
    h = find_psi_h(T, 3)
    psi = make_psi(T, h, 3, 1).poly

    def refuse(_f):
        raise AssertionError("the linear set was built")

    monkeypatch.setattr(scatter, "linear_set", refuse)
    monkeypatch.setattr(stabilizer, "linear_set", refuse, raising=False)
    theta = psi_theta(T, h, 3, 1)
    assert set(_transversal_points(psi)) == {(1, theta), (1, T.neg_code(theta))}


def test_scalars_always_present(tower):
    # every stabilizer contains the q - 1 scalar maps over F_q
    from scattered_lab.families import catalog

    T = tower(5, 1, 4)
    for inst in catalog(T):
        Mf = compute_stabilizer(inst.poly)
        for c in T.subfield_elements(1)[:-1]:
            assert in_kernel(Mf, Mat2.scalar(T, c))


def test_mat2_algebra(tower):
    T = tower(5, 1, 4)
    rng = T.rng("mat2")
    for _ in range(20):
        m = Mat2(T, *(rng.randrange(625) for _ in range(4)))
        if m.det() == 0:
            continue
        assert m * m.inverse() == Mat2.identity(T)
        assert mat_power(m, 3) == m * m * m
        pt = (rng.randrange(625), rng.randrange(625))
        via = mat_apply(m, pt)
        back = mat_apply(m.inverse(), via)
        assert back == pt


@pytest.mark.parametrize("case", BUILDER_FIELDS, ids=builder_id)
def test_pair_system_matches_block_oracle(tower, case):
    T = builder_tower(tower, case)
    rng = T.rng("pair-system")

    def draw():
        return LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])

    f, g = draw(), draw()
    sparse = LinearizedPoly.monomial(T, 1, T.gen_code)
    for a, b in ((f, f), (f, g), (sparse, f), (f, sparse), (sparse, sparse),
                 (LinearizedPoly.zero(T), g)):
        assert np.array_equal(_pair_system(a, b), pair_system_by_blocks(a, b))


def test_codes_out_of_range_are_refused_at_every_entry(tower):
    # -1 would read log_table[-1], the code q^n - 1: Mat2.scalar(T, -1).det()
    # was 540 at (5,4); q^n would index past the tables
    T = tower(5, 1, 4)
    f = LinearizedPoly.monomial(T, 1)
    for bad in (-1, T.size):
        entries = [
            lambda: Mat2(T, bad, 0, 0, 1),
            lambda: Mat2(T, 1, 0, 0, bad),
            lambda: Mat2.scalar(T, bad),
            lambda: Mat2.diag(T, 1, bad),
            lambda: LinearizedPoly(T, [0, bad, 0, 0]),
            lambda: f.evaluate_code(bad),
            lambda: f.scale(bad),
            lambda: f.transform(bad, 1),
            lambda: f.transform(1, bad),
            lambda: LinearizedPoly.identity(T).scale(bad),
        ]
        for entry in entries:
            with pytest.raises(BadElement, match="outside"):
                entry()
    # the last codes in range still pass
    top = T.size - 1
    assert Mat2.scalar(T, top).det() == T.mul_code(top, top)
    assert f.evaluate_code(top) == T.frob_code(top, 1)
    assert LinearizedPoly.identity(T).scale(top).coeffs == (top, 0, 0, 0)


def _pair_kernel_matches(f, g):
    """S(f, g) from MatrixField.of_pair against kernel_mod of the full pair
    system, array for array."""
    T = f.tower
    system = _pair_system(f, g)
    K = kernel_mod(system, T.p)
    S = MatrixField.of_pair(f, g)
    return np.array_equal(S.system, system) and np.array_equal(S.coords.reshape(K.shape), K)


def test_pair_kernel_is_the_full_elimination(tower):
    # every ordered pair of catalog instances, then seeded random pairs with
    # g = f and g = g_0 x (the full-elimination branch, g = 0 included);
    # most random polynomials are not scattered
    from scattered_lab.families import catalog

    for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5), (5, 1, 6)):
        polys = [inst.poly for inst in catalog(tower(*key))]
        for f in polys:
            for g in polys:
                assert _pair_kernel_matches(f, g), (key, f.coeffs, g.coeffs)
    kinds = set()
    for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5), (5, 1, 6), (2, 2, 4), (3, 2, 3)):
        T = tower(*key)
        rng = T.rng("pair-kernel")
        for _ in range(6):
            f, g = (LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
                    for _ in range(2))
            linear = LinearizedPoly(T, [g.coeffs[0]] + [0] * (T.n - 1))
            for h in (g, f, linear, LinearizedPoly.zero(T)):
                assert _pair_kernel_matches(f, h), (key, f.coeffs, h.coeffs)
            kinds.add(scatter.is_scattered(f))
    assert kinds == {False, True}
