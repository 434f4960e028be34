"""The generator-and-basis field certificate against the element walks it replaced."""

import dataclasses

import numpy as np
import pytest

from scattered_lab import mrd
from scattered_lab._linalg import kernel_mod
from scattered_lab.errors import InternalError, Mismatch, NotAField
from scattered_lab.field_tower import _digits, _prime_divisors
from scattered_lab.families import catalog, find_lp_delta, make_lp
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.mrd import (
    Idealizer,
    check_idealizer_matches_stabilizer,
    code_of,
    right_idealizer,
    verify_idealizer_field,
)
from scattered_lab.scatter import is_scattered
from scattered_lab.stabilizer import (
    DiagonalizationResult,
    Mat2,
    MatrixField,
    compute_stabilizer,
    diagonalize,
    verify_field,
)

from oracles import (
    diag_pairs,
    diagonalize_by_conjugation,
    field_by_walk,
    idealizer_field_by_walk,
    power_is_one_by_chain,
    stabilizer_images_by_walk,
)


def _random_scattered(T, count, salt):
    rng = T.rng(salt)
    out = []
    while len(out) < count:
        f = LinearizedPoly(T, [rng.randrange(T.size) for _ in range(T.n)])
        if is_scattered(f):
            out.append(f)
    return out


def _instances(tower):
    """Every catalog instance at (3,4), (5,4), (7,4), (5,5), (5,6) and over
    F_4 at n = 4, plus seeded random scattered polynomials at (3,4), (5,4)
    and (7,4)."""
    polys = [inst.poly for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5),
                                   (5, 1, 6), (2, 2, 4))
             for inst in catalog(tower(*key))]
    for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4)):
        polys += _random_scattered(tower(*key), 3, "certify-differential")
    return polys


def test_certificate_matches_walk_oracles(tower):
    ts = set()
    for f in _instances(tower):
        Mf = compute_stabilizer(f)
        t, gen = field_by_walk(Mf)
        assert (Mf.t, Mf.generator) == (t, gen)
        ts.add(t)
        if t == 1:
            continue
        diag = diagonalize(Mf)
        P, p_exp, eigen_points, pairs = diagonalize_by_conjugation(Mf)
        assert diag.P == P and diag.t == t
        assert diag.p_exponent == p_exp and diag.eigen_points == eigen_points
        assert diag_pairs(diag) == pairs
    assert {1, 2, 3, 4, 5, 6} <= ts


def test_idealizer_certificate_matches_walk_oracle(tower):
    for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5), (2, 2, 4)):
        for inst in catalog(tower(*key)):
            IR = right_idealizer(code_of(inst.poly))
            T = inst.poly.tower
            assert verify_idealizer_field(IR, T) == idealizer_field_by_walk(IR, T)
            assert check_idealizer_matches_stabilizer(inst.poly)["matches"]
            assert stabilizer_images_by_walk(inst.poly)


def test_diagonalization_is_cached_without_pairs(tower):
    T = tower(5, 1, 4)
    Mf = compute_stabilizer(make_lp(T, 1, find_lp_delta(T)).poly)
    assert diagonalize(Mf) is diagonalize(Mf)
    stored = {fld.name for fld in dataclasses.fields(DiagonalizationResult)}
    assert "diag_pairs" not in stored and len(diagonalize(Mf).basis_pairs) == T.e * Mf.t


def _field(T, system, basis):
    return MatrixField(T, system, tuple(basis))


def _span_system(T, maps):
    """The F_p-matrix whose kernel is the F_p-span of the matrices `maps`."""
    vecs = [[d for c in m.entries() for d in _digits(c, T.p, T.en)] for m in maps]
    return kernel_mod(np.array(vecs), T.p)


def test_basis_outside_the_kernel(tower):
    # diag(2, 4) lies in the cyclic group {diag(x, x^2) : x in F_5^*} but
    # not in span{I}, the kernel of the system, so the claimed basis does
    # not belong to the space
    T = tower(5, 1, 4)
    system = _span_system(T, [Mat2.identity(T)])
    verify_field(_field(T, system, [Mat2.identity(T)]))
    for basis in ((Mat2.diag(T, 2, 4),), (Mat2.identity(T), Mat2.diag(T, 2, 4))):
        with pytest.raises(NotAField, match="outside the kernel"):
            verify_field(_field(T, system, basis))


def test_algebra_without_a_full_order_unit(tower):
    # span{I, E12} is closed under products (E12^2 = 0) but has nilpotents
    T = tower(5, 1, 4)
    E12 = Mat2(T, 0, 1, 0, 0)
    basis = (Mat2.identity(T), E12)
    with pytest.raises(NotAField):
        verify_field(_field(T, _span_system(T, basis), basis))


def test_span_not_closed_under_the_generator(tower):
    # span{I, A} with A = diag(w, 1), w primitive in F_25: A has order 24 and
    # A^24 = I, but A * A = diag(w^2, 1) lies outside the span
    T = tower(5, 1, 4)
    w = T.subfield_primitive_code(2)
    A = Mat2.diag(T, w, 1)
    basis = (Mat2.identity(T), A)
    Mf = _field(T, _span_system(T, basis), basis)
    with pytest.raises(NotAField, match="product escapes"):
        verify_field(Mf)
    with pytest.raises(NotAField):
        field_by_walk(Mf)


def test_idealizer_basis_outside_the_kernel(tower):
    T = tower(5, 1, 4)
    IR = right_idealizer(code_of(make_lp(T, 1, find_lp_delta(T)).poly))
    verify_idealizer_field(IR, T)
    # swap one basis polynomial for x^q, which is not in the idealizer:
    # same order, but the basis leaves the kernel of the system
    bad = IR.basis[:-1] + (LinearizedPoly.monomial(T, 1),)
    with pytest.raises(NotAField, match="outside the kernel"):
        verify_idealizer_field(Idealizer(T, IR.system, bad), T)


def test_idealizer_match_detects_broken_maps(tower, monkeypatch):
    T = tower(5, 1, 4)
    f = make_lp(T, 1, find_lp_delta(T)).poly
    check_idealizer_matches_stabilizer(f)
    phi = mrd.stabilizer_to_right_idealizer
    phi_alpha = phi(compute_stabilizer(f).generator, f)
    zero = LinearizedPoly.zero(T)
    monkeypatch.setattr(mrd, "stabilizer_to_right_idealizer", lambda M, g: zero)
    with pytest.raises(Mismatch, match="biject"):
        check_idealizer_matches_stabilizer(f)
    monkeypatch.setattr(mrd, "stabilizer_to_right_idealizer", lambda M, g: g.scale(M.a))
    with pytest.raises(Mismatch, match="escapes"):
        check_idealizer_matches_stabilizer(f)
    # phi'(M) = phi(M) o phi(alpha) maps G_f injectively into the right
    # idealizer, but phi'(alpha b) = phi'(b) o phi(alpha) != phi'(b) o phi'(alpha)
    monkeypatch.setattr(mrd, "stabilizer_to_right_idealizer",
                        lambda M, g: phi(M, g).compose(phi_alpha))
    with pytest.raises(Mismatch, match="not multiplicative"):
        check_idealizer_matches_stabilizer(f)


def _crafted_matrices(T):
    """Matrices of every shape the eigenvalue test distinguishes, labelled."""
    rng = T.rng("eigenvalue-orders")
    units = [1, T.gen_code] + [T.subfield_primitive_code(t) for t in range(1, T.n + 1)
                               if T.n % t == 0]
    out = [("scalar", Mat2.scalar(T, x)) for x in units]
    out += [("zero entry", m) for x in units[1:3]
            for m in (Mat2.diag(T, x, 0), Mat2.diag(T, 0, x))]
    out += [("diagonal", Mat2.diag(T, x, T.frob_code(x, 1))) for x in units[2:]]
    out += [("double", Mat2(T, x, 1, 0, x)) for x in units[:3]]
    out += [("double", Mat2(T, x, 0, T.gen_code, x)) for x in units[:2]]
    # W diag(x, x^q) W^-1 for x in each subfield: distinct eigenvalues, b, c != 0
    W = Mat2(T, 1, T.gen_code, 1, 1)
    out += [("conjugated", W * Mat2.diag(T, x, T.frob_code(x, 1)) * W.inverse())
            for x in units[2:]]
    x, y = rng.randrange(1, T.size), rng.randrange(1, T.size)
    out.append(("singular", Mat2(T, x, y, T.mul_code(T.gen_code, x), T.mul_code(T.gen_code, y))))
    out.append(("singular", Mat2(T, 1, 1, 1, 1)))
    found = 0
    while found < 3:
        # the companion matrix of x^2 + b x + c, irreducible over F_(q^n)
        b, c = rng.randrange(T.size), rng.randrange(1, T.size)
        if not T.solve_quadratic(b, c):
            out.append(("irreducible", Mat2(T, 0, 1, T.neg_code(c), T.neg_code(b))))
            found += 1
    return out


@pytest.mark.parametrize("key", [(5, 1, 4), (3, 1, 6), (2, 1, 4), (2, 2, 4)])
def test_eigenvalue_order_test_matches_product_chain(tower, key):
    # k = N/l and k = N for N = q^t - 1 and every t | n: the exponents the
    # field certificate asks about
    T = tower(*key)
    field = MatrixField(T, np.zeros((0, 4 * T.en), dtype=np.int64), ())
    exponents = set()
    for t in range(1, T.n + 1):
        if T.n % t == 0:
            N = T.q**t - 1
            exponents |= {N} | {N // ell for ell in _prime_divisors(N)}
    answers = {}
    for label, A in _crafted_matrices(T):
        for k in sorted(exponents):
            got = field.power_is_one(A, k)
            assert got == power_is_one_by_chain(A, k), (label, A, k)
            answers.setdefault(label, set()).add(got)
    for label in ("zero entry", "double", "irreducible", "singular"):
        assert answers[label] == {False}, label
    for label in ("scalar", "diagonal", "conjugated"):
        assert answers[label] == {False, True}, label


def test_eigenvalue_order_test_refuses_other_exponents(tower):
    T = tower(5, 1, 4)
    field = MatrixField(T, np.zeros((0, 4 * T.en), dtype=np.int64), ())
    for k in (0, 5, T.size, 7):
        with pytest.raises(InternalError, match="does not divide"):
            field.power_is_one(Mat2.identity(T), k)
