"""The diagonal-form field certificate and the idealizer isomorphism against
the element walks they replaced."""

import numpy as np
import pytest

from scattered_lab._linalg import kernel_mod
from scattered_lab.errors import NotAField
from scattered_lab.families import catalog, find_lp_delta, make_lp
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.mrd import (
    right_idealizer,
    verify_idealizer_field,
)
from scattered_lab.scatter import is_scattered
from scattered_lab.stabilizer import (
    Mat2,
    MatrixField,
    compute_stabilizer,
    diagonalize,
    verify_field,
)

from oracles import (
    composition_order_by_walk,
    diag_pairs,
    diagonalize_by_conjugation,
    field_by_walk,
    idealizer_field_by_walk,
    mat_vec,
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
    """Every catalog instance at (3,4), (5,4), (7,4), (5,5), (5,6), over F_4
    at n = 3 and 4 and over F_9 at n = 3, plus seeded random scattered
    polynomials at (3,4), (5,4) and (7,4)."""
    polys = [inst.poly for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5),
                                   (5, 1, 6), (2, 2, 4), (2, 2, 3), (3, 2, 3))
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
        # the oracle searches x^(p^j), j < e t, the certificate x^(q^s), s < t
        assert diag.s * f.tower.e == p_exp and diag.eigen_points == eigen_points
        assert diag_pairs(Mf) == pairs
    assert {1, 2, 3, 4, 5, 6} <= ts


def test_idealizer_certificate_matches_walk_oracle(tower):
    for key in ((3, 1, 4), (5, 1, 4), (7, 1, 4), (5, 1, 5), (2, 2, 4)):
        for inst in catalog(tower(*key)):
            IR = right_idealizer(inst.poly)
            T = inst.poly.tower
            t, phi_alpha = verify_idealizer_field(inst.poly)
            assert t == idealizer_field_by_walk(IR, T)[0]
            assert composition_order_by_walk(phi_alpha, T.q**t) == T.q**t - 1
            assert T.p ** len(IR) == compute_stabilizer(inst.poly).order
            assert stabilizer_images_by_walk(inst.poly)


def test_diagonalization_is_cached_without_pairs(tower):
    T = tower(5, 1, 4)
    Mf = compute_stabilizer(make_lp(T, 1, find_lp_delta(T)).poly)
    assert diagonalize(Mf) is Mf
    # the certificate is (P, s, t) and the generator, kept on the field itself
    assert MatrixField.__slots__ == ("tower", "system", "coords", "t", "s", "P", "generator",
                                     "_basis")


def _digit_rows(maps):
    return np.array([mat_vec(m) for m in maps], dtype=np.int64)


def _field(T, system, basis):
    return MatrixField(T, system, _digit_rows(basis))


def _span_system(T, maps):
    """The F_p-matrix whose kernel is the F_p-span of the matrices `maps`."""
    return kernel_mod(_digit_rows(maps), T.p)


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
    with pytest.raises(NotAField, match="no two distinct eigenvalues"):
        verify_field(_field(T, _span_system(T, basis), basis))


def test_span_not_closed_under_the_generator(tower):
    # span{I, A} with A = diag(w, 1), w primitive in F_25: A has order 24 and
    # A^24 = I, but A * A = diag(w^2, 1) lies outside the span; the entries
    # (w, 1) are linked by no Frobenius twist
    T = tower(5, 1, 4)
    w = T.subfield_primitive_code(2)
    A = Mat2.diag(T, w, 1)
    basis = (Mat2.identity(T), A)
    Mf = _field(T, _span_system(T, basis), basis)
    with pytest.raises(NotAField, match="Frobenius twist"):
        verify_field(Mf)
    with pytest.raises(NotAField):
        field_by_walk(Mf)


def _companion_of_irreducible(T):
    """The companion matrix of a quadratic with no root in F_(q^n)."""
    rng = T.rng("irreducible companion")
    while True:
        b, c = rng.randrange(T.size), rng.randrange(1, T.size)
        if not T.solve_quadratic(b, c):
            return Mat2(T, 0, 1, T.neg_code(c), T.neg_code(b))


def _broken_bases(T):
    """Bases containing I, of dimension 2 or 4 over F_5 at n = 4, each
    breaking one condition of the diagonal-form certificate.  The nilpotent
    and the untwisted cases are test_algebra_without_a_full_order_unit and
    test_span_not_closed_under_the_generator."""
    one, g = Mat2.identity(T), T.gen_code
    return {
        "irreducible": (one, _companion_of_irreducible(T)),
        # the full matrix algebra: diag(1, 0) fixes P = I, E12 stays off-diagonal
        "no common eigenbasis": (one, Mat2.diag(T, 1, 0), Mat2(T, 0, 1, 0, 0),
                                 Mat2(T, 0, 0, 1, 0)),
        # diagonal with the q-twist, but g generates all of F_(5^4)
        "entry outside F_(q^t)": (one, Mat2.diag(T, g, T.frob_code(g, 1))),
    }


@pytest.mark.parametrize("label, message", [
    ("irreducible", "no two distinct eigenvalues"),
    ("no common eigenbasis", "no common eigenbasis"),
    ("entry outside F_(q^t)", r"outside F_\(q\^2\)"),
])
def test_certificate_refuses_each_broken_condition(tower, label, message):
    T = tower(5, 1, 4)
    basis = _broken_bases(T)[label]
    Mf = _field(T, _span_system(T, basis), basis)
    with pytest.raises(NotAField, match=message):
        verify_field(Mf)
    assert not Mf.verified
    with pytest.raises(NotAField):
        field_by_walk(Mf)
