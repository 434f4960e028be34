"""The whole pipeline with a non-prime base field F_q = F_{p^e}."""

from scattered_lab import (
    LinearizedPoly,
    Mat2,
    compute_stabilizer,
    diagonalize,
    is_scattered,
    min_distance,
    right_idealizer,
    to_standard_form,
)
from scattered_lab.families import find_lp_delta, make_lp
from scattered_lab.mrd import verify_idealizer_field

from oracles import element_set_of


def test_q9_pseudoregulus_full_chain(tower):
    T = tower(3, 2, 3)
    f = LinearizedPoly.monomial(T, 1)
    Mf = compute_stabilizer(f)
    assert Mf.t == 3 and Mf.group_order == 9**3 - 1
    predicted = {(al, 0, 0, T.frob_code(al, 1)) for al in range(1, 729)}
    predicted.add((0, 0, 0, 0))
    assert element_set_of(Mf) == frozenset(predicted)
    d = diagonalize(Mf)
    assert d.P == Mat2.identity(T) and d.s == 1
    assert min_distance(f) == T.n - 1
    assert T.p ** len(right_idealizer(f)) == 729
    assert verify_idealizer_field(f)[0] == 3


def test_q4_lp_standard_form_char2(tower):
    T = tower(2, 2, 4)
    lp = make_lp(T, 1, find_lp_delta(T)).poly
    assert is_scattered(lp)
    sf = to_standard_form(lp)
    assert sf.t == 2 and sf.h.standard_form_params()[1] == 2
    assert min_distance(lp) == 3
    assert T.p ** len(right_idealizer(lp)) == 16
    assert verify_idealizer_field(lp)[0] == 2
