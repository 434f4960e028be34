"""Each answer check accepts a correct answer and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

The correct answers are written here from the closed forms, not taken from
the program, and every corruption changes one fact the check is meant to
guard.
"""

from __future__ import annotations

import copy

import pytest

from checks import (
    check_andre_witness,
    check_equivalence,
    check_kernel_audit,
    check_report,
    check_semilinear_audit,
    check_sf_witness,
    check_spread,
    check_stabilizer,
    check_standard_form,
    check_verdict,
    stabilizer_order,
)
from gf import GF, first_irreducible, is_irreducible, point_maps_into
from inputs import ANALYZE_TASKS, ANALYZE_TASKS_NO_SF, lp, pseudoregulus, psi, psi_h_log


def _report(inp):
    """A report that states exactly the closed forms for inp."""
    q, n = inp["q"], inp["n"]
    order = stabilizer_order(inp["family"], q, n)
    t = {q**k - 1: k for k in range(1, n + 1)}[order]
    s = inp["s"] % t if t > 1 else 0
    h = ["0"] * n
    for i in range(s, n, t) if t > 1 else []:
        h[i] = "g^1"
    if t == n:
        witness = "pseudoregulus"
    elif t == 1:
        witness = {"error": "NotInS"}
    else:
        witness = {"verified": True, "invariant_subgroup_size": q**t, "t": t}
    tasks = {
        "scatter": {"scattered": True,
                    "linear_set": {"scattered": True, "size": (q**n - 1) // (q - 1)}},
        "stabilizer": {"order": order, "field_order": order + 1, "t": t},
        "mrd": {"min_distance": n - 1, "is_mrd": True, "right_idealizer_order": order + 1},
        "plane": {"case": "ii" if t > 1 else "i",
                  "homology_group_order": (q**t - 1) // (q - 1), "elations": 0,
                  "H_f_order": (q**n - 1) * (q**t - 1) // (q - 1), "andre_witness": witness},
    }
    if "standard-form" in inp["tasks"]:
        tasks["standard-form"] = {"s": s, "t": t, "h": h}
    return {"tasks": tasks}


CASES = [
    dict(pseudoregulus(5, 4, 3), tasks=ANALYZE_TASKS),
    dict(lp(5, 4, 1, 7), tasks=ANALYZE_TASKS),
    dict(lp(5, 5, 2, 7), tasks=ANALYZE_TASKS_NO_SF),
    dict(psi(5, 3, 1, psi_h_log(5, 3, 2)), tasks=ANALYZE_TASKS),
]

CORRUPTIONS = [
    ("scatter", lambda t: t["scatter"].update(scattered=False)),
    ("linear set size", lambda t: t["scatter"]["linear_set"].update(
        size=t["scatter"]["linear_set"]["size"] + 1)),
    ("|G_f|", lambda t: t["stabilizer"].update(order=t["stabilizer"]["order"] + 1)),
    ("t", lambda t: t["stabilizer"].update(t=t["stabilizer"]["t"] + 1)),
    ("field order", lambda t: t["stabilizer"].update(field_order=1)),
    ("min distance", lambda t: t["mrd"].update(min_distance=t["mrd"]["min_distance"] - 1)),
    ("is_mrd", lambda t: t["mrd"].update(is_mrd=False)),
    ("idealizer", lambda t: t["mrd"].update(right_idealizer_order=2)),
    ("case", lambda t: t["plane"].update(case={"i": "ii", "ii": "i"}[t["plane"]["case"]])),
    ("homology order", lambda t: t["plane"].update(
        homology_group_order=t["plane"]["homology_group_order"] + 1)),
    ("elations", lambda t: t["plane"].update(elations=1)),
    ("H_f order", lambda t: t["plane"].update(H_f_order=t["plane"]["H_f_order"] * 2)),
    ("witness", lambda t: t["plane"].update(andre_witness={"verified": False})),
]


@pytest.mark.parametrize("inp", CASES, ids=lambda c: f"{c['family']}{c['q']}{c['n']}")
def test_report_accepts_closed_forms(inp):
    assert check_report(inp, _report(inp)) == []


@pytest.mark.parametrize("inp", CASES, ids=lambda c: f"{c['family']}{c['q']}{c['n']}")
@pytest.mark.parametrize("name,corrupt", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_report_rejects(inp, name, corrupt):
    report = copy.deepcopy(_report(inp))
    corrupt(report["tasks"])
    assert check_report(inp, report), name


def test_report_rejects_standard_form():
    inp = CASES[1]                      # LP (5,4): t = 2, s = 1
    for sf in ({"s": 0, "t": 2, "h": ["g^1", "0", "g^1", "0"]},    # gcd(s, t) = 2
               {"s": 1, "t": 2, "h": ["0", "g^1", "g^1", "0"]},    # exponent 2 off class
               {"s": 1, "t": 4, "h": ["0", "g^1", "0", "0"]}):     # t differs from G_f
        report = _report(inp)
        report["tasks"]["standard-form"] = sf
        assert check_report(inp, report)


def test_stabilizer_and_standard_form_checks():
    assert check_stabilizer(5, 4, 24, 2) == []
    assert check_stabilizer(5, 4, 24, 2, expected_order=24) == []
    assert check_stabilizer(5, 4, 25, 2)                 # 26 is no power of 5
    assert check_stabilizer(5, 6, 124, 3) == []
    assert check_stabilizer(5, 4, 124, 3)                # t = 3 does not divide 4
    assert check_stabilizer(5, 4, 24, 2, expected_order=624)
    assert check_standard_form(2, 1, 2, [1, 3, 5]) == []
    assert check_standard_form(2, 1, 2, [1, 2])
    assert check_standard_form(2, 0, 2, [0, 2])
    assert check_standard_form(2, 1, 2, [])


def test_andre_witness_cases():
    ok = {"verified": True, "invariant_subgroup_size": 25, "t": 2}
    assert check_andre_witness(5, 6, 2, ok) == []
    assert check_andre_witness(5, 6, 2, "pseudoregulus")
    assert check_andre_witness(5, 6, 2, dict(ok, invariant_subgroup_size=5))
    assert check_andre_witness(5, 4, 4, "pseudoregulus") == []
    assert check_andre_witness(5, 4, 4, ok)
    assert check_andre_witness(5, 5, 1, {"error": "NotInS"}) == []
    assert check_andre_witness(5, 5, 1, {"error": "InternalError"})


def test_audit_checks():
    good = {"ok": True, "components": 626, "translates": 156, "desarguesian": 470}
    assert check_spread(5, 4, good) == []
    for key, bad in (("ok", False), ("components", 625), ("translates", 155),
                     ("desarguesian", 471)):
        assert check_spread(5, 4, dict(good, **{key: bad})), key
    assert check_kernel_audit(True) == []
    assert check_kernel_audit(False)
    assert check_semilinear_audit({"violations": 0}) == []
    assert check_semilinear_audit({"violations": 1})


# -- checks that do field arithmetic --------------------------------------------

F34 = GF(3, 4, first_irreducible(3, 4))
X_Q = [0, 1, 0, 0]        # x^q: scattered
X_Q2 = [0, 0, 1, 0]       # x^(q^2), gcd(2, 4) = 2: not scattered


def test_gf_field_axioms():
    assert is_irreducible(list(F34.modulus), 3)
    assert not is_irreducible([1, 0, 1, 0, 1], 3)      # X^4 + X^2 + 1 = (X^2 + X + 1)(X^2 - X + 1)
    exp, log = F34.tables()
    assert sorted(exp.tolist()) == list(range(1, 81))
    for a in (2, 7, 40, 80):
        assert F34.mul(a, F34.inv(a)) == 1
        assert F34.add(a, F34.neg(a)) == 0


def test_scattered_oracles_agree():
    assert F34.is_scattered(X_Q) and F34.is_scattered_pairwise(X_Q)
    assert not F34.is_scattered(X_Q2) and not F34.is_scattered_pairwise(X_Q2)
    assert check_verdict(F34, X_Q, True, True, pairwise=True) == []
    assert check_verdict(F34, X_Q, False, True)
    assert check_verdict(F34, X_Q2, True, False)
    assert check_verdict(F34, X_Q2, True, True, pairwise=True)   # the pairwise test objects


def test_witness_checks():
    one, X = 1, 3                               # X is not in F_3
    identity = (one, 0, 0, one)
    assert point_maps_into(F34, X_Q, identity, X_Q)
    assert point_maps_into(F34, X_Q, (2, 0, 0, 2), X_Q)        # F_q-scalars fix U_f
    assert check_sf_witness(F34, X_Q, identity, X_Q) == []
    assert check_sf_witness(F34, X_Q, (one, 0, 0, X), X_Q)
    assert check_sf_witness(F34, X_Q, (one, one, one, one), X_Q)   # singular
    assert check_equivalence(F34, X_Q, X_Q, True, identity) == []
    assert check_equivalence(F34, X_Q, X_Q, True, (one, 0, 0, X))
    assert check_equivalence(F34, X_Q, X_Q, None, None)
    assert check_equivalence(F34, X_Q, X_Q2, True, identity)
