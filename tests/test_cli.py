import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scattered_lab import _linalg, cli, mrd, scatter
from scattered_lab.cli import main
from scattered_lab.families import find_lp_delta, find_psi_h, make_lp, make_pseudoregulus, make_psi
from scattered_lab.field_tower import make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.stabilizer import Mat2
from scattered_lab.standard_form import image_polynomial


def run_cli(argv, tmp_path=None):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def specs(tmp_path):
    field = tmp_path / "f5n4.json"
    field.write_text(json.dumps({"p": 5, "e": 1, "n": 4, "seed": 0}))
    poly = tmp_path / "pr.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1", "0", "0"]}))
    return field, poly, tmp_path


def test_analyze_scatter_stabilizer(specs):
    field, poly, _ = specs
    code, out, _ = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", "scatter,stabilizer"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 3
    assert doc["tasks"]["scatter"]["scattered"] is True
    assert doc["tasks"]["stabilizer"]["order"] == 624
    assert doc["tasks"]["stabilizer"]["t"] == 4


def test_byte_identical_reports(specs):
    field, poly, _ = specs
    args = ["analyze", "--field", str(field), "--poly", str(poly),
            "--tasks", "scatter,stabilizer,mrd", "--emit-points"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_emitted_poly_reparses(specs):
    field, poly, tmp = specs
    code, out, _ = run_cli(["standard-form", "--field", str(field), "--poly", str(poly)])
    assert code == 0
    doc = json.loads(out)
    h = doc["tasks"]["standard-form"]["h"]
    poly2 = tmp / "h.json"
    poly2.write_text(json.dumps({"coeffs": h}))
    code2, out2, _ = run_cli(["scatter", "--field", str(field), "--poly", str(poly2)])
    assert code2 == 0
    assert json.loads(out2)["tasks"]["scatter"]["scattered"] is True


def test_empty_tasks_parse_error(specs):
    field, poly, _ = specs
    code, _, err = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", ""])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "ParseError"


def test_unknown_task(specs):
    field, poly, _ = specs
    code, _, err = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", "scatter,frobnicate"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "ParseError"


def test_small_q_refusal(tmp_path):
    field = tmp_path / "f3.json"
    field.write_text(json.dumps({"p": 3, "e": 1, "n": 4}))
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1", "0", "0"]}))
    code, _, err = run_cli(["plane", "--field", str(field), "--poly", str(poly)])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "SmallQ"


def test_mrd_and_oracle(specs):
    field, poly, _ = specs
    code, out, _ = run_cli(["mrd", "--field", str(field), "--poly", str(poly),
                            "--oracle"])
    assert code == 0
    doc = json.loads(out)["tasks"]["mrd"]
    assert doc["min_distance"] == 3 and doc["is_mrd"] is True
    assert doc["matches_stabilizer"] is True


def test_plane_report(specs):
    field, poly, _ = specs
    code, out, _ = run_cli(["plane", "--field", str(field), "--poly", str(poly)])
    assert code == 0
    doc = json.loads(out)["tasks"]["plane"]
    assert doc["case"] == "ii"
    assert doc["homology_group_order"] == 156
    assert doc["elations"] == 0
    assert doc["andre_witness"] == "pseudoregulus"


def test_equiv_cli(specs, tmp_path):
    field, poly, _ = specs
    g = tmp_path / "g.json"
    # x^{q^3} is the inverse-branch partner of x^q: GL-equivalent
    g.write_text(json.dumps({"coeffs": ["0", "0", "0", "1"]}))
    code, out, _ = run_cli(["equiv", "--field", str(field), str(poly), str(g)])
    assert code == 0
    doc = json.loads(out)
    assert doc["equiv"]["equivalent"] is True
    code, out, _ = run_cli(["equiv", "--field", str(field), str(poly), str(g),
                            "--mode", "gammal"])
    assert json.loads(out)["equiv"]["equivalent"] is True


def test_families_cli():
    code, out, _ = run_cli(["families", "--family", "5", "--q", "5", "--t", "3",
                            "--s", "1", "--verify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["family"] == 5
    assert doc["verified"]["matches_prediction"] is True
    code, _, err = run_cli(["families", "--family", "2", "--q", "5", "--n", "4",
                            "--delta", "1"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "BadParams"
    # the parser's choices are the keys of the family table: exit 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["families", "--family", "6"])
    assert exc.value.code == 2 and sorted(cli.FAMILIES) == [1, 2, 3, 4, 5]


def test_corrupted_modulus_surfaces(tmp_path):
    field = tmp_path / "bad.json"
    # x^4 + 1 is reducible over F_5
    field.write_text(json.dumps({"p": 5, "e": 1, "n": 4, "modulus": [1, 0, 0, 0, 1]}))
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1", "0", "0"]}))
    code, _, err = run_cli(["scatter", "--field", str(field), "--poly", str(poly)])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "BadElement"


FIELD_OK = {"p": 5, "e": 1, "n": 4, "seed": 0}
POLY_OK = {"coeffs": ["0", "1", "0", "0"]}


@pytest.mark.parametrize("field, poly, error", [
    ({**FIELD_OK, "seed": "x"}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "modulus": ["a", 0, 0, 0]}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "modulus": 7}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "generator": "zz"}, POLY_OK, "BadElement"),
    (FIELD_OK, {"coeffs": 4}, "ParseError"),
    (FIELD_OK, {"coeffs": [["a", 0, 0, 0], "1", "0", "0"]}, "BadElement"),
    # four characters, one per coefficient, were read as four coefficients
    (FIELD_OK, {"coeffs": "0100"}, "ParseError"),
    # digits were split off a string, truncated, or reduced mod p
    ({**FIELD_OK, "modulus": "20001"}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "modulus": [2.7, 0, 0, 0, 1]}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "modulus": [7, 0, 0, 0, 1]}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "generator": [6, 1, 0, 0]}, POLY_OK, "BadElement"),
    (FIELD_OK, {"coeffs": [[7, 0, 0, 0], "1", "0", "0"]}, "BadElement"),
    (FIELD_OK, {"coeffs": [[1.5, 0, 0, 0], "1", "0", "0"]}, "BadElement"),
    (FIELD_OK, {"coeffs": [[-1, 0, 0, 0], "1", "0", "0"]}, "BadElement"),
    (FIELD_OK, {"coeffs": [[True, 0, 0, 0], "1", "0", "0"]}, "BadElement"),
    # p, e, n, seed and a scalar generator were truncated or parsed by int()
    ({"p": 5.7, "n": 4.9, "generator": 7.5}, POLY_OK, "BadElement"),
    ({"p": "5", "n": "4", "seed": 2.5}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "e": True}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "seed": "7"}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "p": 5.7}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "n": "4"}, POLY_OK, "BadElement"),
    # an int coefficient outside [0, p) was reduced mod p
    ({**FIELD_OK, "n": 5}, {"coeffs": [0, 437, 0, -3, 0]}, "BadElement"),
    # a generator outside [1, 5^4): 0 passed the primitivity test and made x^q
    # read as not scattered; 625 and 631 = g + 625 ran past the tables
    ({**FIELD_OK, "generator": 0}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "generator": [0, 0, 0, 0]}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "generator": 625}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "generator": 631}, POLY_OK, "BadElement"),
    ({**FIELD_OK, "generator": -1}, POLY_OK, "BadElement"),
], ids=["seed", "modulus-digit", "modulus-int", "generator", "coeffs-int",
        "coeff-digit-array", "coeffs-string", "modulus-string", "modulus-float",
        "modulus-out-of-range", "generator-out-of-range", "coeff-digit-out-of-range",
        "coeff-digit-float", "coeff-digit-negative", "coeff-digit-bool",
        "float-p-n-generator", "string-p-n-float-seed", "bool-e", "string-seed",
        "float-p", "string-n", "coeff-int-out-of-range", "generator-zero",
        "generator-zero-digits", "generator-field-size", "generator-wrapped",
        "generator-negative"])
def test_malformed_spec_is_a_json_error(tmp_path, field, poly, error):
    field_path, poly_path = tmp_path / "field.json", tmp_path / "poly.json"
    field_path.write_text(json.dumps(field))
    poly_path.write_text(json.dumps(poly))
    code, out, err = run_cli(["scatter", "--field", str(field_path), "--poly", str(poly_path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["code"] == error


@pytest.mark.parametrize("content", [b'\xff\xfe{"p": 5}', b"[" * 100_000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
@pytest.mark.parametrize("reader", ["field", "poly", "equiv", "families"])
def test_unreadable_json_is_a_parse_error(specs, content, reader):
    # a decode error or a RecursionError of the JSON reader is a ParseError
    # JSON error, whichever command reads the file
    field, poly, tmp_path = specs
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "field": ["scatter", "--field", str(bad), "--poly", str(poly)],
        "poly": ["scatter", "--field", str(field), "--poly", str(bad)],
        "equiv": ["equiv", "--field", str(field), str(poly), str(bad)],
        "families": ["families", "--family", "1", "--field", str(bad)],
    }[reader]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["code"] == "ParseError"


def _report_instances(tower):
    """The seven instance kinds of the benchmark's report workload: psi at
    (5,6), the pseudoregulus at (5,5), (5,4) and (7,4), and LP at (5,4),
    (7,4) and (5,5)."""
    T = tower(5, 1, 6)
    out = [make_psi(T, find_psi_h(T, 3), 3, 1)]
    out += [make_pseudoregulus(tower(q, 1, n), 1) for q, n in ((5, 5), (5, 4), (7, 4))]
    out += [make_lp(T, 1, find_lp_delta(T)) for T in (tower(q, 1, n) for q, n in
                                                      ((5, 4), (7, 4), (5, 5)))]
    return out


def _reports_after_stabilizer(tower, tmp_path, monkeypatch, tasks, guarded):
    """The task reports of `analyze --tasks stabilizer,<tasks>` on the seven
    report instances, where a call of the attribute `name` of `owner`, for
    each (owner, name) in guarded, fails once the stabilizer task is done."""
    armed = []

    def guard(name, fn):
        def guarded_fn(*args, **kwargs):
            assert not armed, f"{name} was called after the stabilizer task"
            return fn(*args, **kwargs)

        return guarded_fn

    for owner, name in guarded:
        monkeypatch.setattr(owner, name, guard(name, getattr(owner, name)))
    stabilizer_task = cli.TASKS["stabilizer"]

    def then_arm(T, f, args):
        doc = stabilizer_task(T, f, args)
        armed.append(True)
        return doc

    # analyze dispatches through the table, not the module attribute
    monkeypatch.setitem(cli.TASKS, "stabilizer", then_arm)
    reports = []
    for inst in _report_instances(tower):
        armed.clear()
        T = inst.poly.tower
        field, poly = tmp_path / "field.json", tmp_path / "poly.json"
        field.write_text(json.dumps(T.spec()))
        poly.write_text(json.dumps(inst.poly.to_json()))
        code, out, err = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                                  "--tasks", "stabilizer," + tasks])
        assert code == 0, err
        assert armed
        reports.append(json.loads(out)["tasks"])
    return reports


def test_mrd_task_solves_no_second_system(tower, tmp_path, monkeypatch):
    # once the stabilizer task has solved S(f, f), the mrd task reads the
    # right idealizer off that kernel: no elimination and no rank follows
    guarded = [(module, fn.__name__) for fn in (_linalg.kernel_mod, _linalg.rank_mod)
               for name, module in list(sys.modules.items())
               if name.startswith("scattered_lab") and getattr(module, fn.__name__, None) is fn]
    for tasks in _reports_after_stabilizer(tower, tmp_path, monkeypatch, "mrd", guarded):
        assert tasks["mrd"]["right_idealizer_order"] == tasks["stabilizer"]["field_order"]
        assert tasks["mrd"]["matches_stabilizer"] is True


def test_plane_and_standard_form_tasks_recheck_nothing(tower, tmp_path, monkeypatch):
    # once the stabilizer task has certified G_f, the standard-form and plane
    # tasks read their facts off the diagonal form: no q-polynomial
    # composition, and with it no U_f W = U_g check, follows
    _reports_after_stabilizer(tower, tmp_path, monkeypatch, "standard-form,plane",
                              [(LinearizedPoly, "compose")])


@pytest.mark.parametrize("family", [1, 2, 3, 4, 5])
def test_families_table_runs_each_maker(tower, family):
    # the defaults (--q 5, n = 6, s = 1) with each family's parameter search,
    # printed as the maker's instance
    from scattered_lab import families as fam

    T = tower(5, 1, 6)
    makers = {
        1: lambda: fam.make_pseudoregulus(T, 1),
        2: lambda: fam.make_lp(T, 1, fam.find_lp_delta(T)),
        3: lambda: fam.make_family3(T, 1, fam.find_family3_delta(T, 1)),
        4: lambda: fam.make_family4(T, fam.find_family4_delta(T)),
        5: lambda: fam.make_psi(T, fam.find_psi_h(T, 3), 3, 1),
    }
    code, out, _ = run_cli(["families", "--family", str(family)])
    assert code == 0
    want = {"schema_version": cli.SCHEMA_VERSION, "field": T.spec(),
            "instance": makers[family]().to_json()}
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("family", [1, 2, 3, 5])
def test_families_refuse_s_outside_1_to_n(family):
    # s = -1 made q**s a float in make_psi (a raw TypeError), and families 3
    # and 5 echoed s = -1 or s = n + 1 as a valid instance
    n = 6
    for s in (-1, 0, n, n + 1):
        code, out, err = run_cli(["families", "--family", str(family), "--q", "5",
                                  "--n", str(n), "--s", str(s)])
        assert (code, out) == (1, ""), (family, s)
        assert json.loads(err)["error"]["code"] == "BadParams", (family, s, err)


def test_families_reads_an_explicit_t_0():
    # --t 0 read as "not given" printed the t = 3 instance of family 5
    code, out, err = run_cli(["families", "--family", "5", "--q", "5", "--n", "6", "--t", "0"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["code"] == "BadParams"
    # without --n, the field degree 2t = 0 is refused
    code, out, err = run_cli(["families", "--family", "5", "--q", "5", "--t", "0"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "DegreeTooLarge"


def test_families_generate_verb():
    code, out, _ = run_cli(["families", "generate", "--family", "1",
                            "--q", "5", "--n", "4", "--s", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["instance"]["family"] == 1
    assert doc["instance"]["predicted_stabilizer"]["order"] == 624


def test_non_scattered_stabilizer_report(specs):
    # f = x has a 3 en-dimensional solution space over F_p, reported like
    # any other non-scattered input, from the kernel dimension alone
    field, _, tmp = specs
    poly = tmp / "x.json"
    poly.write_text(json.dumps({"coeffs": ["1", "0", "0", "0"]}))
    code, out, _ = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", "stabilizer"])
    assert code == 0
    doc = json.loads(out)["tasks"]["stabilizer"]
    assert doc["field_order"] == 5**12 and doc["order"] == 5**12 - 1
    assert doc["verified_field"] is False and doc["unverified"] is True
    assert "note" not in doc and "solution_space_dim_over_Fp" not in doc


def test_shortcuts_print_what_analyze_prints(tmp_path):
    # each one-task subcommand is `analyze --tasks <task>`: the same stdout,
    # stderr and exit code on a scattered f, the zero polynomial, and inputs
    # that the tasks refuse, at n = 2 and on F_(2^40), a field without tables
    cases = [((5, 4), ["0", "1", "0", "0"]), ((5, 4), ["0"] * 4), ((5, 2), ["0", "1"]),
             ((2, 40), ["0", "g^0"] + ["0"] * 38)]
    codes = set()
    for i, ((p, n), coeffs) in enumerate(cases):
        field, poly = tmp_path / f"field{i}.json", tmp_path / f"poly{i}.json"
        field.write_text(json.dumps({"p": p, "e": 1, "n": n, "seed": 0}))
        poly.write_text(json.dumps({"coeffs": coeffs}))
        common = ["--field", str(field), "--poly", str(poly)]
        for task in cli.TASKS:
            shortcut = run_cli([task, *common])
            assert shortcut == run_cli(["analyze", *common, "--tasks", task]), (p, n, task)
            codes.add(shortcut[0])
    assert codes == {0, 1, 2}


def test_n2_scattered_input_refused_as_hall_case(tmp_path):
    # x^q over F_(5^2) is scattered, but its solution set is no field at
    # n = 2: stabilizer, standard-form and equiv refuse it before any solve
    field = tmp_path / "f5n2.json"
    field.write_text(json.dumps({"p": 5, "e": 1, "n": 2, "seed": 0}))
    poly = tmp_path / "xq.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1"]}))
    for argv in (["stabilizer", "--field", str(field), "--poly", str(poly)],
                 ["standard-form", "--field", str(field), "--poly", str(poly)],
                 ["equiv", "--field", str(field), str(poly), str(poly)]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "HallCase"
    # non-scattered input keeps its unverified report
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"coeffs": ["1", "0"]}))
    code, out, _ = run_cli(["stabilizer", "--field", str(field), "--poly", str(x)])
    assert code == 0
    assert json.loads(out)["tasks"]["stabilizer"]["unverified"] is True


def test_standard_form_task_reports_not_in_s(tmp_path):
    # LP x^q + delta x^(q^4) at (5,5) has |G_f| = q - 1: no standard form
    field = tmp_path / "f5n5.json"
    field.write_text(json.dumps({"p": 5, "e": 1, "n": 5, "seed": 0}))
    poly = tmp_path / "lp.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1", "0", "0", "g^1"]}))
    code, out, _ = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", "scatter,stabilizer,standard-form"])
    assert code == 0
    tasks = json.loads(out)["tasks"]
    assert tasks["scatter"]["scattered"] is True
    assert tasks["stabilizer"]["t"] == 1
    assert tasks["standard-form"] == {"error": "NotInS"}


def test_analyze_refuses_table_less_field(tmp_path, monkeypatch):
    # 2^24 elements is above the exp/log table bound: the census refuses up
    # front instead of scanning F_{q^n}^* in generic arithmetic, and the mrd
    # task refuses before min_distance runs
    field = tmp_path / "f2n24.json"
    field.write_text(json.dumps({"p": 2, "e": 1, "n": 24, "seed": 0}))
    poly = tmp_path / "frobenius.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1"] + ["0"] * 22}))

    def not_reached(*args, **kwargs):
        raise AssertionError("min_distance ran before the refusal")

    monkeypatch.setattr(mrd, "min_distance", not_reached)
    for tasks in (["--tasks", "scatter"], ["--tasks", "mrd"]):
        start = time.perf_counter()
        code, out, err = run_cli(["analyze", "--field", str(field), "--poly", str(poly)]
                                 + tasks)
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "TooLarge"


def test_analyze_refuses_the_largest_field_before_echoing_the_poly(tmp_path):
    # the report echoes the coefficients as g^k, a discrete log each, which
    # on F_(2^40) took longer than the refusal; the tasks now run first
    field = tmp_path / "f2n40.json"
    field.write_text(json.dumps({"p": 2, "e": 1, "n": 40, "seed": 0}))
    poly = tmp_path / "frobenius.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1"] + ["0"] * 38}))
    start = time.perf_counter()
    code, out, err = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                              "--tasks", "scatter,stabilizer,standard-form,mrd,plane"])
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "TooLarge"


def test_scatter_oracle(specs):
    # (5,4) has 156 projective classes: the naive scan runs and agrees.  psi at
    # (5,6) has 3906, about 7.6 M pairs: the report says null at once
    # instead of looping for minutes
    field, poly, tmp = specs
    code, out, _ = run_cli(["scatter", "--field", str(field), "--poly", str(poly),
                            "--oracle"])
    assert code == 0
    doc = json.loads(out)["tasks"]["scatter"]["linear_set"]
    assert doc["oracle_agrees"] is True and "oracle_note" not in doc
    field = tmp / "f5n6.json"
    field.write_text(json.dumps({"p": 5, "e": 1, "n": 6, "seed": 0}))
    poly = tmp / "psi.json"
    poly.write_text(json.dumps({"coeffs": GOLDEN_CASES["psi_5_6"][1]}))
    start = time.perf_counter()
    code, out, _ = run_cli(["scatter", "--field", str(field), "--poly", str(poly),
                            "--oracle"])
    assert time.perf_counter() - start < 10
    assert code == 0
    tasks = json.loads(out)["tasks"]["scatter"]
    assert tasks["scattered"] is True
    assert tasks["linear_set"]["oracle_agrees"] is None
    assert tasks["linear_set"]["oracle_note"]


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "pseudoregulus_5_4": ((5, 4), ["0", "1", "0", "0"]),
    "lp_5_4": ((5, 4), ["0", "g^0", "0", "g^1"]),
    "lp_7_4": ((7, 4), ["0", "g^0", "0", "g^1"]),
    "psi_5_6": ((5, 6), ["0", "g^0", "g^0", "0", "g^372", "g^9424"]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_analyze_matches_golden_report(name, tmp_path):
    # golden files hold the five-task report of an earlier, enumerative
    # implementation of the mrd and plane tasks; the output must not move
    (p, n), coeffs = GOLDEN_CASES[name]
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"p": p, "e": 1, "n": n, "seed": 0}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": coeffs}))
    code, out, _ = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", "scatter,stabilizer,standard-form,mrd,plane"])
    assert code == 0
    assert out == (GOLDEN / f"analyze_{name}.json").read_text()


def test_analyze_builds_the_linear_set_once(tmp_path, monkeypatch):
    # the scatter task builds the linear set once; the stabilizer task reads none
    calls = []
    build = scatter.linear_set

    def counted(f):
        calls.append(f.coeffs)
        return build(f)

    monkeypatch.setattr(cli, "linear_set", counted)
    monkeypatch.setattr(scatter, "linear_set", counted)
    (p, n), coeffs = GOLDEN_CASES["psi_5_6"]
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"p": p, "e": 1, "n": n, "seed": 0}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": coeffs}))
    golden = json.loads((GOLDEN / "analyze_psi_5_6.json").read_text())
    for tasks, builds in (("scatter,stabilizer,standard-form,mrd,plane", 1), ("stabilizer", 0)):
        calls.clear()
        code, out, _ = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                                "--tasks", tasks])
        assert code == 0
        assert json.loads(out)["tasks"] == {t: golden["tasks"][t] for t in tasks.split(",")}
        assert len(calls) == builds, tasks


def test_scatter_task_reads_no_slope_codes(tmp_path, monkeypatch):
    # without --emit-points the report reads the census's slope count only:
    # the slope codes are never gathered
    def refuse(self):
        raise AssertionError("the slope codes were gathered")

    monkeypatch.setattr(scatter.LinearSet, "slopes", property(refuse))
    (p, n), coeffs = GOLDEN_CASES["psi_5_6"]
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"p": p, "e": 1, "n": n, "seed": 0}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": coeffs}))
    golden = json.loads((GOLDEN / "analyze_psi_5_6.json").read_text())
    code, out, _ = run_cli(["analyze", "--field", str(field), "--poly", str(poly),
                            "--tasks", "scatter"])
    assert code == 0
    assert json.loads(out)["tasks"] == {"scatter": golden["tasks"]["scatter"]}


def test_equivalent_pair_runs_no_census_on_g(tmp_path, monkeypatch):
    # a GL witness conjugates G_g onto G_f: g's class-S flag is f's, and
    # neither the equivalence test nor the report takes g's census; a pair
    # that is not equivalent reports g's own flag
    censused = []
    census = scatter.slope_census

    def recorded(h):
        censused.append(h.coeffs)
        return census(h)

    monkeypatch.setattr(scatter, "slope_census", recorded)
    T4, T5 = make_field(5, 1, 4), make_field(5, 1, 5)
    lp4, lp5 = (make_lp(T, 1, find_lp_delta(T)).poly for T in (T4, T5))
    cases = [(lp4, image_polynomial(lp4, Mat2(T4, 3, 5, 8, 13)), True, [True, True]),
             (lp5, LinearizedPoly.monomial(T5, 1), False, [False, True])]
    for f, g, equivalent, in_class_S in cases:
        censused.clear()
        paths = []
        for name, doc in (("field", f.tower.spec()), ("f", f.to_json()),
                          ("g", g.to_json())):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        code, out, _ = run_cli(["equiv", "--field", *map(str, paths)])
        assert code == 0
        doc = json.loads(out)
        assert doc["equiv"]["equivalent"] is equivalent and doc["in_class_S"] == in_class_S
        assert f.coeffs in censused and (g.coeffs in censused) is not equivalent


def _src_env():
    """The environment of a fresh process that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _fresh_analyze(field, poly, forbidden):
    """Run a five-task analyze in a fresh process that fails if it imported
    the module `forbidden`; the parsed report."""
    script = ("import sys\n"
              "from scattered_lab.cli import main\n"
              f"code = main(['analyze', '--field', {str(field)!r}, '--poly', {str(poly)!r},\n"
              "             '--tasks', 'scatter,stabilizer,standard-form,mrd,plane'])\n"
              f"assert {forbidden!r} not in sys.modules, {forbidden!r} + ' was imported'\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert set(doc["tasks"]) == {"scatter", "stabilizer", "standard-form", "mrd", "plane"}
    return doc


def test_analyze_process_never_imports_sympy(specs):
    # primality and prime divisors are stdlib code, so a fresh five-task
    # analyze process does not load sympy
    field, poly, _ = specs
    _fresh_analyze(field, poly, "sympy")


def test_analyze_process_never_imports_numpy_ma(tmp_path):
    # numpy.ma is imported by the first np.unique call, a cost every fresh
    # report process would pay; the five tasks use no np.unique
    field = tmp_path / "f5n6.json"
    field.write_text(json.dumps({"p": 5, "e": 1, "n": 6, "seed": 0}))
    poly = tmp_path / "pseudoregulus.json"
    poly.write_text(json.dumps({"coeffs": ["0", "1", "0", "0", "0", "0"]}))
    doc = _fresh_analyze(field, poly, "numpy.ma")
    assert doc["tasks"]["plane"]["axes_coaxes_exchanged"] is True


def test_analyze_process_never_imports_hashlib(tmp_path):
    # hashlib loads OpenSSL; the report carries no hash, so no task needs it
    (p, n), coeffs = GOLDEN_CASES["psi_5_6"]
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"p": p, "e": 1, "n": n, "seed": 0}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": coeffs}))
    doc = _fresh_analyze(field, poly, "hashlib")
    assert doc == json.loads((GOLDEN / "analyze_psi_5_6.json").read_text())


def test_analyze_process_imports_no_families_selftest_or_dataclasses(tmp_path):
    # a five-task analyze builds no family and runs no criterion, and the
    # library's records are plain classes: -X importtime lists what was loaded
    (p, n), coeffs = GOLDEN_CASES["psi_5_6"]
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"p": p, "e": 1, "n": n, "seed": 0}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"coeffs": coeffs}))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "scattered_lab.cli", "analyze",
         "--field", str(field), "--poly", str(poly),
         "--tasks", "scatter,stabilizer,standard-form,mrd,plane"],
        capture_output=True, text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "scattered_lab.plane" in imported
    assert not imported & {"scattered_lab.families", "scattered_lab.selftest", "dataclasses"}
    assert proc.stdout == (GOLDEN / "analyze_psi_5_6.json").read_text()


# the package's public names before the families names were loaded on use
PACKAGE_ALL = [
    "EquivalenceResult", "FamilyInstance", "FieldTower", "HomologyReport", "LinearSet",
    "LinearizedPoly", "Mat2", "MatrixField", "PseudoregulusCase", "ReducibilityWitness",
    "ScatteredLabError", "Spread",
    "StandardFormResult", "build_spread", "canonicalize", "catalog",
    "classify_central_collineations", "compute_stabilizer", "diagonalize", "errors",
    "families", "field_from_json", "field_tower", "find_family3_delta", "find_family4_delta",
    "find_lp_delta", "find_psi_h", "gammal_equivalent", "gl_equivalent", "is_scattered",
    "is_scattered_naive", "kernel_scalar_audit", "linear_collineations", "linear_set",
    "linearized", "make_family3", "make_family4", "make_field", "make_lp", "make_pseudoregulus",
    "make_psi", "min_distance", "min_distance_naive", "mrd", "plane", "psi_standard_form_closed",
    "psi_theta", "reducibility_witness", "right_idealizer", "scatter", "semilinear_part_audit",
    "slope_census", "stabilizer", "standard_form", "to_standard_form", "verify_field",
    "verify_spread_axioms",
]


def test_package_loads_families_on_first_use():
    script = ("import sys\n"
              "import scattered_lab\n"
              "assert 'scattered_lab.families' not in sys.modules\n"
              "print(scattered_lab.__all__)\n"
              "from scattered_lab import catalog\n"
              "from scattered_lab.families import catalog as defined, make_psi\n"
              "assert catalog is defined and scattered_lab.make_psi is make_psi\n"
              "assert scattered_lab.families is sys.modules['scattered_lab.families']\n"
              "assert not hasattr(scattered_lab, 'make_nothing')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{PACKAGE_ALL}\n"


def test_main_freezes_the_import_heap_once(specs):
    field, poly, _ = specs
    args = ["analyze", "--field", str(field), "--poly", str(poly),
            "--tasks", "scatter,stabilizer,standard-form,mrd,plane"]
    _, first, _ = run_cli(args)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    _, second, _ = run_cli(args)
    assert gc.get_freeze_count() == frozen
    assert second == first
