import gc
import json
import subprocess
import sys
import time

import pytest

from scattered_lab import _linalg, cli, mrd, scatter, stabilizer
from scattered_lab.families import find_lp_delta, find_psi_h, make_lp, make_pseudoregulus, make_psi
from scattered_lab.field_tower import make_field
from scattered_lab.linearized import LinearizedPoly
from scattered_lab.stabilizer import Mat2
from scattered_lab.standard_form import image_polynomial

import corpus
from corpus import capture


# x^q over F_(5^4), as committed in the corpus
FIELD = corpus.CORPUS / "fields/5_1_4.json"
XQ = corpus.CORPUS / "polys/5_1_4/family1_s1.json"


def test_emitted_poly_reparses(tmp_path):
    code, out, _ = capture(["standard-form", "--field", str(FIELD), "--poly", str(XQ)])
    assert code == 0
    doc = json.loads(out)
    h = doc["tasks"]["standard-form"]["h"]
    poly2 = tmp_path / "h.json"
    poly2.write_text(json.dumps({"coeffs": h}))
    code2, out2, _ = capture(["scatter", "--field", str(FIELD), "--poly", str(poly2)])
    assert code2 == 0
    assert json.loads(out2)["tasks"]["scatter"]["scattered"] is True


def test_equiv_cli():
    # x^{q^3} is the inverse-branch partner of x^q: GL-equivalent
    g = corpus.CORPUS / "polys/5_1_4/family1_s3.json"
    for mode in ([], ["--mode", "gammal"]):
        code, out, _ = capture(["equiv", "--field", str(FIELD), str(XQ), str(g), *mode])
        assert code == 0
        assert json.loads(out)["equiv"]["equivalent"] is True


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
    # e n coefficients were completed with a leading 1 to X^4 + 2
    ({"p": 5, "n": 4, "modulus": [2, 0, 0, 0]}, POLY_OK, "BadElement"),
    # int() read g^10, g^7, g^7 and g^12
    (FIELD_OK, {"coeffs": ["0", "g^1_0", "0", "0"]}, "BadElement"),
    (FIELD_OK, {"coeffs": ["0", "g^ 7", "0", "0"]}, "BadElement"),
    (FIELD_OK, {"coeffs": ["0", "g^+7", "0", "0"]}, "BadElement"),
    (FIELD_OK, {"coeffs": ["0", "g^\u0661\u0662", "0", "0"]}, "BadElement"),
], ids=["seed", "modulus-digit", "modulus-int", "generator", "coeffs-int",
        "coeff-digit-array", "coeffs-string", "modulus-string", "modulus-float",
        "modulus-out-of-range", "generator-out-of-range", "coeff-digit-out-of-range",
        "coeff-digit-float", "coeff-digit-negative", "coeff-digit-bool",
        "float-p-n-generator", "string-p-n-float-seed", "bool-e", "string-seed",
        "float-p", "string-n", "coeff-int-out-of-range", "generator-zero",
        "generator-zero-digits", "generator-field-size", "generator-wrapped",
        "generator-negative", "modulus-not-monic", "exponent-underscore", "exponent-space",
        "exponent-plus", "exponent-not-ascii"])
def test_malformed_spec_is_a_json_error(tmp_path, field, poly, error):
    field_path, poly_path = tmp_path / "field.json", tmp_path / "poly.json"
    field_path.write_text(json.dumps(field))
    poly_path.write_text(json.dumps(poly))
    code, out, err = capture(["scatter", "--field", str(field_path), "--poly", str(poly_path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["code"] == error


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
        code, out, err = capture(["analyze", "--field", str(field), "--poly", str(poly),
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
    code, out, _ = capture(["families", "--family", str(family)])
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
        code, out, err = capture(["families", "--family", str(family), "--q", "5",
                                  "--n", str(n), "--s", str(s)])
        assert (code, out) == (1, ""), (family, s)
        assert json.loads(err)["error"]["code"] == "BadParams", (family, s, err)


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
            shortcut = capture([task, *common])
            assert shortcut == capture(["analyze", *common, "--tasks", task]), (p, n, task)
            codes.add(shortcut[0])
    assert codes == {0, 1, 2}


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
        code, out, err = capture(["analyze", "--field", str(field), "--poly", str(poly)]
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
    code, out, err = capture(["analyze", "--field", str(field), "--poly", str(poly),
                              "--tasks", "scatter,stabilizer,standard-form,mrd,plane"])
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "TooLarge"


def test_scatter_oracle():
    # (5,4) has 156 projective classes: the naive scan runs and agrees.  psi at
    # (5,6) has 3906, about 7.6 M pairs: the report says null at once
    # instead of looping for minutes
    code, out, _ = capture(["scatter", "--field", str(FIELD), "--poly", str(XQ), "--oracle"])
    assert code == 0
    doc = json.loads(out)["tasks"]["scatter"]["linear_set"]
    assert doc["oracle_agrees"] is True and "oracle_note" not in doc
    field = corpus.CORPUS / "fields/5_1_6.json"
    poly = corpus.CORPUS / f"{GOLDEN['psi_5_6']}.json"
    start = time.perf_counter()
    code, out, _ = capture(["scatter", "--field", str(field), "--poly", str(poly),
                            "--oracle"])
    assert time.perf_counter() - start < 10
    assert code == 0
    tasks = json.loads(out)["tasks"]["scatter"]
    assert tasks["scattered"] is True
    assert tasks["linear_set"]["oracle_agrees"] is None
    assert tasks["linear_set"]["oracle_note"]


# the five-task reports of an earlier, enumerative implementation of the mrd
# and plane tasks, now corpus records; the output must not move
GOLDEN = {
    "pseudoregulus_5_4": "polys/5_1_4/family1_s1",
    "lp_5_4": "polys/5_1_4/family2",
    "lp_7_4": "polys/7_1_4/family2",
    "psi_5_6": "polys/5_1_6/family5",
}


def _golden_run(name, task, monkeypatch):
    """The command line of one task, or of the five (task None), on a golden
    polynomial, and (exit code, stdout) of it run in corpus/."""
    poly = GOLDEN[name]
    files = f"--field fields/{poly.split('/')[1]}.json --poly {poly}.json"
    line = f"analyze {files} --tasks {corpus.ALL_TASKS}" if task is None else f"{task} {files}"
    monkeypatch.chdir(corpus.CORPUS)
    code, out, _ = capture(line.split())
    return line, code, out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_matches_golden_report(name, expected, monkeypatch):
    line, code, out = _golden_run(name, None, monkeypatch)
    assert code == 0
    assert corpus._stream(out) == expected[line]["stdout"]


def test_analyze_builds_the_linear_set_once(expected, monkeypatch):
    # the scatter task builds the linear set once; the stabilizer task reads none
    calls = []
    build = scatter.linear_set

    def counted(f):
        calls.append(f.coeffs)
        return build(f)

    monkeypatch.setattr(cli, "linear_set", counted)
    monkeypatch.setattr(scatter, "linear_set", counted)
    for task, builds in ((None, 1), ("stabilizer", 0)):
        calls.clear()
        line, code, out = _golden_run("psi_5_6", task, monkeypatch)
        assert code == 0
        assert corpus._stream(out) == expected[line]["stdout"]
        assert len(calls) == builds, line


def test_five_task_analyze_computes_each_fact_once(expected, monkeypatch):
    # psi over F_(5^6) has 1 < t < n: the standard-form and plane tasks both
    # read the class solve h0, which runs once, and canonicalize adds the
    # inverse branch; the census and G_f are computed once for all five tasks
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(scatter, "class_values", counted("census", scatter.class_values))
    monkeypatch.setattr(stabilizer, "verify_field",
                        counted("verify_field", stabilizer.verify_field))
    of_pair = counted("pair kernel", stabilizer.MatrixField.of_pair)
    monkeypatch.setattr(stabilizer.MatrixField, "of_pair",
                        classmethod(lambda cls, f, g: of_pair(f, g)))
    monkeypatch.setattr(LinearizedPoly, "solve_on_class",
                        counted("class solve", LinearizedPoly.solve_on_class))
    line, code, out = _golden_run("psi_5_6", None, monkeypatch)
    assert code == 0
    assert corpus._stream(out) == expected[line]["stdout"]
    assert 1 < json.loads(out)["tasks"]["stabilizer"]["t"] < 6
    assert calls == {"census": 1, "pair kernel": 1, "verify_field": 1, "class solve": 2}


def test_scatter_task_reads_no_slope_codes(expected, monkeypatch):
    # without --emit-points the report reads the census's slope count only:
    # the slope codes are never gathered
    def refuse(self):
        raise AssertionError("the slope codes were gathered")

    monkeypatch.setattr(scatter.LinearSet, "slopes", property(refuse))
    line, code, out = _golden_run("psi_5_6", "scatter", monkeypatch)
    assert code == 0
    assert corpus._stream(out) == expected[line]["stdout"]


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
        code, out, _ = capture(["equiv", "--field", *map(str, paths)])
        assert code == 0
        doc = json.loads(out)
        assert doc["equiv"]["equivalent"] is equivalent and doc["in_class_S"] == in_class_S
        assert f.coeffs in censused and (g.coeffs in censused) is not equivalent


# the modules a fresh report process must not import: sympy (primality is
# stdlib code), numpy.ma (loaded by the first np.unique), hashlib (loads
# OpenSSL; a report carries no hash), the families and selftest modules (an
# analyze builds no family and runs no criterion) and dataclasses (the
# library's records are plain classes)
REPORT_UNNEEDED = {"sympy", "numpy.ma", "hashlib", "scattered_lab.families",
                   "scattered_lab.selftest", "dataclasses"}


def _fresh_imports(expected, line, needed, unneeded=REPORT_UNNEEDED):
    """Run one corpus command line in a fresh process under -X importtime,
    which lists on stderr every module the process loaded; check that it
    loaded `needed` and nothing of `unneeded`, and that the rest of its
    record is the command's corpus record.  Its stdout."""
    proc = corpus.fresh(line, "-X", "importtime")
    stderr = proc.stderr.decode().splitlines(keepends=True)
    imported = {row.rsplit("|", 1)[1].strip() for row in stderr
                if row.startswith("import time:")}
    assert needed in imported
    assert not {name for name in imported
                if any(name == m or name.startswith(m + ".") for m in unneeded)}
    errors = "".join(row for row in stderr if not row.startswith("import time:"))
    assert corpus._record(line, proc.returncode, proc.stdout.decode(), errors) == expected[line]
    return proc.stdout.decode()


def _analyze_line(poly):
    """The five-task analyze command line of a golden polynomial."""
    return (f"analyze --field fields/{poly.split('/')[1]}.json --poly {poly}.json "
            f"--tasks {corpus.ALL_TASKS}")


# each report process below is checked against all of REPORT_UNNEEDED; the
# test's name says which module its case was first written for


def test_analyze_process_never_imports_sympy(expected):
    _fresh_imports(expected, _analyze_line(GOLDEN["pseudoregulus_5_4"]), "scattered_lab.plane")


def test_analyze_process_never_imports_numpy_ma(expected):
    # t = n
    line = (f"analyze --field ci/f5n6.json --poly ci/pseudoregulus.json "
            f"--tasks {corpus.ALL_TASKS}")
    doc = json.loads(_fresh_imports(expected, line, "scattered_lab.plane"))
    assert doc["tasks"]["plane"]["axes_coaxes_exchanged"] is True


def test_analyze_process_never_imports_hashlib(expected):
    _fresh_imports(expected, _analyze_line(GOLDEN["lp_5_4"]), "scattered_lab.plane")


def test_analyze_process_imports_no_families_selftest_or_dataclasses(expected):
    # 1 < t < n
    out = _fresh_imports(expected, _analyze_line(GOLDEN["psi_5_6"]), "scattered_lab.plane")
    doc = json.loads(out)
    assert 1 < doc["tasks"]["stabilizer"]["t"] < 6


def test_selftest_process_never_imports_sympy(expected):
    _fresh_imports(expected, "selftest --quick", "scattered_lab.selftest", {"sympy"})


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
                          env=corpus.src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{PACKAGE_ALL}\n"


def test_main_freezes_the_import_heap_once():
    args = ["analyze", "--field", str(FIELD), "--poly", str(XQ), "--tasks", corpus.ALL_TASKS]
    _, first, _ = capture(args)
    frozen = gc.get_freeze_count()
    assert frozen > 0
    _, second, _ = capture(args)
    assert gc.get_freeze_count() == frozen
    assert second == first
