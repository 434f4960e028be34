"""Command-line front end: deterministic JSON reports over field/poly specs.

Subcommands: analyze, its one-task shortcuts (scatter, stabilizer,
standard-form, mrd, plane), equiv, families, selftest.  All reports carry
schema_version 3, echo the field spec, and emit field elements as "g^k"
strings ordered canonically, so identical inputs (and seed) produce
byte-identical output.  Exit codes: 0 success, 2 refused precondition
(SmallQ, HallCase, TooLarge, ...), 1 any other error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import mrd, plane
from .errors import NotInS, ParseError, RefusedPrecondition, ScatteredLabError
from .field_tower import field_from_json
from .linearized import LinearizedPoly
from .scatter import is_scattered, is_scattered_naive, linear_set
from .stabilizer import compute_stabilizer, diagonalize
from .standard_form import gammal_equivalent, gl_equivalent, to_standard_form

SCHEMA_VERSION = 3


def _load_json(path):
    # ValueError covers UnicodeDecodeError and JSONDecodeError; RecursionError
    # is a document nested past the parser's recursion limit
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_field(path):
    return field_from_json(_load_json(path))


def _load_poly(tower, path):
    doc = _load_json(path)
    coeffs = doc.get("coeffs") if isinstance(doc, dict) else None
    if not isinstance(coeffs, list) or len(coeffs) != tower.n:
        raise ParseError(f"{path}: polynomial needs a list of exactly n={tower.n} coefficients")
    return LinearizedPoly.from_json(tower, doc)


def _emit(doc, stream=None):
    json.dump(doc, stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


def _task_scatter(T, f, args):
    ls = linear_set(f)
    doc = ls.to_json(emit_points=args.emit_points)
    if args.oracle:
        try:
            doc["oracle_agrees"] = bool(is_scattered_naive(f) == ls.scattered)
        except RefusedPrecondition:
            doc["oracle_agrees"] = None
            doc["oracle_note"] = "too many projective class pairs for the pairwise scan"
    return {"scattered": ls.scattered, "linear_set": doc}


def _task_stabilizer(T, f, args):
    Mf = compute_stabilizer(f)
    doc = {
        "order": Mf.group_order,
        "field_order": Mf.order,
        "verified_field": Mf.verified,
    }
    if Mf.verified:
        # f is scattered: verify_field certified G_f by its diagonal form
        doc.update(t=Mf.t, generator=Mf.generator.to_json(), diagonalized=True,
                   s=0, transversals=None)
        if Mf.t > 1:
            dg = diagonalize(Mf)
            doc["s"] = dg.s
            doc["transversals"] = [[T.format_code(c) for c in pt] for pt in dg.eigen_points]
    else:
        doc["unverified"] = True
    return doc


def _task_standard_form(T, f, args):
    try:
        return to_standard_form(f).to_json()
    except NotInS as exc:
        # |G_f| = q - 1: no standard form exists, which is an answer
        return {"error": exc.code}


def _task_mrd(T, f, args):
    """Minimum distance and right idealizer of C_f.  For scattered f,
    matches_stabilizer is True with nothing to compare: I_R is the one-to-one
    image of G_f with zero (`mrd.verify_idealizer_field`); otherwise None."""
    # the census in min_distance needs tables: refuse up front, naming the task
    T.require_tables("the mrd task")
    d = mrd.min_distance(f)
    doc = {
        "min_distance": d,
        # a degenerate f = c x spans a code of dimension 1
        "is_mrd": bool(d == T.n - 1 and any(f.coeffs[1:])),
        "mode": "exact",
        "right_idealizer_order": T.p ** len(mrd.right_idealizer(f)),
        "matches_stabilizer": True if is_scattered(f) else None,
    }
    if args.oracle:
        try:
            doc["oracle_min_distance"] = mrd.min_distance_naive(f)
        except RefusedPrecondition:
            doc["oracle_min_distance"] = None
            doc["oracle_note"] = "field too large for full q^(2n) enumeration"
    return doc


def _task_plane(T, f, args):
    hr = plane.classify_central_collineations(f)
    doc = hr.to_json(T)
    try:
        w = plane.reducibility_witness(f)
        doc["andre_witness"] = w.to_json(T)
    except NotInS as exc:
        # G_f is scalar: no witness exists, which is an answer
        doc["andre_witness"] = {"error": exc.code}
    return doc


# each task maps (T, f, args) to its JSON report
TASKS = {
    "scatter": _task_scatter,
    "stabilizer": _task_stabilizer,
    "standard-form": _task_standard_form,
    "mrd": _task_mrd,
    "plane": _task_plane,
}


def cmd_analyze(args):
    T = _load_field(args.field)
    f = _load_poly(T, args.poly)
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    if not tasks:
        raise ParseError("empty task list")
    for t in tasks:
        if t not in TASKS:
            raise ParseError(f"unknown task {t!r}; choose from {', '.join(TASKS)}")
    _emit({
        "schema_version": SCHEMA_VERSION,
        "field": T.spec(),
        "tasks": {t: TASKS[t](T, f, args) for t in tasks},
        # echoed after the tasks: on a field without tables the echo takes a
        # discrete log per coefficient, and the tasks refuse such a field first
        "poly": f.to_json()["coeffs"],
    })
    return 0


def cmd_equiv(args):
    T = _load_field(args.field)
    f = _load_poly(T, args.f)
    g = _load_poly(T, args.g)
    res = gammal_equivalent(f, g) if args.mode == "gammal" else gl_equivalent(f, g)
    # both inputs are scattered: the tests refused any other.  An equivalence
    # conjugates G_g onto G_f, so only a "not equivalent" answer reads G_g
    t_f = compute_stabilizer(f).t
    t_g = t_f if res.equivalent else compute_stabilizer(g).t
    _emit({
        "schema_version": SCHEMA_VERSION,
        "field": T.spec(),
        "equiv": res.to_json(),
        "in_class_S": [t_f > 1, t_g > 1],
    })
    return 0


def _element_or(T, text, find, *params):
    """The element `text` of the command line, or find(T, *params) when none is given."""
    return T.parse_element(text) if text else find(T, *params)


# each family number maps (the families module, T, args) to its instance;
# the module is imported only by the families command
FAMILIES = {
    1: lambda fam, T, a: fam.make_pseudoregulus(T, a.s),
    2: lambda fam, T, a: fam.make_lp(T, a.s, _element_or(T, a.delta, fam.find_lp_delta)),
    3: lambda fam, T, a: fam.make_family3(
        T, a.s, _element_or(T, a.delta, fam.find_family3_delta, a.s)),
    4: lambda fam, T, a: fam.make_family4(T, _element_or(T, a.delta, fam.find_family4_delta)),
    5: lambda fam, T, a: fam.make_psi(T, _element_or(T, a.h, fam.find_psi_h, a.t), a.t, a.s),
}


def cmd_families(args):
    from . import families as fam

    if args.field is None and args.n is None:
        args.n = 6 if args.t is None else 2 * args.t
    T = field_from_json({"p": args.q_prime, "e": args.e, "n": args.n, "seed": args.seed}) \
        if args.field is None else _load_field(args.field)
    if args.t is None:
        args.t = T.n // 2      # family 5's subfield degree
    inst = FAMILIES[args.family](fam, T, args)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": T.spec(),
        "instance": inst.to_json(),
    }
    if args.verify:
        Mf = compute_stabilizer(inst.poly)
        doc["verified"] = {
            "scattered": Mf.verified,
            "stabilizer_order": Mf.group_order,
            "matches_prediction": inst.matches(Mf),
        }
    _emit(doc)
    return 0


def cmd_selftest(args):
    from . import selftest

    results = selftest.run_all(quick=args.quick)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a ParseError, reported like every other error."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="scattered-lab",
        description="Scattered linearized polynomials: stabilizers, standard forms, "
                    "MRD codes and translation-plane structure.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--field", required=True, help="field spec JSON file")
        p.add_argument("--poly", required=True, help="polynomial JSON file")
        p.add_argument("--emit-points", action="store_true")
        p.add_argument("--oracle", action="store_true",
                       help="cross-check with the naive quadratic algorithms")

    p = sub.add_parser("analyze", help="run a comma-separated list of tasks")
    add_common(p)
    p.add_argument("--tasks", required=True,
                   help=f"subset of: {','.join(TASKS)}")
    p.set_defaults(fn=cmd_analyze)

    # the scatter shortcut is listed last in --help
    for task in sorted(TASKS, key="scatter".__eq__):
        p = sub.add_parser(task, help=f"shortcut for analyze --tasks {task}")
        add_common(p)
        p.set_defaults(fn=cmd_analyze, tasks=task)

    p = sub.add_parser("equiv", help="GL or GammaL equivalence of two polynomials")
    p.add_argument("--field", required=True)
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--mode", choices=["gl", "gammal"], default="gl")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("families", help="generate a catalog instance")
    p.add_argument("action", nargs="?", default="generate", choices=["generate"])
    p.add_argument("--family", type=int, required=True, choices=list(FAMILIES))
    p.add_argument("--field", default=None)
    p.add_argument("--q", dest="q_prime", type=int, default=5,
                   help="prime p when no field file is given")
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--n", type=int, default=None, required=False)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--delta", default=None)
    p.add_argument("--h", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None):
    """Run one command; the exit code.

    The first call in a process freezes everything allocated so far
    (`gc.freeze`): the interpreter's, numpy's and this library's
    import-time objects.  Neither a collection during the command nor the
    full one at interpreter exit traverses that heap again; in a fresh
    analyze process the time from the first tower to exit fell from about
    37 to 10 ms.  Objects the command creates stay collectable.  What a
    caller allocated before its first call is frozen with the rest; a later
    call in the same process freezes nothing more.
    """
    if not gc.get_freeze_count():
        gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ScatteredLabError as exc:
        _emit({"schema_version": SCHEMA_VERSION,
               "error": {"code": exc.code, "message": str(exc)}}, sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
