"""Child process of the benchmark; run.py starts at most one at a time.

  worker.py analyze --trace 0|1 -- <scattered-lab arguments>
      one CLI run, exactly as `scattered-lab` would do it, with the time its
      first field tower was ready (and, traced, the layer spans) written as
      the last line of stderr;
  worker.py round --workload W --inputs FILE --trace 0|1
      import the program, build the workload's towers, then time its
      operations one by one and check the answers; prints one JSON line;
  worker.py warmup
      import the program and build one small tower, untimed, so that the
      timed processes start with the interpreter's files in the page cache.

Times are CLOCK_MONOTONIC readings (time.monotonic), which the parent
process shares, so set-up is measured from the parent's spawn.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from checks import (check_equivalence, check_kernel_audit, check_semilinear_audit,
                    check_sf_witness, check_spread, check_stabilizer, check_standard_form,
                    check_verdict, stabilizer_order, support_of)
from gf import GF, mat_det, point_maps_into

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _start_tracer(trace: bool):
    if not trace:
        return None
    import scattered_lab  # noqa: F401  (the tracer wraps loaded modules)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def cmd_analyze(argv, trace: bool) -> int:
    tracer = _start_tracer(trace)
    from scattered_lab import cli, field_tower

    ready = []
    build = field_tower.make_field

    def make_field(*args, **kwargs):
        tower = build(*args, **kwargs)
        if not ready:
            ready.append(time.monotonic())
        return tower

    field_tower.make_field = make_field
    try:
        rc = cli.main(argv)
    except Exception:   # a crash is a failed operation; the parent still needs the timing line
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    sys.stderr.write(json.dumps({"ready": ready[0] if ready else None,
                                 "trace": tracer.snapshot() if tracer else None}) + "\n")
    return rc


# -- in-process workloads ------------------------------------------------------


def build_towers(sl, inputs) -> dict:
    return {(f["p"], f["n"]): sl.make_field(f["p"], 1, f["n"], modulus=f["modulus"])
            for f in inputs["fields"]}


def _poly(sl, T, coeffs):
    return sl.LinearizedPoly(T, [T.parse_element(c) if isinstance(c, str) else c
                                 for c in coeffs])


def _mat(M):
    return (M.a, M.b, M.c, M.d)


def _stabilizer(sl, f):
    G = sl.compute_stabilizer(f)
    return G.group_order, G.t


def _standard_form(sl, f):
    r = sl.to_standard_form(f)
    return r.s, r.t, r.h.coeffs, _mat(r.P)


def screen(sl, f, source=None) -> dict:
    """The screening chain of a search: scattered? then G_f, then the standard
    form when t > 1, then (for images) equivalence with the source."""
    rec = {"scattered": sl.is_scattered(f)}
    if rec["scattered"]:
        rec["order"], rec["t"] = _stabilizer(sl, f)
        if rec["t"] > 1:
            rec["sf"] = _standard_form(sl, f)
    if source is not None:
        eq = sl.gl_equivalent(f, source)
        rec["equivalent"] = eq.equivalent
        rec["W"] = _mat(eq.witness) if eq.witness is not None else None
    return rec


def _oracles(inputs) -> dict:
    return {(f["p"], f["n"]): GF(f["p"], f["n"], f["modulus"]) for f in inputs["fields"]}


def _check_screen(F, f_coeffs, rec) -> list:
    q, n = F.p, F.n
    out = check_stabilizer(q, n, rec["order"], rec["t"])
    if "sf" in rec:
        s, t, h, P = rec["sf"]
        out += check_standard_form(rec["t"], s, t, support_of(h))
        out += check_sf_witness(F, f_coeffs, P, h)
    elif rec["t"] > 1:
        out.append("no standard form computed for t > 1")
    return out


def sweep_ops(sl, towers, inputs):
    from scattered_lab.standard_form import image_polynomial

    ops, checks = [], []
    oracles = _oracles(inputs)
    for item in inputs["random"]:
        key = (item["q"], item["n"])
        f = _poly(sl, towers[key], item["coeffs"])

        def check(rec, item=item, key=key):
            F = oracles[key]
            out = check_verdict(F, item["coeffs"], rec["scattered"], item["scattered"],
                                pairwise=key == (3, 4))
            if rec["scattered"]:
                out += _check_screen(F, item["coeffs"], rec)
            return out

        ops.append((f"random{key}", lambda f=f: screen(sl, f)))
        checks.append(check)
    rng = random.Random(inputs["w_seed"])
    families = {1: "pseudoregulus", 2: "lp", 3: "family3", 4: "family4", 5: "psi"}
    for q, n in inputs["image_fields"]:
        T, F = towers[(q, n)], oracles[(q, n)]
        for inst in sl.catalog(T):
            src = inst.poly
            while True:
                W = tuple(rng.randrange(T.size) for _ in range(4))
                if mat_det(F, W) == 0:
                    continue
                try:
                    g = image_polynomial(src, sl.Mat2(T, *W))
                except sl.ScatteredLabError:   # x a + f(x) c not bijective: redraw
                    continue
                break
            family = families[inst.family_id]

            def check(rec, src=src, g=g, W=W, F=F, family=family):
                out = []
                if not point_maps_into(F, src.coeffs, W, g.coeffs):
                    out.append("input image is not U_f W")
                if rec["scattered"] is not True:
                    return out + ["image of a scattered polynomial not scattered"]
                out += _check_screen(F, g.coeffs, rec)
                expected = stabilizer_order(family, F.p, F.n)
                if rec["order"] != expected:
                    out.append(f"image |G| = {rec['order']}, source family gives {expected}")
                if rec.get("sf", (0, 0, None))[2] != sl.to_standard_form(src).h.coeffs:
                    out.append("image and source have different canonical standard forms")
                out += check_equivalence(F, g.coeffs, src.coeffs, rec["equivalent"], rec["W"])
                return out

            ops.append((f"image{(q, n)}:{family}", lambda g=g, src=src: screen(sl, g, src)))
            checks.append(check)
    return ops, checks


def bigfield_ops(sl, towers, inputs):
    ops, checks = [], []
    oracles = _oracles(inputs)
    for item in inputs["polys"]:
        q, n = item["q"], item["n"]
        T, F = towers[(q, n)], oracles[(q, n)]
        f = _poly(sl, T, item["coeffs"])
        expected = (stabilizer_order(item["family"], q, n), 2)

        def check_sf(v, f=f, F=F):
            s, t, h, P = v
            # every exponent of psi (s, s(t-1), s(t+1), s(2t-1) with s odd) and
            # of LP (s and n - s, s odd, n even) is odd: the class s = 1 mod t = 2
            out = [] if (s, t) == (1, 2) else [f"(s, t) = {(s, t)}, closed form (1, 2)"]
            out += check_standard_form(2, s, t, support_of(h))
            return out + check_sf_witness(F, f.coeffs, P, h)

        label = f"{item['family']}{(q, n)}"
        ops += [(f"is_scattered:{label}", lambda f=f: sl.is_scattered(f)),
                (f"compute_stabilizer:{label}", lambda f=f: _stabilizer(sl, f)),
                (f"to_standard_form:{label}", lambda f=f: _standard_form(sl, f))]
        checks += [lambda v: [] if v is True else ["not scattered"],
                   lambda v, e=expected: [] if v == e else [f"(|G_f|, t) = {v}, closed form {e}"],
                   check_sf]
    return ops, checks


def audit_ops(sl, towers, inputs):
    ops, checks = [], []
    for item in inputs["polys"]:
        q, n = item["q"], item["n"]
        f = _poly(sl, towers[(q, n)], item["coeffs"])
        label = f"{item['family']}{(q, n)}"
        ops += [(f"verify_spread_axioms:{label}",
                 lambda f=f: sl.verify_spread_axioms(sl.build_spread(f))),
                (f"kernel_scalar_audit:{label}", lambda f=f: sl.kernel_scalar_audit(f)),
                (f"semilinear_part_audit:{label}",
                 lambda f=f: sl.semilinear_part_audit(f, seed=inputs["semilinear_seed"]))]
        checks += [lambda v, q=q, n=n: check_spread(q, n, v), check_kernel_audit,
                   check_semilinear_audit]
    return ops, checks


OPS = {"sweep": sweep_ops, "bigfield": bigfield_ops, "audit": audit_ops}


def cmd_round(workload, inputs, trace) -> dict:
    tracer = _start_tracer(trace)
    import scattered_lab as sl

    towers = build_towers(sl, inputs)
    ready = time.monotonic()
    # spans cover the set-up and the timed operations, not the preparation of inputs
    setup_stats = tracer.snapshot() if tracer else None
    ops, checks = OPS[workload](sl, towers, inputs)
    if tracer:
        tracer.reset()
    results, times, failed = [], [], []
    clock = time.perf_counter
    start = clock()
    for label, op in ops:
        t0 = clock()
        try:
            results.append(op())
            times.append(clock() - t0)
        except Exception as exc:   # a failed operation has no time; the round goes on
            results.append(exc)
            times.append(None)
            failed.append(f"{label}: {type(exc).__name__}: {exc}")
    phase = clock() - start
    # peak memory of the set-up and the operations, before the checks add theirs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = None
    if tracer:
        from tracer import merge

        stats = merge(setup_stats, tracer.snapshot())
    failures = []
    for (label, _), check, res in zip(ops, checks, results):
        if isinstance(res, Exception):
            continue
        try:
            msgs = check(res)
        except Exception as exc:   # an answer of unexpected shape is a wrong answer
            msgs = [f"check raised {type(exc).__name__}: {exc}"]
        failures += [f"{label}: {msg}" for msg in msgs]
    return {"ready": ready, "op_times": times, "phase_s": phase, "rss_mb": rss_mb,
            "attempted": len(ops), "failed": failed, "failures": failures, "trace": stats}


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    if argv[0] == "warmup":
        import scattered_lab as sl

        sl.make_field(3, 1, 2)
        return 0
    if argv[0] == "analyze":
        sep = argv.index("--")
        return cmd_analyze(argv[sep + 1:], argv[argv.index("--trace") + 1] == "1")
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("mode", choices=["round"])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args(argv)
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    out = cmd_round(args.workload, inputs, args.trace == "1")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
