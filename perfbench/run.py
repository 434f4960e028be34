#!/usr/bin/env python3
"""The scattered-lab benchmark.

    python3 perfbench/run.py --workload report|sweep|bigfield|audit|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the program is imported from ./src.  Each
workload runs whole rounds of the same operations, as many as fit in
--seconds at the reference machine's pace (at least one), each round in
fresh child processes started one at a time, and checks every answer.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the workload runs one untraced and one traced
round and reports per-layer metrics and the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs as bench_inputs
import tracer
from checks import check_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("report", "sweep", "bigfield", "audit")
DEADLINE_S = 170          # a run must end within 180 s
# rounds per run at --seconds 45, scaled for other values, at least one.  A
# round lasts about report 18 s, sweep 6 s, bigfield 18 s and audit 11 s on
# the reference machine, whose speed drifts by up to 1.9x over seconds to
# minutes; the rounds spread each run over about 45 s to average that out.
SECONDS_REF = 45
ROUNDS = {"report": 3, "sweep": 7, "bigfield": 2, "audit": 4}
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


class Runner:
    """Starts the children of one run, one at a time, against a deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0

    def spawn(self, args) -> dict:
        """Run `python3 worker.py args`; wall time, set-up time, peak RSS, output."""
        self.count += 1
        out_path = self.workdir / f"child{self.count}.out"
        err_path = self.workdir / f"child{self.count}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"child {args[:3]} killed by signal {-proc.returncode}")
        return {"t0": t0, "wall": wall, "rc": proc.returncode,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out_path.read_text(), "stderr": err_path.read_text()}


def _last_json(text: str, what: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{what}: last line is not JSON: {lines[-1][:200]}") from exc


def report_round(runner: Runner, items: list, trace: bool) -> dict:
    """One analyze process per catalog instance."""
    rnd = {"op_times": [], "phase_s": 0.0, "setups": [], "rss": [], "attempted": 0,
           "failed": [], "failures": [], "trace": {}}
    for i, inp in enumerate(items):
        label = f"{inp['family']}({inp['q']},{inp['n']})"
        field = runner.workdir / f"field{i}.json"
        poly = runner.workdir / f"poly{i}.json"
        field.write_text(json.dumps({"p": inp["q"], "e": 1, "n": inp["n"], "seed": 0}))
        poly.write_text(json.dumps({"coeffs": inp["coeffs"]}))
        child = runner.spawn(["analyze", "--trace", "1" if trace else "0", "--",
                              "analyze", "--field", str(field), "--poly", str(poly),
                              "--tasks", inp["tasks"]])
        info = _last_json(child["stderr"], f"analyze {label}")
        rnd["attempted"] += 1
        rnd["phase_s"] += child["wall"]
        rnd["rss"].append(child["rss_mb"])
        if info.get("ready") is not None:
            rnd["setups"].append(info["ready"] - child["t0"])
        if info.get("trace"):
            tracer.merge(rnd["trace"], info["trace"])
        if child["rc"] != 0:   # a failed operation has no time
            rnd["op_times"].append(None)
            rnd["failed"].append(f"{label}: exit {child['rc']}: {child['stderr'][:300]}")
            continue
        rnd["op_times"].append(child["wall"])
        try:
            msgs = check_report(inp, json.loads(child["stdout"]))
        except (ValueError, AttributeError, TypeError) as exc:
            msgs = [f"unreadable report: {exc}"]
        rnd["failures"] += [f"{label}: {msg}" for msg in msgs]
    return rnd


def worker_round(runner: Runner, workload: str, inputs_path: Path, trace: bool) -> dict:
    child = runner.spawn(["round", "--workload", workload,
                          "--inputs", str(inputs_path), "--trace", "1" if trace else "0"])
    if child["rc"] != 0:
        raise BenchError(f"{workload} worker exited {child['rc']}: {child['stderr'][-2000:]}")
    res = _last_json(child["stdout"], f"{workload} worker")
    # the worker's own peak before its answer checks, not the child's whole life
    return {"setups": [res["ready"] - child["t0"]], "rss": [res["rss_mb"]],
            "op_times": res["op_times"], "phase_s": res["phase_s"],
            "attempted": res["attempted"], "failed": res["failed"],
            "failures": res["failures"], "trace": res["trace"] or {}}


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """(result line, wrong answers, failed operations, per-round operation
    times) of one run."""
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, time.monotonic() + DEADLINE_S)
        data = bench_inputs.MAKERS[workload](seed)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(data))

        def one_round(traced: bool) -> dict:
            if workload == "report":
                return report_round(runner, data, traced)
            return worker_round(runner, workload, inputs_path, traced)

        warm = runner.spawn(["warmup"])
        if warm["rc"] != 0:
            raise BenchError(f"warm-up exited {warm['rc']}: {warm['stderr'][-2000:]}")
        if trace:
            rounds = [one_round(False), one_round(True)]
        else:
            # a fixed round count per workload, so that every run does the
            # same work however busy the machine is
            n_rounds = max(1, round(seconds * ROUNDS[workload] / SECONDS_REF))
            rounds = [one_round(False) for _ in range(n_rounds)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for r in rounds for f in r["failures"]]
    failed = [f for r in rounds for f in r["failed"]]
    result = {"correct": not failures,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": len(failed)}
    if trace:
        untraced, traced = rounds
        metrics = {name: {"value": value, "unit": unit} for (name, unit), value in zip(
            tracer.metric_names(), tracer.per_layer(traced["trace"]).values())}
        metrics["trace.overhead_s"] = {"value": traced["phase_s"] - untraced["phase_s"],
                                       "unit": "s"}
    else:
        # every completed operation of every round; failed operations have
        # no time, so failing fast is no gain
        op_times = [t for r in rounds for t in r["op_times"] if t is not None]
        if not op_times:
            raise BenchError("every operation failed")
        values = {
            "setup_s": statistics.median(s for r in rounds for s in r["setups"]),
            "ops_per_s": len(op_times) / sum(op_times),
            "peak_rss_mb": max(x for r in rounds for x in r["rss"]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result["metrics"] = metrics
    return result, failures, failed, [r["op_times"] for r in rounds]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=SECONDS_REF)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not (SRC / "scattered_lab" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a scattered-lab checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    ok = True
    for name in names:
        try:
            result, failures, failed, op_times = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
        for msg in failed:
            print(f"{name}: operation failed: {msg}", file=sys.stderr)
        for msg in failures[:50]:
            print(f"{name}: wrong answer: {msg}", file=sys.stderr)
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:48s} {m['value']:14.6f} {m['unit']}")
        print(f"{name:9s} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**result, "op_times": op_times}, indent=2) + "\n")
        ok = ok and result["correct"]
        if args.workload == "all":
            print(json.dumps({"workload": name, **result}))
    if args.workload != "all":
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
