"""Every command ends or refuses within a deadline, on the largest fields.

The matrix: on each field of FIELDS, the five-task `analyze` and its five
one-task shortcuts on x^q, `equiv` of x^q with itself in both modes, and
`families` 1-5 with their default parameters, with and without
`--verify`.  Each runs in a fresh process and must exit with 0, 1 or 2
within DEADLINE_S seconds.  The fields are the table-less extremes, where
a walk over F_(q^n)^* never ends, and (2,3,6), the largest table field of
the matrix, where family 4 runs one census per candidate delta.

    PYTHONPATH=src python tests/deadline.py

runs the whole matrix (about a minute on two cores) and exits 1 when a
command fails; `test_deadline.py` runs a subset of it in tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEADLINE_S = 20
FIELDS = [(2, 1, 31), (2, 1, 40), (3, 1, 20), (7, 1, 10), (1048573, 1, 2), (2, 4, 10),
          (2, 3, 6)]
TASKS = ("scatter", "stabilizer", "standard-form", "mrd", "plane")
SRC = Path(__file__).resolve().parents[1] / "src"


def commands(field, workdir):
    """(label, argv) of every command of the matrix on one field; writes the
    field spec and x^q into workdir."""
    p, e, n = field
    spec = workdir / "field_{}_{}_{}.json".format(*field)
    poly = workdir / "xq_{}_{}_{}.json".format(*field)
    spec.write_text(json.dumps({"p": p, "e": e, "n": n, "seed": 0}))
    poly.write_text(json.dumps({"coeffs": ["0", "g^0"] + ["0"] * (n - 2)}))
    common = ["--field", str(spec), "--poly", str(poly)]
    out = [("analyze", ["analyze", *common, "--tasks", ",".join(TASKS)])]
    out += [(task, [task, *common]) for task in TASKS]
    out += [(f"equiv --mode {mode}", ["equiv", "--field", str(spec), str(poly), str(poly),
                                      "--mode", mode]) for mode in ("gl", "gammal")]
    for family in range(1, 6):
        argv = ["families", "--family", str(family), "--q", str(p), "--e", str(e),
                "--n", str(n)]
        out += [(f"families {family}", argv), (f"families {family} --verify",
                                                argv + ["--verify"])]
    return out


def run(argv):
    """(exit code, or None when the deadline passed; seconds; stderr) of one
    fresh process."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "scattered_lab.cli", *argv],
                              capture_output=True, env=env, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, ""
    return proc.returncode, time.perf_counter() - start, proc.stderr.decode()


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for field in FIELDS:
            for label, argv in commands(field, Path(tmp)):
                code, seconds, _ = run(argv)
                ok = code in (0, 1, 2)
                failed += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {field} {label}: exit {code}, {seconds:.2f} s",
                      flush=True)
    print(f"{failed} of the matrix failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
