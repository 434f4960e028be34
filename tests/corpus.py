"""The byte-identity corpus: every report of a fixed table of command lines.

Identical inputs give byte-identical reports; this file is that contract as
a check.  `command_lines()` is the table:

* on each field of FIELDS, every polynomial under `corpus/polys/<field>/`
  (the catalog, g x, three seeded f and one GL image of the last catalog
  instance) through the five-task `analyze`, the two tasks that read
  `--oracle` and `--emit-points` with both (scatter and mrd, which also
  report on a non-scattered f), and each one-task shortcut;
* the report instances of the benchmark, seeds 1-5 (`polys/bench_*`),
  through the five-task `analyze`;
* `equiv` in both modes and both orders, on each field between the first
  pseudoregulus and every other scattered polynomial there, and of the
  first pseudoregulus with a non-scattered f (a NotScattered refusal);
* `families` 1-5, with and without `--verify`, on FAMILY_FIELDS;
* the deadline matrix (the `deadline` stratum): on each field of
  DEADLINE_FIELDS, the five-task `analyze` and its shortcuts on x^q
  (`corpus/deadline/`), `equiv` of x^q with itself in both modes and
  `families` 1-5 with and without `--verify`;
* the console-script checks, every refusal and usage error among them, on
  the files under `corpus/ci/`, and the DEADLINE_CI lines of the matrix
  (the `ci` stratum);
* `selftest` and `selftest --quick`, with their timings masked.

Every input is a committed file, passed as a path relative to `corpus/`,
because some refusal messages echo the path.  The entries run in a seeded
shuffled order with `corpus/` as the working directory.  Each entry of the
FRESH_STRATA, `ci` and `deadline`, runs in a fresh
`python -m scattered_lab.cli` process, so output at import or at
interpreter exit, and the exit status the process itself returns, are
part of its record; PYTHONPATH is the `src` of the imported package,
PYTHONHASHSEED is unset, and a process that has not ended after
FRESH_TIMEOUT (20) seconds fails the run: every command ends or refuses
within seconds.  Every other entry runs in-process through
`cli.main` with captured streams, so a memo that leaks state from one
command into another's report shows as a difference.
`corpus/expected.json` maps each command line to its exit code and its
stdout and stderr: in full up to INLINE_LIMIT characters, as SHA-256 and
byte count above it (`--emit-points` at (13,1,6) prints 9 MB).

    PYTHONPATH=src python tests/corpus.py

prints the document of the whole table (about three minutes on two cores); it must equal
`tests/corpus/expected.json` byte for byte, and redirecting it into that
file rewrites the expected reports.  `test_corpus.py` runs a fixed
stratified subset in tier-1.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import scattered_lab
from scattered_lab.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
EXPECTED = CORPUS / "expected.json"
INLINE_LIMIT = 1024
SHUFFLE_SEED = 41
# the directory a fresh process imports scattered_lab from
SRC = Path(scattered_lab.__file__).resolve().parent.parent
FRESH_TIMEOUT = 20
FRESH_STRATA = ("ci", "deadline")

FIELDS = ["5_1_4", "7_1_4", "5_1_6", "3_1_4", "2_2_4", "3_2_3", "13_1_6", "2_1_5", "3_1_5",
          "5_1_5", "2_1_6", "3_1_6"]
FAMILY_FIELDS = [(5, 1, 6), (3, 1, 8), (2, 1, 6), (7, 1, 4), (5, 1, 4), (5, 1, 5), (3, 1, 6),
                 (13, 1, 6), (2, 2, 4), (3, 2, 3)]
# the deadline matrix: the table-less extremes, where a walk over F_(q^n)^*
# never ends, and (2,3,6), the largest table field of the matrix, where
# family 4 runs one census per candidate delta
DEADLINE_FIELDS = [(2, 1, 31), (2, 1, 40), (3, 1, 20), (7, 1, 10), (1048573, 1, 2), (2, 4, 10),
                   (2, 3, 6)]
TASKS = ("scatter", "stabilizer", "standard-form", "mrd", "plane")
ALL_TASKS = ",".join(TASKS)

# the console-script checks, each run in a fresh process, as (field, poly,
# tasks) of analyze, (field, poly) of the scatter shortcut, (f, g) of equiv
# over F_(5^5), or whole command lines; every file is under corpus/ci/ (the
# family 2 instance over F_(4^4) is in the families table)
CI_ANALYZE = [
    ("f5n6", "pseudoregulus", ALL_TASKS),
    ("f5n4", "gx", "scatter,stabilizer,mrd"),
    ("f3n4", "xq2", "scatter,stabilizer,mrd"),
    ("f2n5", "xq5", "scatter,stabilizer,standard-form,mrd"),
    ("f9n3", "xq3", ALL_TASKS),
    ("f3n8", "xq8", "scatter,mrd"),
    ("f3n8", "xqq8", "scatter,mrd"),
    ("f4n4", "lp44poly", ALL_TASKS),
    ("f7n6", "family3image", "stabilizer,plane"),
] + [("f7n6", "frobenius", task) for task in TASKS]
CI_SCATTER = [
    ("badseed", "xq2"), ("strmodulus", "xq2"), ("f5n4digits", "bigdigit"), ("floatp", "xq2"),
    ("stringn", "xq2"), ("f5n5ints", "bigint"), ("shortgen", "xq2"), ("longgen", "xq2"),
    ("squaremodulus", "xq4"), ("irreduciblemodulus", "xq4"),
    ("notutf8", "xq2"), ("f3n4", "notutf8poly"), ("f3n4", "deep"),
]
CI_EQUIV = [("lp", "image"), ("lp", "lp2"), ("lp", "xq"), ("lp", "zero5")]
CI_LINES = [
    "families --family 5 --q 5 --t 3 --verify",
    "families --family 1 --q 7 --n 6 --verify",
    "families --family 5 --q 5 --t 3 --s -1",
    "families --family 2 --q 7 --n 10",
    "families --family 1 --field fields/5_1_4.json",
    "families --family 1 --field ci/notutf8.json",
    "families --family 1 --field ci/deep.json",
    "equiv --field ci/f5n5.json ci/lp.json ci/deep.json",
    "families --family 6",
    "analyze --field ci/f5n4.json",
] + [f"{task} --field ci/f7n6.json --poly ci/frobenius.json" for task in TASKS]
# the lines of the deadline matrix that tier-1 runs, so in the ci stratum:
# refusals before any walk (no Lunardon-Polverino parameter at q = 2, family
# 4 outside n = 6, a field above the table bound) and reports without tables
DEADLINE_CI = {
    "families --family 2 --q 2 --e 1 --n 31",
    "families --family 1 --q 2 --e 1 --n 40",
    "families --family 4 --q 2 --e 1 --n 40",
    "families --family 2 --q 2 --e 4 --n 10",
    f"analyze --field deadline/f1048573_1_2.json --poly deadline/xq1048573_1_2.json "
    f"--tasks {ALL_TASKS}",
    f"analyze --field ci/f2n40.json --poly ci/xq40.json --tasks {ALL_TASKS}",
}


def _polys(field):
    return sorted(p.stem for p in (CORPUS / "polys" / field).glob("*.json"))


def _scattered_names(field):
    """The polynomials of `field` that the table compares by equiv: the
    catalog and the image, all scattered; the first pseudoregulus leads."""
    return [name for name in _polys(field) if name.startswith("family") or name == "image"]


def _family_lines(p, e, n):
    out = []
    for family in range(1, 6):
        line = f"families --family {family} --q {p} --e {e} --n {n}"
        out += [line, line + " --verify"]
    return out


def _deadline_lines(p, e, n):
    """The matrix on one field: the five-task analyze and its shortcuts on
    x^q, equiv of x^q with itself in both modes, and families 1-5."""
    if (p, e, n) == (2, 1, 40):
        spec, poly = "ci/f2n40.json", "ci/xq40.json"
    else:
        spec, poly = f"deadline/f{p}_{e}_{n}.json", f"deadline/xq{p}_{e}_{n}.json"
    files = f"--field {spec} --poly {poly}"
    return ([f"analyze {files} --tasks {ALL_TASKS}"] + [f"{task} {files}" for task in TASKS]
            + [f"equiv --mode {mode} --field {spec} {poly} {poly}" for mode in ("gl", "gammal")]
            + _family_lines(p, e, n))


def command_lines():
    """(stratum, command line) of every entry, in table order."""
    out = []
    for field in FIELDS:
        spec = f"fields/{field}.json"
        for name in _polys(field):
            poly = f"polys/{field}/{name}.json"
            out.append(("analyze", f"analyze --field {spec} --poly {poly} --tasks {ALL_TASKS}"))
            out.append(("oracle", f"analyze --field {spec} --poly {poly} --tasks scatter,mrd "
                                  "--oracle --emit-points"))
            out += [("shortcut", f"{task} --field {spec} --poly {poly}") for task in TASKS]
        lead, *others = _scattered_names(field)
        pairs = [(lead, name) for name in others + ["random0"]]
        for f, g in pairs + [(g, f) for f, g in pairs]:
            for mode in ("gl", "gammal"):
                out.append(("equiv", f"equiv --mode {mode} --field {spec} "
                                     f"polys/{field}/{f}.json polys/{field}/{g}.json"))
    for field in sorted(p.name for p in (CORPUS / "polys").glob("bench_*")):
        for name in _polys(field):
            out.append(("bench", f"analyze --field fields/{field}.json "
                                 f"--poly polys/{field}/{name}.json --tasks {ALL_TASKS}"))
    for field in FAMILY_FIELDS:
        out += [("families", line) for line in _family_lines(*field)]
    for field in DEADLINE_FIELDS:
        out += [("ci" if line in DEADLINE_CI else "deadline", line)
                for line in _deadline_lines(*field)]
    for field, poly, tasks in CI_ANALYZE:
        out.append(("ci", f"analyze --field ci/{field}.json --poly ci/{poly}.json --tasks {tasks}"))
    for field, poly in CI_SCATTER:
        out.append(("ci", f"scatter --field ci/{field}.json --poly ci/{poly}.json"))
    for f, g in CI_EQUIV + [(g, f) for f, g in CI_EQUIV]:
        for mode in ("gl", "gammal"):
            out.append(("ci", f"equiv --mode {mode} --field ci/f5n5.json ci/{f}.json ci/{g}.json"))
    out += [("ci", line) for line in CI_LINES]
    out += [("selftest", "selftest"), ("selftest", "selftest --quick")]
    return out


def subset(entries, stride=16):
    """Every stride-th entry of each stratum, the first included, and every
    CI entry: the fixed sample that tier-1 checks."""
    seen = {}
    picked = []
    for stratum, line in entries:
        k = seen.get(stratum, 0)
        seen[stratum] = k + 1
        if stratum == "ci" or k % stride == 0:
            picked.append((stratum, line))
    return picked


def _stream(text):
    if len(text) <= INLINE_LIMIT:
        return text
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _mask_timings(text):
    """Selftest lines carry their elapsed seconds: '(  0.1s)' -> '(t)'."""
    return re.sub(r"\(\s*\d+\.\d+s\)", "(t)", text)


def _record(line, code, stdout, stderr):
    if line.startswith("selftest"):
        stdout = _mask_timings(stdout)
    return {"exit": code, "stdout": _stream(stdout), "stderr": _stream(stderr)}


def run(line):
    """The record of one command line, run in-process with captured streams."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(line.split())
    finally:
        sys.stdout, sys.stderr = old
    return _record(line, code, out.getvalue(), err.getvalue())


def fresh(line, *options):
    """The finished `python *options -m scattered_lab.cli` process of one
    command line in corpus/, its streams as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *options, "-m", "scattered_lab.cli", *line.split()],
                          cwd=CORPUS, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=FRESH_TIMEOUT)


def run_fresh(line):
    """The record of one command line, run in a fresh process in corpus/."""
    proc = fresh(line)
    return _record(line, proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def document(entries):
    """{command line: record} of the entries, run in a seeded shuffled
    order with corpus/ as the working directory: the FRESH_STRATA in fresh
    processes, the others in-process."""
    entries = list(entries)
    random.Random(SHUFFLE_SEED).shuffle(entries)
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        return {line: (run_fresh if stratum in FRESH_STRATA else run)(line)
                for stratum, line in entries}
    finally:
        os.chdir(cwd)


def dumps(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(document(command_lines())))
