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
* the console-script checks of the CI workflow, every refusal among them,
  on the files under `corpus/ci/`;
* `selftest` and `selftest --quick`, with their timings masked.

Every input is a committed file, passed as a path relative to `corpus/`,
because some refusal messages echo the path.  Each entry runs in-process
through `cli.main` with captured streams, in a seeded shuffled order, so a
memo that leaks state from one command into another's report shows as a
difference.  `corpus/expected.json` maps each command line to its exit code
and its stdout and stderr: in full up to INLINE_LIMIT characters, as
SHA-256 and byte count above it (`--emit-points` at (13,1,6) prints 9 MB).

    PYTHONPATH=src python tests/corpus.py

prints the document of the whole table (about two minutes on two cores); it must equal
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
import sys
from pathlib import Path

from scattered_lab.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
EXPECTED = CORPUS / "expected.json"
INLINE_LIMIT = 1024
SHUFFLE_SEED = 41

FIELDS = ["5_1_4", "7_1_4", "5_1_6", "3_1_4", "2_2_4", "3_2_3", "13_1_6", "2_1_5", "3_1_5",
          "5_1_5", "2_1_6", "3_1_6"]
FAMILY_FIELDS = [(5, 1, 6), (3, 1, 8), (2, 1, 6), (7, 1, 4), (7, 1, 10), (5, 1, 4), (5, 1, 5),
                 (3, 1, 6), (13, 1, 6), (2, 2, 4), (3, 2, 3)]
TASKS = ("scatter", "stabilizer", "standard-form", "mrd", "plane")
ALL_TASKS = ",".join(TASKS)

# the console-script checks of the CI workflow, as (field, poly, tasks) of
# analyze, (field, poly) of the scatter shortcut, (f, g) of equiv over
# F_(5^5), or whole command lines; every file is under corpus/ci/ (the
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
    ("f2n40", "xq40", ALL_TASKS),
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
] + [f"{task} --field ci/f7n6.json --poly ci/frobenius.json" for task in TASKS]


def _polys(field):
    return sorted(p.stem for p in (CORPUS / "polys" / field).glob("*.json"))


def _scattered_names(field):
    """The polynomials of `field` that the table compares by equiv: the
    catalog and the image, all scattered; the first pseudoregulus leads."""
    return [name for name in _polys(field) if name.startswith("family") or name == "image"]


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
    for p, e, n in FAMILY_FIELDS:
        for family in range(1, 6):
            line = f"families --family {family} --q {p} --e {e} --n {n}"
            out += [("families", line), ("families", line + " --verify")]
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


def run(line):
    """The record of one command line, run in-process with captured streams."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(line.split())
    finally:
        sys.stdout, sys.stderr = old
    stdout, stderr = out.getvalue(), err.getvalue()
    if line.startswith("selftest"):
        stdout = _mask_timings(stdout)
    return {"exit": code, "stdout": _stream(stdout), "stderr": _stream(stderr)}


def document(entries):
    """{command line: record} of the entries, run in a seeded shuffled
    order with corpus/ as the working directory."""
    lines = [line for _, line in entries]
    random.Random(SHUFFLE_SEED).shuffle(lines)
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        return {line: run(line) for line in lines}
    finally:
        os.chdir(cwd)


def dumps(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    sys.stdout.write(dumps(document(command_lines())))
