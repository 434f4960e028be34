"""Per-layer spans, recorded from outside the program by wrapping its functions.

Each wrapped function counts its calls and accumulates its self time: the
span's duration minus the time spent in wrapped functions it called.  A
function whose time is not reported (Mat2.__mul__) only has its calls
counted: it opens no span, so its time stays in its caller's self time.  The
program binds many of these names with `from ... import`, so a wrapper is
installed in every scattered_lab module (and the package namespace) whose
attribute is the original function; methods are replaced on their class.
Functions the program imports at call time (LinearizedPoly.rank imports
rank_mod from _linalg) pick up the wrapper from the defining module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, metric prefix, reported kinds); the prefixes drop the
# leading underscore of _linalg because metric names start with a letter.
LAYERS = [
    ("field_tower", "make_field", "field_tower.make_field", ("s", "calls")),
    ("linearized", "LinearizedPoly.eval_all_logs", "linearized.LinearizedPoly.eval_all_logs",
     ("s", "calls")),
    ("linearized", "LinearizedPoly.compose", "linearized.LinearizedPoly.compose",
     ("s", "calls")),
    ("linearized", "LinearizedPoly.invert", "linearized.LinearizedPoly.invert", ("s",)),
    ("_linalg", "rank_mod", "linalg.rank_mod", ("s", "calls")),
    ("_linalg", "kernel_mod", "linalg.kernel_mod", ("s", "calls")),
    ("scatter", "slope_census", "scatter.slope_census", ("s", "calls")),
    ("stabilizer", "compute_stabilizer", "stabilizer.compute_stabilizer", ("s",)),
    ("stabilizer", "verify_field", "stabilizer.verify_field", ("s",)),
    ("stabilizer", "diagonalize", "stabilizer.diagonalize", ("s",)),
    ("stabilizer", "Mat2.__mul__", "stabilizer.Mat2.mul", ("calls",)),
    ("standard_form", "to_standard_form", "standard_form.to_standard_form", ("s",)),
    ("standard_form", "_ab_min", "standard_form._ab_min", ("s",)),
    ("standard_form", "gl_equivalent", "standard_form.gl_equivalent", ("s",)),
    ("mrd", "min_distance", "mrd.min_distance", ("s",)),
    ("mrd", "right_idealizer", "mrd.right_idealizer", ("s",)),
    ("mrd", "verify_idealizer_field", "mrd.verify_idealizer_field", ("s",)),
    ("plane", "classify_central_collineations", "plane.classify_central_collineations", ("s",)),
    ("plane", "linear_collineations", "plane.linear_collineations", ("s",)),
    ("plane", "reducibility_witness", "plane.reducibility_witness", ("s",)),
    ("plane", "verify_spread_axioms", "plane.verify_spread_axioms", ("s",)),
    ("plane", "kernel_scalar_audit", "plane.kernel_scalar_audit", ("s",)),
    ("plane", "semilinear_part_audit", "plane.semilinear_part_audit", ("s",)),
    ("cli", "main", "cli.main", ("s",)),
]

UNITS = {"s": "s", "calls": "count"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in table order."""
    return [(f"{prefix}.{kind}", UNITS[kind])
            for _, _, prefix, kinds in LAYERS for kind in kinds]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # prefix -> [calls, self seconds]
        self._child = [0.0]                # time of wrapped callees, per open span

    def wrap(self, prefix, fn, kinds=("s", "calls")):
        stats = self.stats.setdefault(prefix, [0, 0.0])
        if "s" not in kinds:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                return fn(*args, **kwargs)

            return counted
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                stats[0] += 1
                stats[1] += dt - inner
                child[-1] += dt

        return traced

    def install(self):
        """Wrap every LAYERS entry; the program's modules must not be wrapped twice."""
        for module, attr, prefix, kinds in LAYERS:
            mod = importlib.import_module(f"scattered_lab.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(prefix, cls.__dict__[meth], kinds))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(prefix, original, kinds)
            for name, other in list(sys.modules.items()):
                if name == "scattered_lab" or name.startswith("scattered_lab."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, traced)

    def snapshot(self) -> dict:
        return {prefix: list(v) for prefix, v in self.stats.items()}

    def reset(self):
        for v in self.stats.values():
            v[:] = [0, 0.0]


def per_layer(stats: dict) -> dict:
    """Metric name -> value from summed Tracer snapshots; unused layers read 0."""
    out = {}
    for _, _, prefix, kinds in LAYERS:
        calls, self_s = stats.get(prefix, (0, 0.0))
        for kind in kinds:
            out[f"{prefix}.{kind}"] = calls if kind == "calls" else self_s
    return out


def merge(into: dict, stats: dict) -> dict:
    for prefix, (calls, self_s) in stats.items():
        acc = into.setdefault(prefix, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
    return into
