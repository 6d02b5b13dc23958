"""In-memory spans around public hybridlab calls, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, run): `parent` is the index of the
enclosing span or -1, `run` the benchmark pass that produced it.  The
wrappers are installed at the name each caller resolves (a module
attribute or a class method) and take `*args, **kwargs`, so a later
change of signature does not break tracing; a target that no longer
exists is reported as absent instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def resolve(target: str):
    """(owner, attribute) for 'package.module:Name.attr'; AttributeError
    or ImportError when the target is gone."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)
    return owner, attr


class Patches:
    """Replace attributes for the lifetime of a `with` block."""

    def __init__(self):
        self._saved = []
        self.absent = []

    def wrap(self, target: str, make_wrapper) -> bool:
        try:
            owner, attr = resolve(target)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        original = owner.__dict__.get(attr, getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except (OSError, TypeError):
        return 0


def _count_solve(counters, result, args, kwargs):
    counters["forward.solve_iters"] += int(getattr(result, "iterations", 0))


def _count_recon(counters, result, args, kwargs):
    counters["reconstruction.iters"] += int(getattr(result, "iterations", 0))
    counters["reconstruction.floor_hits"] += int(getattr(result, "floor_hits", 0))
    counters["reconstruction.unconverged"] += int(
        not getattr(result, "converged", True))


def _count_saved(counters, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    counters["fields.bytes_written"] += _file_size(path)


def _count_loaded(counters, result, args, kwargs):
    path = args[0] if args else kwargs.get("path")
    counters["fields.bytes_read"] += _file_size(path)


def _count_rows(counters, result, args, kwargs):
    counters["counterexample.rows"] += len(result)


def _count_report(counters, result, args, kwargs):
    counters["harness.report_bytes"] += sum(
        _file_size(p) for p in dict(result).values())


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return "cli." + (argv[0] if argv else "main")


# (call target, span name or name function, counter hook)
TARGETS = (
    ("hybridlab.forward:DiscreteOperator.__init__", "forward.assemble", None),
    ("hybridlab.forward:DiscreteOperator.solve", "forward.solve", _count_solve),
    ("hybridlab.forward:DiscreteOperator.eigen_gap", "forward.gap", None),
    ("hybridlab.harness:perturb_coefficient", "synthesis.perturb", None),
    ("hybridlab.cli:perturb_coefficient", "synthesis.perturb", None),
    ("hybridlab.harness:make_pair", "synthesis.make_pair", None),
    ("hybridlab.cli:make_pair", "synthesis.make_pair", None),
    ("hybridlab.harness:reconstruct", "reconstruction", _count_recon),
    ("hybridlab.harness:collect_diagnostics", "diagnostics.collect", None),
    ("hybridlab.cli:collect_diagnostics", "diagnostics.collect", None),
    ("hybridlab.synthesis:save_field", "fields.save", _count_saved),
    ("hybridlab.synthesis:load_field", "fields.load", _count_loaded),
    ("hybridlab.cli:pathology_table", "counterexample.table", _count_rows),
    ("hybridlab.harness:run_sweep", "harness.sweep", None),
    ("hybridlab.harness:fit_holder", "harness.fit", None),
    ("hybridlab.harness:emit_report", "harness.emit_report", _count_report),
    ("hybridlab.cli:main", _cli_name, None),
)

# per-layer metric -> (span name, what to take); "self" is the span's
# duration minus its children, "count" the number of spans
SPAN_METRICS = {
    "forward.assemble_s": ("forward.assemble", "self"),
    "forward.operators": ("forward.assemble", "count"),
    "forward.solve_s": ("forward.solve", "self"),
    "forward.solves": ("forward.solve", "count"),
    "forward.gap_s": ("forward.gap", "self"),
    "synthesis.perturb_s": ("synthesis.perturb", "self"),
    "synthesis.make_pair_self_s": ("synthesis.make_pair", "self"),
    "synthesis.pairs": ("synthesis.make_pair", "count"),
    "reconstruction.self_s": ("reconstruction", "self"),
    "reconstruction.runs": ("reconstruction", "count"),
    "diagnostics.collect_s": ("diagnostics.collect", "self"),
    "diagnostics.calls": ("diagnostics.collect", "count"),
    "fields.save_s": ("fields.save", "self"),
    "fields.load_s": ("fields.load", "self"),
    "counterexample.table_s": ("counterexample.table", "self"),
    "cli.synth_s": ("cli.synth", "self"),
    "cli.diagnose_s": ("cli.diagnose", "self"),
    "cli.counterexample_s": ("cli.counterexample", "self"),
    "harness.sweep_self_s": ("harness.sweep", "self"),
    "harness.fit_s": ("harness.fit", "self"),
    "harness.emit_report_s": ("harness.emit_report", "self"),
}

COUNTER_METRICS = (
    "forward.solve_iters",
    "reconstruction.iters",
    "reconstruction.floor_hits",
    "reconstruction.unconverged",
    "fields.bytes_written",
    "fields.bytes_read",
    "counterexample.rows",
    "harness.report_bytes",
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.run = 0
        self._stack = []

    def _wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([label, time.perf_counter(), None, parent, self.run])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(self.counters, result, args, kwargs)
            return result
        return traced

    def install(self, patches: Patches, targets=TARGETS) -> None:
        for target, name, hook in targets:
            patches.wrap(target, lambda fn, n=name, h=hook: self._wrapper(fn, n, h))

    def reset(self, run: int) -> None:
        self.spans.clear()
        self.counters.clear()
        self.run = run

    def write(self, path, mode: str = "a") -> None:
        with open(path, mode) as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nesting_problems(spans) -> list:
    """Every child lies inside its parent, which was opened before it,
    in the same run; no self time is negative."""
    problems = []
    for i, (name, start, end, parent, run) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) did not close cleanly")
            continue
        if parent >= 0:
            pname, pstart, pend, _, prun = spans[parent]
            if not (parent < i and pstart <= start and end <= pend and prun == run):
                problems.append(f"span {i} ({name}) is not inside its parent "
                                f"{parent} ({pname})")
    for i, value in enumerate(self_times(spans)):
        if value < 0.0:
            problems.append(f"span {i} ({spans[i][0]}) has negative self "
                            f"time {value!r}")
    return problems


def layer_metrics(spans, counters, wall: float) -> dict:
    """Per-layer values for one traced pass of `wall` seconds."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    counts = defaultdict(int)
    for (name, *_), value in zip(spans, selfs):
        by_name[name] += value
        counts[name] += 1
    out = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        out[metric] = by_name[name] if kind == "self" else counts[name]
    for metric in COUNTER_METRICS:
        out[metric] = counters.get(metric, 0)
    operators = out["forward.operators"]
    out["forward.solves_per_operator"] = (
        out["forward.solves"] / operators if operators else 0.0)
    out["trace.wall_s"] = wall
    out["trace.remainder_s"] = wall - sum(selfs)
    out["trace.spans"] = len(spans)
    return out
