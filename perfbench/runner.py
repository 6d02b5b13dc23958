"""One benchmark run of one workload: set-up, warm-up, timed passes,
gate, and the result line.  Imported by run.py after the BLAS thread
count is fixed and the checkout's src/ is on the path."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from gate import check_reference, load_reference
from spans import Patches, Tracer, layer_metrics, nesting_problems
from workloads import WORKLOADS, PairWatch

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
RESULTS = WORK / "results"

SETUPS = 7
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import hybridlab.cli; "
    "print(time.perf_counter() - t)"
)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "B"
    if metric.endswith("per_operator") or metric.endswith("err_max"):
        return "1"
    return "count"


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def calibration_seconds() -> float:
    """Time of a fixed dense solve: how fast the host runs at the moment,
    so that host drift between runs can be told apart from a change in
    the program (NOTES.md, Host noise)."""
    a = np.random.default_rng(0).random((200, 200))
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.solve(a, a)
    return time.perf_counter() - start


def one_pass(workload, inputs, out_dir, tracer, index, reference):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    watch = PairWatch()
    with Patches() as patches:
        if tracer is not None:
            tracer.reset(index)
            tracer.install(patches)
        watch.install(patches)
        gc.collect()  # no pass pays for the garbage of the one before
        start = time.perf_counter()
        workload.run(inputs, out_dir)
        wall = time.perf_counter() - start
    outcome = workload.read(out_dir, watch)
    record = {
        "wall": wall,
        "traced": tracer is not None,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "unconverged": outcome.unconverged,
        "problems": outcome.problems + check_reference(reference, outcome.summary),
        "pairs": watch.pairs,
        "summary": outcome.summary,
    }
    if tracer is not None:
        record["problems"] += nesting_problems(tracer.spans)
        layers = layer_metrics(tracer.spans, tracer.counters, wall)
        layers["reconstruction.err_max"] = outcome.err_recon_max
        record["layers"] = layers
        record["absent"] = list(patches.absent)
    return record


def run_workload(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    spans_path = RESULTS / f"{tag}.spans.jsonl"
    spans_path.unlink(missing_ok=True)

    # set-ups are spread between the passes, so that their median samples
    # the whole run rather than one stretch of host load
    setups = []

    def set_up():
        imported = _import_seconds()
        start = time.perf_counter()
        inputs = workload.prepare(args.seed, workdir)
        setups.append(imported + time.perf_counter() - start)
        return inputs

    try:
        inputs = set_up()
        warm = workload.shrunk()
        warmdir = workdir / "warmup"
        warmdir.mkdir()
        warm.run(warm.prepare(args.seed, warmdir), warmdir / "out")

        reference = load_reference(workload.name, args.seed)
        tracer = Tracer() if args.trace else None
        passes = []
        calibrations = []
        start = time.perf_counter()
        while True:
            traced = tracer if len(passes) % 2 == 1 else None
            record = one_pass(workload, inputs, workdir / "pass", traced,
                              len(passes), reference)
            if traced is not None:
                traced.write(spans_path)
            passes.append(record)
            calibrations.append(calibration_seconds())
            if len(setups) < SETUPS:
                set_up()
            elapsed = time.perf_counter() - start
            if (not args.trace or len(passes) >= 2) and \
                    elapsed + record["wall"] > args.seconds:
                break
        while len(setups) < SETUPS:
            set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return report(args, workload, setups, passes, calibrations, reference)


def report(args, workload, setups, passes, calibrations, reference) -> int:
    untraced = [p["wall"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fractions = {"failed_frac": (failed, attempted)}
    if passes[0]["unconverged"] is not None:
        fractions["recon_unconverged_frac"] = (
            sum(p["unconverged"] for p in passes), attempted)
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes)
                for msg in p["problems"]]
    # slowest of the passes: on a shared host the typical speed is the slow
    # one, with quiet moments up to 1.6x faster that some runs meet and some
    # do not; the slowest pass is the one they touched least (NOTES.md)
    end_to_end = {
        "wall_s": max(untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"wall_s": len(untraced), "setup_s": len(setups), "peak_rss_mb": 1}
    statistic = {"wall_s": f"slowest of {len(untraced)} passes (median "
                           f"{statistics.median(untraced):.6g}, best "
                           f"{min(untraced):.6g})",
                 "setup_s": f"median of {len(setups)} set-ups",
                 "peak_rss_mb": "whole run"}
    layers = {}
    if traced:
        slowest = max(traced, key=lambda p: p["wall"])
        layers = dict(slowest["layers"])
        layers["trace.untraced_wall_s"] = end_to_end["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - end_to_end["wall_s"]
        layers["host.calibration_s"] = statistics.median(calibrations)

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced); reference "
          f"{'compared' if reference is not None else 'absent for this seed'}")
    print("  pass walls (s): " + " ".join(
        f"{p['wall']:.4f}{'*' if p['traced'] else ''}" for p in passes))
    for name, value in end_to_end.items():
        print(f"  {name:<24} {value:12.6g} {END_TO_END_UNITS[name]:<5} "
              f"{statistic[name]}")
    for name, (count, total) in fractions.items():
        print(f"  {name:<24} {count / total:12.6g} {'1':<5} "
              f"{count} of {total} attempted")
    print(f"  {'host calibration':<24} {statistics.median(calibrations):12.6g} "
          f"{'s':<5} median of {len(calibrations)}, fixed dense solve")
    if traced:
        absent = traced[0]["absent"]
        print(f"per-layer, from the slowest of {len(traced)} traced passes"
              + (f"; absent targets: {', '.join(absent)}" if absent else ""))
        for name, value in layers.items():
            print(f"  {name:<30} {value:14.6g} {_unit(name)}")
    print("gate: " + ("ok" if not problems else "FAILED"))
    for msg in problems[:20]:
        print("  " + msg)

    correct = not problems
    metrics = layers if args.trace else end_to_end
    units = {name: _unit(name) for name in layers} if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "end_to_end": end_to_end,
        "samples": samples, "per_layer": layers,
        "fractions": {k: c / t for k, (c, t) in fractions.items()},
        "calibration_s": calibrations, "setups_s": setups,
        "reference": reference is not None, "problems": problems,
        "passes": [{k: p[k] for k in ("wall", "traced", "attempted", "failed",
                                      "unconverged")} for p in passes],
    }
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1
