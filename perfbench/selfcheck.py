"""Checks of the benchmark itself, on reduced-size workloads (about a
minute):

    python3 perfbench/selfcheck.py

- the gate accepts an unchanged pass and rejects deliberately corrupted
  outputs (negative controls), while ignoring reconstruction error and
  convergence, which it must never compare;
- traced spans nest, no self time is negative, and self times plus the
  untraced remainder add up to the traced wall time;
- a missing call target is reported absent instead of crashing;
- the metrics emitted are exactly those BENCHMARK.json names;
- run.py fails without printing a result where there are no sources.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from run import ROOT, bootstrap

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def _edit_csv(path: Path, row: int, column: str, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = fn(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: Path, fn) -> None:
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def main() -> int:
    if not bootstrap():
        return 2
    from gate import check_reference, tolerance
    from runner import END_TO_END_UNITS, WORK, one_pass
    from spans import Patches, Tracer, nesting_problems, self_times
    from workloads import BUMP_2D, UNLISTED, PairWatch, WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = sorted(m["name"] for m in bench["per_layer"])
    end_to_end = sorted(m["name"] for m in bench["end_to_end"])
    check(sorted(bench_w["name"] for bench_w in bench["workloads"])
          == sorted(set(WORKLOADS) - set(UNLISTED)),
          "BENCHMARK.json lists the workloads run.py knows, except the unlisted")

    sweep = replace(WORKLOADS["sweep-small"], name="mini-sweep", config=dict(
        BUMP_2D, **{"sweep.nx": "17", "sweep.amplitudes": "1,2,4,8"}))
    pipeline = replace(WORKLOADS["pipeline-files"], name="mini-pipeline",
                       mmax=20, config=dict(BUMP_2D, **{
                           "sweep.nx": "17", "sweep.amplitudes": "1,4"}))
    work = WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        for workload in (sweep, pipeline):
            work.mkdir(parents=True, exist_ok=True)
            name = workload.name
            inputs = workload.prepare(0, work)
            out = work / name
            tracer = Tracer()
            first = one_pass(workload, inputs, out, tracer, 1, None)
            check(not first["problems"], f"{name}: invariants hold "
                  f"{first['problems']}")

            spans = tracer.spans
            check(len(spans) > 0 and not nesting_problems(spans),
                  f"{name}: {len(spans)} spans nest, no self time negative")
            check(all(s[4] == 1 for s in spans), f"{name}: spans carry the pass id")
            layers = first["layers"]
            check(abs(sum(self_times(spans)) + layers["trace.remainder_s"]
                      - layers["trace.wall_s"]) < 1e-9 and layers["trace.remainder_s"] >= 0,
                  f"{name}: self times + remainder = traced wall")
            emitted = sorted(list(layers) + ["trace.untraced_wall_s", "trace.overhead_s",
                                             "host.calibration_s"])
            check(emitted == per_layer, f"{name}: per-layer metrics match BENCHMARK.json")

            entry = dict(tolerance(first["pairs"], 1e-9), summary=first["summary"])
            second = one_pass(workload, inputs, out, None, 2, entry)
            check(not second["problems"], f"{name}: gate accepts a repeated pass")

            def regate(pairs=None):
                watch = PairWatch()
                watch.pairs = pairs if pairs is not None else second["pairs"]
                outcome = workload.read(out, watch)
                return outcome.problems + check_reference(entry, outcome.summary)

            controls = []
            if workload is sweep:
                bump = 1.0 + 100.0 * entry["rtol"]
                controls = [
                    ("epsilon off by 100 rtol", lambda: _edit_csv(
                        out / "samples.csv", 1, "epsilon",
                        lambda v: repr(float(v) * bump + 100 * entry["atol"]))),
                    ("a failed cell", lambda: _edit_csv(
                        out / "samples.csv", 0, "failed", lambda v: "1")),
                    ("a flipped hypothesis flag", lambda: _edit_csv(
                        out / "samples.csv", 2, "hypothesis_ok",
                        lambda v: str(1 - int(v)))),
                    ("eta out of range", lambda: _edit_json(
                        out / "fit.json",
                        lambda d: d.update(eta_in_range=False))),
                    ("a dropped sample row", lambda: (out / "samples.csv").write_text(
                        "".join((out / "samples.csv").read_text().splitlines(True)[:-1]))),
                ]
            else:
                manifest = sorted((out / "pairs").glob("*/diagnostics.json"))[0]
                controls = [
                    ("proof_bound_margin above 1", lambda: _edit_json(
                        manifest, lambda d: d.update(proof_bound_margin=1.5))),
                    ("data_gap above 2", lambda: _edit_csv(
                        out / "family.csv", 3, "data_gap", lambda v: "2.5")),
                    ("a nonzero exit code", lambda: (out / "exit_codes.json").write_text(
                        json.dumps([0, 3, 0, 0]))),
                ]
            for what, corrupt in controls:
                backup = work / "backup"
                shutil.copytree(out, backup)
                corrupt()
                check(bool(regate()), f"{name}: gate rejects {what}")
                shutil.rmtree(out)
                backup.rename(out)
            broken = [dict(p, holds=False) if i == 0 else p
                      for i, p in enumerate(second["pairs"])]
            check(bool(regate(broken)), f"{name}: gate rejects a failed weighted estimate")
            check(bool(regate(second["pairs"][:-1])),
                  f"{name}: gate rejects an unchecked pair")
            if workload is sweep:
                _edit_csv(out / "samples.csv", 0, "err_recon_d0.125",
                          lambda v: repr(10.0 * float(v)))
                _edit_csv(out / "samples.csv", 1, "recon_converged", lambda v: "0")
                check(not regate(), f"{name}: gate ignores err_recon and "
                      "recon_converged")

        with Patches() as patches:
            Tracer().install(patches, targets=(
                ("hybridlab.forward:DiscreteOperator.no_such_method", "x", None),
                ("hybridlab.no_such_module:f", "y", None)))
            check(len(patches.absent) == 2, "missing targets are reported absent")

        bare = work / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in Path(__file__).resolve().parent.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and "{" not in done.stdout,
              "run.py without sources exits nonzero with no result")
        check(end_to_end == sorted(END_TO_END_UNITS),
              "end-to-end metrics match BENCHMARK.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"selfcheck: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
