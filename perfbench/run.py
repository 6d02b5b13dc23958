"""hybridlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its
`src/`.  One run sets up several times (fresh-process import plus input
generation), warms up on a one-cell version of the workload, then
repeats full passes of the workload for about S seconds.  Every pass is
checked by the correctness gate (workloads.py, gate.py).  The last line
of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 the
passes alternate untraced and traced and it carries the per-layer
metrics of the traced ones.  `--workload all` runs each workload in its
own process and prints a table of every metric.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS thread: the machine the benchmark was defined on has 2 cores
# shared with other work, and single-threaded runs repeat more closely
BLAS_THREADS = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    from runner import END_TO_END_UNITS, RESULTS
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        result = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        result.unlink(missing_ok=True)
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if result.is_file():
            rows.append(json.loads(result.read_text()))
    print("\nsummary (value, unit, samples):")
    for r in rows:
        e, n = r["end_to_end"], r["samples"]
        print(f"  {r['workload']:<15} "
              + "  ".join(f"{k}={e[k]:.4g} {END_TO_END_UNITS[k]} (n={n[k]})"
                          for k in END_TO_END_UNITS)
              + "".join(f"  {k}={v:.3g}" for k, v in r["fractions"].items())
              + f"  gate={'ok' if not r['problems'] else 'FAILED'}")
    return status


def bootstrap() -> bool:
    """Fix the BLAS thread count and import hybridlab from the checkout's
    src/; False (with a message) when there is no such package."""
    if not (SRC / "hybridlab" / "__init__.py").is_file():
        print(f"error: no hybridlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import hybridlab

    if Path(hybridlab.__file__).resolve().parent != SRC / "hybridlab":
        print(f"error: imported hybridlab from {hybridlab.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    # a terminated run still removes its work directory and ends its
    # children: SystemExit unwinds through the `finally` blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not bootstrap():
        return 2
    if args.workload == "all":
        return run_all(args)
    from runner import run_workload
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
