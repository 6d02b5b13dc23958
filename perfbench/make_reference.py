"""Write the stored references the gate compares against.

    python3 perfbench/make_reference.py --workload NAME|all --seeds 0-19

Runs one untimed pass per workload and seed, refuses to store a pass
that fails the paper invariants, and records its summary with the
tolerance the forward solver certifies for it (gate.py).  Regenerate
only when a change is meant to alter the compared outputs, and say so
where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import bootstrap


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=_seeds)
    args = p.parse_args(argv)
    if not bootstrap():
        return 2
    import hybridlab.harness as harness
    from gate import reference_path, tolerance
    from runner import WORK, one_pass
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        solver_tol = harness.SweepConfig.from_config(workload.config).solver_tol
        path = reference_path(name)
        stored = json.loads(path.read_text()) if path.is_file() else {
            "workload": name, "rule": "see perfbench/gate.py", "seeds": {}}
        workdir = WORK / f"reference-{name}"
        try:
            for seed in args.seeds:
                workdir.mkdir(parents=True, exist_ok=True)
                inputs = workload.prepare(seed, workdir)
                record = one_pass(workload, inputs, workdir / "pass", None, 0, None)
                if record["problems"]:
                    print(f"{name} seed {seed}: invariants fail, not stored: "
                          f"{record['problems']}", file=sys.stderr)
                    return 1
                stored["seeds"][str(seed)] = dict(
                    tolerance(record["pairs"], solver_tol),
                    summary=record["summary"])
                print(f"{name} seed {seed}: stored "
                      f"(rtol {stored['seeds'][str(seed)]['rtol']:.3g})", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        seeds = sorted(stored["seeds"].items(), key=lambda kv: int(kv[0]))
        lines = [f' "{seed}": {json.dumps(entry, sort_keys=True)}'
                 for seed, entry in seeds]
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            f'{{"workload": {json.dumps(name)}, "rule": {json.dumps(stored["rule"])},\n'
            '"seeds": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
