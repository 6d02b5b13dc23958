"""The benchmark's workloads: inputs made from a seed, one timed pass
through the public hybridlab API, and the read-back of what the pass
wrote, which the gate checks.

Every workload is deterministic given its seed, which becomes the
sweep's first cell seed (`sweep.seed0`).  See NOTES.md for why each
workload exists and which layer it exercises.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hybridlab.cli as cli
import hybridlab.harness as harness
from hybridlab.config import parse_config
from hybridlab.diagnostics import weighted_checks

BUMP_2D = {
    "sweep.q": "const:8",
    "sweep.g": "expr:2.5*cos(x)*cos(y)",
    "sweep.mode": "bump",
    "sweep.k": "16",
    "sweep.e": "100",
    "sweep.h": "0.5",
    "sweep.d": "0.125,0.25",
    "sweep.seeds": "1",
}

SAMPLE_FLAGS = ("failed", "hypothesis_ok", "k_ok", "e_ok", "h_ok")
FIT_KEYS = ("c_hat", "eta_hat", "residual_rms", "eta_ci", "n_used",
            "n_excluded", "underdetermined")
DIAG_KEYS = ("max_doubling", "min_propagation", "best_delta",
             "proof_bound_margin")


def _amplitudes(values) -> str:
    return ",".join(format(float(a), ".17g") for a in values)


def _config_text(config: dict, seed: int) -> str:
    lines = [f"{k} = {v}" for k, v in sorted(config.items())]
    lines.append(f"sweep.seed0 = {seed}")
    return "\n".join(lines) + "\n"


def _cells(config: dict) -> int:
    return len(config["sweep.amplitudes"].split(",")) * int(config["sweep.seeds"])


def _first_cell(config: dict) -> dict:
    first = config["sweep.amplitudes"].split(",")[0]
    return dict(config, **{"sweep.amplitudes": first, "sweep.seeds": "1"})


def _digest(values) -> dict:
    return {"min": min(values), "max": max(values), "sum": sum(values)}


class PairWatch:
    """Checks the weighted estimate
        int (|u1|+|u2|)(|u1|-|u2|)^2 <= 16 K eps int (|u1|+|u2|)
    on every pair the program synthesizes, and keeps the smallest
    spectral gap and the largest datum F seen, which set the reference
    tolerance (gate.tolerance)."""

    TARGETS = ("hybridlab.harness:make_pair", "hybridlab.cli:make_pair")

    def __init__(self):
        self.pairs = []
        self.absent = []

    def install(self, patches) -> None:
        self.pairs = []
        self.absent = []
        for target in self.TARGETS:
            if not patches.wrap(target, self._wrap):
                self.absent.append(target)

    def _wrap(self, fn):
        def watched(*args, **kwargs):
            pair = fn(*args, **kwargs)
            w = weighted_checks(pair) if pair.hypothesis_ok else None
            gaps = [r.eigen_gap_estimate for r in (pair.report1, pair.report2)
                    if r is not None]
            self.pairs.append({
                "amplitude": pair.amplitude,
                "seed": pair.seed,
                "holds": w is not None and w.lhs <= w.proof_bound,
                "gap": min(gaps) if gaps else float("nan"),
                "f_max": float(max(pair.f1.values.max(), pair.f2.values.max())),
                "h": pair.grid.h,
                "arms": 1 if pair.grid.is_1d else 2,
                "k": pair.bounds.k_bound,
            })
            return pair
        return watched


@dataclass(frozen=True)
class Outcome:
    """What one pass produced: `summary` is compared with the stored
    reference; the rest is measured but never compared, because a
    correct solver fix must be free to change it."""

    summary: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    unconverged: int | None = None
    err_recon_max: float = 0.0


@dataclass(frozen=True)
class SweepWorkload:
    """A Holder-fit sweep through run_sweep and emit_report."""

    name: str
    why: str
    config: dict
    eta_gate: bool

    def shrunk(self) -> "SweepWorkload":
        return replace(self, config=_first_cell(self.config))

    def prepare(self, seed: int, workdir: Path):
        path = workdir / f"{self.name}.cfg"
        path.write_text(_config_text(self.config, seed))
        return harness.SweepConfig.from_config(parse_config(path))

    def run(self, inputs, out_dir: Path) -> None:
        report = harness.run_sweep(inputs)
        harness.emit_report(report, out_dir)

    def read(self, out_dir: Path, watch: PairWatch) -> Outcome:
        with open(out_dir / "samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        fit = json.loads((out_dir / "fit.json").read_text())
        with open(out_dir / "diagnostics.csv", newline="") as fh:
            diag_rows = list(csv.DictReader(fh))
        d_tags = [format(float(d), "g") for d in fit["d_list"]]

        samples = []
        for row in rows:
            samples.append({
                "amplitude": float(row["amplitude"]),
                "seed": int(row["seed"]),
                "epsilon": float(row["epsilon"]),
                "bdry_gap": float(row["bdry_gap"]),
                "err_true": [float(row[f"err_true_d{t}"]) for t in d_tags],
                "flags": {f: bool(int(row[f])) for f in SAMPLE_FLAGS},
            })
        true_fit = fit["fits"]["true"]
        functionals = {}
        for row in diag_rows:
            entry = functionals.setdefault(row["functional"], [])
            entry.append((float(row["value"]), int(row["floor_hits"])))
        summary = {
            "samples": samples,
            "fit": None if true_fit is None else {k: true_fit[k] for k in FIT_KEYS},
            "fit_flag": fit["fit_flags"]["true"],
            "eta_in_range": fit["eta_in_range"],
            "n_samples": fit["n_samples"],
            "d_list": fit["d_list"],
            "diagnostics": fit["diagnostics_summary"],
            "diagnostics_rows": {
                name: dict(_digest([v for v, _ in vals]), rows=len(vals),
                           floor_hits=sum(h for _, h in vals))
                for name, vals in sorted(functionals.items())
            },
        }

        failed = sum(s["flags"]["failed"] for s in samples)
        cells = _cells(self.config)
        problems = []
        if len(samples) != cells or fit["n_samples"] != cells:
            problems.append(f"{len(samples)} samples for {cells} cells")
        if failed:
            problems.append(f"{failed} failed cells")
        problems += _weighted_problems(watch, len(samples))
        if self.eta_gate and not fit["eta_in_range"]:
            problems.append("fitted eta outside (0, 1.2]")

        recon = [float(row[f"err_recon_d{t}"]) for row in rows for t in d_tags]
        recon = [v for v in recon if np.isfinite(v)]
        return Outcome(
            summary=summary,
            attempted=len(samples),
            failed=failed,
            problems=problems,
            unconverged=sum(not int(row["recon_converged"]) for row in rows
                            if not int(row["failed"])),
            err_recon_max=max(recon, default=0.0),
        )


@dataclass(frozen=True)
class PipelineWorkload:
    """`hybridlab synth`, then `diagnose` on every stored pair, then
    `counterexample`, all in this process through hybridlab.cli.main."""

    name: str
    why: str
    config: dict
    mmax: int

    def shrunk(self) -> "PipelineWorkload":
        return replace(self, mmax=10, config=_first_cell(self.config))

    def prepare(self, seed: int, workdir: Path):
        path = workdir / f"{self.name}.cfg"
        path.write_text(_config_text(self.config, seed))
        return path

    def run(self, inputs, out_dir: Path) -> None:
        pairs = out_dir / "pairs"
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(["synth", "--config", str(inputs),
                                   "--out", str(pairs)]))
            for manifest in sorted(pairs.glob("*/manifest.json")):
                codes.append(cli.main(["diagnose", "--pair", str(manifest)]))
            codes.append(cli.main([
                "counterexample", "--r", "1", "--R", "2",
                "--mmax", str(self.mmax), "--out", str(out_dir / "family.csv"),
            ]))
        (out_dir / "exit_codes.json").write_text(json.dumps(codes))

    def read(self, out_dir: Path, watch: PairWatch) -> Outcome:
        codes = json.loads((out_dir / "exit_codes.json").read_text())
        pairs = []
        for manifest in sorted((out_dir / "pairs").glob("*/manifest.json")):
            m = json.loads(manifest.read_text())
            diag = json.loads((manifest.parent / "diagnostics.json").read_text())
            pairs.append({
                "pair": manifest.parent.name,
                "amplitude": m["amplitude"],
                "seed": m["seed"],
                "epsilon": m["epsilon"],
                "bdry_gap": m["bdry_gap"],
                "flags": {f: m["flags"][f] for f in SAMPLE_FLAGS if f != "failed"},
                "diagnostics": {k: diag[k] for k in DIAG_KEYS},
            })
        with open(out_dir / "family.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        columns = {
            name: _digest([float(row[name]) for row in table])
            for name in (table[0].keys() if table else ())
        }
        summary = {"pairs": pairs,
                   "counterexample": {"rows": len(table), "columns": columns}}

        failed = sum(code != 0 for code in codes)
        problems = []
        if failed:
            problems.append(f"subcommand exit codes {codes}")
        if len(pairs) != _cells(self.config):
            problems.append(f"{len(pairs)} stored pairs, expected "
                            f"{_cells(self.config)}")
        for p in pairs:
            margin = p["diagnostics"]["proof_bound_margin"]
            if margin is None or not margin <= 1.0:
                problems.append(f"{p['pair']}: proof_bound_margin {margin}")
        problems += _weighted_problems(watch, len(pairs))
        if len(table) != self.mmax:
            problems.append(f"counterexample has {len(table)} rows, "
                            f"expected {self.mmax}")
        elif not columns["data_gap"]["max"] <= 2.0:
            problems.append(f"counterexample data_gap reaches "
                            f"{columns['data_gap']['max']}")
        return Outcome(summary=summary, attempted=len(codes), failed=failed,
                       problems=problems)


def _weighted_problems(watch: PairWatch, expected: int) -> list:
    if len(watch.pairs) != expected:
        return [f"weighted estimate checked on {len(watch.pairs)} of "
                f"{expected} pairs (missing targets: {watch.absent})"]
    return [f"weighted estimate fails for amplitude {p['amplitude']} "
            f"seed {p['seed']}" for p in watch.pairs if not p["holds"]]


WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        name="sweep-small",
        why="24 cells at 961 unknowns: per-operator factorization and "
            "per-cell overhead dominate; the acceptance-test physics",
        config=dict(BUMP_2D, **{"sweep.nx": "33", "sweep.seeds": "3",
                                "sweep.amplitudes": _amplitudes(np.geomspace(1, 8, 8))}),
        eta_gate=True,
    ),
    SweepWorkload(
        name="sweep-large",
        why="2 cells at 16,129 unknowns: Krylov solves, the shift-invert "
            "gap estimate and memory dominate",
        config=dict(BUMP_2D, **{"sweep.nx": "129", "sweep.amplitudes": "1,8"}),
        eta_gate=True,
    ),
    SweepWorkload(
        name="recon-slow",
        why="q near lambda_1 makes the reconstruction fixed point contract "
            "slowly (~95 iterations a cell), on the MINRES path; sweep-small "
            "is its control",
        config=dict(BUMP_2D, **{"sweep.nx": "65", "sweep.q": "const:16",
                                "sweep.k": "32", "sweep.e": "1000",
                                "sweep.amplitudes": "0.5,4"}),
        eta_gate=True,
    ),
    SweepWorkload(
        name="sweep-1d",
        why="1D sweep just past the dense limit: ill-conditioned "
            "tridiagonal systems on the iterative path",
        config={"sweep.nx": "2601", "sweep.ny": "1", "sweep.q": "const:2",
                "sweep.g": "coscos", "sweep.mode": "bump", "sweep.k": "4",
                "sweep.e": "50", "sweep.h": "0.05", "sweep.d": "0.125,0.25",
                "sweep.seeds": "1", "sweep.amplitudes": "0.02,0.3"},
        eta_gate=False,
    ),
    PipelineWorkload(
        name="pipeline-files",
        why="synth, diagnose and counterexample through the CLI: the only "
            "field-file writes and reads; forward solves without reconstruction",
        config=dict(BUMP_2D, **{"sweep.nx": "97", "sweep.seeds": "2",
                                "sweep.amplitudes": "1,2,4,8"}),
        mmax=400,
    ),
)}

# Run by name and by `--workload all`, but not listed in BENCHMARK.json,
# so that the listed ones can run longer within the time the whole series
# of benchmark runs may take (NOTES.md, Workloads).
UNLISTED = ("sweep-large", "sweep-1d")
