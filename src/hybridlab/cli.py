"""Command line front end.

Subcommands: forward, synth, reconstruct, diagnose, counterexample,
sweep.  Exit codes: 0 success, 2 contract violation (bad arguments,
malformed inputs), 3 solver failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .config import DEFAULTS, g_from_spec, parse_config
from .counterexample import pathology_table, write_pathology_csv
from .diagnostics import CSV_COLUMNS, collect_diagnostics
from .errors import ContractViolation, SolverError
from .fields import load_field, save_field, write_csv, write_json
from .forward import solve_dirichlet
from .harness import SweepConfig, emit_report, run_sweep, sweep_pairs
from .reconstruction import reconstruct, save_result_manifest
from .synthesis import load_pair, save_pair

__all__ = ["main"]


def _cmd_forward(args) -> int:
    q = load_field(args.q)
    g = g_from_spec(q.grid, args.g)
    report = solve_dirichlet(q, g, tol=args.tol)
    save_field(report.u, args.out)
    print(
        f"forward: solved {q.grid.nx}x{q.grid.ny} with method={report.method} "
        f"residual={report.residual_linf:.3e} "
        f"gap={report.eigen_gap_estimate:.3e} "
        f"gap_converged={report.gap_converged} -> {args.out}"
    )
    return 0


def _sweep_config(args) -> tuple[SweepConfig, Path]:
    """The sweep config and its output directory, --out else sweep.out."""
    cfg = SweepConfig.from_config(parse_config(args.config))
    out = args.out or cfg.out_dir
    if not out:
        raise ContractViolation(f"{args.command} needs an output directory: "
                                "set sweep.out or pass --out")
    return cfg, Path(out)


def _cmd_synth(args) -> int:
    cfg, out = _sweep_config(args)
    tags = [format(a, "g") for a in cfg.amplitudes]
    if len(set(tags)) < len(tags):
        raise ContractViolation(
            f"amplitudes {list(cfg.amplitudes)} give pair directory tags "
            f"{tags}, which collide; synth would overwrite pairs"
        )
    written = 0
    for amplitude, seed, pair in sweep_pairs(cfg):
        if isinstance(pair, Exception):
            raise pair
        save_pair(pair, out / f"pair_a{format(amplitude, 'g')}_s{seed}")
        written += 1
    print(f"synth: wrote {written} pairs under {out}")
    return 0


def _cmd_reconstruct(args) -> int:
    f = load_field(args.f)
    g = g_from_spec(f.grid, args.g)
    result = reconstruct(f, g, args.k, tol=args.tol, max_iter=args.max_iter)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_field(result.u_hat, out / "u.field")
    save_field(result.q_hat, out / "q.field")
    save_result_manifest(result, out / "result.json")
    status = "converged" if result.converged else "NOT converged"
    admissible = ("admissible" if result.admissible else
                  f"NOT admissible ({int(result.projected_mask.sum())} "
                  f"nodes projected onto [1/K, K])")
    sign = ", u_hat changes sign" if result.sign_change else ""
    print(
        f"reconstruct: {status} in {result.iterations} iterations "
        f"(update {result.final_update_linf:.3e}, floor hits "
        f"{result.floor_hits}), {admissible}{sign} -> {out}"
    )
    return 0


def _cmd_diagnose(args) -> int:
    manifest = Path(args.pair)
    pair = load_pair(manifest)
    report = collect_diagnostics(pair)
    directory = manifest.parent if manifest.is_file() else manifest
    csv_path = write_csv(directory / "diagnostics.csv", CSV_COLUMNS,
                         report.rows)
    json_path = write_json(directory / "diagnostics.json", report.summary())
    print(
        f"diagnose: max_doubling={report.max_doubling} "
        f"min_propagation={report.min_propagation} "
        f"best_delta={report.best_delta} "
        f"proof_bound_margin={report.proof_bound_margin} "
        f"-> {csv_path}, {json_path}"
    )
    return 0


def _cmd_counterexample(args) -> int:
    rows = pathology_table(args.r, args.R, args.mmax)
    path = write_pathology_csv(rows, args.out)
    last = rows[-1]
    print(
        f"counterexample: {len(rows)} members, last has A_m={last.a_m:.6g} "
        f"data_gap={last.data_gap:.6g} coef_gap_p1={last.coef_gaps[1.0]:.6g} "
        f"-> {path}"
    )
    return 0


def _cmd_sweep(args) -> int:
    cfg, out = _sweep_config(args)
    report = run_sweep(cfg)
    files = emit_report(report, out)
    fit = report.fit
    usable = sum(s.usable for s in report.samples)
    values = "" if fit is None else (
        f" eta_hat={fit.eta_hat:.4f} c_hat={fit.c_hat:.4g} "
        f"residual={fit.residual_rms:.4f} eta_in_range={report.eta_in_range}")
    print(f"sweep: {len(report.samples)} samples, {usable} usable, "
          f"fit {report.fit_flag}{values} -> {files['fit']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridlab",
        description=(
            "Numerical laboratory for recovering a coefficient from "
            "internal data of Schrodinger-type solutions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve one Dirichlet problem")
    p.add_argument("--q", required=True, help="coefficient field file")
    p.add_argument("--g", required=True, help="boundary spec (const:V|coscos|expr:E|file:P)")
    p.add_argument("--out", required=True, help="output field file")
    # argparse parses a string default with type, as it would the flag
    p.add_argument("--tol", type=float, default=DEFAULTS["solver.tol"])
    p.set_defaults(handler=_cmd_forward)

    p = sub.add_parser("synth", help="synthesize experiment pairs from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override sweep.out")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("reconstruct", help="recover (u, q) from internal data")
    p.add_argument("--f", required=True, help="internal data field file")
    p.add_argument("--g", required=True, help="boundary spec")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=float, default=10.0, help="coefficient bound K")
    p.add_argument("--tol", type=float, default=DEFAULTS["recon.tol"])
    p.add_argument("--max-iter", type=int, default=DEFAULTS["recon.max_iter"])
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("diagnose", help="run diagnostics on a stored pair")
    p.add_argument("--pair", required=True, help="pair manifest or directory")
    p.set_defaults(handler=_cmd_diagnose)

    p = sub.add_parser("counterexample", help="tabulate the oscillatory family")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--R", type=float, required=True, dest="R")
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("sweep", help="run a stability sweep and emit reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override sweep.out")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return args.handler(args)
    except ValueError as exc:
        # ContractViolation and json.JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
