"""Sweep orchestration: run families of experiment pairs, fit the Holder
stability law, and emit deterministic reports.

A sweep walks a grid of (perturbation amplitude, seed) cells.  Each cell
synthesizes a pair, measures the data discrepancy epsilon a posteriori,
records the true coefficient error on every requested interior margin,
and runs the blind reconstruction from (F2, g), recording its error
as a check that exact data are reconstructed within recon.tol; that
error is solver noise at every epsilon, so it is not fitted.  Individual cell
failures are recorded as flagged samples; the sweep never aborts.  The
cells come from sweep_pairs, the one cell loop, which `hybridlab synth`
also draws from.

The summary fit is least squares of log(err) against log(sqrt(eps)+eps)
over hypothesis-satisfying converged samples.  The fitted power law is a
summary statistic, not the stability estimate itself; the envelope
property (samples under c_hat * x^eta_hat * exp(3 * residual)) is what
tests assert.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import (
    _read,
    field_from_spec,
    g_from_spec,
    get_float,
    get_float_list,
    get_int,
)
from .diagnostics import (
    DiagnosticsReport,
    collect_diagnostics,
    write_diagnostics_csv,
)
from .errors import ContractViolation, SolverError, UnderdeterminedFit
from .fields import (
    Grid,
    PriorBounds,
    interior_mask,
    write_csv,
    write_json,
    write_text,
)
from .forward import solve_dirichlet
from .reconstruction import reconstruct, reconstruction_error
from .synthesis import make_pair, perturb_coefficient

__all__ = [
    "SweepConfig",
    "SweepSample",
    "HolderFit",
    "StabilityReport",
    "fit_holder",
    "sweep_pairs",
    "run_sweep",
    "emit_report",
]


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs, echoable back into its report."""

    grid: Grid
    q_spec: str
    g_spec: str
    mode: str
    amplitudes: tuple
    seeds: int
    bounds: PriorBounds
    d_list: tuple
    out_dir: str | None = None
    seed0: int = 0
    jitter: float = 0.0
    solver_tol: float = 1e-9
    recon_tol: float = 1e-8
    recon_max_iter: int = 200
    recon_tau: float = 0.0
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        # written as `not x >= 0` so that NaN is refused too
        if len(self.amplitudes) == 0:
            raise ContractViolation("amplitude list must be nonempty")
        # amplitude 0 is allowed as an explicit degenerate control
        if not all(a >= 0 for a in self.amplitudes):
            raise ContractViolation("amplitudes must be nonnegative")
        if not self.seeds >= 1:
            raise ContractViolation("seeds per amplitude must be >= 1")
        if len(self.d_list) == 0:
            raise ContractViolation("d list must be nonempty")
        for d in self.d_list:  # interior_mask refuses d < 0 and NaN
            if not interior_mask(self.grid, d).any():
                raise ContractViolation(f"interior margin d = {d:g} leaves no interior node")

    @classmethod
    def from_config(cls, cfg: dict) -> "SweepConfig":
        # the fallbacks serve mappings built without config.DEFAULTS
        nx = get_int(cfg, "sweep.nx")
        ny = get_int(cfg, "sweep.ny", nx)
        lx = get_float(cfg, "sweep.lx", 1.0)
        grid = Grid(nx=nx, ny=ny, lx=lx,
                    ly=get_float(cfg, "sweep.ly", 0.0 if ny == 1 else lx))
        q_spec = _read(cfg, "sweep.q", str)
        g_spec = _read(cfg, "sweep.g", str)
        # sweep.d may be a comma list of margins; the first one is primary.
        d_list = tuple(get_float_list(cfg, "sweep.d"))
        if not d_list:
            raise ContractViolation("config key sweep.d must list at least one margin")
        return cls(
            grid=grid,
            q_spec=q_spec,
            g_spec=g_spec,
            mode=cfg.get("sweep.mode", "bump"),
            amplitudes=tuple(get_float_list(cfg, "sweep.amplitudes")),
            seeds=get_int(cfg, "sweep.seeds", 1),
            bounds=PriorBounds(
                k_bound=get_float(cfg, "sweep.k"),
                e_bound=get_float(cfg, "sweep.e"),
                h_bound=get_float(cfg, "sweep.h"),
                d_margin=d_list[0],
            ),
            d_list=d_list,
            out_dir=cfg.get("sweep.out"),
            seed0=get_int(cfg, "sweep.seed0", 0),
            jitter=get_float(cfg, "sweep.jitter", 0.0),
            solver_tol=get_float(cfg, "solver.tol", 1e-9),
            recon_tol=get_float(cfg, "recon.tol", 1e-8),
            recon_max_iter=get_int(cfg, "recon.max_iter", 200),
            recon_tau=get_float(cfg, "recon.tau", 0.0),
            echo={k: v for k, v in sorted(cfg.items())},
        )


@dataclass(frozen=True)
class SweepSample:
    """One (amplitude, seed) cell of a sweep.

    epsilon and err_l1_interior give the primary (first-margin) point;
    err_true / err_recon tabulate every requested margin.  A failed cell
    keeps NaN measurements and flags["failed"] = True.
    """

    amplitude: float
    seed: int
    epsilon: float
    bdry_gap: float
    err_l1_interior: float
    err_true: dict
    err_recon: dict
    flags: dict

    @property
    def usable(self) -> bool:
        """Eligible for the theorem-side fit."""
        return (
            not self.flags.get("failed", False)
            and self.flags.get("hypothesis_ok", False)
            and self.flags.get("k_ok", False)
            and self.flags.get("e_ok", False)
            and self.flags.get("h_ok", False)
            and np.isfinite(self.epsilon)
            and self.epsilon > 0.0
            and np.isfinite(self.err_l1_interior)
            and self.err_l1_interior > 0.0
        )


@dataclass(frozen=True)
class HolderFit:
    """Power-law summary err ~ c_hat * (sqrt(eps)+eps)^eta_hat."""

    c_hat: float
    eta_hat: float
    residual_rms: float
    eta_ci: tuple
    n_used: int
    n_excluded: int
    underdetermined: bool = False

    def envelope(self, epsilon):
        """Fitted curve value scaled by exp(3 * residual_rms)."""
        eps = np.asarray(epsilon, dtype=float)
        x = np.sqrt(eps) + eps
        return self.c_hat * x**self.eta_hat * math.exp(
            3.0 * self.residual_rms
        )


def _usable_points(samples):
    """(x, y) log-log points and the zero/invalid exclusion count."""
    xs, ys, excluded = [], [], 0
    for eps, err in samples:
        eps = float(eps)
        err = float(err)
        if not (np.isfinite(eps) and np.isfinite(err)) or eps <= 0 or err <= 0:
            excluded += 1
            continue
        xs.append(math.log(math.sqrt(eps) + eps))
        ys.append(math.log(err))
    return np.asarray(xs), np.asarray(ys), excluded


def fit_holder(samples) -> HolderFit:
    """Least squares of log(err) = log(C) + eta * log(sqrt(eps)+eps).

    samples is an iterable of (epsilon, err) pairs.  Entries with zero or
    non-finite values are excluded and counted.  Fewer than three usable
    points, or points without epsilon spread, raise UnderdeterminedFit.
    """
    xs, ys, excluded = _usable_points(samples)
    n = xs.size
    if n < 3:
        raise UnderdeterminedFit(
            f"need >= 3 usable samples with positive epsilon and err, got {n}"
        )
    if xs.max() - xs.min() < 1e-12:
        raise UnderdeterminedFit("samples do not span distinct epsilon values")

    design = np.column_stack([np.ones(n), xs])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    intercept, slope = coef
    resid = ys - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))

    # n > 2 and the epsilon spread make sxx positive
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / (n - 2) / sxx)
    return HolderFit(
        c_hat=float(np.exp(intercept)),
        eta_hat=float(slope),
        residual_rms=rms,
        eta_ci=(float(slope - 2.0 * se), float(slope + 2.0 * se)),
        n_used=int(n),
        n_excluded=int(excluded),
    )


def _two_point_fit(samples) -> HolderFit:
    """Exact line through two usable log-points, flagged underdetermined."""
    xs, ys, excluded = _usable_points(samples)
    if xs.size != 2 or abs(xs[1] - xs[0]) < 1e-12:
        raise UnderdeterminedFit("two distinct usable samples required")
    slope = float((ys[1] - ys[0]) / (xs[1] - xs[0]))
    intercept = float(ys[0] - slope * xs[0])
    return HolderFit(
        c_hat=float(np.exp(intercept)),
        eta_hat=slope,
        residual_rms=0.0,
        eta_ci=(slope, slope),
        n_used=2,
        n_excluded=int(excluded),
        underdetermined=True,
    )


@dataclass(frozen=True)
class StabilityReport:
    """Sweep outcome: samples, fits, a diagnostics digest, config echo."""

    samples: tuple
    fits: dict
    fit_flags: dict
    eta_in_range: bool
    diagnostics: DiagnosticsReport | None
    config_echo: dict
    d_list: tuple

    @property
    def fit(self) -> HolderFit | None:
        """The true fit, fits["true"]."""
        return self.fits.get("true")


def _fit_or_flag(points):
    """(fit, flag) where flag is 'ok', 'underdetermined', or 'skipped'."""
    try:
        return fit_holder(points), "ok"
    except UnderdeterminedFit:
        try:
            return _two_point_fit(points), "underdetermined"
        except UnderdeterminedFit:
            return None, "skipped"


def sweep_pairs(config: SweepConfig):
    """Synthesize every (amplitude, seed) cell in sweep order.

    Yields (amplitude, seed, pair); a cell whose pair synthesis raises
    SolverError or ContractViolation yields that exception in place of
    the pair, so the caller decides whether a failed cell is recorded or
    fatal.  The base coefficient q1 is solved against g once and that
    report is shared by every cell; when the base solve itself fails,
    every cell yields its exception.
    """
    q1 = field_from_spec(config.grid, config.q_spec)
    g = g_from_spec(config.grid, config.g_spec)
    try:
        base = solve_dirichlet(q1, g, config.solver_tol)
    except (SolverError, ContractViolation) as exc:
        base = exc
    for amplitude in config.amplitudes:
        for s in range(config.seeds):
            seed = config.seed0 + s
            result = perturb_coefficient(
                q1, config.mode, amplitude, seed, bounds=config.bounds
            )
            pair = base
            if not isinstance(base, Exception):
                try:
                    pair = make_pair(
                        q1, result.field, g, config.bounds,
                        seed=seed, mode=config.mode, amplitude=amplitude,
                        tol=config.solver_tol, jitter=config.jitter,
                        report1=base,
                    )
                except (SolverError, ContractViolation) as exc:
                    pair = exc
            yield amplitude, seed, pair


def run_sweep(config: SweepConfig) -> StabilityReport:
    """Execute every (amplitude, seed) cell and assemble the report.

    Deterministic given the config and the numerical environment: cell
    seeds are seed0 + seed index, samples are emitted in (amplitude, seed)
    order, and the diagnostics digest comes from the largest-amplitude,
    lowest-seed successful cell.  The same config, BLAS build, kernel and
    thread count reproduce every float exactly; across those, structure,
    flags and integers still match exactly while solver-derived floats
    agree only within solver_tol (relative) and reconstruction errors
    within recon_tol (absolute).  See "Reproducibility" in the README.
    """
    g = g_from_spec(config.grid, config.g_spec)

    samples = []
    diag_pair = None
    diag_key = None
    for amplitude, seed, pair in sweep_pairs(config):
        if isinstance(pair, Exception):
            samples.append(SweepSample(
                amplitude=float(amplitude), seed=int(seed),
                epsilon=float("nan"), bdry_gap=float("nan"),
                err_l1_interior=float("nan"),
                err_true={}, err_recon={},
                flags={"failed": True, "failure": type(pair).__name__},
            ))
            continue

        err_true = {
            d: reconstruction_error(pair.q1, pair.q2, d).l1
            for d in config.d_list
        }

        err_recon = {}
        flags = dict(pair.flags)
        flags["failed"] = False
        try:
            recon = reconstruct(
                pair.f2, g, config.bounds.k_bound,
                tol=config.recon_tol, max_iter=config.recon_max_iter,
                tau=config.recon_tau, solver_tol=config.solver_tol,
            )
            err_recon = {
                d: reconstruction_error(recon.q_hat, pair.q2, d).l1
                for d in config.d_list
            }
            flags["recon_converged"] = bool(recon.converged)
        except (SolverError, ContractViolation) as exc:
            flags["recon_converged"] = False
            flags["recon_failure"] = type(exc).__name__

        sample = SweepSample(
            amplitude=float(amplitude), seed=int(seed),
            epsilon=pair.epsilon, bdry_gap=pair.bdry_gap,
            err_l1_interior=err_true[config.d_list[0]],
            err_true=err_true, err_recon=err_recon,
            flags=flags,
        )
        samples.append(sample)

        if sample.usable:
            key = (amplitude, -seed)
            if diag_key is None or key > diag_key:
                diag_key = key
                diag_pair = pair

    d0 = config.d_list[0]
    true_points = [(s.epsilon, s.err_true[d0]) for s in samples if s.usable]
    true_fit, true_flag = _fit_or_flag(true_points)

    eta_in_range = (
        true_fit is not None and 0.0 < true_fit.eta_hat <= 1.2
    )
    diagnostics = (
        collect_diagnostics(diag_pair) if diag_pair is not None else None
    )
    return StabilityReport(
        samples=tuple(samples),
        fits={"true": true_fit},
        fit_flags={"true": true_flag},
        eta_in_range=bool(eta_in_range),
        diagnostics=diagnostics,
        config_echo=dict(config.echo),
        d_list=tuple(config.d_list),
    )


def _d_tag(d: float) -> str:
    return format(float(d), "g")


def _fit_payload(fit: HolderFit | None):
    return None if fit is None else asdict(fit)


def emit_report(report: StabilityReport, out_dir) -> dict:
    """Write samples.csv, fit.json, diagnostics.csv, and scatter.svg.

    Byte-deterministic given the report; returns {name: Path}.  An empty
    sample list still produces valid files with zero data rows.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"creating report directory {out}: {exc}") from exc

    ds = list(report.d_list)
    flag_cols = ["failed", "hypothesis_ok", "k_ok", "e_ok", "h_ok",
                 "recon_converged"]
    header = (
        ["amplitude", "seed", "epsilon", "bdry_gap"]
        + [f"err_true_d{_d_tag(d)}" for d in ds]
        + [f"err_recon_d{_d_tag(d)}" for d in ds]
        + flag_cols
    )
    rows = []
    for s in sorted(report.samples, key=lambda s: (s.amplitude, s.seed)):
        row = [s.amplitude, s.seed, s.epsilon, s.bdry_gap]
        row += [s.err_true.get(d, float("nan")) for d in ds]
        row += [s.err_recon.get(d, float("nan")) for d in ds]
        row += [int(bool(s.flags.get(c, False))) for c in flag_cols]
        rows.append(row)
    samples_path = write_csv(out / "samples.csv", header, rows)

    diag = report.diagnostics or DiagnosticsReport()
    diag_path = write_diagnostics_csv(diag, out / "diagnostics.csv")

    summary = (
        report.diagnostics.summary() if report.diagnostics is not None
        else None
    )
    fit_payload = {
        "fits": {k: _fit_payload(v) for k, v in sorted(report.fits.items())},
        "fit_flags": dict(sorted(report.fit_flags.items())),
        "eta_in_range": report.eta_in_range,
        "n_samples": len(report.samples),
        "d_list": ds,
        "diagnostics_summary": summary,
        "config": dict(sorted(report.config_echo.items())),
    }
    fit_path = write_json(out / "fit.json", fit_payload)
    svg_path = write_text(out / "scatter.svg", _scatter_svg(report))

    return {
        "samples": samples_path,
        "fit": fit_path,
        "diagnostics": diag_path,
        "scatter": svg_path,
    }


_SVG_W, _SVG_H = 640, 480
_SVG_L, _SVG_R, _SVG_T, _SVG_B = 70, 20, 20, 50
_FIT_COLORS = {"true": "#d1495b"}


def _svg_num(v: float) -> str:
    return format(float(v), ".6g")


def _scatter_svg(report: StabilityReport) -> str:
    """Hand-built log-log scatter: one circle per plottable sample, one
    polyline per fit, no timestamps or library metadata."""
    pts = []
    for s in sorted(report.samples, key=lambda s: (s.amplitude, s.seed)):
        if (np.isfinite(s.epsilon) and s.epsilon > 0
                and np.isfinite(s.err_l1_interior) and s.err_l1_interior > 0):
            x = math.sqrt(s.epsilon) + s.epsilon
            pts.append((math.log10(x), math.log10(s.err_l1_interior)))

    fits = [(k, f) for k, f in sorted(report.fits.items()) if f is not None]

    if pts:
        lx = [p[0] for p in pts]
        ly = [p[1] for p in pts]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        for _, f in fits:
            for xe in (x0, x1):
                ye = (math.log10(f.c_hat) + f.eta_hat * xe
                      if f.c_hat > 0 else 0.0)
                y0, y1 = min(y0, ye), max(y1, ye)
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx = 0.05 * (x1 - x0)
    pady = 0.05 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    plot_w = _SVG_W - _SVG_L - _SVG_R
    plot_h = _SVG_H - _SVG_T - _SVG_B

    def px(x):
        return _SVG_L + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return _SVG_T + (y1 - y) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="{_SVG_L}" y="{_SVG_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="white" stroke="black"/>',
    ]
    for tick in range(math.ceil(x0), math.floor(x1) + 1):
        tx = _svg_num(px(tick))
        parts.append(
            f'<line x1="{tx}" y1="{_svg_num(py(y0))}" x2="{tx}" '
            f'y2="{_svg_num(py(y0) + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{tx}" y="{_svg_num(py(y0) + 20)}" font-size="12" '
            f'text-anchor="middle">1e{tick}</text>'
        )
    for tick in range(math.ceil(y0), math.floor(y1) + 1):
        ty = _svg_num(py(tick))
        parts.append(
            f'<line x1="{_svg_num(px(x0) - 5)}" y1="{ty}" '
            f'x2="{_svg_num(px(x0))}" y2="{ty}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_svg_num(px(x0) - 8)}" y="{ty}" font-size="12" '
            f'text-anchor="end" dominant-baseline="middle">1e{tick}</text>'
        )
    parts.append(
        f'<text x="{_svg_num(_SVG_L + plot_w / 2)}" y="{_SVG_H - 10}" '
        f'font-size="13" text-anchor="middle">'
        'data discrepancy sqrt(eps)+eps (log scale)</text>'
    )
    parts.append(
        f'<text x="15" y="{_svg_num(_SVG_T + plot_h / 2)}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 15 '
        f'{_svg_num(_SVG_T + plot_h / 2)})">coefficient error (log scale)'
        '</text>'
    )

    for name, f in fits:
        if f.c_hat <= 0:
            continue
        xa, xb = x0 + padx, x1 - padx
        ya = math.log10(f.c_hat) + f.eta_hat * xa
        yb = math.log10(f.c_hat) + f.eta_hat * xb
        color = _FIT_COLORS.get(name, "#555555")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{_svg_num(px(xa))},{_svg_num(py(ya))} '
            f'{_svg_num(px(xb))},{_svg_num(py(yb))}"/>'
        )
    for x, y in pts:
        parts.append(
            f'<circle cx="{_svg_num(px(x))}" cy="{_svg_num(py(y))}" r="3" '
            'fill="#1f6fb4" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
