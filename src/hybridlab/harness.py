"""Sweep orchestration: run families of experiment pairs, fit the Holder
stability law, and emit deterministic reports.

A sweep walks a grid of (perturbation amplitude, seed) cells.  Each cell
synthesizes a pair, measures the data discrepancy epsilon a posteriori,
records the true coefficient error on every requested interior margin,
and runs the blind reconstruction from (F2, u2's boundary trace),
recording its error as a check that exact data are reconstructed within
recon.tol; that error is solver noise at every epsilon and boundary
jitter, so it is not fitted.  Individual cell failures are recorded as
flagged samples; the sweep never aborts.  The cells come from
sweep_pairs, the one cell loop, which `hybridlab synth` also draws from.

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

from .config import DEFAULTS, _read, field_from_spec, g_from_spec
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
    echo: dict = field(default_factory=dict)

    def __post_init__(self):
        # every rule is written so that NaN breaks it; amplitude 0 is
        # allowed as an explicit degenerate control
        for ok, message in (
                (len(self.amplitudes) > 0, "amplitude list must be nonempty"),
                (all(a >= 0 for a in self.amplitudes), "amplitudes must be nonnegative"),
                (self.seeds >= 1, "seeds per amplitude must be >= 1"),
                (len(self.d_list) > 0, "d list must be nonempty"),
                (self.solver_tol > 0, f"solver.tol must be > 0, got {self.solver_tol}"),
                (self.recon_tol > 0, f"recon.tol must be > 0, got {self.recon_tol}"),
                (self.recon_max_iter >= 1,
                 f"recon.max_iter must be >= 1, got {self.recon_max_iter}"),
                (self.jitter >= 0, f"sweep.jitter must be >= 0, got {self.jitter}")):
            if not ok:
                raise ContractViolation(message)
        for d in self.d_list:  # interior_mask refuses d < 0 and NaN
            if not interior_mask(self.grid, d).any():
                raise ContractViolation(f"interior margin d = {d:g} leaves no interior node")

    @classmethod
    def from_config(cls, cfg: dict) -> "SweepConfig":
        """The sweep that a mapping of config keys to strings describes,
        read over config.DEFAULTS, each key once; the echo is that merged
        mapping, sorted.  A missing key, a value that does not parse, a
        non-finite float or a key not read here raises ContractViolation
        naming the key; __post_init__ then checks the values."""
        echo = dict(sorted({**DEFAULTS, **cfg}.items()))
        rest = dict(echo)  # _read pops each key it reads

        def floats(raw):
            return tuple(float(part) for part in raw.split(",") if part.strip())

        nx = _read(rest, "sweep.nx", int)
        ny = _read(rest, "sweep.ny", int, nx)
        lx = _read(rest, "sweep.lx", float, 1.0)
        grid = Grid(nx=nx, ny=ny, lx=lx,
                    ly=_read(rest, "sweep.ly", float, 0.0 if ny == 1 else lx))
        q_spec = _read(rest, "sweep.q", str)
        g_spec = _read(rest, "sweep.g", str)
        # sweep.d may be a comma list of margins; the first one is primary.
        d_list = _read(rest, "sweep.d", floats)
        if not d_list:
            raise ContractViolation("config key sweep.d must list at least one margin")
        config = cls(
            grid=grid,
            q_spec=q_spec,
            g_spec=g_spec,
            mode=rest.pop("sweep.mode", "bump"),
            amplitudes=_read(rest, "sweep.amplitudes", floats),
            seeds=_read(rest, "sweep.seeds", int, 1),
            bounds=PriorBounds(
                k_bound=_read(rest, "sweep.k", float),
                e_bound=_read(rest, "sweep.e", float),
                h_bound=_read(rest, "sweep.h", float),
                d_margin=d_list[0],
            ),
            d_list=d_list,
            out_dir=rest.pop("sweep.out", None),
            seed0=_read(rest, "sweep.seed0", int, 0),
            jitter=_read(rest, "sweep.jitter", float),
            solver_tol=_read(rest, "solver.tol", float),
            recon_tol=_read(rest, "recon.tol", float),
            recon_max_iter=_read(rest, "recon.max_iter", int),
            echo=echo,
        )
        if rest:
            raise ContractViolation(f"unknown config key {min(rest)!r}")
        return config


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


@dataclass(frozen=True)
class StabilityReport:
    """Sweep outcome: samples, the one fit and its flag, a diagnostics
    digest, and the config that ran."""

    samples: tuple
    config: SweepConfig
    fit: HolderFit | None
    fit_flag: str
    diagnostics: DiagnosticsReport | None

    @property
    def eta_in_range(self) -> bool:
        return self.fit is not None and 0.0 < self.fit.eta_hat <= 1.2


def _fit_or_flag(points):
    """(fit, flag) where flag is 'ok', 'skipped', or 'underdetermined'
    for the exact line through exactly two distinct usable points."""
    try:
        return fit_holder(points), "ok"
    except UnderdeterminedFit:
        pass
    xs, ys, excluded = _usable_points(points)
    if xs.size != 2 or abs(xs[1] - xs[0]) < 1e-12:
        return None, "skipped"
    slope = float((ys[1] - ys[0]) / (xs[1] - xs[0]))
    return HolderFit(
        c_hat=float(np.exp(ys[0] - slope * xs[0])),
        eta_hat=slope,
        residual_rms=0.0,
        eta_ci=(slope, slope),
        n_used=2,
        n_excluded=int(excluded),
        underdetermined=True,
    ), "underdetermined"


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
            # u2's trace made F2: g, or the displaced g2 under jitter
            recon = reconstruct(
                pair.f2, pair.u2, config.bounds.k_bound,
                tol=config.recon_tol, max_iter=config.recon_max_iter,
                solver_tol=config.solver_tol,
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

    fit, fit_flag = _fit_or_flag(
        [(s.epsilon, s.err_l1_interior) for s in samples if s.usable])
    diagnostics = (
        collect_diagnostics(diag_pair) if diag_pair is not None else None
    )
    return StabilityReport(
        samples=tuple(samples), config=config, fit=fit, fit_flag=fit_flag,
        diagnostics=diagnostics,
    )


def _d_tag(d: float) -> str:
    return format(float(d), "g")


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

    ds = list(report.config.d_list)
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
    fit = report.fit  # keyed "true", as report readers expect
    fit_payload = {
        "fits": {"true": None if fit is None else asdict(fit)},
        "fit_flags": {"true": report.fit_flag},
        "eta_in_range": report.eta_in_range,
        "n_samples": len(report.samples),
        "d_list": ds,
        "diagnostics_summary": summary,
        "config": report.config.echo,
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


def _svg_num(v: float) -> str:
    return format(float(v), ".6g")


def _scatter_svg(report: StabilityReport) -> str:
    """Hand-built log-log scatter: one circle per plottable sample, a
    polyline for the fit, no timestamps or library metadata."""
    pts = []
    for s in sorted(report.samples, key=lambda s: (s.amplitude, s.seed)):
        if (np.isfinite(s.epsilon) and s.epsilon > 0
                and np.isfinite(s.err_l1_interior) and s.err_l1_interior > 0):
            x = math.sqrt(s.epsilon) + s.epsilon
            pts.append((math.log10(x), math.log10(s.err_l1_interior)))

    fit = report.fit if report.fit and report.fit.c_hat > 0 else None

    def fit_y(x):
        return math.log10(fit.c_hat) + fit.eta_hat * x

    if pts:
        lx = [p[0] for p in pts]
        ly = [p[1] for p in pts]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        if fit is not None:
            ye = (fit_y(x0), fit_y(x1))
            y0, y1 = min(y0, *ye), max(y1, *ye)
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

    if fit is not None:
        xa, xb = x0 + padx, x1 - padx
        parts.append(
            '<polyline fill="none" stroke="#d1495b" stroke-width="1.5" '
            f'points="{_svg_num(px(xa))},{_svg_num(py(fit_y(xa)))} '
            f'{_svg_num(px(xb))},{_svg_num(py(fit_y(xb)))}"/>'
        )
    for x, y in pts:
        parts.append(
            f'<circle cx="{_svg_num(px(x))}" cy="{_svg_num(py(y))}" r="3" '
            'fill="#1f6fb4" fill-opacity="0.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
