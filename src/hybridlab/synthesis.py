"""Synthetic experiment pairs for the internal-data inverse problem.

A pair is two coefficients (q1, q2) driven by the same Dirichlet data g,
solved exactly (to solver tolerance), with internal measurements
F_i = q_i u_i^2.  The discrepancy level

    epsilon = || q1 u1^2 - q2 u2^2 ||_inf

is realized by construction rather than injected as noise on F: raw
noise generally yields data inconsistent with any coefficient-solution
pair, leaving the regime where stability statements apply.  Using the
same g for both solutions makes the boundary-gap hypothesis

    || |u1| - |u2| ||_{L_inf(boundary)} <= sqrt(K epsilon)

hold with gap 0; an optional jitter re-solves u2 with perturbed data to
stress precisely that margin.  A-priori bound violations (coefficient
range K, energy E, nondegeneracy H) are recorded as flags, never
silently repaired, so negative controls stay in the sample.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .fields import (
    Grid,
    PriorBounds,
    ScalarField,
    as_point,
    boundary_values,
    energy,
    integrate,
    load_field,
    save_field,
    write_json,
)
from .forward import DiscreteOperator, SolveReport

__all__ = [
    "PerturbResult",
    "ExperimentPair",
    "internal_data",
    "perturb_coefficient",
    "make_pair",
    "save_pair",
    "load_pair",
]

def internal_data(q: ScalarField, u: ScalarField) -> ScalarField:
    """The measured field F = q u^2, nodewise; even in the sign of u."""
    if q.grid != u.grid:
        raise ContractViolation("q and u live on different grids")
    return ScalarField(q.grid, q.values * u.values**2)


@dataclass(frozen=True)
class PerturbResult:
    """A drawn coefficient perturbation plus its clipping record."""

    field: ScalarField
    mode: str
    amplitude: float
    seed: int
    clipped_fraction: float
    saturated: bool
    center: tuple[float, float] | None = None
    width: float | None = None


def _bump_profile(grid: Grid, center, width: float) -> np.ndarray:
    X, Y = grid.meshgrid()
    cx, cy = center
    return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / width**2)


def _draw_profile(grid: Grid, mode: str, rng, center, width):
    ly = grid.lx if grid.is_1d else grid.ly
    if mode == "bump":
        if center is None:
            cx = float(rng.uniform(0.3, 0.7)) * grid.lx
            cy = 0.0 if grid.is_1d else float(rng.uniform(0.3, 0.7)) * grid.ly
            center = (cx, cy)
        else:
            center = as_point(grid, center)
        if width is None:
            width = float(rng.uniform(0.1, 0.2)) * min(grid.lx, ly)
        return _bump_profile(grid, center, width), center, float(width)
    if mode == "smooth-random":
        x = grid.xs() / grid.lx
        t = np.zeros(grid.shape)
        if grid.is_1d:
            for k in (1, 2):
                t += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * x)[None, :]
        else:
            y = grid.ys() / grid.ly
            for k in (1, 2):
                for l in (1, 2):
                    t += rng.uniform(-1.0, 1.0) * np.outer(
                        np.sin(l * np.pi * y), np.sin(k * np.pi * x)
                    )
        peak = np.max(np.abs(t))
        return (t / peak if peak > 0 else t), None, None
    if mode == "piecewise":
        def side(scale):
            lo = rng.uniform(0.1, 0.6) * scale
            hi = min(lo + rng.uniform(0.25, 0.6) * scale, 0.9 * scale)
            return lo, hi
        x0, x1 = side(grid.lx)
        X, Y = grid.meshgrid()
        inside = (X >= x0) & (X <= x1)
        if not grid.is_1d:
            y0, y1 = side(grid.ly)
            inside &= (Y >= y0) & (Y <= y1)
        return inside.astype(float), None, None
    raise ContractViolation(f"unknown perturbation mode {mode!r}")


def perturb_coefficient(q: ScalarField, mode: str, amplitude: float,
                        seed: int, *, bounds: PriorBounds | None = None,
                        center=None, width: float | None = None) -> PerturbResult:
    """Draw a deterministic perturbation of q and clip it to [1/K, K].

    Modes: `bump` adds amplitude * exp(-|x-c|^2/w^2) at a drawn (or given)
    center and width; `smooth-random` adds a low-order random sine
    polynomial scaled to sup amplitude; `piecewise` adds amplitude on a
    random axis-aligned subrectangle.  Clipping more than half the nodes
    raises a saturation warning and sets the flag.
    """
    if amplitude < 0:
        raise ContractViolation(f"amplitude must be >= 0, got {amplitude}")
    rng = np.random.default_rng(seed)
    profile, center, width = _draw_profile(q.grid, mode, rng, center, width)
    raw = q.values + amplitude * profile
    if bounds is not None:
        clipped = np.clip(raw, 1.0 / bounds.k_bound, bounds.k_bound)
    else:
        clipped = raw
    frac = float(np.mean(clipped != raw))
    saturated = frac > 0.5
    if saturated:
        warnings.warn(
            f"perturbation clipped at {frac:.0%} of nodes; amplitude "
            f"{amplitude} saturates the coefficient range",
            stacklevel=2,
        )
    return PerturbResult(
        field=ScalarField(q.grid, clipped),
        mode=mode,
        amplitude=float(amplitude),
        seed=int(seed),
        clipped_fraction=frac,
        saturated=saturated,
        center=center,
        width=width,
    )


@dataclass(frozen=True)
class ExperimentPair:
    """Two solved experiments sharing boundary data, plus hypothesis flags.

    flags records k_ok/e_ok/h_ok (a-priori bounds hold for both sides)
    and hypothesis_ok (boundary gap within sqrt(K epsilon)).
    """

    q1: ScalarField
    q2: ScalarField
    u1: ScalarField
    u2: ScalarField
    f1: ScalarField
    f2: ScalarField
    epsilon: float
    bdry_gap: float
    bounds: PriorBounds
    seed: int
    mode: str
    amplitude: float
    flags: dict
    report1: SolveReport | None = None
    report2: SolveReport | None = None

    @property
    def grid(self) -> Grid:
        return self.q1.grid

    @property
    def hypothesis_ok(self) -> bool:
        return bool(self.flags["hypothesis_ok"])


def _check_bounds_flags(pair_fields, bounds: PriorBounds) -> dict:
    k, e2, h2 = bounds.k_bound, bounds.e_bound**2, bounds.h_bound**2
    tol = 1e-12 * k
    k_ok = all(
        q.values.min() >= 1.0 / k - tol and q.values.max() <= k + tol
        for q, _ in pair_fields
    )
    e_ok = all(energy(u) <= e2 * (1 + 1e-9) for _, u in pair_fields)
    h_ok = all(
        integrate(internal_data(q, u)) >= h2 * (1 - 1e-9)
        for q, u in pair_fields
    )
    return {"k_ok": k_ok, "e_ok": e_ok, "h_ok": h_ok}


def make_pair(q1: ScalarField, q2: ScalarField, g, bounds: PriorBounds, *,
              seed: int = 0, mode: str = "custom", amplitude: float = 0.0,
              tol: float = 1e-9, jitter: float = 0.0,
              report1: SolveReport | None = None) -> ExperimentPair:
    """Solve both coefficients against the same g and package the pair.

    epsilon is the grid sup norm of f1 - f2; bdry_gap the sup over
    boundary nodes of ||u1| - |u2||, zero by construction unless jitter
    re-solves u2 with boundary data displaced by at most
    jitter * sqrt(K * epsilon).  Near-singular solves propagate.
    report1, when given, is the solve of q1 against g already at hand
    (a sweep solves its base coefficient once) and is used in place of
    solving q1 again.
    """
    if q1.grid != q2.grid:
        raise ContractViolation("pair coefficients live on different grids")
    gvec = boundary_values(q1.grid, g)
    rep1 = (report1 if report1 is not None
            else DiscreteOperator(q1).solve(gvec, tol))
    if rep1.u.grid != q1.grid:
        raise ContractViolation("report1 lives on another grid than q1")
    op2 = DiscreteOperator(q2)
    rep2 = op2.solve(gvec, tol)
    f1 = internal_data(q1, rep1.u)
    f2 = internal_data(q2, rep2.u)
    eps = float(np.max(np.abs(f1.values - f2.values)))
    if jitter > 0.0:
        rng = np.random.default_rng(seed + 7_650_413)
        delta = jitter * np.sqrt(bounds.k_bound * eps)
        g2 = gvec + delta * rng.uniform(-1.0, 1.0, size=gvec.shape)
        rep2 = op2.solve(g2, tol)
        f2 = internal_data(q2, rep2.u)
        eps = float(np.max(np.abs(f1.values - f2.values)))
    tr1 = boundary_values(q1.grid, rep1.u)
    tr2 = boundary_values(q1.grid, rep2.u)
    gap = float(np.max(np.abs(np.abs(tr1) - np.abs(tr2))))
    flags = _check_bounds_flags([(q1, rep1.u), (q2, rep2.u)], bounds)
    flags["hypothesis_ok"] = bool(gap <= np.sqrt(bounds.k_bound * eps) + 1e-15)
    return ExperimentPair(
        q1=q1, q2=q2, u1=rep1.u, u2=rep2.u, f1=f1, f2=f2,
        epsilon=eps, bdry_gap=gap, bounds=bounds,
        seed=int(seed), mode=mode, amplitude=float(amplitude),
        flags=flags, report1=rep1, report2=rep2,
    )


def save_pair(pair: ExperimentPair, directory) -> Path:
    """Write manifest.json plus the four field files; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, field in (("q1", pair.q1), ("q2", pair.q2),
                        ("u1", pair.u1), ("u2", pair.u2)):
        save_field(field, directory / f"{name}.field")
    manifest = {
        "seed": pair.seed,
        "mode": pair.mode,
        "amplitude": pair.amplitude,
        "epsilon": pair.epsilon,
        "bdry_gap": pair.bdry_gap,
        "k": pair.bounds.k_bound,
        "e": pair.bounds.e_bound,
        "h": pair.bounds.h_bound,
        "d": pair.bounds.d_margin,
        "flags": pair.flags,
    }
    return write_json(directory / "manifest.json", manifest)


def load_pair(path) -> ExperimentPair:
    """Read a pair from its manifest (or directory), re-deriving F and
    re-validating the stored epsilon against the loaded fields."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    with open(path) as fh:
        try:
            m = json.load(fh)
            stored_eps = float(m["epsilon"])
            bounds = PriorBounds(k_bound=m["k"], e_bound=m["e"],
                                 h_bound=m["h"], d_margin=m["d"])
            record = dict(bdry_gap=float(m["bdry_gap"]), seed=int(m["seed"]),
                          mode=str(m["mode"]), amplitude=float(m["amplitude"]),
                          flags=dict(m["flags"]))
        except KeyError as exc:
            raise ContractViolation(f"{path}: manifest lacks key {exc}") from None
        except (ValueError, TypeError) as exc:
            raise ContractViolation(f"{path}: malformed manifest: {exc}") from None
    directory = path.parent
    fields = {name: load_field(directory / f"{name}.field")
              for name in ("q1", "q2", "u1", "u2")}
    f1 = internal_data(fields["q1"], fields["u1"])
    f2 = internal_data(fields["q2"], fields["u2"])
    eps = float(np.max(np.abs(f1.values - f2.values)))
    if abs(eps - stored_eps) > 1e-12 * max(1.0, eps):
        raise ContractViolation(
            f"manifest epsilon {stored_eps} disagrees with fields ({eps})"
        )
    return ExperimentPair(
        q1=fields["q1"], q2=fields["q2"], u1=fields["u1"], u2=fields["u2"],
        f1=f1, f2=f2, epsilon=eps, bounds=bounds, **record,
    )
