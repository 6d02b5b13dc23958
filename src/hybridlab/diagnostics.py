"""Quantitative unique-continuation diagnostics.

Solutions of laplacian(u) + q u = 0 cannot vanish to high order, and a
chain of classical facts turns that into measurable numbers: doubling
ratios of ball integrals, propagation-of-smallness ratios, Muckenhoupt
A_p products of u^2, and negative-power integrability of |u| on interior
regions.  These constants feed the stability theory: an integrable
|u|^{-delta} on the interior yields the Holder exponent
eta = delta / (delta + 2), and the weighted estimates

    int (|u1|+|u2|) (|u1|-|u2|)^2  <=  16 K eps int (|u1|+|u2|)
    int |q1-q2| u1^2               <=  C (eps + sqrt(eps))
    t * || q1-q2 ||_{L1(D_t)}      <=  K int |q1-q2| u1^2

are checked directly on synthesized pairs, with the explicit factor
16 K eps serving as the strongest quantitative acceptance gate.  All
constants here are measured, never certified; grids cannot host genuine
singularities, so negative powers are floored with hit counts and
divergence is diagnosed through refinement trends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DegenerateBall
from .fields import (
    Grid,
    ScalarField,
    as_point,
    ball_mask,
    full_mask,
    integrate,
    interior_mask,
    mask_measure,
    masked_sum,
    norms,
)
from .synthesis import ExperimentPair

__all__ = [
    "TAU_AP",
    "CSV_COLUMNS",
    "WeightedChecks",
    "LevelSetResult",
    "DiagnosticsReport",
    "doubling_ratio",
    "propagation_ratio",
    "muckenhoupt_value",
    "negative_power_integral",
    "weighted_checks",
    "level_set_error",
    "delta_from_p",
    "eta_from_delta",
    "collect_diagnostics",
]

TAU_AP = 1e-12
DENOM_FLOOR = 1e-300


def _sq_integral(u: ScalarField, mask: np.ndarray) -> float:
    """Integral of u^2 over the masked nodes, squaring only those."""
    return masked_sum(u.grid, mask, u.values[mask] ** 2)


def _require_ball_inside(grid: Grid, center, r: float) -> None:
    cx, cy = as_point(grid, center)
    ok = 0.0 <= cx - r and cx + r <= grid.lx
    if not grid.is_1d:
        ok = ok and 0.0 <= cy - r and cy + r <= grid.ly
    if not ok:
        raise ContractViolation(
            f"ball of radius {r} at {center} is not contained in the domain"
        )


def doubling_ratio(u: ScalarField, center, r: float) -> float:
    """Ratio of the u^2 mass on B_2r to that on B_r around one center.

    Bounded ratios are the discrete face of the doubling property; the
    ratio blows up exactly when u concentrates oscillation at the
    center, which the oscillatory 1D family demonstrates.
    """
    _require_ball_inside(u.grid, center, 2.0 * r)
    denom = _sq_integral(u, ball_mask(u.grid, center, r))
    if denom < DENOM_FLOOR:
        raise DegenerateBall(
            f"inner ball at {center}, r={r} carries no u^2 mass"
        )
    return _sq_integral(u, ball_mask(u.grid, center, 2.0 * r)) / denom


def propagation_ratio(u: ScalarField, center, r: float) -> float:
    """Fraction of the global u^2 mass seen by B_r(center), in [0, 1]."""
    _require_ball_inside(u.grid, center, r)
    total = _sq_integral(u, full_mask(u.grid))
    if total < DENOM_FLOOR:
        raise ContractViolation("u vanishes identically; ratio undefined")
    return _sq_integral(u, ball_mask(u.grid, center, r)) / total


def muckenhoupt_value(u: ScalarField, center, r: float, p: float):
    """A_p product (avg u^2) * (avg |u|^(-2/(p-1)))^(p-1) on B_r(center).

    |u| is floored at TAU_AP inside the negative power; returns
    (value, floor_hits).  Equals 1 exactly for constant fields.
    """
    if not p > 1.0:  # refuses NaN too
        raise ContractViolation(f"Muckenhoupt exponent needs p > 1, got {p}")
    _require_ball_inside(u.grid, center, r)
    mask = ball_mask(u.grid, center, r)
    measure = mask_measure(u.grid, mask)
    if measure <= 0.0:
        raise DegenerateBall(f"ball at {center}, r={r} contains no nodes")
    absu = np.abs(u.values[mask])
    hits = int(np.count_nonzero(absu < TAU_AP))
    floored = np.maximum(absu, TAU_AP)
    avg_sq = _sq_integral(u, mask) / measure
    avg_neg = masked_sum(u.grid, mask, floored ** (-2.0 / (p - 1.0))) / measure
    return avg_sq * avg_neg ** (p - 1.0), hits


def negative_power_integral(u: ScalarField, d: float, delta: float):
    """Interior integral of clamp(|u|, TAU_AP)^(-delta) over the margin-d
    region; returns (value, floor_hits).

    Finiteness under grid refinement is the empirical stand-in for the
    negative-power integrability that controls the Holder exponent.
    """
    if not delta > 0.0:
        raise ContractViolation(f"delta must be positive, got {delta}")
    mask = interior_mask(u.grid, d)
    if not mask.any():
        raise ContractViolation(f"interior margin {d} leaves no nodes")
    absu = np.abs(u.values)
    hits = int(np.count_nonzero(mask & (absu < TAU_AP)))
    floored = np.maximum(absu, TAU_AP)
    value = integrate(ScalarField(u.grid, floored ** (-delta)), mask)
    return value, hits


@dataclass(frozen=True)
class WeightedChecks:
    """The weighted-estimate quantities of one pair, all nonnegative.

    lhs and proof_bound realize the two sides of the explicit inequality
    int (|u1|+|u2|)(|u1|-|u2|)^2 <= 16 K eps int (|u1|+|u2|); l3_lhs is
    dominated by lhs pointwise; weightq_lhs = int |q1-q2| u1^2 with its
    theoretical input scale eps + sqrt(eps) recorded alongside.
    """

    lhs: float
    proof_bound: float
    l3_lhs: float
    weightq_lhs: float
    weightq_bound_input: float


def weighted_checks(pair: ExperimentPair) -> WeightedChecks:
    if not pair.hypothesis_ok:
        raise ContractViolation(
            "weighted checks need the boundary-gap hypothesis to hold"
        )
    a1 = np.abs(pair.u1.values)
    a2 = np.abs(pair.u2.values)
    grid = pair.grid
    both = ScalarField(grid, a1 + a2)
    lhs = integrate(ScalarField(grid, (a1 + a2) * (a1 - a2) ** 2))
    proof_bound = 16.0 * pair.bounds.k_bound * pair.epsilon * integrate(both)
    l3 = integrate(ScalarField(grid, np.abs(a1 - a2) ** 3))
    weightq = integrate(
        ScalarField(grid, np.abs(pair.q1.values - pair.q2.values) * pair.u1.values**2)
    )
    eps = pair.epsilon
    return WeightedChecks(
        lhs=lhs,
        proof_bound=proof_bound,
        l3_lhs=l3,
        weightq_lhs=weightq,
        weightq_bound_input=eps + np.sqrt(eps),
    )


@dataclass(frozen=True)
class LevelSetResult:
    value: float
    node_count: int
    empty: bool = False


def level_set_error(q1: ScalarField, q2: ScalarField, u1: ScalarField,
                    t: float) -> LevelSetResult:
    """L1 norm of q1 - q2 over D_t = {q1 u1^2 >= t}; empty level sets
    come back flagged."""
    if not t > 0.0:
        raise ContractViolation(f"level threshold must be positive, got {t}")
    if q1.grid != q2.grid or q1.grid != u1.grid:
        raise ContractViolation("level-set inputs live on different grids")
    mask = q1.values * u1.values**2 >= t
    count = int(mask.sum())
    if count == 0:
        return LevelSetResult(0.0, 0, empty=True)
    diff = ScalarField(q1.grid, q1.values - q2.values)
    return LevelSetResult(norms(diff, mask).l1, count)


def delta_from_p(p: float) -> float:
    """Negative-power exponent granted by an A_p weight."""
    if not p > 1.0:
        raise ContractViolation(f"need p > 1, got {p}")
    return 2.0 / (p - 1.0)


def eta_from_delta(delta: float) -> float:
    """Holder stability exponent carried by |u|^(-delta) integrability."""
    if not delta > 0.0:
        raise ContractViolation(f"need delta > 0, got {delta}")
    return delta / (delta + 2.0)


def _coarsen(u: ScalarField) -> ScalarField | None:
    """Every-other-node subfield, when the node counts allow it."""
    g = u.grid
    if (g.nx - 1) % 2 != 0 or g.nx < 5:
        return None
    if g.is_1d:
        coarse = Grid(nx=(g.nx + 1) // 2, lx=g.lx)
        return ScalarField(coarse, u.values[:, ::2])
    if (g.ny - 1) % 2 != 0 or g.ny < 5:
        return None
    coarse = Grid(nx=(g.nx + 1) // 2, ny=(g.ny + 1) // 2, lx=g.lx, ly=g.ly)
    return ScalarField(coarse, u.values[::2, ::2])


CSV_COLUMNS = ("functional", "center_x", "center_y", "r", "param", "value",
               "floor_hits")
_VALUE = CSV_COLUMNS.index("value")


@dataclass(frozen=True)
class DiagnosticsReport:
    """Measured functional values for one pair, deterministically ordered:
    one row per value in the diagnostics.csv columns (CSV_COLUMNS), ""
    where a column does not apply."""

    rows: tuple = ()
    weighted: WeightedChecks | None = None
    best_delta: float | None = None

    def __post_init__(self):
        for row in self.rows:
            if not np.isfinite(row[_VALUE]) or row[_VALUE] < 0.0:
                raise ContractViolation(
                    f"diagnostic {row[0]} value {row[_VALUE]!r} is not "
                    "finite nonnegative")

    def _values(self, functional: str) -> list:
        return [row[_VALUE] for row in self.rows if row[0] == functional]

    @property
    def max_doubling(self) -> float | None:
        return max(self._values("doubling"), default=None)

    @property
    def min_propagation(self) -> float | None:
        return min(self._values("propagation"), default=None)

    @property
    def proof_bound_margin(self) -> float | None:
        if self.weighted is None:
            return None
        if self.weighted.proof_bound == 0.0:
            return 0.0
        return self.weighted.lhs / self.weighted.proof_bound

    def summary(self) -> dict:
        """The digest reports carry: max_doubling, min_propagation,
        best_delta, proof_bound_margin."""
        return {
            "max_doubling": self.max_doubling,
            "min_propagation": self.min_propagation,
            "best_delta": self.best_delta,
            "proof_bound_margin": self.proof_bound_margin,
        }


def _ball_centers(grid: Grid, reach: float) -> list[tuple[float, float]]:
    """Coarse lattice of points at distance > reach from the boundary."""
    fracs = (0.3, 0.5, 0.7)
    xs = [f * grid.lx for f in fracs if reach < f * grid.lx < grid.lx - reach]
    if grid.is_1d:
        return [(x, 0.0) for x in xs]
    ys = [f * grid.ly for f in fracs if reach < f * grid.ly < grid.ly - reach]
    return [(x, y) for y in ys for x in xs]


def collect_diagnostics(pair: ExperimentPair) -> DiagnosticsReport:
    """Evaluate every diagnostic on the pair's first solution.

    Balls sit on a coarse interior lattice that keeps the doubled ball
    inside the domain; degenerate balls are skipped.  best_delta is the
    largest swept delta whose interior negative-power integral moves by
    at most 25% between the grid and its 2x coarsening (None when the
    node counts do not permit coarsening or nothing is stable).
    """
    grid = pair.grid
    u = pair.u1
    short = grid.lx if grid.is_1d else min(grid.lx, grid.ly)
    r = short / 8.0

    doubling, propagation, ap = [], [], []
    for c in _ball_centers(grid, 2.0 * r):
        try:
            doubling.append(("doubling", *c, r, "", doubling_ratio(u, c, r), 0))
        except DegenerateBall:
            pass
        propagation.append(
            ("propagation", *c, r, "", propagation_ratio(u, c, r), 0))
        for p in (1.5, 2.0, 3.0):
            ap.append(("muckenhoupt", *c, r, p, *muckenhoupt_value(u, c, r, p)))

    d = pair.bounds.d_margin
    neg = []
    coarse = _coarsen(u)
    if coarse is not None and not interior_mask(coarse.grid, d).any():
        coarse = None
    best = None
    for delta in (0.25, 0.5, 0.75, 1.0, 1.5):
        val, hits = negative_power_integral(u, d, delta)
        neg.append(("neg_integral", "", "", d, delta, val, hits))
        if coarse is not None:
            cval, _ = negative_power_integral(coarse, d, delta)
            if abs(val - cval) <= 0.25 * abs(val):
                best = delta

    weighted = weighted_checks(pair) if pair.hypothesis_ok else None
    weighted_rows = [] if weighted is None else [
        (name, "", "", "", "", v, 0)
        for name, v in (("weighted_lhs", weighted.lhs),
                        ("weighted_proof_bound", weighted.proof_bound),
                        ("weighted_l3", weighted.l3_lhs),
                        ("weightq_lhs", weighted.weightq_lhs),
                        ("weightq_bound_input", weighted.weightq_bound_input))]

    fmax = float(pair.f1.values.max())
    levels = []
    for t in [frac * fmax for frac in (0.1, 0.5, 0.9) if fmax > 0]:
        res = level_set_error(pair.q1, pair.q2, pair.u1, t)
        levels.append(("level_set", "", "", "", t, res.value, res.node_count))

    return DiagnosticsReport(
        rows=(*sorted(doubling), *sorted(propagation), *sorted(ap),
              *sorted(neg), *weighted_rows, *sorted(levels)),
        weighted=weighted,
        best_delta=best,
    )
