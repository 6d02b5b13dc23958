"""Oscillatory 1D family showing why the coefficient bound K is needed.

On the interval (-R, R) the family

    A_m = (pi/2 + 2 m pi)^2 / r^2
    q_m = A_m on |x| < r,   1 on r <= |x| <= R
    u_m = cos(sqrt(A_m) x) / sqrt(A_m) on |x| < r,   -sin(|x| - r) outside

consists of exact solutions of u'' + q_m u = 0 (C^1-matched at the
interface) whose internal measurements stay uniformly close,

    || q_2m u_2m^2 - q_m u_m^2 ||_inf <= 2   for every m,

while the coefficients separate without bound in every L^p norm.  No
estimate of ||q_1 - q_2|| by the data discrepancy can therefore hold
uniformly: as m grows, the required coefficient bound K = A_m blows up
like m^2 and is the *only* a-priori hypothesis that fails; the
nondegeneracy integral of q_m u_m^2 stays bounded below independently
of m.  Everything here is closed form; grids appear only for sampled
sup norms and finite-difference residual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .fields import write_csv
from .forward import stencil

__all__ = [
    "OscillatoryFamily",
    "PathologyRow",
    "eval_q",
    "eval_u",
    "coefficient_gap",
    "h_integral",
    "pathology_table",
    "residual_check",
    "write_pathology_csv",
]


@dataclass(frozen=True)
class OscillatoryFamily:
    """One family member: inner radius r, finite outer radius rr (r < rr),
    index m."""

    r: float
    rr: float
    m: int

    def __post_init__(self):
        if not 0 < self.r < self.rr < np.inf:  # refuses NaN too
            raise ContractViolation(
                "radii must satisfy 0 < r < rr < inf, "
                f"got r={self.r}, rr={self.rr}"
            )
        if self.m < 1:
            raise ContractViolation(f"family index must be >= 1, got {self.m}")

    @property
    def a_m(self) -> float:
        return (np.pi / 2 + 2 * self.m * np.pi) ** 2 / self.r**2


def _check_domain(fam: OscillatoryFamily, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > fam.rr * (1 + 1e-15)):
        raise ContractViolation(
            f"evaluation point outside [-{fam.rr}, {fam.rr}]"
        )
    return x


def eval_q(fam: OscillatoryFamily, x):
    """Coefficient of the family member at x (scalar or array)."""
    x = _check_domain(fam, x)
    return np.where(np.abs(x) < fam.r, fam.a_m, 1.0)


def eval_u(fam: OscillatoryFamily, x):
    """Solution of u'' + q_m u = 0 at x; C^1 across |x| = r by the
    quarter-period phase choice."""
    x = _check_domain(fam, x)
    root_a = np.sqrt(fam.a_m)
    return np.where(
        np.abs(x) < fam.r,
        np.cos(root_a * x) / root_a,
        -np.sin(np.abs(x) - fam.r),
    )


def coefficient_gap(r: float, m: int, p: float) -> float:
    """Closed-form || q_2m - q_m ||_p on (-rr, rr): the difference lives
    on |x| < r with constant height A_2m - A_m."""
    height = ((np.pi / 2 + 4 * m * np.pi) ** 2
              - (np.pi / 2 + 2 * m * np.pi) ** 2) / r**2
    if p == np.inf:
        return height
    if not p >= 1:  # refuses NaN and -inf too
        raise ContractViolation(f"need p >= 1, got {p}")
    return height * (2.0 * r) ** (1.0 / p)


def h_integral(r: float, rr: float) -> float:
    """Closed form of the nondegeneracy integral of q_m u_m^2 on (-rr, rr);
    the inner part contributes exactly r for every m, so the value is
    independent of the family index."""
    span = rr - r
    return r + span - np.sin(2.0 * span) / 2.0


@dataclass(frozen=True)
class PathologyRow:
    """One table line: data stays 2-close while coefficients separate."""

    m: int
    a_m: float
    data_gap: float
    coef_gaps: dict
    h_integral: float
    k_required: float


def _sample_count(r: float, rr: float, m: int) -> int:
    """Number of uniform samples on [-rr, rr] resolving the finer (index
    2m) oscillation with at least 40 points per period."""
    root_a = np.sqrt((np.pi / 2 + 4 * m * np.pi) ** 2 / r**2)
    periods = 2.0 * rr * root_a / (2.0 * np.pi)
    return max(2001, int(np.ceil(40 * periods)) + 1)


def _inner_range(r: float, rr: float, m: int) -> tuple[int, int, float]:
    """(lo, hi, step): the samples of np.linspace(-rr, rr,
    _sample_count(r, rr, m)) with |x| < r are, bit for bit,
    i * step + (-rr) for i in [lo, hi), since that is linspace's i-th
    value."""
    n = _sample_count(r, rr, m)
    step = 2.0 * rr / (n - 1)

    def at(i):
        return i * step + (-rr)

    lo = int((rr - r) / step)
    while at(lo) <= -r:
        lo += 1
    while lo > 0 and at(lo - 1) > -r:
        lo -= 1
    hi = min(int((rr + r) / step) + 1, n - 1)
    while hi > lo and at(hi - 1) >= r:
        hi -= 1
    while hi < n - 1 and at(hi) < r:
        hi += 1
    return lo, hi, step


def _inner_data(a_m: float, x: np.ndarray) -> np.ndarray:
    """q u^2 of the member with coefficient a_m at samples with |x| < r."""
    root_a = np.sqrt(a_m)
    return a_m * (np.cos(root_a * x) / root_a) ** 2


# inner samples per block of _data_gap: bounds its temporaries as m grows
_BLOCK = 1 << 14

_F32_EPS = 2.0**-23


def _screen_slack(r: float, a2: float) -> float:
    """Bound on |screen - exact| at any inner sample, with room to spare.

    For one member, casting its phase |sqrt(A) x| < sqrt(a2) r to
    float32 moves cos^2 (which is 1-Lipschitz) by at most
    2^-24 sqrt(a2) r, and the float32 cos and squaring add a few ulps of
    2^-24.  The slack doubles that, takes it for both members, and adds
    1e-12 for the float64 rounding of the exact values; the doubling
    also absorbs the float32 rounding of the screen threshold.
    """
    return 2.0 * (np.sqrt(a2) * r * _F32_EPS + 4.0 * _F32_EPS) + 1e-12


def _screen(a_m: float, x: np.ndarray) -> np.ndarray:
    """float32 estimate of cos(sqrt(A_m) x)^2 = q u^2 on inner samples."""
    c = np.cos(np.sqrt(a_m) * x, dtype=np.float32)  # phase cast, then cos
    return np.square(c, out=c)


def _data_gap(r: float, rr: float, m: int) -> float:
    """Sampled sup of |q_2m u_2m^2 - q_m u_m^2| over the inner samples.

    Each block is screened in float32 first, and the float64 closed form
    is evaluated only at the samples whose screen value is within twice
    the slack of the block's largest: the sample holding the exact
    maximum e* screens at least e* - slack, which is at least
    best - 2 slack.  The result is therefore the same float as the exact
    maximum over every inner sample; a non-finite screen value always
    reaches the exact pass, so NaN propagates as in np.max.
    """
    lo, hi, step = _inner_range(r, rr, m)
    a1 = OscillatoryFamily(r=r, rr=rr, m=m).a_m
    a2 = OscillatoryFamily(r=r, rr=rr, m=2 * m).a_m
    slack = _screen_slack(r, a2)
    gap = 0.0
    for start in range(lo, hi, _BLOCK):
        x = np.arange(start, min(start + _BLOCK, hi)) * step + (-rr)
        screen = np.abs(_screen(a2, x) - _screen(a1, x))
        # `not <` keeps NaN, and a NaN best keeps the whole block
        x = x[~(screen < screen.max() - 2.0 * slack)]
        gap = np.max(np.abs(_inner_data(a2, x) - _inner_data(a1, x)),
                     initial=gap)
    return float(gap)


def pathology_table(r: float, rr: float, m_max: int) -> list[PathologyRow]:
    """Rows m = 1..m_max of the instability table.

    data_gap is the sampled sup of |q_2m u_2m^2 - q_m u_m^2| on a grid
    with at least 40 points per oscillation period.  Only the samples
    with |x| < r are built, since outside both members are
    q = 1, u = -sin(|x| - r) and their data agree exactly.  On them the
    data are evaluated in closed form, A_m (cos(sqrt(A_m) x) / sqrt(A_m))^2,
    the same floats as eval_q * eval_u**2 without their branch and
    domain checks, in blocks of 2^14 samples so that memory stays flat
    as m grows.  Each block is screened in float32 and evaluated in
    float64 only where its maximum can be (see _data_gap), so every
    data_gap is the exact float64 maximum over the inner samples, the
    same bytes as evaluating all of them.  Coefficient gaps are closed
    form, for p = 1 and p = inf; k_required = A_m names the hypothesis
    that fails.
    """
    if m_max < 1:
        raise ContractViolation(f"m_max must be >= 1, got {m_max}")
    rows = []
    for m in range(1, m_max + 1):
        fam = OscillatoryFamily(r=r, rr=rr, m=m)
        rows.append(PathologyRow(
            m=m,
            a_m=fam.a_m,
            data_gap=_data_gap(r, rr, m),
            coef_gaps={p: coefficient_gap(r, m, p) for p in (1.0, np.inf)},
            h_integral=h_integral(r, rr),
            k_required=fam.a_m,
        ))
    return rows


def residual_check(fam: OscillatoryFamily, h: float) -> float:
    """Max centered-difference residual |u'' + q u| of the closed form on
    an h-grid of (-rr, rr), skipping nodes whose stencil straddles the
    interface |x| = r (u'' jumps there, so the scheme's order-2
    consistency only holds branchwise)."""
    if not h > 0:  # refuses NaN too
        raise ContractViolation(f"spacing must be positive, got {h}")
    n = int(round(2.0 * fam.rr / h)) + 1
    if n < 3:  # h = inf gives one node
        raise ContractViolation(
            f"grid too coarse: spacing {h} leaves {n} nodes, a stencil "
            "needs 3")
    x = np.linspace(-fam.rr, fam.rr, n)
    step = x[1] - x[0]
    u = eval_u(fam, x)
    q = eval_q(fam, x)
    inner = slice(1, -1)
    second = stencil(u[None, :], step)[0]
    residual = np.abs(second + q[inner] * u[inner])
    keep = np.abs(np.abs(x[inner]) - fam.r) > step
    if not keep.any():
        raise ContractViolation("grid too coarse: every stencil straddles")
    return float(np.max(residual[keep]))


def write_pathology_csv(rows: list[PathologyRow], path) -> Path:
    """Columns: m, A_m, data_gap, coef_gap_p1, coef_gap_pinf, H_integral,
    K_required."""
    return write_csv(
        path,
        ["m", "A_m", "data_gap", "coef_gap_p1", "coef_gap_pinf",
         "H_integral", "K_required"],
        [[row.m, row.a_m, row.data_gap, row.coef_gaps[1.0],
          row.coef_gaps[np.inf], row.h_integral, row.k_required]
         for row in rows],
    )
