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

import os
from concurrent.futures import ThreadPoolExecutor
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
    """One family member: inner radius r, outer radius rr (r < rr), index m."""

    r: float
    rr: float
    m: int

    def __post_init__(self):
        if not 0 < self.r < self.rr:
            raise ContractViolation(
                f"radii must satisfy 0 < r < rr, got r={self.r}, rr={self.rr}"
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
    if np.isinf(p):
        return height
    if p < 1:
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


# inner samples per block of _data_gap: bounds each worker's temporaries
_BLOCK = 1 << 14


def _data_gap(r: float, rr: float, m: int) -> float:
    """Sampled sup of |q_2m u_2m^2 - q_m u_m^2| over the inner samples,
    the largest of the block maxima (NaN propagates as in np.max)."""
    lo, hi, step = _inner_range(r, rr, m)
    a1 = OscillatoryFamily(r=r, rr=rr, m=m).a_m
    a2 = OscillatoryFamily(r=r, rr=rr, m=2 * m).a_m
    block_max = []
    for start in range(lo, hi, _BLOCK):
        x = np.arange(start, min(start + _BLOCK, hi)) * step + (-rr)
        block_max.append(np.max(np.abs(_inner_data(a2, x)
                                       - _inner_data(a1, x))))
    return float(np.max(block_max, initial=0.0))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pathology_table(r: float, rr: float, m_max: int,
                    p_list=(1.0,)) -> list[PathologyRow]:
    """Rows m = 1..m_max of the instability table.

    data_gap is the sampled sup of |q_2m u_2m^2 - q_m u_m^2| on a grid
    with at least 40 points per oscillation period.  Only the samples
    with |x| < r are built, since outside both members are
    q = 1, u = -sin(|x| - r) and their data agree exactly.  On them the
    data are evaluated in closed form, A_m (cos(sqrt(A_m) x) / sqrt(A_m))^2,
    the same floats as eval_q * eval_u**2 without their branch and
    domain checks, in blocks of 2^14 samples so that memory stays flat
    as m grows.  The members are independent, and numpy's cos and
    arithmetic release the GIL, so their data gaps run on a thread pool
    with one worker per CPU the process may use; the rows are collected
    in m order and do not depend on the worker count.  Coefficient gaps
    are closed form; k_required = A_m names the hypothesis that fails.
    """
    if m_max < 1:
        raise ContractViolation(f"m_max must be >= 1, got {m_max}")
    ps = sorted(set(float(p) for p in p_list) | {1.0, np.inf})
    h_int = h_integral(r, rr)
    members = range(1, m_max + 1)
    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        gaps = list(pool.map(lambda m: _data_gap(r, rr, m), members))
    rows = []
    for m, gap in zip(members, gaps):
        fam = OscillatoryFamily(r=r, rr=rr, m=m)
        rows.append(PathologyRow(
            m=m,
            a_m=fam.a_m,
            data_gap=gap,
            coef_gaps={p: coefficient_gap(r, m, p) for p in ps},
            h_integral=h_int,
            k_required=fam.a_m,
        ))
    return rows


def residual_check(fam: OscillatoryFamily, h: float) -> float:
    """Max centered-difference residual |u'' + q u| of the closed form on
    an h-grid of (-rr, rr), skipping nodes whose stencil straddles the
    interface |x| = r (u'' jumps there, so the scheme's order-2
    consistency only holds branchwise)."""
    if h <= 0:
        raise ContractViolation(f"spacing must be positive, got {h}")
    n = int(round(2.0 * fam.rr / h)) + 1
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
