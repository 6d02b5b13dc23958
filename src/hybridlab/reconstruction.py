"""Coefficient recovery from the internal measurement F and boundary data.

On the positive-solution branch, F = q u^2 lets the equation be
rewritten as the semilinear Poisson problem  laplacian(u) = -F/u,
which suggests the fixed-point iteration

    u_0   = harmonic extension of g,
    u_k+1 = solve( laplacian(v) = -F / clamp(u_k; tau), v = g on boundary ),

with clamp(s; tau) = sign(s) max(|s|, tau) protecting the division near
nodal sets, followed by the algebraic recovery q = F / max(u^2, tau^2)
projected onto the prior interval [1/K, K].  Where u (hence F)
vanishes, F carries no information about q at all, so clamped and
projected nodes are reported in a mask instead of being repaired: the
recovery is honest about exactly where the data determines the
coefficient.  The iteration map contracts like q/lambda_1 in the
well-posed regime; non-convergence is flagged on the result, never
hidden.

Every solve of the iteration is the pure Dirichlet Laplacian (q = 0) on
the uniform grid, which the type-I discrete sine transform diagonalises:
the eigenvalues of the 5-point (3-point in 1D) stencil (forward.stencil,
shared with the forward operator) are
(2 cos(pi k/(m+1)) - 2)/h^2 per axis, summed in 2D.  DirichletLaplacian
solves it by two DSTs per axis, each the FFT of the odd extension, with
no matrix and no factorization.  Its spectral gap is exact and closed
form, so no gap check is needed, but every solve keeps the forward
solver's residual contract ||A x - b||_inf <= solver_tol ||b||_inf,
with the load and the residual taken by that stencil on the full field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ContractViolation, SolverFailure
from .forward import stencil
from .fields import (
    Grid,
    ScalarField,
    boundary_field,
    interior_mask,
    norms,
    Norms,
    write_json,
)

__all__ = [
    "DirichletLaplacian",
    "ReconstructionResult",
    "reconstruct_u",
    "recover_q",
    "reconstruction_error",
    "reconstruct",
    "save_result_manifest",
]


@dataclass(frozen=True)
class ReconstructionResult:
    """Fixed-point output: recovered solution, optional coefficient, and
    the convergence/degeneracy record of the run."""

    u_hat: ScalarField
    q_hat: ScalarField | None
    iterations: int
    final_update_linf: float
    floor_hits: int
    converged: bool
    tol: float
    sign_change: bool = False
    clamp_mask: np.ndarray | None = None

    def __post_init__(self):
        if self.converged and self.final_update_linf > self.tol:
            raise ContractViolation(
                "converged result violates its own update tolerance"
            )
        if self.iterations < 0 or self.floor_hits < 0:
            raise ContractViolation("counts must be nonnegative")


def _clamp(values: np.ndarray, tau: float) -> np.ndarray:
    """sign(s) * max(|s|, tau), with s = 0 sent to +tau."""
    return np.where(values >= 0.0,
                    np.maximum(values, tau),
                    np.minimum(values, -tau))


def _auto_tau(scale: float) -> float:
    return 1e-6 * max(scale, 1.0)


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalised type-I sine transform along the last axis,
    y_k = sum_j x_j sin(pi j k / (m+1)), read off the FFT of the odd
    extension [0, x, 0, -reversed(x)]; applied twice it is (m+1)/2 times
    the identity."""
    m = x.shape[-1]
    pad = np.zeros(x.shape[:-1] + (1,))
    ext = np.concatenate([pad, x, pad, -x[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(ext, axis=-1).imag[..., 1:m + 1]


class DirichletLaplacian:
    """laplacian(u) = s inside, u = g on the boundary, for the 5-point
    (3-point in 1D) stencil on a uniform grid, solved in sine space."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.h = grid.h
        rows = slice(None) if grid.is_1d else slice(1, -1)
        self.inner = (rows, slice(1, -1))

        def axis(m):
            k = np.arange(1, m + 1)
            return (2.0 * np.cos(np.pi * k / (m + 1)) - 2.0) / self.h**2

        eig = axis(grid.nx - 2)[None, :]
        scale = 2.0 / (grid.nx - 1)
        if not grid.is_1d:
            eig = eig + axis(grid.ny - 2)[:, None]
            scale *= 2.0 / (grid.ny - 1)
        self.eigenvalues = eig
        self._scale = scale

    def _sine(self, x: np.ndarray) -> np.ndarray:
        x = _dst1(x)
        return x if self.grid.is_1d else _dst1(x.T).T

    def solve(self, gfull: np.ndarray, source: np.ndarray | None = None,
              tol: float = 1e-9) -> np.ndarray:
        """Full field with the boundary of gfull and the interior solving
        the stencil equation for source (zero when None).

        Raises SolverFailure when ||A x - b||_inf > tol ||b||_inf, which
        includes any non-finite source or iterate.
        """
        if tol <= 0:
            raise ContractViolation(f"tol must be positive, got {tol}")
        u = np.array(gfull, dtype=float)
        for arr in (u, source):
            if arr is not None and arr.shape != self.grid.shape:
                raise ContractViolation(
                    f"field shape {arr.shape} != grid shape {self.grid.shape}")
        u[self.inner] = 0.0
        s = 0.0 if source is None else source[self.inner]
        b = s - stencil(u, self.h)
        u[self.inner] = self._scale * self._sine(self._sine(b) / self.eigenvalues)
        res = float(np.max(np.abs(stencil(u, self.h) - s)))
        bound = tol * float(np.max(np.abs(b)))
        if not res <= bound:
            raise SolverFailure(
                f"residual {res:.3e} misses contract {bound:.3e} "
                "with method dst"
            )
        return u


def reconstruct_u(f: ScalarField, g, *, tol: float = 1e-8,
                  max_iter: int = 200, tau: float = 0.0,
                  solver_tol: float = 1e-9) -> ReconstructionResult:
    """Recover u from (F, g) by the clamped fixed-point iteration.

    Stops when the sup-norm update drops below tol or after max_iter
    solves; the result's converged flag distinguishes the two.  A sign
    change of the iterate inside {F > 0} marks departure from the
    positive-solution regime and is flagged, not fatal.
    """
    grid = f.grid
    fvals = f.values.copy()
    neg = fvals < -max(tol, 1e-12)
    if neg.any():
        raise ContractViolation(
            f"measurement has {int(neg.sum())} nodes below -tol; "
            "F = q u^2 must be nonnegative"
        )
    fvals = np.maximum(fvals, 0.0)
    gfull = boundary_field(grid, g)
    g_linf = float(np.max(np.abs(gfull)))
    if g_linf == 0.0 and fvals.max() > 0.0:
        raise ContractViolation(
            "boundary data identically zero with nontrivial F: the "
            "positive-solution ansatz cannot hold"
        )
    if tau <= 0.0:
        tau = _auto_tau(g_linf)
    if max_iter < 1:
        raise ContractViolation(f"max_iter must be >= 1, got {max_iter}")

    lap = DirichletLaplacian(grid)
    u = lap.solve(gfull, tol=solver_tol)
    positive = fvals > 0.0
    sign_change = False
    floor_hits = 0
    update = float("inf")
    iterations = 0
    for _ in range(max_iter):
        clamped = _clamp(u, tau)
        floor_hits = int(np.count_nonzero(np.abs(u) < tau))
        u_next = lap.solve(gfull, -fvals / clamped, solver_tol)
        iterations += 1
        if np.any(positive & (u * u_next < 0.0)):
            sign_change = True
        update = float(np.max(np.abs(u_next - u)))
        u = u_next
        if update < tol:
            break
    return ReconstructionResult(
        u_hat=ScalarField(grid, u),
        q_hat=None,
        iterations=iterations,
        final_update_linf=update,
        floor_hits=floor_hits,
        converged=update < tol,
        tol=tol,
        sign_change=sign_change,
    )


def recover_q(f: ScalarField, u_hat: ScalarField, k_bound: float,
              tau: float = 0.0):
    """Algebraic recovery q = F / max(u^2, tau^2), projected onto
    [1/K, K] with K = k_bound; returns (q_hat, mask) with the mask
    marking every node where the clamp or the projection fired."""
    if f.grid != u_hat.grid:
        raise ContractViolation("F and u_hat live on different grids")
    if k_bound < 1:
        raise ContractViolation(f"K must be >= 1, got {k_bound}")
    if tau <= 0.0:
        tau = _auto_tau(float(np.max(np.abs(u_hat.values))))
    clamped = np.maximum(u_hat.values**2, tau**2)
    raw = f.values / clamped
    lo, hi = 1.0 / k_bound, k_bound
    projected = np.clip(raw, lo, hi)
    mask = (u_hat.values**2 < tau**2) | (projected != raw)
    return ScalarField(f.grid, projected), mask


def reconstruction_error(q_hat: ScalarField, q_true: ScalarField,
                         d: float) -> Norms:
    """Norms of q_hat - q_true over the interior margin d; an empty
    interior comes back flagged, not as an error."""
    if q_hat.grid != q_true.grid:
        raise ContractViolation("coefficient fields live on different grids")
    diff = ScalarField(q_hat.grid, q_hat.values - q_true.values)
    return norms(diff, interior_mask(q_hat.grid, d))


def reconstruct(f: ScalarField, g, k_bound: float, *,
                tol: float = 1e-8, max_iter: int = 200, tau: float = 0.0,
                solver_tol: float = 1e-9) -> ReconstructionResult:
    """Full pipeline: reconstruct u, then recover and attach q_hat."""
    res = reconstruct_u(f, g, tol=tol, max_iter=max_iter, tau=tau,
                        solver_tol=solver_tol)
    q_hat, mask = recover_q(f, res.u_hat, k_bound, tau)
    return replace(res, q_hat=q_hat, clamp_mask=mask)


def save_result_manifest(result: ReconstructionResult, path) -> Path:
    """Write the run record {iterations, final_update_linf, floor_hits,
    converged} as JSON."""
    return write_json(path, {
        "iterations": result.iterations,
        "final_update_linf": result.final_update_linf,
        "floor_hits": result.floor_hits,
        "converged": result.converged,
    })
