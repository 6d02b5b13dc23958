"""Coefficient recovery from the internal measurement F and boundary data.

F = q u^2 lets the equation be rewritten as the semilinear Poisson
problem  laplacian(u) = -F/u.  Subtracting c u from both sides leaves
every solution where it is and gives the shifted fixed-point map

    T_c(u) = solve( laplacian(v) - c v = -F / clamp(u; tau) - c u,
                    v = g on boundary ),

started from the harmonic extension of g, with
clamp(s; tau) = sign(s) max(|s|, tau) protecting the division near
nodal sets, followed by the algebraic recovery q = F / max(u^2, tau^2)
projected onto the prior interval [1/K, K]; tau is 1e-6 max(max|g|, 1)
in the iteration and 1e-6 max(max|u_hat|, 1) in the recovery.  Where u
(hence F) vanishes, F carries no information about q at all, so clamped
nodes are reported in a mask instead of being repaired.  Nodes that had
to be projected although the clamp left them alone, beyond what the
update tolerance explains, go in a second mask: a recovered q_hat with
any of them breaks the prior bound, so the result is flagged not
admissible.

The shift is read off the iterate at every step and is never a
setting: c = median(F / clamp(u_k; tau)^2) over the nodes where F > 0,
and 0 where F vanishes everywhere.  At a solution F/u^2 = q, so near
one the map contracts like max|q - c| / (lambda_1 + c), lambda_1 the
lowest eigenvalue of -laplacian, against max q / lambda_1 unshifted;
near lambda_1 that is the difference between a few and a few hundred
steps.  The median follows the bulk of q and ignores the few nodes
near a nodal set, where F/u^2 is large or unreliable; the mean, the
minimum and the midpoint of the range reached the data's own solution
on fewer cells of a sign-changing scan, and took more steps.  A
solution of a wrong sign pattern has F/u^2 far above c at its
wrong-signed nodes, so it repels the iteration.  With c >= 0, g > 0 and
u_k > 0 the maximum principle keeps T_c(u_k) positive.  The stop test
is ||T_c(u_k) - u_k||_inf < tol and the result is the image T_c(u_k);
non-convergence is flagged on the result, never hidden.

Every solve of the iteration is the shifted Dirichlet Laplacian
laplacian - c (c >= 0) on the uniform grid, which the type-I discrete
sine transform diagonalises: the eigenvalues of the 5-point (3-point in
1D) stencil (forward.stencil, shared with the forward operator) are
(2 cos(pi k/(m+1)) - 2)/h^2 per axis of m interior nodes, summed in 2D,
and the shift subtracts c from each.  DirichletLaplacian solves it by
two transforms per axis and no factorization.  An axis with m <= 128
is transformed by a product with its sine matrix
S[j,k] = sin(pi j k/(m+1)), built once per m and read-only (at most
128 KiB); a longer axis by the FFT of the odd extension, where a matrix
would cost m^2 memory and flops per line (a 1D sweep at nx = 2601 would
hold 54 MB).  Per 2D forward-and-inverse pair, one BLAS thread on a
2-core x86 host, matrix against FFT: 10 against 98 microseconds at
m = 31, 490 against 1020 at m = 127.  The spectral gap is exact and
closed form, so no gap check is needed, but every solve keeps the
forward solver's residual contract ||A x - b||_inf <= solver_tol ||b||_inf,
with the load and the residual taken by that stencil on the full field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    "reconstruct",
    "recover_q",
    "reconstruction_error",
    "save_result_manifest",
]


@dataclass(frozen=True)
class ReconstructionResult:
    """Fixed-point output: recovered solution and coefficient, the masks
    of recover_q, and the convergence/degeneracy record of the run.
    floor_hits and sign_change describe u_hat on the interior nodes with
    F > 0, where F/u enters the solve: how many lie below the clamp
    level tau, and whether u_hat takes both signs there."""

    u_hat: ScalarField
    q_hat: ScalarField
    iterations: int
    final_update_linf: float
    floor_hits: int
    sign_change: bool
    tol: float
    clamp_mask: np.ndarray
    projected_mask: np.ndarray

    @property
    def converged(self) -> bool:
        """Whether the last update met the tolerance."""
        return self.final_update_linf < self.tol

    @property
    def admissible(self) -> bool:
        """Whether q_hat needed no projection onto [1/K, K] outside the
        clamped nodes.  False means the recovered pair breaks the prior
        bound K, so it is not the pair that made the data (on a
        sign-changing solution with positive g the fixed point finds a
        positive one)."""
        return not self.projected_mask.any()


def _clamp(values: np.ndarray, tau: float) -> np.ndarray:
    """sign(s) * max(|s|, tau), with s = 0 sent to +tau."""
    return np.where(values >= 0.0,
                    np.maximum(values, tau),
                    np.minimum(values, -tau))


def _auto_tau(scale: float) -> float:
    return 1e-6 * max(scale, 1.0)


# longest axis transformed by its dense sine matrix (at most 128 KiB);
# longer ones go through the FFT
_SINE_MATRIX_MAX = 128


@lru_cache(maxsize=16)
def _sine_matrix(m: int) -> np.ndarray:
    """S[j-1, k-1] = sin(pi j k / (m+1)) for j, k = 1..m, read-only."""
    k = np.arange(1, m + 1)
    s = np.sin(np.pi * np.outer(k, k) / (m + 1))
    s.setflags(write=False)
    return s


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalised type-I sine transform along the last axis,
    y_k = sum_j x_j sin(pi j k / (m+1)): a product with the sine matrix
    when m <= _SINE_MATRIX_MAX, else read off the FFT of the odd
    extension [0, x, 0, -reversed(x)]; applied twice it is (m+1)/2 times
    the identity."""
    m = x.shape[-1]
    if m <= _SINE_MATRIX_MAX:
        return x @ _sine_matrix(m)
    pad = np.zeros(x.shape[:-1] + (1,))
    ext = np.concatenate([pad, x, pad, -x[..., ::-1]], axis=-1)
    return -0.5 * np.fft.rfft(ext, axis=-1).imag[..., 1:m + 1]


class DirichletLaplacian:
    """laplacian(u) - shift u = s inside, u = g on the boundary, for the
    5-point (3-point in 1D) stencil on a uniform grid, solved in sine
    space."""

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
        return _dst1(x if self.grid.is_1d else _dst1(x.T).T)

    def solve(self, gfull: np.ndarray, source: np.ndarray | None = None,
              tol: float = 1e-9, shift: float = 0.0) -> np.ndarray:
        """Full field with the boundary of gfull and the interior solving
        the stencil equation minus shift times u for source (zero when
        None); shift must be finite and >= 0.

        Raises SolverFailure when ||A x - b||_inf > tol ||b||_inf, which
        includes any non-finite source or iterate.
        """
        if not tol > 0:  # refuses NaN too
            raise ContractViolation(f"tol must be positive, got {tol}")
        if not 0.0 <= shift < np.inf:  # refuses NaN too
            raise ContractViolation(
                f"shift must be finite and >= 0, got {shift}")
        u = np.array(gfull, dtype=float)
        for arr in (u, source):
            if arr is not None and arr.shape != self.grid.shape:
                raise ContractViolation(
                    f"field shape {arr.shape} != grid shape {self.grid.shape}")
        u[self.inner] = 0.0
        s = 0.0 if source is None else source[self.inner]
        b = s - stencil(u, self.h)
        u[self.inner] = self._scale * self._sine(
            self._sine(b) / (self.eigenvalues - shift))
        res = float(np.max(np.abs(stencil(u, self.h) - shift * u[self.inner]
                                  - s)))
        bound = tol * float(np.max(np.abs(b)))
        if not res <= bound:
            raise SolverFailure(
                f"residual {res:.3e} misses contract {bound:.3e} "
                "with method dst"
            )
        return u


def reconstruct(f: ScalarField, g, k_bound: float, *,
                tol: float = 1e-8, max_iter: int = 200,
                solver_tol: float = 1e-9) -> ReconstructionResult:
    """Recover u from (F, g) by the shifted fixed-point iteration
    u_{k+1} = T_c(u_k), with c read off u_k at every step (module
    docstring), then q_hat and its masks by recover_q with K = k_bound.

    Stops when the sup-norm update drops below tol or after max_iter
    solves; the result's converged flag distinguishes the two.  The
    answer's floor hits and sign change are read off the returned u_hat
    on the interior nodes with F > 0; a u_hat of both signs there has
    left the positive-solution regime, which is flagged, not fatal.
    """
    # refused before the first solve, each test refusing NaN too
    for ok, message in ((tol > 0, f"tol must be positive, got {tol}"),
                        (max_iter >= 1, f"max_iter must be >= 1, got {max_iter}"),
                        (k_bound >= 1, f"K must be >= 1, got {k_bound}")):
        if not ok:
            raise ContractViolation(message)
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
    tau = _auto_tau(g_linf)

    lap = DirichletLaplacian(grid)
    u = lap.solve(gfull, tol=solver_tol)
    positive = fvals > 0.0
    f_pos = fvals[positive]
    for iterations in range(1, max_iter + 1):
        clamped = _clamp(u, tau)
        c = (float(np.median(f_pos / clamped[positive]**2)) if f_pos.size
             else 0.0)
        image = lap.solve(gfull, -fvals / clamped - c * u, solver_tol, c)
        update = float(np.max(np.abs(image - u)))
        if update < tol or iterations == max_iter:
            break
        u = image
    u_hat = ScalarField(grid, image)
    q_hat, clamped, projected = recover_q(f, u_hat, k_bound, tol)
    active = image[positive & interior_mask(grid, 0.0)]
    return ReconstructionResult(
        u_hat=u_hat,
        q_hat=q_hat,
        iterations=iterations,
        final_update_linf=update,
        floor_hits=int(np.count_nonzero(np.abs(active) < tau)),
        sign_change=bool(np.any(active > 0.0) and np.any(active < 0.0)),
        tol=tol,
        clamp_mask=clamped,
        projected_mask=projected,
    )


def recover_q(f: ScalarField, u_hat: ScalarField, k_bound: float,
              tol: float = 0.0):
    """Algebraic recovery q = F / max(u^2, tau^2), projected onto
    [1/K, K] with K = k_bound; returns (q_hat, clamped, projected).

    clamped marks the nodes where u_hat^2 < tau^2.  projected marks the
    other nodes where F/u_hat^2 leaves [1/K, K] by more than an error
    tol in u_hat explains: q in [1/K, K] and |u - u_hat| <= tol put it
    in [(1 - tol/|u_hat|)^2 / K, (1 + tol/|u_hat|)^2 K], so a node where
    q is exactly K (a saturated perturbation) is not marked.
    """
    if f.grid != u_hat.grid:
        raise ContractViolation("F and u_hat live on different grids")
    if not k_bound >= 1:
        raise ContractViolation(f"K must be >= 1, got {k_bound}")
    if not tol >= 0:
        raise ContractViolation(f"tol must be >= 0, got {tol}")
    tau = _auto_tau(float(np.max(np.abs(u_hat.values))))
    size = np.abs(u_hat.values)
    clamped = size < tau
    size = np.maximum(size, tau)
    raw = f.values / size**2
    lo, hi = 1.0 / k_bound, k_bound
    slack = tol / size
    projected = ~clamped & ((raw > hi * (1.0 + slack)**2)
                            | (raw < lo * (1.0 - slack)**2))
    return ScalarField(f.grid, np.clip(raw, lo, hi)), clamped, projected


def reconstruction_error(q_hat: ScalarField, q_true: ScalarField,
                         d: float) -> Norms:
    """Norms of q_hat - q_true over the interior margin d; an empty
    interior comes back flagged, not as an error."""
    if q_hat.grid != q_true.grid:
        raise ContractViolation("coefficient fields live on different grids")
    diff = ScalarField(q_hat.grid, q_hat.values - q_true.values)
    return norms(diff, interior_mask(q_hat.grid, d))


def save_result_manifest(result: ReconstructionResult, path) -> Path:
    """Write the run record {iterations, final_update_linf, floor_hits,
    sign_change, converged, admissible} as JSON."""
    return write_json(path, {
        "iterations": result.iterations,
        "final_update_linf": result.final_update_linf,
        "floor_hits": result.floor_hits,
        "sign_change": result.sign_change,
        "converged": result.converged,
        "admissible": result.admissible,
    })
