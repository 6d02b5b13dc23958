"""Coefficient recovery from the internal measurement F and boundary data.

On the positive-solution branch, F = q u^2 lets the equation be
rewritten as the semilinear Poisson problem  laplacian(u) = -F/u,
which suggests the fixed-point map

    T(u) = solve( laplacian(v) = -F / clamp(u; tau), v = g on boundary ),

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
The map contracts like q/lambda_1 in the well-posed regime;
non-convergence is flagged on the result, never hidden.

The iterates are accelerated by type-II Anderson mixing of depth 5
(Walker and Ni, SIAM J. Numer. Anal. 49, 2011): the next iterate is
T(u_k) minus the combination of the last five image differences whose
residual differences best cancel r_k = T(u_k) - u_k in the 2-norm.  The
clamp, floor hits and the sign-change test act on the iterate fed to T.
A mixed iterate that is not finite, or that leaves the positive cone
the plain image lies in, or a small least-squares solve that fails,
gives way to the plain step T(u_k) and clears the history; a
growing update does not, since resetting on it throws away the history
that carries the iteration near lambda_1.  The stop test is
||T(u_k) - u_k||_inf < tol, and the result is the plain image T(u_k),
never a mixed point, so final_update_linf is the update of the
returned field's own preimage, as without mixing.

Every solve of the iteration is the pure Dirichlet Laplacian (q = 0) on
the uniform grid, which the type-I discrete sine transform diagonalises:
the eigenvalues of the 5-point (3-point in 1D) stencil (forward.stencil,
shared with the forward operator) are (2 cos(pi k/(m+1)) - 2)/h^2 per
axis of m interior nodes, summed in 2D.  DirichletLaplacian solves it by
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

from dataclasses import dataclass, replace
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
    projected_mask: np.ndarray | None = None

    @property
    def admissible(self) -> bool | None:
        """Whether q_hat needed no projection onto [1/K, K] outside the
        clamped nodes; None before q is recovered.  False means the
        recovered pair breaks the prior bound K, so it is not the pair
        that made the data (on a sign-changing solution the fixed point
        finds a positive one)."""
        if self.projected_mask is None:
            return None
        return not self.projected_mask.any()

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
        return _dst1(x if self.grid.is_1d else _dst1(x.T).T)

    def solve(self, gfull: np.ndarray, source: np.ndarray | None = None,
              tol: float = 1e-9) -> np.ndarray:
        """Full field with the boundary of gfull and the interior solving
        the stencil equation for source (zero when None).

        Raises SolverFailure when ||A x - b||_inf > tol ||b||_inf, which
        includes any non-finite source or iterate.
        """
        if not tol > 0:  # refuses NaN too
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


# history length of the Anderson mixing
_DEPTH = 5


def _mixing_coefficients(d_res: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """gamma minimising ||residual - gamma . d_res||_2 over the rows of
    d_res, by the normal equations with small singular values truncated;
    raises numpy.linalg.LinAlgError when the solve fails."""
    return np.linalg.lstsq(d_res @ d_res.T, d_res @ residual, rcond=None)[0]


class _Anderson:
    """Type-II Anderson mixing of a fixed-point map u -> T(u) (Walker
    and Ni, SIAM J. Numer. Anal. 49, 2011), over the last _DEPTH steps.

    The history holds differences of successive residuals r = T(u) - u
    and of successive images T(u), each pair scaled so that the residual
    difference has unit 2-norm, in preallocated (depth, n) arrays used
    as a ring.  The mixed iterate is T(u_k) - gamma . dT, where gamma
    minimises ||r_k - gamma . dR||_2.
    """

    def __init__(self, size: int):
        self.d_res = np.empty((_DEPTH, size))
        self.d_img = np.empty((_DEPTH, size))
        self.stored = 0
        self.last = None

    def mix(self, image: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """The next iterate from T(u_k) and r_k.  Falls back to the plain
        step T(u_k), and clears the history, when the residual did not
        change, the small least-squares solve fails, or the mixed iterate
        is not finite or leaves the positive cone that T(u_k) lies in."""
        last, self.last = self.last, (image, residual)
        if last is not None:
            d_res = (residual - last[1]).ravel()
            norm = float(np.linalg.norm(d_res))
            if 0.0 < norm < np.inf:
                slot = self.stored % _DEPTH
                self.d_res[slot] = d_res / norm
                self.d_img[slot] = (image - last[0]).ravel() / norm
                self.stored += 1
            else:
                self.stored = 0
        k = min(self.stored, _DEPTH)
        if k == 0:
            return image
        try:
            gamma = _mixing_coefficients(self.d_res[:k], residual.ravel())
        except np.linalg.LinAlgError:
            self.stored = 0
            return image
        mixed = image - (gamma @ self.d_img[:k]).reshape(image.shape)
        if (not np.isfinite(mixed).all()
                or (image.min() > 0.0 and not mixed.min() > 0.0)):
            self.stored = 0
            return image
        return mixed


def reconstruct_u(f: ScalarField, g, *, tol: float = 1e-8,
                  max_iter: int = 200,
                  solver_tol: float = 1e-9) -> ReconstructionResult:
    """Recover u from (F, g) by the clamped fixed-point iteration with
    Anderson mixing (module docstring).

    Stops when the sup-norm update drops below tol or after max_iter
    solves; the result's converged flag distinguishes the two.  A sign
    change of the iterate inside {F > 0} marks departure from the
    positive-solution regime and is flagged, not fatal.

    When T(u_k) is positive at every node and the mixed iterate is not,
    the plain image is taken and the history cleared: for F >= 0, g > 0
    the plain map keeps a positive iterate positive (laplacian(T(u)) =
    -F/u <= 0, so T(u) >= min g), while a mixed iterate that changes sign
    is sent into another basin and converges to a wrong answer.
    """
    if not tol > 0:  # refuses NaN too
        raise ContractViolation(f"tol must be positive, got {tol}")
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
    if max_iter < 1:
        raise ContractViolation(f"max_iter must be >= 1, got {max_iter}")

    lap = DirichletLaplacian(grid)
    u = lap.solve(gfull, tol=solver_tol)
    mixer = _Anderson(u.size)
    positive = fvals > 0.0
    sign_change = False
    for iterations in range(1, max_iter + 1):
        floor_hits = int(np.count_nonzero(np.abs(u) < tau))
        image = lap.solve(gfull, -fvals / _clamp(u, tau), solver_tol)
        if np.any(positive & (u * image < 0.0)):
            sign_change = True
        residual = image - u
        update = float(np.max(np.abs(residual)))
        if update < tol or iterations == max_iter:
            break
        u = mixer.mix(image, residual)
    return ReconstructionResult(
        u_hat=ScalarField(grid, image),
        q_hat=None,
        iterations=iterations,
        final_update_linf=update,
        floor_hits=floor_hits,
        converged=update < tol,
        tol=tol,
        sign_change=sign_change,
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


def reconstruct(f: ScalarField, g, k_bound: float, *,
                tol: float = 1e-8, max_iter: int = 200,
                solver_tol: float = 1e-9) -> ReconstructionResult:
    """Full pipeline: reconstruct u, then recover and attach q_hat with
    its clamped and projected masks."""
    res = reconstruct_u(f, g, tol=tol, max_iter=max_iter,
                        solver_tol=solver_tol)
    q_hat, clamped, projected = recover_q(f, res.u_hat, k_bound, tol)
    return replace(res, q_hat=q_hat, clamp_mask=clamped,
                   projected_mask=projected)


def save_result_manifest(result: ReconstructionResult, path) -> Path:
    """Write the run record {iterations, final_update_linf, floor_hits,
    converged, admissible} as JSON."""
    return write_json(path, {
        "iterations": result.iterations,
        "final_update_linf": result.final_update_linf,
        "floor_hits": result.floor_hits,
        "converged": result.converged,
        "admissible": result.admissible,
    })
