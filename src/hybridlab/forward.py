"""Finite-difference forward solver for  laplacian(u) + q u = 0  with
Dirichlet data.

The interior equations are the standard second-order stencil

    (u_E + u_W + u_N + u_S - 4 u_C) / h^2 + q_C u_C = 0

(3-point in 1D).  `stencil` writes it once, on a full field, and every
solver shares it: DiscreteOperator couples each interior unknown to its
interior neighbours in the matrix and moves the known boundary values to
the load vector as minus the stencil of the boundary field, and the
reconstruction's sine-transform solver takes its load and its residual
with it.

The assembled matrix is symmetric but generally indefinite: q may park
the operator on either side of (or close to) an eigenvalue, in which
case the boundary value problem degrades from well posed to ill posed.
Each operator is factored once by sparse LU (SuperLU); that factor
serves every solve and, as the shift-invert operator, the estimate of
the spectral gap min |lambda| that every solve carries, so near-singular
systems are flagged instead of silently amplifying noise.

The unknowns are numbered in elimination order, minimum degree on the
pattern of A + A^T, which SuperLU computes once per grid on the
Laplacian: the diagonal is stored even where q makes it zero, so the
pattern and its ordering do not depend on q, and each operator is
assembled in that order and factored without reordering.  On the
symmetric 5-point matrix this gives the factor that ordering each
operator afresh gives, 0.57 of the fill of SuperLU's default COLAMD
(nx = 65, q = 8).

The gap is one shift-invert Lanczos run (ARPACK) for the eigenvalue of
A^-1 of largest modulus on a 6-vector basis from a fixed start vector:
7-10 LU solves at the sweep sizes nx = 33 to 97 (q = 8, 16), against 21
on the default 20 vectors, and at most 22 over q from 8 to 64, nx = 33
to 97 and bumps of amplitude up to 8.  A 4-vector basis stalls on some
of these: at nx = 33, q = 34.5 plus a bump (amplitude 0.5, seed 1) it
spends 497 solves, at nx = 65, q = 64 plus a bump (0.5, seed 2) 2,099.
Against dense eigvalsh the estimate agrees to 1e-10 relative, also on
hard spectra: q midway between the two lowest eigenvalues, which puts
three eigenvalues at the smallest modulus, or q = 64.  The solver
takes no prior: the range 1/K <= q <= K is a hypothesis on the
experiment, which synthesis.make_pair records as each pair's k_ok flag.

scipy is imported by the first operator's assembly, not with the
package: diagnose, reconstruct and counterexample never build one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContractViolation, NearSingularError, SolverFailure
from .fields import Grid, ScalarField, boundary_field, interior_mask

__all__ = [
    "DiscreteOperator",
    "SolveReport",
    "EigenGap",
    "solve_dirichlet",
    "stencil",
]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Dirichlet solve, including the spectral-gap estimate."""

    u: ScalarField
    residual_linf: float
    eigen_gap_estimate: float
    method: str
    converged: bool = True
    degenerate: bool = False
    gap_converged: bool = True

    def __post_init__(self):
        if not np.isfinite(self.residual_linf):
            raise ContractViolation("residual must be finite")


@dataclass(frozen=True)
class EigenGap:
    """Distance of 0 to the operator spectrum; converged=False marks a
    best-effort estimate from a non-converged eigeniteration."""

    value: float
    converged: bool = True


# Lanczos basis of the gap's eigsh call (k = 1 < ncv <= n, as n > 3 there)
_GAP_NCV = 6


def stencil(u: np.ndarray, h: float) -> np.ndarray:
    """The discrete Laplacian of the full field u at the interior nodes."""
    if u.shape[0] == 1:
        lap = u[:, 2:] + u[:, :-2] - 2.0 * u[:, 1:-1]
    else:
        lap = (u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1]
               - 4.0 * u[1:-1, 1:-1])
    return lap / h**2


@lru_cache(maxsize=16)
def _pattern(grid: Grid):
    """What every operator on the grid shares, read-only: the interior
    Laplacian (q = 0) with its unknowns in elimination order, the
    row-major interior index and the flat grid index of each unknown,
    and the positions of the diagonal in the matrix data."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    interior = interior_mask(grid, 0.0)
    n = int(interior.sum())
    # each arm couples an interior unknown (row) to its neighbour
    # (column) in the E, W, N, S order of the stencil
    idx = np.arange(n).reshape(1 if grid.is_1d else grid.ny - 2, grid.nx - 2)
    arms = [(idx[:, :-1], idx[:, 1:]), (idx[:, 1:], idx[:, :-1])]
    if not grid.is_1d:
        arms += [(idx[:-1], idx[1:]), (idx[1:], idx[:-1])]
    h2 = grid.h * grid.h
    rows = np.concatenate([idx.ravel()] + [r.ravel() for r, _ in arms])
    cols = np.concatenate([idx.ravel()] + [c.ravel() for _, c in arms])
    vals = np.full(rows.size, 1.0 / h2)
    vals[:n] = -len(arms) / h2
    natural = sp.csc_array((vals, (rows, cols)), shape=(n, n))
    # perm_c[i] is the position of unknown i in the elimination order
    rank = splu(natural, permc_spec="MMD_AT_PLUS_A").perm_c
    lap = sp.csc_array((vals, (rank[rows], rank[cols])), shape=(n, n))
    column = np.repeat(np.arange(n), np.diff(lap.indptr))
    order = np.argsort(rank)
    nodes = np.flatnonzero(interior)[order]
    diag = np.flatnonzero(lap.indices == column)
    for arr in (order, nodes, diag, lap.data, lap.indices, lap.indptr):
        arr.setflags(write=False)
    return order, nodes, lap, diag


class DiscreteOperator:
    """Interior system for laplacian + q with Dirichlet elimination.

    Immutable once assembled.  The unknowns are numbered in the grid's
    elimination order: unknown k is interior node order[k] in row-major
    order, grid node nodes[k] in the flattened grid, and matrix, load
    vectors and solutions all use that numbering.  The sparse LU factor
    and the spectral gap are computed once on first use and cached on
    the instance; every solve against a new load vector and the gap
    estimate share that one factor.
    """

    def __init__(self, q: ScalarField):
        import scipy.sparse as sp
        grid = q.grid
        self.grid = grid
        self.q = q
        self.h = grid.h
        self.order, self.nodes, lap, diag = _pattern(grid)
        self.n = self.order.size
        vals = lap.data.copy()
        vals[diag] += q.values.take(self.nodes)
        self.matrix = sp.csc_array((vals, lap.indices, lap.indptr),
                                   shape=lap.shape)

    def _load(self, full: np.ndarray, source: ScalarField | None) -> np.ndarray:
        """Right-hand side for the boundary field full (zero inside) and
        an optional volume source s, the source entering as
        laplacian(u) + q u = s."""
        b = -stencil(full, self.h).take(self.order)
        if source is not None:
            if source.grid != self.grid:
                raise ContractViolation("source lives on another grid")
            b += source.values.take(self.nodes)
        return b

    @cached_property
    def _lu(self):
        """Sparse LU factor of the interior matrix, already in the grid's
        elimination order, or None when SuperLU finds it exactly
        singular."""
        # SuperLU gets a copy.  Freed on return, it leaves room below the
        # factor for the arrays a solve keeps (u, then F in a pair), so
        # glibc can trim the heap once the factor is freed; factoring
        # the matrix itself raised a two-cell nx = 129 sweep's peak RSS
        # from 85 to 97 MB
        from scipy.sparse.linalg import splu
        try:
            return splu(self.matrix.copy(), permc_spec="NATURAL")
        except RuntimeError:
            return None

    def residual_linf(self, x: np.ndarray, b: np.ndarray) -> float:
        """||A x - b||_inf, x and b numbered as the unknowns."""
        return float(np.max(np.abs(self.matrix @ x - b), initial=0.0))

    def eigen_gap(self) -> EigenGap:
        """min |lambda| over the interior spectrum, cached."""
        return self._gap

    @cached_property
    def _gap(self) -> EigenGap:
        if self.n <= 3:
            lam = np.linalg.eigvalsh(self.matrix.toarray())
            return EigenGap(float(np.min(np.abs(lam))))
        if self._lu is None:
            return EigenGap(0.0)
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
        opinv = LinearOperator(self.matrix.shape, matvec=self._lu.solve,
                               dtype=float)
        try:
            # a fixed start vector makes the estimate reproducible (eigsh
            # would otherwise draw one from OS entropy); drawn in the
            # natural numbering, it does not depend on the ordering
            rng = np.random.default_rng(0)
            v0 = rng.uniform(-1.0, 1.0, self.n)[self.order]
            lam = eigsh(self.matrix, k=1, sigma=0.0, which="LM", OPinv=opinv,
                        v0=v0, ncv=_GAP_NCV, return_eigenvectors=False,
                        tol=1e-9)
            return EigenGap(abs(float(lam[0])))
        except ArpackNoConvergence as exc:
            best = getattr(exc, "eigenvalues", None)
            if best is not None and len(best):
                return EigenGap(abs(float(best[0])), converged=False)
            return EigenGap(float("inf"), converged=False)

    def solve(self, g, tol: float = 1e-9, *,
              source: ScalarField | None = None) -> SolveReport:
        """Full Dirichlet solve with residual contract and gap check.

        Success means ||A u_int - b||_inf <= tol * ||b||_inf.  A solve
        that misses the contract raises NearSingular when the spectral
        gap falls below 1e-6 of the operator's norm bound, and a generic
        solver failure otherwise; both carry the partial report.
        """
        if not tol > 0:  # refuses NaN too
            raise ContractViolation(f"tol must be positive, got {tol}")
        full = boundary_field(self.grid, g)
        b = self._load(full, source)
        # a singular factor or a non-finite solution hands back the zero
        # iterate, which the residual contract routes to the gap check
        x = self._lu.solve(b) if self._lu is not None else np.zeros(self.n)
        if not np.all(np.isfinite(x)):
            x = np.zeros(self.n)
        res = self.residual_linf(x, b)
        gap = self.eigen_gap()
        threshold = 1e-6 * (float(np.max(np.abs(self.q.values)))
                            + (2.0 if self.grid.is_1d else 4.0) / self.h**2)
        ok = res <= tol * float(np.max(np.abs(b), initial=0.0))
        np.put(full, self.nodes, x)
        report = SolveReport(
            u=ScalarField(self.grid, full),
            residual_linf=res,
            eigen_gap_estimate=gap.value,
            method="splu",
            converged=ok,
            degenerate=gap.value < threshold,
            gap_converged=gap.converged,
        )
        if not ok:
            if report.degenerate:
                raise NearSingularError(
                    f"spectral gap {gap.value:.3e} below threshold "
                    f"{threshold:.3e}; boundary value problem is ill posed",
                    report=report,
                )
            raise SolverFailure(
                f"residual {res:.3e} misses contract with method splu",
                report=report,
            )
        return report


def solve_dirichlet(q: ScalarField, g, tol: float = 1e-9, *,
                    source: ScalarField | None = None) -> SolveReport:
    """Assemble and solve laplacian(u) + q u = source with u = g on the
    boundary; see DiscreteOperator.solve for the residual contract."""
    op = DiscreteOperator(q)
    return op.solve(g, tol, source=source)
