"""Finite-difference forward solver for  laplacian(u) + q u = 0  with
Dirichlet data.

The interior equations are the standard second-order stencil

    (u_E + u_W + u_N + u_S - 4 u_C) / h^2 + q_C u_C = 0

(3-point in 1D), with known boundary values moved to the load vector.
The assembled matrix is symmetric but generally indefinite: q may park
the operator on either side of (or close to) an eigenvalue, in which
case the boundary value problem degrades from well posed to ill posed.
Each operator is factored once by sparse LU (SuperLU); that factor
serves every solve and, as the shift-invert operator, the estimate of
the spectral gap min |lambda| that every solve carries, so near-singular
systems are flagged instead of silently amplifying noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ContractViolation, NearSingularError, SolverFailure
from .fields import Grid, PriorBounds, ScalarField, boundary_field

__all__ = [
    "DiscreteOperator",
    "SolveReport",
    "EigenGap",
    "solve_dirichlet",
    "eigen_gap",
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

    def __post_init__(self):
        if not np.isfinite(self.residual_linf):
            raise ContractViolation("residual must be finite")


@dataclass(frozen=True)
class EigenGap:
    """Distance of 0 to the operator spectrum; converged=False marks a
    best-effort estimate from a non-converged eigeniteration."""

    value: float
    converged: bool = True


class DiscreteOperator:
    """Interior system for laplacian + q with Dirichlet elimination.

    Immutable once assembled.  The sparse LU factor and the spectral gap
    are computed once on first use and cached on the instance; every
    solve against a new load vector and the gap estimate share that one
    factor.
    """

    def __init__(self, q: ScalarField, bounds: PriorBounds | None = None):
        grid = q.grid
        self.grid = grid
        self.q = q
        self.h = grid.h

        inner = grid.boundary_distance() > 0
        self.interior = inner
        self.n = int(inner.sum())
        if self.n == 0:
            raise ContractViolation("grid has no interior nodes")

        order = -np.ones(grid.shape, dtype=np.int64)
        order[inner] = np.arange(self.n)
        self._order = order

        jj, ii = np.nonzero(inner)
        h2 = self.h * self.h
        rows = [np.arange(self.n)]
        cols = [np.arange(self.n)]
        vals = [-2.0 * self.stencil_arms / h2 + q.values[inner]]
        brows, bcols = [], []
        shifts = [(0, 1), (0, -1)] if grid.is_1d else [(0, 1), (0, -1), (1, 0), (-1, 0)]
        for dj, di in shifts:
            nbr = order[jj + dj, ii + di]
            hit = nbr >= 0
            rows.append(np.nonzero(hit)[0])
            cols.append(nbr[hit])
            vals.append(np.full(int(hit.sum()), 1.0 / h2))
            miss = ~hit
            brows.append(np.nonzero(miss)[0])
            bcols.append((jj[miss] + dj) * grid.nx + (ii[miss] + di))
        self._bd_rows = np.concatenate(brows)
        self._bd_flat = np.concatenate(bcols)
        self.matrix = sp.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        )

        self.q_in_bounds = True
        if bounds is not None:
            lo, hi = 1.0 / bounds.k_bound, bounds.k_bound
            tol = 1e-12 * hi
            if q.values.min() < lo - tol or q.values.max() > hi + tol:
                self.q_in_bounds = False
                warnings.warn(
                    "coefficient leaves the declared [1/K, K] range",
                    stacklevel=3,
                )

        self._gap: EigenGap | None = None

    @property
    def stencil_arms(self) -> int:
        return 1 if self.grid.is_1d else 2

    def load_vector(self, g, source: ScalarField | None = None) -> np.ndarray:
        """Right-hand side for boundary data g and optional volume source s,
        the source entering as  laplacian(u) + q u = s."""
        gfull = boundary_field(self.grid, g).ravel()
        b = np.zeros(self.n)
        np.add.at(b, self._bd_rows, -gfull[self._bd_flat] / self.h**2)
        if source is not None:
            if source.grid != self.grid:
                raise ContractViolation("source lives on another grid")
            b += source.values[self.interior]
        return b

    def expand(self, u_int: np.ndarray, g) -> ScalarField:
        """Glue interior unknowns and boundary data into a full field."""
        full = boundary_field(self.grid, g)
        full[self.interior] = u_int
        return ScalarField(self.grid, full)

    @cached_property
    def _lu(self):
        """Sparse LU factor of the interior matrix, or None when SuperLU
        finds it exactly singular."""
        try:
            return splu(self.matrix.tocsc())
        except RuntimeError:
            return None

    def solve_vec(self, b: np.ndarray):
        """Solve A x = b with the shared LU factor; returns (x, method).

        A singular factor or a non-finite solution hands back the zero
        iterate, which the caller's residual contract routes to the gap
        check.
        """
        if not np.any(b):
            return np.zeros(self.n), "trivial"
        x = self._lu.solve(b) if self._lu is not None else np.zeros(self.n)
        if not np.all(np.isfinite(x)):
            x = np.zeros(self.n)
        return x, "splu"

    def residual_linf(self, x: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(self.matrix @ x - b), initial=0.0))

    def gap_threshold(self) -> float:
        return 1e-6 * (float(np.max(np.abs(self.q.values)))
                       + 2.0 * self.stencil_arms / self.h**2)

    def eigen_gap(self) -> EigenGap:
        """min |lambda| over the interior spectrum, cached."""
        if self._gap is None:
            self._gap = self._compute_gap()
        return self._gap

    def _compute_gap(self) -> EigenGap:
        if self.n == 1:
            return EigenGap(abs(float(self.matrix[0, 0])))
        if self.n <= 3:
            lam = scipy.linalg.eigvalsh(self.matrix.toarray())
            return EigenGap(float(np.min(np.abs(lam))))
        if self._lu is None:
            return EigenGap(0.0)
        opinv = LinearOperator(self.matrix.shape, matvec=self._lu.solve,
                               dtype=float)
        try:
            lam = eigsh(self.matrix, k=1, sigma=0.0, which="LM", OPinv=opinv,
                        return_eigenvectors=False, tol=1e-9)
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
        gap falls below the scale-relative gap_threshold(), and a
        generic solver failure otherwise; both carry the partial report.
        """
        if tol <= 0:
            raise ContractViolation(f"tol must be positive, got {tol}")
        b = self.load_vector(g, source)
        x, method = self.solve_vec(b)
        res = self.residual_linf(x, b)
        gap = self.eigen_gap()
        threshold = self.gap_threshold()
        ok = res <= tol * float(np.max(np.abs(b), initial=0.0))
        report = SolveReport(
            u=self.expand(x, g),
            residual_linf=res,
            eigen_gap_estimate=gap.value,
            method=method,
            converged=ok,
            degenerate=gap.value < threshold,
        )
        if not ok:
            if report.degenerate:
                raise NearSingularError(
                    f"spectral gap {gap.value:.3e} below threshold "
                    f"{threshold:.3e}; boundary value problem is ill posed",
                    report=report,
                )
            raise SolverFailure(
                f"residual {res:.3e} misses contract with method {method}",
                report=report,
            )
        return report


def solve_dirichlet(q: ScalarField, g, tol: float = 1e-9, *,
                    bounds: PriorBounds | None = None,
                    source: ScalarField | None = None) -> SolveReport:
    """Assemble and solve laplacian(u) + q u = source with u = g on the
    boundary; see DiscreteOperator.solve for the residual contract."""
    op = DiscreteOperator(q, bounds=bounds)
    return op.solve(g, tol, source=source)


def eigen_gap(q: ScalarField | DiscreteOperator) -> EigenGap:
    """Distance of 0 to the spectrum of the assembled interior operator."""
    op = q if isinstance(q, DiscreteOperator) else DiscreteOperator(q)
    return op.eigen_gap()
