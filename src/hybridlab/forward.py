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
systems are flagged instead of silently amplifying noise.  The solver
takes no prior: the range 1/K <= q <= K is a hypothesis on the
experiment, which synthesis.make_pair records as each pair's k_ok flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ContractViolation, NearSingularError, SolverFailure
from .fields import ScalarField, boundary_field, interior_mask

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

    def __post_init__(self):
        if not np.isfinite(self.residual_linf):
            raise ContractViolation("residual must be finite")


@dataclass(frozen=True)
class EigenGap:
    """Distance of 0 to the operator spectrum; converged=False marks a
    best-effort estimate from a non-converged eigeniteration."""

    value: float
    converged: bool = True


def stencil(u: np.ndarray, h: float) -> np.ndarray:
    """The discrete Laplacian of the full field u at the interior nodes."""
    if u.shape[0] == 1:
        lap = u[:, 2:] + u[:, :-2] - 2.0 * u[:, 1:-1]
    else:
        lap = (u[1:-1, 2:] + u[1:-1, :-2] + u[2:, 1:-1] + u[:-2, 1:-1]
               - 4.0 * u[1:-1, 1:-1])
    return lap / h**2


class DiscreteOperator:
    """Interior system for laplacian + q with Dirichlet elimination.

    Immutable once assembled.  The sparse LU factor and the spectral gap
    are computed once on first use and cached on the instance; every
    solve against a new load vector and the gap estimate share that one
    factor.
    """

    def __init__(self, q: ScalarField):
        grid = q.grid
        self.grid = grid
        self.q = q
        self.h = grid.h

        self.interior = interior_mask(grid, 0.0)
        self.n = int(self.interior.sum())

        # each arm couples an interior unknown (row) to its neighbour
        # (column) in the E, W, N, S order of the stencil
        idx = np.arange(self.n).reshape(1 if grid.is_1d else grid.ny - 2,
                                        grid.nx - 2)
        arms = [(idx[:, :-1], idx[:, 1:]), (idx[:, 1:], idx[:, :-1])]
        if not grid.is_1d:
            arms += [(idx[:-1], idx[1:]), (idx[1:], idx[:-1])]
        h2 = self.h * self.h
        rows = np.concatenate([idx.ravel()] + [r.ravel() for r, _ in arms])
        cols = np.concatenate([idx.ravel()] + [c.ravel() for _, c in arms])
        vals = np.full(rows.size, 1.0 / h2)
        vals[:self.n] = -len(arms) / h2 + q.values[self.interior]
        self.matrix = sp.csr_array((vals, (rows, cols)),
                                   shape=(self.n, self.n))

    def load_vector(self, g, source: ScalarField | None = None) -> np.ndarray:
        """Right-hand side for boundary data g and optional volume source s,
        the source entering as  laplacian(u) + q u = s."""
        return self._load(boundary_field(self.grid, g), source)

    def _load(self, full: np.ndarray, source: ScalarField | None) -> np.ndarray:
        """load_vector from the boundary field (zero inside)."""
        b = -stencil(full, self.h).ravel()
        if source is not None:
            if source.grid != self.grid:
                raise ContractViolation("source lives on another grid")
            b += source.values[self.interior]
        return b

    @cached_property
    def _lu(self):
        """Sparse LU factor of the interior matrix, or None when SuperLU
        finds it exactly singular."""
        try:
            return splu(self.matrix.tocsc())
        except RuntimeError:
            return None

    def residual_linf(self, x: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(self.matrix @ x - b), initial=0.0))

    def eigen_gap(self) -> EigenGap:
        """min |lambda| over the interior spectrum, cached."""
        return self._gap

    @cached_property
    def _gap(self) -> EigenGap:
        if self.n <= 3:
            lam = scipy.linalg.eigvalsh(self.matrix.toarray())
            return EigenGap(float(np.min(np.abs(lam))))
        if self._lu is None:
            return EigenGap(0.0)
        opinv = LinearOperator(self.matrix.shape, matvec=self._lu.solve,
                               dtype=float)
        try:
            # a fixed start vector makes the estimate reproducible; eigsh
            # would otherwise draw one from OS entropy
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, self.n)
            lam = eigsh(self.matrix, k=1, sigma=0.0, which="LM", OPinv=opinv,
                        v0=v0, return_eigenvectors=False, tol=1e-9)
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
        if tol <= 0:
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
        full[self.interior] = x
        report = SolveReport(
            u=ScalarField(self.grid, full),
            residual_linf=res,
            eigen_gap_estimate=gap.value,
            method="splu",
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
