"""Exception hierarchy shared across the package.

Contract violations (bad arguments, mismatched grids, broken invariants)
are distinguished from solver failures so that callers -- in particular
the command line front end -- can map them to distinct exit codes.
"""


class ContractViolation(ValueError):
    """An argument or state violates a documented precondition/invariant."""


class SolverError(RuntimeError):
    """Base class for linear-solver failures; ``report`` carries the
    partial solve report, or None."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NearSingularError(SolverError):
    """The discrete operator has an eigenvalue too close to zero.

    Carries the partial solve report (best iterate, residual, gap
    estimate) in ``report``.
    """


class SolverFailure(SolverError):
    """The forward solve missed its residual contract for other reasons."""


class DegenerateBall(ContractViolation):
    """A ball integral has an empty node set or a vanishing denominator."""


class UnderdeterminedFit(ContractViolation):
    """Too few usable samples to determine a power-law fit."""
