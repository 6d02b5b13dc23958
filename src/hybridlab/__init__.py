"""Numerical laboratory for a coefficient inverse problem with internal data.

The model is the Schrodinger-type equation  laplacian(u) + q u = 0  on a
rectangle, with Dirichlet boundary data g and internal measurement
F = q u^2.  The package provides the discrete forward solver, synthetic
experiment generation, a fixed-point reconstruction of (u, q) from
(F, g), quantitative unique-continuation diagnostics, an oscillatory 1D
family showing that stability genuinely degrades as the a-priori bounds
blow up, and a sweep harness that fits Holder stability exponents to
measured error curves.
"""

from .errors import (
    ContractViolation,
    DegenerateBall,
    NearSingularError,
    SolverError,
    SolverFailure,
    UnderdeterminedFit,
)
from .fields import (
    Grid,
    Norms,
    PriorBounds,
    ScalarField,
    ball_mask,
    boundary_values,
    energy,
    integrate,
    interior_mask,
    load_field,
    norms,
    save_field,
)
from .forward import DiscreteOperator, solve_dirichlet
from .synthesis import internal_data, make_pair, perturb_coefficient
from .reconstruction import reconstruct, recover_q
from .diagnostics import collect_diagnostics, weighted_checks
from .counterexample import OscillatoryFamily, pathology_table
from .harness import SweepConfig, emit_report, fit_holder, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "DegenerateBall",
    "NearSingularError",
    "SolverError",
    "SolverFailure",
    "UnderdeterminedFit",
    "Grid",
    "Norms",
    "PriorBounds",
    "ScalarField",
    "ball_mask",
    "boundary_values",
    "energy",
    "integrate",
    "interior_mask",
    "load_field",
    "norms",
    "save_field",
    "DiscreteOperator",
    "solve_dirichlet",
    "internal_data",
    "make_pair",
    "perturb_coefficient",
    "reconstruct",
    "recover_q",
    "collect_diagnostics",
    "weighted_checks",
    "OscillatoryFamily",
    "pathology_table",
    "SweepConfig",
    "emit_report",
    "fit_holder",
    "run_sweep",
    "__version__",
]
