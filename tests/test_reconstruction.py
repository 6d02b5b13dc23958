"""Fixed-point reconstruction tests: manufactured pairs, degeneracy
handling, sign invariance, error reporting."""

import numpy as np
import pytest

from hybridlab import ContractViolation, Grid, ScalarField
from hybridlab.config import field_from_spec, g_from_spec
from hybridlab.errors import SolverFailure
from hybridlab.fields import boundary_field
from hybridlab.forward import DiscreteOperator, solve_dirichlet
from hybridlab.reconstruction import (
    DirichletLaplacian,
    reconstruct,
    reconstruct_u,
    reconstruction_error,
    recover_q,
    save_result_manifest,
)
from hybridlab.synthesis import internal_data

K = 4.0
SOLVER_TOL = 1e-9  # the residual contract of every solve (solver.tol)


def coscos(x, y):
    return np.cos(x) * np.cos(y)


def coscos_sq(x, y):
    return 2.0 * np.cos(x) ** 2 * np.cos(y) ** 2


# --- reconstruct_u ----------------------------------------------------------

def test_zero_measurement_returns_harmonic_extension():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    f0 = ScalarField.constant(grid, 0.0)
    res = reconstruct_u(f0, coscos, solver_tol=SOLVER_TOL)
    assert res.iterations == 1
    assert res.converged
    assert res.final_update_linf == 0.0
    # sine transform against sparse LU: equal within the residual contract
    harmonic = solve_dirichlet(ScalarField.constant(grid, 0.0), coscos)
    diff = np.max(np.abs(res.u_hat.values - harmonic.u.values))
    assert diff <= SOLVER_TOL * np.max(np.abs(harmonic.u.values))


# --- DirichletLaplacian -----------------------------------------------------

@pytest.mark.parametrize("grid", [
    Grid(nx=41, lx=2.0),
    Grid(nx=17, ny=17, lx=1.0, ly=1.0),
    Grid(nx=33, ny=17, lx=2.0, ly=1.0),
], ids=["1d", "square", "rectangle"])
def test_sine_transform_solve_matches_sparse_lu(grid):
    rng = np.random.default_rng(5)
    source = rng.normal(size=grid.shape)
    g = g_from_spec(grid, "coscos")
    zero = ScalarField.constant(grid, 0.0)
    ref = solve_dirichlet(zero, g, SOLVER_TOL, source=ScalarField(grid, source))
    # only the boundary of the given full field counts
    full = field_from_spec(grid, "coscos").values
    u = DirichletLaplacian(grid).solve(full, source, SOLVER_TOL)
    scale = np.max(np.abs(ref.u.values))
    assert np.max(np.abs(u - ref.u.values)) <= SOLVER_TOL * scale
    edge = grid.boundary_distance() == 0
    np.testing.assert_array_equal(u[edge], ref.u.values[edge])
    # the residual contract, measured with the assembled sparse matrix
    op = DiscreteOperator(zero)
    b = op.load_vector(g, ScalarField(grid, source))
    assert op.residual_linf(u[op.interior], b) <= SOLVER_TOL * np.max(np.abs(b))


def test_sine_transform_rejects_fields_of_another_shape():
    lap = DirichletLaplacian(Grid(nx=9, ny=9, lx=1.0, ly=1.0))
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 7)))
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 9)), np.zeros((7, 9)))
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 9)), tol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sine_transform_non_finite_source_is_solver_failure(bad):
    grid = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    source = np.ones(grid.shape)
    source[4, 4] = bad
    with pytest.raises(SolverFailure, match="method dst"), \
            np.errstate(invalid="ignore"):
        DirichletLaplacian(grid).solve(boundary_field(grid, 1.0), source)


@pytest.mark.parametrize("nx", [17, 33, 65])
def test_manufactured_2d_reconstruction(nx):
    grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
    f = ScalarField.from_function(grid, coscos_sq)
    res = reconstruct_u(f, coscos)
    exact = ScalarField.from_function(grid, coscos)
    assert res.converged
    assert not res.sign_change
    assert np.max(np.abs(res.u_hat.values - exact.values)) <= 5.0 * grid.h**2


def test_manufactured_1d_reconstruction():
    errs = []
    for nx in (33, 65):
        grid = Grid(nx=nx, lx=np.pi / 2)
        f = ScalarField.from_function(grid, lambda x: np.sin(x) ** 2)
        res = reconstruct_u(f, np.array([0.0, 1.0]))
        assert res.converged
        errs.append(np.max(np.abs(res.u_hat.values[0] - np.sin(grid.xs()))))
        assert errs[-1] <= 5.0 * grid.h**2
    assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2


def test_fixed_point_consistency_with_forward_solve():
    # feed the discrete forward solution's own measurement back in:
    # the iteration must sit still at solver tolerance, not at O(h^2)
    grid = Grid(nx=21, ny=21, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0)
    fwd = solve_dirichlet(q, coscos)
    f = internal_data(q, fwd.u)
    res = reconstruct_u(f, coscos, tol=1e-10)
    assert np.max(np.abs(res.u_hat.values - fwd.u.values)) <= 1e-7


def test_1d_large_grid_converges_to_true_coefficient():
    # 2,599 tridiagonal unknowns with a condition number near 3e6: each
    # fixed-point solve must land on the fixed point itself, not on any
    # iterate that merely meets the residual contract
    grid = Grid(nx=2601)
    q = ScalarField.constant(grid, 2.0)
    g = g_from_spec(grid, "coscos")
    f = internal_data(q, solve_dirichlet(q, g).u)
    res = reconstruct(f, g, 4.0)
    assert res.converged
    assert reconstruction_error(res.q_hat, q, 0.125).l1 <= 1e-6


def test_preconditions_rejected():
    grid = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    with pytest.raises(ContractViolation):
        reconstruct_u(ScalarField.constant(grid, -0.5), coscos)
    with pytest.raises(ContractViolation):
        reconstruct_u(ScalarField.constant(grid, 1.0), 0.0)  # g = 0, F > 0
    with pytest.raises(ContractViolation):
        reconstruct_u(ScalarField.constant(grid, 0.0), coscos, max_iter=0)


def test_tiny_negative_measurement_clipped():
    grid = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    vals = np.full(grid.shape, 1e-13)
    vals[4, 4] = -1e-13  # within -tol: clipped, not fatal
    res = reconstruct_u(ScalarField(grid, vals), coscos)
    assert res.converged


def test_nonconvergence_is_flagged_not_raised():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    f = ScalarField.from_function(grid, coscos_sq)
    res = reconstruct_u(f, coscos, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert res.final_update_linf > 1e-14


def test_sign_invariance():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    f = ScalarField.from_function(grid, coscos_sq)
    pos = reconstruct(f, coscos, K)
    neg = reconstruct(f, lambda x, y: -coscos(x, y), K)
    np.testing.assert_array_equal(neg.u_hat.values, -pos.u_hat.values)
    np.testing.assert_array_equal(neg.q_hat.values, pos.q_hat.values)


# --- recover_q --------------------------------------------------------------

def test_recover_q_algebraic_identity():
    grid = Grid(nx=21, ny=21, lx=1.0, ly=1.0)
    rng = np.random.default_rng(17)
    q = ScalarField(grid, rng.uniform(1.0, 2.0, grid.shape))
    u = ScalarField.from_function(grid, coscos)  # |u| >= cos(1)^2 > tau
    f = internal_data(q, u)
    q_hat, mask = recover_q(f, u, K, tau=1e-8)
    np.testing.assert_allclose(q_hat.values, q.values, rtol=1e-12)
    assert not mask.any()


def test_recover_q_nodal_line_projects_to_floor():
    # 1D oscillatory member with nodes exactly on the zero set of cos(5x)
    grid = Grid(nx=11, lx=np.pi)  # nodes at multiples of pi/10
    x = grid.xs()
    u = ScalarField(grid, np.cos(5.0 * x)[None, :])
    q = ScalarField.constant(grid, 25.0)
    f = internal_data(q, u)
    q_hat, mask = recover_q(f, u, 30.0, tau=1e-6)
    zero_nodes = np.abs(u.values) < 1e-12
    assert zero_nodes.any()
    assert mask[zero_nodes].all()
    # F vanishes on the nodal set, so the recovery lands on the prior floor
    np.testing.assert_allclose(q_hat.values[zero_nodes], 1.0 / 30.0)
    off = ~zero_nodes
    np.testing.assert_allclose(q_hat.values[off], 25.0, rtol=1e-12)


def test_zero_measurement_recovers_prior_floor_with_full_mask():
    grid = Grid(nx=13, ny=13, lx=1.0, ly=1.0)
    res = reconstruct(ScalarField.constant(grid, 0.0), coscos, K)
    np.testing.assert_allclose(res.q_hat.values, 1.0 / K)
    assert res.clamp_mask.all()


def test_recover_q_always_inside_prior_interval():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    rng = np.random.default_rng(3)
    u = ScalarField(grid, rng.normal(size=grid.shape))
    f = ScalarField(grid, np.abs(rng.normal(size=grid.shape)) * 50.0)
    q_hat, mask = recover_q(f, u, K)
    assert q_hat.values.min() >= 1.0 / K
    assert q_hat.values.max() <= K
    assert mask.any()
    # [1/K, K] is an interval only for K >= 1
    with pytest.raises(ContractViolation, match="K must be >= 1"):
        recover_q(f, u, 0.5)


# --- end-to-end and error reporting ----------------------------------------

def test_end_to_end_manufactured_accuracy():
    grid = Grid(nx=65, ny=65, lx=1.0, ly=1.0)
    f = ScalarField.from_function(grid, coscos_sq)
    res = reconstruct(f, coscos, K)
    err = reconstruction_error(res.q_hat, ScalarField.constant(grid, 2.0), 0.05)
    assert err.l1 / 2.0 <= 1e-3  # relative interior L1 error
    assert not err.empty


def test_reconstruction_error_basics():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0)
    zero = reconstruction_error(q, q, 0.1)
    assert zero.l1 == 0.0 and zero.linf == 0.0
    flagged = reconstruction_error(q, q, 0.6)
    assert flagged.empty
    with pytest.raises(ContractViolation):
        reconstruction_error(q, ScalarField.constant(Grid(nx=9, ny=9, lx=1.0, ly=1.0), 2.0), 0.1)


def test_error_decreases_under_refinement():
    l1s = []
    for nx in (17, 33, 65):
        grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
        f = ScalarField.from_function(grid, coscos_sq)
        res = reconstruct(f, coscos, K)
        l1s.append(reconstruction_error(
            res.q_hat, ScalarField.constant(grid, 2.0), 0.05).l1)
    assert l1s[0] > l1s[1] > l1s[2]


def test_result_manifest(tmp_path):
    grid = Grid(nx=13, ny=13, lx=1.0, ly=1.0)
    f = ScalarField.from_function(grid, coscos_sq)
    res = reconstruct(f, coscos, K)
    path = save_result_manifest(res, tmp_path / "result.json")
    import json

    payload = json.loads(path.read_text())
    assert set(payload) == {"iterations", "final_update_linf",
                            "floor_hits", "converged"}
    assert payload["converged"] is True
    assert payload["iterations"] == res.iterations
