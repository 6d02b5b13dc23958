"""Fixed-point reconstruction tests: manufactured pairs, degeneracy
handling, sign invariance, error reporting."""

import warnings

import numpy as np
import pytest

from hybridlab import ContractViolation, Grid, PriorBounds, ScalarField
from hybridlab import reconstruction
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
from hybridlab.synthesis import internal_data, perturb_coefficient

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
    Grid(nx=131, lx=2.0),
    Grid(nx=131, ny=17, lx=8.125, ly=1.0),
], ids=["1d", "square", "rectangle", "1d-fft", "rectangle-fft-x"])
def test_sine_transform_solve_matches_sparse_lu(grid):
    # axes of up to 128 interior nodes take the sine matrix, longer ones
    # the FFT: the last two grids have a 129-node axis
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
    b = op._load(boundary_field(grid, g), ScalarField(grid, source))
    assert (op.residual_linf(u.take(op.nodes), b)
            <= SOLVER_TOL * np.max(np.abs(b)))


@pytest.mark.parametrize("m", [1, 31, 128, 129, 300])
def test_sine_transform_is_its_defining_sum(m):
    # both sides of the threshold: the sine matrix up to 128 nodes, the
    # FFT of the odd extension beyond
    x = np.random.default_rng(m).normal(size=(3, m))
    j = np.arange(1, m + 1)
    # the angle reduced modulo 2 pi in integers first, so the sum is
    # evaluated independently of the transform's own sine matrix
    want = x @ np.sin(np.pi * (np.outer(j, j) % (2 * m + 2)) / (m + 1))
    got = reconstruction._dst1(x)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * m * np.max(np.abs(x)))
    if m <= reconstruction._SINE_MATRIX_MAX:
        assert not reconstruction._sine_matrix(m).flags.writeable


def test_sine_transform_rejects_fields_of_another_shape():
    lap = DirichletLaplacian(Grid(nx=9, ny=9, lx=1.0, ly=1.0))
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 7)))
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 9)), np.zeros((7, 9)))
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 9)), tol=0.0)
    with pytest.raises(ContractViolation):
        lap.solve(np.zeros((9, 9)), tol=np.nan)


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
    # written so that NaN is refused, not run for max_iter steps
    for tol in (np.nan, 0.0):
        with pytest.raises(ContractViolation):
            reconstruct_u(ScalarField.constant(grid, 1.0), coscos, tol=tol)


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


# --- Anderson mixing --------------------------------------------------------

def bump_pair(nx, q, amplitude, k_bound, seed=0, **where):
    """(F2, g, u2) for q plus a clipped bump, with g = 2.5 cos(x) cos(y)."""
    grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
    g = g_from_spec(grid, "expr:2.5*cos(x)*cos(y)")
    bounds = PriorBounds(k_bound=k_bound, e_bound=1e4, h_bound=0.5,
                         d_margin=0.125)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the saturated bump warns
        q2 = perturb_coefficient(ScalarField.constant(grid, q), "bump",
                                 amplitude, seed, bounds=bounds, **where)
    u2 = solve_dirichlet(q2.field, g).u
    return internal_data(q2.field, u2), g, u2


def test_near_lambda_1_converges_within_default_max_iter():
    # q = 19 sits just under the discrete lambda_1 (about 19.7): the
    # plain iteration contracts by about 0.97 a step and ends 200 steps
    # unconverged, 0.16 from u2.  Without the positive-cone guard,
    # whether mixing reached u2 here turned on the rounding of the
    # Poisson solves
    f, g, u2 = bump_pair(33, 19.0, 0.5, 32.0)
    res = reconstruct_u(f, g)
    assert res.converged and res.iterations < 200
    assert np.max(np.abs(res.u_hat.values - u2.values)) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("amplitude", [0.5, 1.0, 2.0, 4.0])
def test_mixing_keeps_positive_data_in_the_positive_cone(amplitude, seed):
    # q = 18 under lambda_1 with a positive u2: without the guard, mixing
    # left the positive cone on five of these twelve cells and converged
    # 63 to 79 from u2
    f, g, u2 = bump_pair(33, 18.0, amplitude, 64.0, seed)
    res = reconstruct(f, g, 64.0)
    assert res.converged and res.admissible is True
    assert res.iterations <= 30
    assert np.max(np.abs(res.u_hat.values - u2.values)) <= 1e-8


@pytest.mark.parametrize("amplitude", [0.5, 4.0])
def test_recon_slow_cell_takes_at_most_30_iterations(amplitude):
    # a cell of the recon-slow benchmark workload (seed0 = 0), which the
    # plain iteration took 109 and 124 steps over
    f, g, u2 = bump_pair(65, 16.0, amplitude, 32.0)
    res = reconstruct_u(f, g)
    assert res.converged and res.iterations <= 30
    assert np.max(np.abs(res.u_hat.values - u2.values)) <= 1e-8


def plain_fixed_point(f, g, tol=1e-8, max_iter=200):
    """The unaccelerated iteration u <- T(u), as the reference."""
    gfull = boundary_field(f.grid, g)
    tau = 1e-6 * max(float(np.max(np.abs(gfull))), 1.0)
    lap = DirichletLaplacian(f.grid)
    u = lap.solve(gfull)
    for it in range(1, max_iter + 1):
        image = lap.solve(gfull, -f.values / reconstruction._clamp(u, tau))
        update = float(np.max(np.abs(image - u)))
        if update < tol:
            break
        u = image
    return image, it, update


def _nan_coefficients(d_res, residual):
    return np.full(d_res.shape[0], np.nan)


def _failing_coefficients(d_res, residual):
    raise np.linalg.LinAlgError("forced")


@pytest.mark.parametrize("coefficients", [_nan_coefficients,
                                          _failing_coefficients],
                         ids=["non-finite", "lstsq-fails"])
def test_failed_mixing_falls_back_to_the_plain_step(monkeypatch, coefficients):
    f, g, _ = bump_pair(33, 8.0, 8.0, 16.0)
    image, iterations, update = plain_fixed_point(f, g)
    monkeypatch.setattr(reconstruction, "_mixing_coefficients", coefficients)
    res = reconstruct_u(f, g)
    # every mixed step fails, so every step is the plain one
    assert res.converged
    assert (res.iterations, res.final_update_linf) == (iterations, update)
    np.testing.assert_array_equal(res.u_hat.values, image)


def test_one_failed_mixing_step_clears_history_and_still_converges(
        monkeypatch):
    f, g, u2 = bump_pair(33, 16.0, 4.0, 32.0)
    calls = []
    mix = reconstruction._mixing_coefficients

    def once_nan(d_res, residual):
        calls.append(d_res.shape[0])
        if len(calls) == 3:
            return _nan_coefficients(d_res, residual)
        return mix(d_res, residual)

    monkeypatch.setattr(reconstruction, "_mixing_coefficients", once_nan)
    res = reconstruct_u(f, g)
    assert res.converged
    assert np.max(np.abs(res.u_hat.values - u2.values)) <= 1e-8
    # the history grows one step at a time and restarts after the failure
    assert calls[:6] == [1, 2, 3, 1, 2, 3]


def test_returned_field_is_the_image_of_the_last_iterate(monkeypatch):
    f, g, _ = bump_pair(33, 16.0, 4.0, 32.0)
    fed, images = [], []
    clamp, solve = reconstruction._clamp, DirichletLaplacian.solve

    def spy_clamp(values, tau):
        fed.append(values.copy())
        return clamp(values, tau)

    def spy_solve(self, *args, **kwargs):
        images.append(solve(self, *args, **kwargs))
        return images[-1]

    monkeypatch.setattr(reconstruction, "_clamp", spy_clamp)
    monkeypatch.setattr(DirichletLaplacian, "solve", spy_solve)
    res = reconstruct_u(f, g)
    # images[0] is the harmonic start; images[k] = T(fed[k - 1])
    assert len(fed) == res.iterations == len(images) - 1
    assert res.converged
    np.testing.assert_array_equal(res.u_hat.values, images[-1])
    assert np.max(np.abs(images[-1] - fed[-1])) == res.final_update_linf
    assert res.final_update_linf < res.tol
    # the mixing moved the iterates off the plain images
    assert any(not np.array_equal(u, t) for u, t in zip(fed[1:], images[1:]))


# --- admissibility ----------------------------------------------------------

def test_positive_pair_for_sign_changing_data_is_not_admissible():
    # q = 25 lies above lambda_1, so the true u changes sign; the fixed
    # point converges to a positive u_hat whose q_hat = F/u_hat^2 falls
    # below 1/K on the true nodal line
    f, g, u2 = bump_pair(33, 25.0, 0.5, 64.0)
    res = reconstruct(f, g, 64.0)
    assert res.converged
    assert u2.values.min() < -10.0 and res.u_hat.values.min() > 0.5
    assert res.admissible is False
    assert res.projected_mask.any() and not res.clamp_mask.any()


def test_admissible_flag_separates_basins_of_sign_changing_data():
    # at q = 21 the true u2 changes sign.  Without the positive-cone guard
    # the basin reached turned on the last bits of F: some copies of F
    # reached the positive pair and some u2.  With it, every copy scaled
    # by 1 + {-1, 0, 1} * 2.2e-16 node by node converges in as many steps
    # to the same positive pair, and the flag marks it not admissible
    f, g, u2 = bump_pair(33, 21.0, 0.5, 64.0)
    first = reconstruct(f, g, 64.0)
    assert u2.values.min() < -10.0 and first.u_hat.values.min() > 0.5
    for seed in range(20):
        ulps = np.random.default_rng(seed).integers(-1, 2, f.values.shape)
        res = reconstruct(ScalarField(f.grid, f.values * (1.0 + 2.2e-16 * ulps)),
                          g, 64.0)
        assert res.converged and res.iterations == first.iterations
        assert np.max(np.abs(res.u_hat.values - first.u_hat.values)) <= 1e-8
        assert res.admissible is False
        assert res.projected_mask.any() and not res.clamp_mask.any()


@pytest.mark.parametrize("q, amplitude, k_bound, where", [
    (8.0, 0.5, 64.0, {}),
    # q2 = K on 43% of the nodes: q_hat = K (1 + O(tol)) stays admissible
    (8.0, 40.0, 16.0, {"center": (0.5, 0.5), "width": 0.3}),
], ids=["q8", "saturated"])
def test_positive_solution_is_admissible(q, amplitude, k_bound, where):
    f, g, _ = bump_pair(33, q, amplitude, k_bound, **where)
    res = reconstruct(f, g, k_bound)
    assert res.converged and res.admissible is True
    assert reconstruct_u(f, g).admissible is None


# --- recover_q --------------------------------------------------------------

def test_recover_q_algebraic_identity():
    grid = Grid(nx=21, ny=21, lx=1.0, ly=1.0)
    rng = np.random.default_rng(17)
    q = ScalarField(grid, rng.uniform(1.0, 2.0, grid.shape))
    u = ScalarField.from_function(grid, coscos)  # |u| >= cos(1)^2 > tau
    f = internal_data(q, u)
    q_hat, clamped, projected = recover_q(f, u, K)
    np.testing.assert_allclose(q_hat.values, q.values, rtol=1e-12)
    assert not clamped.any() and not projected.any()


def test_recover_q_nodal_line_projects_to_floor():
    # 1D oscillatory member with nodes exactly on the zero set of cos(5x)
    grid = Grid(nx=11, lx=np.pi)  # nodes at multiples of pi/10
    x = grid.xs()
    u = ScalarField(grid, np.cos(5.0 * x)[None, :])
    q = ScalarField.constant(grid, 25.0)
    f = internal_data(q, u)
    q_hat, clamped, projected = recover_q(f, u, 30.0)  # tau = 1e-6
    zero_nodes = np.abs(u.values) < 1e-12
    assert zero_nodes.any()
    # the clamp marks the nodal set, so no node counts as projected
    np.testing.assert_array_equal(clamped, zero_nodes)
    assert not projected.any()
    # F vanishes on the nodal set, so the recovery lands on the prior floor
    np.testing.assert_allclose(q_hat.values[zero_nodes], 1.0 / 30.0)
    off = ~zero_nodes
    np.testing.assert_allclose(q_hat.values[off], 25.0, rtol=1e-12)


def test_zero_measurement_recovers_prior_floor_with_full_mask():
    grid = Grid(nx=13, ny=13, lx=1.0, ly=1.0)
    res = reconstruct(ScalarField.constant(grid, 0.0), coscos, K)
    np.testing.assert_allclose(res.q_hat.values, 1.0 / K)
    # u_hat is the harmonic extension, nowhere clamped, and q = F/u^2 = 0
    # breaks q >= 1/K at every node
    assert not res.clamp_mask.any()
    assert res.projected_mask.all()
    assert res.admissible is False


def test_recover_q_always_inside_prior_interval():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    rng = np.random.default_rng(3)
    u = ScalarField(grid, rng.normal(size=grid.shape))
    f = ScalarField(grid, np.abs(rng.normal(size=grid.shape)) * 50.0)
    q_hat, clamped, projected = recover_q(f, u, K)
    assert q_hat.values.min() >= 1.0 / K
    assert q_hat.values.max() <= K
    assert projected.any()
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
                            "floor_hits", "converged", "admissible"}
    assert payload["converged"] is True
    assert payload["admissible"] is True
    assert payload["iterations"] == res.iterations
