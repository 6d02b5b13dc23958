"""Forward solver tests: assembly oracle, manufactured solutions,
spectrum closed forms, near-singular detection."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import hybridlab.forward
from hybridlab import Grid, NearSingularError, ScalarField
from hybridlab.fields import boundary_field, boundary_values, interior_mask
from hybridlab.forward import DiscreteOperator, solve_dirichlet, stencil


def coscos(x, y):
    return np.cos(x) * np.cos(y)


def mu_min_2d(h: float) -> float:
    """Smallest eigenvalue of the discrete 2D Dirichlet -laplacian on the
    unit square, from the closed-form tensor spectrum."""
    return (4.0 / h**2) * (1.0 - np.cos(np.pi * h))


# --- assembly ---------------------------------------------------------------

def test_1d_three_nodes_harmonic_midpoint():
    g = Grid(nx=3, lx=1.0)
    rep = solve_dirichlet(ScalarField.constant(g, 0.0), np.array([0.0, 1.0]))
    assert rep.u.values[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert rep.u.values[0, 0] == 0.0 and rep.u.values[0, 2] == 1.0


@pytest.mark.parametrize("grid, g", [
    (Grid(nx=5, ny=5, lx=1.0, ly=1.0), coscos),
    (Grid(nx=9, ny=5, lx=1.0, ly=0.5), coscos),
    (Grid(nx=9, lx=1.0), np.cos),
], ids=["square", "rectangle", "1d"])
def test_dense_assembly_oracle(grid, g):
    # power-of-two spacing keeps the oracle's per-arm sums exact
    q = ScalarField.constant(grid, 2.0)
    gvec = boundary_values(grid, g)
    op = DiscreteOperator(q)
    b = op._load(boundary_field(grid, gvec), None)

    # independent dense assembly: loop over interior nodes in row-major order
    h = grid.h
    idx = {}
    for j in range(1) if grid.is_1d else range(1, grid.ny - 1):
        for i in range(1, grid.nx - 1):
            idx[(i, j)] = len(idx)
    n = len(idx)
    arms = ((1, 0), (-1, 0)) if grid.is_1d else ((1, 0), (-1, 0), (0, 1), (0, -1))
    a_ref = np.zeros((n, n))
    b_ref = np.zeros(n)
    gfull = np.zeros(grid.shape)
    for (i, j), gv in zip(op_boundary_nodes(grid), gvec):
        gfull[j, i] = gv
    for (i, j), row in idx.items():
        a_ref[row, row] = -len(arms) / h**2 + 2.0
        for di, dj in arms:
            ni, nj = i + di, j + dj
            if (ni, nj) in idx:
                a_ref[row, idx[(ni, nj)]] = 1.0 / h**2
            else:
                b_ref[row] -= gfull[nj, ni] / h**2

    # the operator numbers its unknowns in elimination order: unknown k
    # is the oracle's row op.order[k] and grid node op.nodes[k]
    assert sorted(op.order) == list(range(n))
    np.testing.assert_array_equal(
        op.nodes, np.flatnonzero(interior_mask(grid, 0.0))[op.order])
    np.testing.assert_array_equal(op.matrix.toarray(),
                                  a_ref[np.ix_(op.order, op.order)])
    np.testing.assert_array_equal(b, b_ref[op.order])


def op_boundary_nodes(grid):
    j, i = np.nonzero(~interior_mask(grid, 0.0))
    return zip(i, j)


@pytest.mark.parametrize("grid", [
    Grid(nx=13, ny=9, lx=1.2, ly=0.8),
    Grid(nx=17, lx=1.3),
], ids=["rectangle", "1d"])
def test_matrix_and_stencil_are_one_operator(grid):
    # A u_int - b(trace of u) = stencil(u) + q u at the interior, for any
    # full field u: both solvers' residual contracts rest on this
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, grid.shape)
    q = ScalarField(grid, rng.uniform(0.5, 3.0, grid.shape))
    op = DiscreteOperator(q)
    trace = boundary_field(grid, ScalarField(grid, u))
    got = op.matrix @ u.take(op.nodes) - op._load(trace, None)
    want = stencil(u, grid.h).take(op.order) + (q.values * u).take(op.nodes)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_one_stencil_in_src():
    # the finite-difference stencil is written once, in forward.stencil;
    # every other module builds on it instead of slicing its own copy
    src = Path(hybridlab.__file__).parent

    def hits(pattern):
        return [
            (path.name, n)
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)
        ]

    lines, start = inspect.getsourcelines(stencil)
    inside = [("forward.py", n) for n in range(start, start + len(lines))]
    shifted = hits(r"\[[^\]]*(\b2:|:-2\b)")
    assert shifted and all(hit in inside for hit in shifted), shifted
    assert hits(r"np\.add\.at") == []


def test_matrix_structure_and_symmetry():
    grid = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    rng = np.random.default_rng(0)
    q = ScalarField(grid, rng.uniform(0.5, 2.0, grid.shape))
    op = DiscreteOperator(q)
    nnz_per_row = np.diff(op.matrix.indptr)
    assert nnz_per_row.max() <= 5
    asym = (op.matrix - op.matrix.T).toarray()
    assert np.max(np.abs(asym)) == 0.0

    g1 = Grid(nx=9, lx=1.0)
    op1 = DiscreteOperator(ScalarField.constant(g1, 1.0))
    assert np.diff(op1.matrix.indptr).max() <= 3


# --- solves -----------------------------------------------------------------

def test_harmonic_maximum_principle():
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    rng = np.random.default_rng(5)
    q = ScalarField.constant(grid, 0.0)
    gvec = rng.uniform(-1.0, 3.0, 4 * 16)
    rep = solve_dirichlet(q, gvec)
    assert rep.u.values.min() >= gvec.min() - 1e-10
    assert rep.u.values.max() <= gvec.max() + 1e-10


@pytest.mark.parametrize("nx", [17, 33, 65])
def test_manufactured_2d_error_bound(nx):
    grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0)
    rep = solve_dirichlet(q, coscos)
    exact = ScalarField.from_function(grid, coscos)
    err = np.max(np.abs(rep.u.values - exact.values))
    assert err <= 5.0 * grid.h**2
    assert rep.converged
    res_bound = rep.residual_linf  # contract: already checked inside
    assert np.isfinite(res_bound)


def test_manufactured_2d_convergence_order():
    errs = []
    for nx in (17, 33, 65):
        grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
        rep = solve_dirichlet(ScalarField.constant(grid, 2.0), coscos)
        exact = ScalarField.from_function(grid, coscos)
        errs.append(np.max(np.abs(rep.u.values - exact.values)))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    for p in orders:
        assert 1.8 <= p <= 2.2


def test_manufactured_1d_sine():
    errs = []
    for nx in (33, 65):
        grid = Grid(nx=nx, lx=np.pi / 2)
        rep = solve_dirichlet(ScalarField.constant(grid, 1.0), np.array([0.0, 1.0]))
        exact = np.sin(grid.xs())
        errs.append(np.max(np.abs(rep.u.values[0] - exact)))
        assert errs[-1] <= 2.0 * grid.h**2
    assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2


def test_splu_path_used_and_contract_holds():
    grid = Grid(nx=61, ny=61, lx=1.0, ly=1.0)  # 3481 unknowns
    q = ScalarField.constant(grid, 2.0)
    op = DiscreteOperator(q)
    b = stencil(boundary_field(grid, coscos), grid.h)
    rep = op.solve(coscos, tol=1e-9)
    assert rep.method == "splu"
    assert rep.residual_linf <= 1e-9 * np.max(np.abs(b))


def _count_splu(monkeypatch):
    """The permc_spec of every splu call in hybridlab.forward, from a
    cleared per-grid cache."""
    calls = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(matrix, **kwargs):
        calls.append(kwargs["permc_spec"])
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    hybridlab.forward._pattern.cache_clear()
    return calls


def test_one_factorization_per_operator(monkeypatch):
    # the grid's ordering is computed once; each operator is factored
    # once, already in that order, and the factor serves every solve
    calls = _count_splu(monkeypatch)
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    op = DiscreteOperator(ScalarField.constant(grid, 2.0))
    for g in (coscos, 1.0, coscos):
        assert op.solve(g).method == "splu"
    assert op.eigen_gap().converged
    assert op.solve(0.5, source=ScalarField.constant(grid, 1.0)).converged
    assert calls == ["MMD_AT_PLUS_A", "NATURAL"]
    op2 = DiscreteOperator(ScalarField.constant(grid, 3.0))
    assert op2.solve(coscos).converged and op2.eigen_gap().converged
    assert op2.nodes is op.nodes
    assert calls == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]


def _natural(op):
    """op.matrix with its unknowns back in row-major order."""
    rank = np.argsort(op.order)
    return op.matrix[rank][:, rank].tocsc()


def test_symmetric_ordering_thins_the_factor_and_keeps_the_gap():
    # minimum degree on A + A^T against SuperLU's default COLAMD: a
    # sparser factor, and the same shift-invert gap estimate
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    grid = Grid(nx=65, ny=65, lx=1.0, ly=1.0)
    op = DiscreteOperator(ScalarField.constant(grid, 8.0))
    natural = _natural(op)
    colamd = splu(natural, permc_spec="COLAMD")
    assert (op._lu.L.nnz + op._lu.U.nnz
            <= 0.6 * (colamd.L.nnz + colamd.U.nnz))
    opinv = LinearOperator(natural.shape, matvec=colamd.solve, dtype=float)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, op.n)
    lam = eigsh(natural, k=1, sigma=0.0, which="LM", OPinv=opinv, v0=v0,
                return_eigenvectors=False, tol=1e-9)
    assert op.eigen_gap().value == pytest.approx(abs(lam[0]), rel=1e-10)


def test_solve_rejects_bad_tol():
    grid = Grid(nx=5, ny=5, lx=1.0, ly=1.0)
    from hybridlab import ContractViolation

    with pytest.raises(ContractViolation):
        solve_dirichlet(ScalarField.constant(grid, 1.0), 0.0, tol=0.0)


# --- spectrum ---------------------------------------------------------------

def _lowest_pair_midpoint(nx):
    # q halfway between the two lowest Dirichlet eigenvalues mu_11 and the
    # double mu_12 = mu_21: the spectrum holds +d, -d, -d with one modulus,
    # where inverse iteration settles on a gap 4.9x too large at nx = 33
    h = 1.0 / (nx - 1)
    mu = [(4.0 / h**2) * (np.sin(j * np.pi * h / 2) ** 2
                          + np.sin(np.pi * h / 2) ** 2) for j in (1, 2)]
    return 0.5 * (mu[0] + mu[1])


def _bump(x, y):
    return 2.0 + 30.0 * np.exp(-((x - 0.3) ** 2 + (y - 0.6) ** 2) / 0.02)


@pytest.mark.parametrize("grid, q", [
    (Grid(nx=11, ny=11, lx=1.0, ly=1.0), 2.0),
    (Grid(nx=33, ny=33, lx=1.0, ly=1.0), _lowest_pair_midpoint(33)),
    (Grid(nx=33, ny=33, lx=1.0, ly=1.0), 64.0),
    (Grid(nx=33, ny=33, lx=1.0, ly=1.0), _bump),
    (Grid(nx=6, lx=1.0), 2.0),
], ids=["nx11", "midpoint", "q64", "bump", "1d-basis-size"])
def test_eigen_gap_against_dense_oracle(grid, q):
    q = (ScalarField.from_function(grid, q) if callable(q)
         else ScalarField.constant(grid, q))
    op = DiscreteOperator(q)
    lam = np.linalg.eigvalsh(op.matrix.toarray())
    got = op.eigen_gap()
    assert got.converged
    assert got.value == pytest.approx(np.min(np.abs(lam)), rel=1e-9)
    if grid.nx == 11:
        # coarse-grid gap sits near the continuum value |2 - 2 pi^2|
        assert got.value == pytest.approx(abs(2.0 - 2.0 * np.pi**2),
                                          rel=0.02)


@pytest.mark.parametrize("grid, q", [
    (Grid(nx=33, ny=33, lx=1.0, ly=1.0), _bump),
    (Grid(nx=65, ny=65, lx=1.0, ly=1.0), 16.0),
    (Grid(nx=41, ny=21, lx=2.0, ly=1.0), _bump),
    (Grid(nx=101, lx=1.0), 2.0),
], ids=["bump-33", "q16-65", "rectangle", "1d"])
def test_cached_ordering_gives_the_per_operator_factor(grid, q):
    # the grid's ordering, computed once, fills the factor exactly as
    # ordering this operator afresh by minimum degree on A + A^T would
    from scipy.sparse.linalg import splu

    q = (ScalarField.from_function(grid, q) if callable(q)
         else ScalarField.constant(grid, q))
    op = DiscreteOperator(q)
    fresh = splu(_natural(op), permc_spec="MMD_AT_PLUS_A")
    assert op._lu.L.nnz + op._lu.U.nnz == fresh.L.nnz + fresh.U.nnz
    b = np.random.default_rng(3).normal(size=op.n)
    x = op._lu.solve(b[op.order])
    np.testing.assert_allclose(x, fresh.solve(b)[op.order], rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(x)))


class CountingFactor:
    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, b):
        self.calls += 1
        return self.lu.solve(b)


def _gap_solves(q):
    """(gap, number of LU solves the gap estimate spends) for q."""
    op = DiscreteOperator(q)
    counting = CountingFactor(op._lu)
    op.__dict__["_lu"] = counting
    return op.eigen_gap(), counting.calls


def test_eigen_gap_lu_solve_count():
    # the 6-vector Lanczos basis finds the gap in few shift-invert solves;
    # the default 20-vector basis spends 21 here
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    gap, calls = _gap_solves(ScalarField.constant(grid, 8.0))
    assert gap.converged
    assert 0 < calls <= 12


def test_eigen_gap_does_not_stall_on_a_bump():
    # a 4-vector basis spent 497 LU solves on this coefficient; 6 spend 16
    from hybridlab.synthesis import perturb_coefficient

    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    q = perturb_coefficient(ScalarField.constant(grid, 34.5), "bump", 0.5,
                            1).field
    gap, calls = _gap_solves(q)
    assert gap.converged
    assert 0 < calls <= 30
    lam = np.linalg.eigvalsh(DiscreteOperator(q).matrix.toarray())
    assert gap.value == pytest.approx(np.min(np.abs(lam)), rel=1e-9)


def test_unconverged_gap_reaches_the_solve_report(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    def failing_eigsh(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([3.5]),
                                  np.zeros((0, 1)))

    q = ScalarField.constant(Grid(nx=17, ny=17, lx=1.0, ly=1.0), 2.0)
    assert solve_dirichlet(q, coscos).gap_converged
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
    rep = solve_dirichlet(q, coscos)
    assert rep.converged
    assert not rep.gap_converged
    assert rep.eigen_gap_estimate == 3.5


def test_eigen_gap_is_reproducible():
    # fresh operators on the same coefficient give one gap, bit for bit
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 8.0)
    gaps = {DiscreteOperator(q).eigen_gap().value for _ in range(20)}
    assert len(gaps) == 1


def test_eigen_gap_1d_closed_form():
    grid = Grid(nx=41, lx=1.0)
    gap = DiscreteOperator(ScalarField.constant(grid, 0.0)).eigen_gap()
    h = grid.h
    assert gap.value == pytest.approx((2.0 / h**2) * (1.0 - np.cos(np.pi * h)),
                                      rel=1e-6)
    assert gap.value == pytest.approx(np.pi**2, rel=0.01)


def test_eigen_gap_planted_discrete_eigenvalue():
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, mu_min_2d(grid.h))
    gap = DiscreteOperator(q).eigen_gap()
    assert gap.value <= 1e-8


def test_near_singular_raises_with_partial_report():
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, mu_min_2d(grid.h))
    with pytest.raises(NearSingularError) as exc:
        solve_dirichlet(q, 1.0)
    rep = exc.value.report
    assert rep is not None
    assert not rep.converged
    assert rep.degenerate


def test_exactly_singular_operator_routes_to_gap_check():
    # h = 1, q = 2: zero diagonal, unit off-diagonals; odd size is singular
    grid = Grid(nx=7, lx=6.0)
    op = DiscreteOperator(ScalarField.constant(grid, 2.0))
    with pytest.raises(NearSingularError) as exc:
        op.solve(np.array([1.0, 0.0]))
    assert exc.value.report.degenerate
    assert exc.value.report.eigen_gap_estimate == 0.0


def test_continuum_eigenvalue_zero_data_flags_degenerate():
    # q = 2 pi^2 with g = 0: u = 0 is the discrete solution, but the gap
    # collapses as the grid resolves the continuum eigenvalue
    grid = Grid(nx=65, ny=65, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0 * np.pi**2)
    rep = solve_dirichlet(q, 0.0)
    assert rep.degenerate
    assert np.all(rep.u.values == 0.0)


def test_load_vector_with_source_term():
    # laplacian(u) = -2 with u = 0 on (0,1) boundary: u = x(1-x), exact
    # discretely since fourth derivatives vanish
    grid = Grid(nx=21, lx=1.0)
    q = ScalarField.constant(grid, 0.0)
    src = ScalarField.constant(grid, -2.0)
    rep = solve_dirichlet(q, 0.0, source=src)
    x = grid.xs()
    np.testing.assert_allclose(rep.u.values[0], x * (1 - x), atol=1e-10)
