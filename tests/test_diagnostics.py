"""Unique-continuation diagnostics tests: ratio oracles, floor handling,
weighted estimates, level sets, report aggregation."""

import csv
import json
from collections import Counter

import numpy as np
import pytest

from hybridlab import (
    ContractViolation,
    DegenerateBall,
    Grid,
    PriorBounds,
    ScalarField,
)
from hybridlab.diagnostics import (
    CSV_COLUMNS,
    TAU_AP,
    DiagnosticsReport,
    collect_diagnostics,
    delta_from_p,
    doubling_ratio,
    eta_from_delta,
    level_set_error,
    muckenhoupt_value,
    negative_power_integral,
    propagation_ratio,
    weighted_checks,
)
from hybridlab.counterexample import (
    OscillatoryFamily,
    coefficient_gap,
    residual_check,
)
from hybridlab.fields import (
    ball_mask,
    integrate,
    interior_mask,
    mask_measure,
    write_csv,
    write_json,
)
from hybridlab.synthesis import make_pair, perturb_coefficient

BOUNDS = PriorBounds(k_bound=4.0, e_bound=10.0, h_bound=0.2, d_margin=0.1)


def coscos(x, y):
    return np.cos(x) * np.cos(y)


def fine_square(nx=101):
    return Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)


def family_member(m, grid, r=1.0, shift=2.0):
    """Oscillatory 1D solution with inner radius r, centered via shift."""
    a = (np.pi / 2 + 2 * m * np.pi) ** 2 / r**2
    x = grid.xs() - shift
    vals = np.where(
        np.abs(x) < r, np.cos(np.sqrt(a) * x) / np.sqrt(a),
        -np.sin(np.abs(x) - r),
    )
    return ScalarField(grid, vals[None, :])


# --- doubling ---------------------------------------------------------------

def test_doubling_constant_field_is_ball_measure_ratio():
    g = fine_square(101)  # h = 0.01 = r/10
    one = ScalarField.constant(g, 1.0)
    ratio = doubling_ratio(one, (0.5, 0.5), 0.1)
    assert ratio == pytest.approx(4.0, rel=0.15)
    from hybridlab.fields import ball_mask

    exact = mask_measure(g, ball_mask(g, (0.5, 0.5), 0.2)) / mask_measure(
        g, ball_mask(g, (0.5, 0.5), 0.1)
    )
    assert ratio == pytest.approx(exact, rel=1e-12)


def test_doubling_coscos_against_refined_oracle():
    coarse = fine_square(101)
    fine = fine_square(401)
    u_c = ScalarField.from_function(coarse, coscos)
    u_f = ScalarField.from_function(fine, coscos)
    got = doubling_ratio(u_c, (0.5, 0.5), 0.1)
    oracle = doubling_ratio(u_f, (0.5, 0.5), 0.1)
    assert got == pytest.approx(oracle, rel=0.05)


def test_doubling_grows_along_oscillatory_family():
    grid = Grid(nx=3201, lx=4.0)
    ratios = []
    for m in (1, 2, 3):
        u = family_member(m, grid)
        got = doubling_ratio(u, 2.0, 0.5)  # center of the inner interval
        closed = 1.0 / (0.5 + 1.0 / (2.0 * (np.pi / 2 + 2 * m * np.pi)))
        assert got == pytest.approx(closed, rel=0.01)
        ratios.append(got)
    assert ratios[0] < ratios[1] < ratios[2]  # toward the limit value 2


def test_doubling_preconditions():
    g = fine_square(41)
    u = ScalarField.constant(g, 1.0)
    with pytest.raises(ContractViolation):
        doubling_ratio(u, (0.1, 0.5), 0.1)  # doubled ball leaves the domain
    zero = ScalarField.constant(g, 0.0)
    with pytest.raises(DegenerateBall):
        doubling_ratio(zero, (0.5, 0.5), 0.1)


# --- propagation ------------------------------------------------------------

def test_propagation_constant_field_area_fraction():
    g = fine_square(101)
    one = ScalarField.constant(g, 1.0)
    ratio = propagation_ratio(one, (0.5, 0.5), 0.25)
    assert ratio == pytest.approx(np.pi * 0.0625, rel=0.10)


def test_propagation_bounded_by_one_and_positive_floor():
    g = fine_square(101)
    u = ScalarField.from_function(g, coscos)
    fine = fine_square(401)
    u_f = ScalarField.from_function(fine, coscos)
    ratios = []
    for c in ((0.3, 0.3), (0.5, 0.5), (0.7, 0.4)):
        got = propagation_ratio(u, c, 0.2)
        oracle = propagation_ratio(u_f, c, 0.2)
        assert 0.0 < got <= 1.0
        assert got == pytest.approx(oracle, rel=0.05)
        ratios.append(got)
    assert min(ratios) > 0.05

    rng = np.random.default_rng(2)
    noisy = ScalarField(g, rng.normal(size=g.shape))
    assert propagation_ratio(noisy, (0.5, 0.5), 0.3) <= 1.0


def test_propagation_rejects_trivial_solution():
    g = fine_square(41)
    with pytest.raises(ContractViolation):
        propagation_ratio(ScalarField.constant(g, 0.0), (0.5, 0.5), 0.2)


# --- muckenhoupt ------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_muckenhoupt_constant_is_one(p):
    g = fine_square(41)
    u = ScalarField.constant(g, 0.7)
    val, hits = muckenhoupt_value(u, (0.5, 0.5), 0.2, p)
    assert val == pytest.approx(1.0, abs=1e-12)
    assert hits == 0


def test_muckenhoupt_linear_zero_floor_dominates():
    # u = x - 0.5 around its zero with p = 2: the negative power
    # 2/(p-1) = 2 is non-integrable, so the floor must fire
    g = Grid(nx=101, lx=1.0)
    u = ScalarField(g, (g.xs() - 0.5)[None, :])
    val, hits = muckenhoupt_value(u, 0.5, 0.2, 2.0)
    assert hits >= 1  # the node exactly at the zero
    assert val > 1e6  # floor-dominated blow-up, not a bounded constant


def test_muckenhoupt_coscos_stable_under_refinement():
    vals = []
    for nx in (101, 201):
        g = fine_square(nx)
        u = ScalarField.from_function(g, coscos)
        v, hits = muckenhoupt_value(u, (0.5, 0.5), 0.2, 3.0)
        assert hits == 0
        vals.append(v)
    assert vals[0] == pytest.approx(vals[1], rel=0.10)
    assert vals[1] > 1.0  # nonconstant field strictly above the floor value


def test_muckenhoupt_requires_p_above_one():
    g = fine_square(21)
    u = ScalarField.constant(g, 1.0)
    with pytest.raises(ContractViolation):
        muckenhoupt_value(u, (0.5, 0.5), 0.1, 1.0)


# --- negative power integral ------------------------------------------------

def test_negative_power_constant_is_mask_measure():
    g = fine_square(41)
    u = ScalarField.constant(g, 1.0)
    val, hits = negative_power_integral(u, 0.1, 0.5)
    assert val == pytest.approx(mask_measure(g, interior_mask(g, 0.1)), abs=1e-14)
    assert hits == 0


def test_negative_power_nodal_line_threshold_bracket():
    # u = x - 0.5 on grids that keep the zero off the nodes: delta = 0.5
    # stays put under refinement, delta = 1.5 keeps growing
    vals = {0.5: [], 1.5: []}
    for nx in (64, 128, 256):
        g = Grid(nx=nx, lx=1.0)
        u = ScalarField(g, (g.xs() - 0.5)[None, :])
        for delta in vals:
            v, hits = negative_power_integral(u, 0.1, delta)
            assert hits == 0
            vals[delta].append(v)
    stable = vals[0.5]
    assert abs(stable[2] - stable[1]) <= 0.15 * stable[2]
    # integrable case approaches the closed form of the model integral
    exact = 2.0 * (2.0 * np.sqrt(0.4))
    assert stable[2] == pytest.approx(exact, rel=0.15)
    divergent = vals[1.5]
    assert divergent[1] >= 1.3 * divergent[0]
    assert divergent[2] >= 1.3 * divergent[1]


def test_negative_power_positive_field_direct_bound():
    g = fine_square(81)
    u = ScalarField.from_function(g, coscos)
    mask = interior_mask(g, 0.1)
    floor = np.min(np.abs(u.values[mask]))
    for delta in (0.5, 1.0, 2.0, 4.0):
        val, hits = negative_power_integral(u, 0.1, delta)
        assert hits == 0
        assert val <= mask_measure(g, mask) * floor ** (-delta) + 1e-12


def test_negative_power_monotonicity():
    # increasing in delta whenever |u| <= 1, decreasing in the margin d
    g = fine_square(81)
    u = ScalarField.from_function(g, coscos)  # |u| <= 1
    prev = 0.0
    for delta in (0.25, 0.5, 1.0, 2.0):
        val, _ = negative_power_integral(u, 0.1, delta)
        assert val >= prev
        prev = val
    prev = np.inf
    for d in (0.05, 0.15, 0.3):
        val, _ = negative_power_integral(u, d, 1.0)
        assert val <= prev
        prev = val
    with pytest.raises(ContractViolation):
        negative_power_integral(u, 0.6, 1.0)  # empty interior
    with pytest.raises(ContractViolation):
        negative_power_integral(u, 0.1, 0.0)


# --- exponent bookkeeping ---------------------------------------------------

def test_exponent_chain():
    assert delta_from_p(2.0) == pytest.approx(2.0)
    assert delta_from_p(3.0) == pytest.approx(1.0)
    assert eta_from_delta(2.0) == pytest.approx(0.5)
    assert eta_from_delta(1.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ContractViolation):
        delta_from_p(1.0)
    with pytest.raises(ContractViolation):
        eta_from_delta(0.0)


# --- weighted checks --------------------------------------------------------

def make_test_pair(seed=5, amplitude=0.1, nx=33):
    g = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", amplitude, seed=seed, bounds=BOUNDS).field
    return make_pair(q1, q2, coscos, BOUNDS, seed=seed, mode="bump",
                     amplitude=amplitude)


def test_weighted_identical_pair_vanishes():
    g = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    q = ScalarField.constant(g, 2.0)
    pair = make_pair(q, q, coscos, BOUNDS)
    w = weighted_checks(pair)
    assert w.lhs == 0.0
    assert w.l3_lhs == 0.0
    assert w.weightq_lhs == 0.0
    assert w.proof_bound == 0.0


@pytest.mark.parametrize("seed,amplitude", [(5, 0.1), (6, 0.3), (7, 0.8)])
def test_weighted_proof_bound_holds(seed, amplitude):
    pair = make_test_pair(seed=seed, amplitude=amplitude)
    w = weighted_checks(pair)
    assert w.lhs <= w.proof_bound
    assert w.l3_lhs <= w.lhs + 1e-15
    assert w.weightq_bound_input == pytest.approx(
        pair.epsilon + np.sqrt(pair.epsilon)
    )


# --- level sets -------------------------------------------------------------

def test_level_set_empty_above_max():
    pair = make_test_pair()
    fmax = pair.f1.values.max()
    res = level_set_error(pair.q1, pair.q2, pair.u1, 2.0 * fmax)
    assert res.empty and res.value == 0.0 and res.node_count == 0


def test_level_set_exhausts_domain_as_t_vanishes():
    pair = make_test_pair()
    from hybridlab.fields import norms as field_norms

    res = level_set_error(pair.q1, pair.q2, pair.u1, 1e-12)
    diff = ScalarField(pair.grid, pair.q1.values - pair.q2.values)
    full = field_norms(diff).l1
    assert res.value == pytest.approx(full, rel=1e-12)
    assert res.node_count == pair.grid.n_nodes


def test_level_set_chain_inequality():
    pair = make_test_pair(seed=9, amplitude=0.4)
    w = weighted_checks(pair)
    fmax = pair.f1.values.max()
    for frac in (0.05, 0.2, 0.5, 0.8):
        t = frac * fmax
        res = level_set_error(pair.q1, pair.q2, pair.u1, t)
        assert t * res.value <= BOUNDS.k_bound * w.weightq_lhs * (1 + 1e-12)


def test_level_set_rejects_nonpositive_threshold():
    pair = make_test_pair()
    with pytest.raises(ContractViolation):
        level_set_error(pair.q1, pair.q2, pair.u1, 0.0)


@pytest.mark.parametrize("call", [
    lambda f: ball_mask(f.grid, (0.5, 0.5), np.nan),
    lambda f: muckenhoupt_value(f, (0.5, 0.5), 0.2, np.nan),
    lambda f: delta_from_p(np.nan),
    lambda f: negative_power_integral(f, 0.1, np.nan),
    lambda f: eta_from_delta(np.nan),
    lambda f: level_set_error(f, f, f, np.nan),
    lambda f: coefficient_gap(1.0, 1, np.nan),
    lambda f: coefficient_gap(1.0, 1, -np.inf),
    lambda f: residual_check(OscillatoryFamily(r=1.0, rr=2.0, m=1), np.nan),
], ids=["ball_mask-r", "muckenhoupt-p", "delta_from_p", "negative_power-delta",
        "eta_from_delta", "level_set-t", "coefficient_gap-p",
        "coefficient_gap-minus-inf", "residual_check-h"])
def test_positivity_guards_refuse_nan(call):
    f = ScalarField.constant(fine_square(11), 1.0)
    with pytest.raises(ContractViolation):
        call(f)


# --- aggregation and files --------------------------------------------------

def test_collect_diagnostics_structure():
    pair = make_test_pair(nx=33)
    report = collect_diagnostics(pair)
    counts = Counter(row[0] for row in report.rows)
    assert counts["doubling"] == 9       # 3x3 interior lattice
    assert counts["propagation"] == 9
    assert counts["muckenhoupt"] == 27   # 9 centers x 3 exponents
    assert counts["neg_integral"] == 5
    assert counts["level_set"] == 3
    assert report.weighted is not None
    assert report.max_doubling >= 1.0
    assert 0.0 < report.min_propagation <= 1.0
    assert 0.0 <= report.proof_bound_margin <= 1.0
    assert report.best_delta is not None  # positive solution: all stable
    assert report.best_delta == 1.5


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("functional", ["doubling", "weighted_lhs", "level_set"])
def test_report_refuses_a_value_that_is_not_finite_nonnegative(functional,
                                                               value):
    # one check covers every row, the weighted rows included
    with pytest.raises(ContractViolation, match=functional):
        DiagnosticsReport(rows=((functional, "", "", "", "", value, 0),))


def test_collect_diagnostics_deterministic_files(tmp_path):
    pair = make_test_pair(nx=33)
    report = collect_diagnostics(pair)
    p1 = write_csv(tmp_path / "a.csv", CSV_COLUMNS, report.rows)
    p2 = write_csv(tmp_path / "b.csv", CSV_COLUMNS, report.rows)
    assert p1.read_bytes() == p2.read_bytes()
    rows = list(csv.DictReader(p1.read_text().splitlines()))
    assert rows[0].keys() == {
        "functional", "center_x", "center_y", "r", "param", "value",
        "floor_hits",
    }
    kinds = {r["functional"] for r in rows}
    assert {"doubling", "propagation", "muckenhoupt", "neg_integral",
            "weighted_lhs", "weighted_proof_bound", "level_set"} <= kinds

    spath = write_json(tmp_path / "summary.json", report.summary())
    summary = json.loads(spath.read_text())
    assert set(summary) == {"max_doubling", "min_propagation", "best_delta",
                            "proof_bound_margin"}
    assert summary["proof_bound_margin"] <= 1.0


def _full_field_ball_rows(pair):
    """The doubling, propagation and A_p rows by the full-field formulas:
    u^2 and |u|^(-2/(p-1)) built as ScalarFields on the whole grid and
    integrated over freshly built ball masks."""
    grid, u = pair.grid, pair.u1
    short = grid.lx if grid.is_1d else min(grid.lx, grid.ly)
    r = short / 8.0
    X, Y = grid.meshgrid()
    sq = ScalarField(grid, u.values**2)
    absu = np.abs(u.values)
    floored = np.maximum(absu, TAU_AP)
    fracs = [f for f in (0.3, 0.5, 0.7) if 2 * r < f < 1 - 2 * r]
    centers = ([(f * grid.lx, 0.0) for f in fracs] if grid.is_1d else
               [(x * grid.lx, y * grid.ly) for y in fracs for x in fracs])
    doubling, propagation, ap = [], [], []
    for c in centers:
        inner = (X - c[0]) ** 2 + (Y - c[1]) ** 2 < r * r
        outer = (X - c[0]) ** 2 + (Y - c[1]) ** 2 < (2 * r) ** 2
        doubling.append(("doubling", *c, r, "",
                         integrate(sq, outer) / integrate(sq, inner), 0))
        propagation.append(("propagation", *c, r, "",
                            integrate(sq, inner) / integrate(sq), 0))
        measure = mask_measure(grid, inner)
        for p in (1.5, 2.0, 3.0):
            neg = ScalarField(grid, floored ** (-2.0 / (p - 1.0)))
            value = (integrate(sq, inner) / measure
                     * (integrate(neg, inner) / measure) ** (p - 1.0))
            hits = int(np.count_nonzero(inner & (absu < TAU_AP)))
            ap.append(("muckenhoupt", *c, r, p, value, hits))
    return [*sorted(doubling), *sorted(propagation), *sorted(ap)]


def test_ball_rows_equal_the_full_field_formulas():
    # the ball functionals integrate only the ball's nodes, with the same
    # products and summation order as integrate on a full-grid field
    line = Grid(nx=129, lx=1.0)
    q1 = ScalarField.constant(line, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.2, seed=3, bounds=BOUNDS).field
    for pair in (make_test_pair(seed=3, amplitude=0.8, nx=97),
                 make_pair(q1, q2, np.array([1.0, 1.0]), BOUNDS)):
        rows = [row for row in collect_diagnostics(pair).rows
                if row[0] in ("doubling", "propagation", "muckenhoupt")]
        assert len(rows) == (45 if pair.grid.ny > 1 else 15)
        assert rows == _full_field_ball_rows(pair)


def test_collect_diagnostics_1d_pair():
    grid = Grid(nx=129, lx=1.0)
    q1 = ScalarField.constant(grid, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.2, seed=3, bounds=BOUNDS).field
    pair = make_pair(q1, q2, np.array([1.0, 1.0]), BOUNDS)
    report = collect_diagnostics(pair)
    assert sum(row[0] == "propagation" for row in report.rows) == 3  # 1D lattice
    assert report.weighted.lhs <= report.weighted.proof_bound
