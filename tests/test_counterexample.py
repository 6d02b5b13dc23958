"""Oscillatory family tests: closed forms, instability table, residuals."""

import csv

import numpy as np
import pytest

from hybridlab import ContractViolation
from hybridlab.counterexample import (
    OscillatoryFamily,
    _BLOCK,
    _data_gap,
    _inner_data,
    _inner_range,
    _sample_count,
    _screen,
    _screen_slack,
    coefficient_gap,
    eval_q,
    eval_u,
    h_integral,
    pathology_table,
    residual_check,
    write_pathology_csv,
)


FAM1 = OscillatoryFamily(r=1.0, rr=2.0, m=1)


# --- family evaluation ------------------------------------------------------

def test_family_validation():
    with pytest.raises(ContractViolation):
        OscillatoryFamily(r=2.0, rr=1.0, m=1)
    with pytest.raises(ContractViolation):
        OscillatoryFamily(r=1.0, rr=2.0, m=0)


def test_a_m_formula():
    assert FAM1.a_m == pytest.approx((5 * np.pi / 2) ** 2, rel=1e-14)
    assert FAM1.a_m == pytest.approx(61.685, abs=1e-3)
    fam = OscillatoryFamily(r=0.5, rr=1.0, m=3)
    assert fam.a_m == pytest.approx((np.pi / 2 + 6 * np.pi) ** 2 / 0.25, rel=1e-14)


def test_branch_values_and_regions():
    x = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    q = eval_q(FAM1, x)
    np.testing.assert_allclose(q, [FAM1.a_m, FAM1.a_m, 1.0, 1.0, 1.0])
    u = eval_u(FAM1, x)
    assert u[0] == pytest.approx(1.0 / np.sqrt(FAM1.a_m), rel=1e-14)
    assert u[2] == 0.0  # interface value from the outer branch
    assert u[3] == pytest.approx(-np.sin(0.5), rel=1e-14)
    # even in x
    np.testing.assert_allclose(eval_u(FAM1, -x), u, rtol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 7, 20])
def test_interface_matching_c0_c1(m):
    fam = OscillatoryFamily(r=1.0, rr=2.0, m=m)
    root_a = np.sqrt(fam.a_m)
    # C0: both branches vanish at |x| = r
    assert abs(eval_u(fam, fam.r)) <= 1e-12
    assert abs(np.cos(root_a * fam.r) / root_a) <= 1e-12
    # C1: closed-form one-sided slopes agree at 1e-12
    inner_slope = -np.sin(root_a * fam.r)
    outer_slope = -np.cos(0.0)
    assert abs(inner_slope - outer_slope) <= 1e-12


def test_domain_error():
    with pytest.raises(ContractViolation):
        eval_u(FAM1, 2.5)
    with pytest.raises(ContractViolation):
        eval_q(FAM1, np.array([0.0, -3.0]))


# --- pathology table --------------------------------------------------------

def test_data_gap_bounded_by_two_for_twenty_members():
    rows = pathology_table(1.0, 2.0, 20)
    assert len(rows) == 20
    for row in rows:
        assert row.data_gap <= 2.0
        assert row.data_gap > 0.1  # the gap is genuinely order one


@pytest.mark.parametrize("r, rr, m_max", [(1.0, 2.0, 6), (0.3, 2.5, 4),
                                           (1.7, 1.8, 5), (1.0, 2.0, 110)])
def test_data_gap_equals_whole_interval_evaluation(r, rr, m_max):
    # outside |x| < r both members share q = 1 and u, so the samples the
    # table skips contribute exact zeros; at m_max = 110 the last members
    # span more than one block of inner samples
    rows = pathology_table(r, rr, m_max)
    if m_max == 110:
        lo, hi, _ = _inner_range(r, rr, m_max)
        assert hi - lo > _BLOCK
    for row in rows:
        x = np.linspace(-rr, rr, _sample_count(r, rr, row.m))
        fam = OscillatoryFamily(r=r, rr=rr, m=row.m)
        fam2 = OscillatoryFamily(r=r, rr=rr, m=2 * row.m)
        whole = np.max(np.abs(eval_q(fam2, x) * eval_u(fam2, x) ** 2
                              - eval_q(fam, x) * eval_u(fam, x) ** 2))
        assert row.data_gap == whole


def _unscreened_gap(r, rr, m):
    # the sampled sup with every inner sample evaluated in float64
    x = np.linspace(-rr, rr, _sample_count(r, rr, m))
    x = x[np.abs(x) < r]
    data = []
    for fam in (OscillatoryFamily(r=r, rr=rr, m=m),
                OscillatoryFamily(r=r, rr=rr, m=2 * m)):
        root_a = np.sqrt(fam.a_m)
        data.append(fam.a_m * (np.cos(root_a * x) / root_a) ** 2)
    return float(np.max(np.abs(data[1] - data[0]), initial=0.0))


def test_screened_table_equals_unscreened_evaluation():
    # the benchmark's table: every row is the exact float64 maximum, so
    # the float32 screen cannot change family.csv
    rows = pathology_table(1.0, 2.0, 400)
    assert [row.m for row in rows] == list(range(1, 401))
    for row in rows:
        assert row.data_gap == _unscreened_gap(1.0, 2.0, row.m), row.m


@pytest.mark.parametrize("r, rr", [(0.3, 2.5), (1.7, 1.8), (0.999, 1.0),
                                   (2.0, 5.0), (1.0, 2.0)])
@pytest.mark.parametrize("m", [1, 2, 7, 50, 200])
def test_screen_is_within_its_slack_and_exact(r, rr, m):
    lo, hi, step = _inner_range(r, rr, m)
    x = np.arange(lo, hi) * step + (-rr)
    a1 = OscillatoryFamily(r=r, rr=rr, m=m).a_m
    a2 = OscillatoryFamily(r=r, rr=rr, m=2 * m).a_m
    exact = np.abs(_inner_data(a2, x) - _inner_data(a1, x))
    screen = np.abs(_screen(a2, x) - _screen(a1, x))
    assert np.max(np.abs(screen - exact)) <= _screen_slack(r, a2)
    assert _data_gap(r, rr, m) == _unscreened_gap(r, rr, m)


def test_inner_samples_are_the_masked_linspace():
    # the table builds only the samples with |x| < r; they must be the
    # same floats as the whole-interval linspace masked to |x| < r
    cases = [(1.0, 2.0, m) for m in range(1, 401)]
    cases += [(r, rr, m) for r, rr in [(0.3, 2.5), (1.7, 1.8), (0.999, 1.0)]
              for m in (1, 2, 7, 50)]
    for r, rr, m in cases:
        x = np.linspace(-rr, rr, _sample_count(r, rr, m))
        lo, hi, step = _inner_range(r, rr, m)
        inner = np.arange(lo, hi) * step + (-rr)
        assert inner.tobytes() == x[np.abs(x) < r].tobytes(), (r, rr, m)


def test_coefficient_gap_closed_forms():
    # m = 1, p = inf: A_2 - A_1 = 14 pi^2
    assert coefficient_gap(1.0, 1, np.inf) == pytest.approx(
        14 * np.pi**2, rel=1e-14
    )
    assert coefficient_gap(1.0, 1, np.inf) == pytest.approx(138.17, abs=0.01)
    # p = 1 adds the measure factor 2r
    assert coefficient_gap(0.5, 2, 1.0) == pytest.approx(
        coefficient_gap(0.5, 2, np.inf) * 1.0, rel=1e-14
    )
    with pytest.raises(ContractViolation):
        coefficient_gap(1.0, 1, 0.5)


def test_coefficient_gap_quadratic_growth():
    # closed form: gap_1(m) / m^2 = 4 pi^2 (6 + 1/m) / r -> 24 pi^2 / r
    rows = pathology_table(1.0, 2.0, 20)
    limit = 24 * np.pi**2
    seq = [row.coef_gaps[1.0] / row.m**2 for row in rows]
    assert seq[-1] == pytest.approx(limit, rel=0.01)
    devs = [abs(v - limit) for v in seq]
    assert all(a > b for a, b in zip(devs[:-1], devs[1:]))  # monotone approach


def test_coefficient_gap_increasing_in_m():
    rows = pathology_table(1.0, 2.0, 10)
    assert all(set(row.coef_gaps) == {1.0, np.inf} for row in rows)
    for p in (1.0, np.inf):
        gaps = [row.coef_gaps[p] for row in rows]
        assert all(a < b for a, b in zip(gaps[:-1], gaps[1:]))
    gaps = [coefficient_gap(1.0, m, 2.0) for m in range(1, 11)]
    assert all(a < b for a, b in zip(gaps[:-1], gaps[1:]))


def test_h_integral_m_independent_and_positive():
    rows = pathology_table(1.0, 2.0, 8)
    closed = 1.0 + 1.0 - np.sin(2.0) / 2.0
    for row in rows:
        assert row.h_integral == pytest.approx(closed, rel=1e-14)
    # quadrature oracle: integrate q_m u_m^2 directly for one large m
    fam = OscillatoryFamily(r=1.0, rr=2.0, m=7)
    x = np.linspace(-2.0, 2.0, 400001)
    vals = eval_q(fam, x) * eval_u(fam, x) ** 2
    assert np.trapezoid(vals, x) == pytest.approx(closed, rel=1e-5)
    # the outer contribution alone keeps the nondegeneracy bound alive
    outer_only = 1.0 - np.sin(2.0) / 2.0
    assert h_integral(1.0, 2.0) >= outer_only > 0


def test_k_required_grows_quadratically():
    rows = pathology_table(1.0, 2.0, 12)
    for row in rows:
        assert row.k_required == row.a_m
    ratio = rows[11].k_required / rows[5].k_required
    assert ratio == pytest.approx((rows[11].a_m / rows[5].a_m), rel=1e-14)
    assert rows[11].k_required > 4.0 * rows[5].k_required * 0.9  # ~ (12/6)^2


# --- residual check ---------------------------------------------------------

def test_residual_second_order_in_h():
    r_h = residual_check(FAM1, 1.0 / 200)
    r_h2 = residual_check(FAM1, 1.0 / 400)
    assert r_h / r_h2 == pytest.approx(4.0, rel=0.1)


def test_residual_outer_region_sine_identity():
    # in the outer branch the centered difference of -sin(|x|-r) obeys
    # the exact identity  residual = |sin(|x|-r)| * (1 - (2-2cos h)/h^2)
    fam = FAM1
    n = 801
    x = np.linspace(-fam.rr, fam.rr, n)
    step = x[1] - x[0]
    u = eval_u(fam, x)
    q = eval_q(fam, x)
    second = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / step**2
    res = np.abs(second + q[1:-1] * u[1:-1])
    xi = x[1:-1]
    outer = np.abs(xi) > fam.r + step
    expected = np.abs(np.sin(np.abs(xi[outer]) - fam.r)) * abs(
        1.0 - (2.0 - 2.0 * np.cos(step)) / step**2
    )
    np.testing.assert_allclose(res[outer], expected, atol=1e-10)
    assert res[outer].max() <= step**2 / 10


def test_residual_stiffness_scaling():
    # the inner fourth derivative grows like A_m^(3/2), and the residual
    # follows: res(m=5)/res(m=1) tracks (A_5/A_1)^(3/2) ~ 74
    fam5 = OscillatoryFamily(r=1.0, rr=2.0, m=5)
    h = 1.0 / 400
    ratio = residual_check(fam5, h) / residual_check(FAM1, h)
    predicted = (fam5.a_m / FAM1.a_m) ** 1.5
    assert ratio == pytest.approx(predicted, rel=0.1)


def test_residual_rejects_bad_input():
    with pytest.raises(ContractViolation):
        residual_check(FAM1, 0.0)
    # spacings too coarse for a three-node stencil, including one node
    for h in (3.0, 10.0, np.inf):
        with pytest.raises(ContractViolation, match="too coarse"):
            residual_check(FAM1, h)


# --- csv --------------------------------------------------------------------

def test_pathology_csv(tmp_path):
    rows = pathology_table(1.0, 2.0, 5)
    p1 = write_pathology_csv(rows, tmp_path / "a.csv")
    p2 = write_pathology_csv(rows, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    parsed = list(csv.DictReader(p1.read_text().splitlines()))
    assert len(parsed) == 5
    assert list(parsed[0].keys()) == [
        "m", "A_m", "data_gap", "coef_gap_p1", "coef_gap_pinf",
        "H_integral", "K_required",
    ]
    assert float(parsed[0]["A_m"]) == pytest.approx((5 * np.pi / 2) ** 2)
    assert float(parsed[4]["data_gap"]) <= 2.0
