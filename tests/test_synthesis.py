"""Experiment synthesis tests: measurements, perturbations, pairs, manifests."""

import json

import numpy as np
import pytest

import hybridlab.synthesis
from hybridlab import ContractViolation, Grid, PriorBounds, ScalarField
from hybridlab.forward import solve_dirichlet
from hybridlab.synthesis import (
    ExperimentPair,
    internal_data,
    load_pair,
    make_pair,
    perturb_coefficient,
    save_pair,
)

BOUNDS = PriorBounds(k_bound=4.0, e_bound=10.0, h_bound=0.2, d_margin=0.1)


def unit_square(nx=17):
    return Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)


def coscos(x, y):
    return np.cos(x) * np.cos(y)


# --- internal_data ----------------------------------------------------------

def test_internal_data_basics():
    g = unit_square(9)
    q1 = ScalarField.constant(g, 1.0)
    u0 = ScalarField.constant(g, 0.0)
    assert np.all(internal_data(q1, u0).values == 0.0)

    q2 = ScalarField.constant(g, 2.0)
    u = ScalarField.from_function(g, coscos)
    f = internal_data(q2, u)
    assert f.values[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert np.all(f.values >= 0.0)


def test_internal_data_counterexample_center_value():
    # first oscillatory family member on (-2, 2), r = 1: F(0) = 1
    a1 = (np.pi / 2 + 2 * np.pi) ** 2
    grid = Grid(nx=401, lx=4.0)
    x = grid.xs() - 2.0
    q = ScalarField(grid, np.where(np.abs(x) < 1.0, a1, 1.0)[None, :])
    u = ScalarField(
        grid,
        np.where(
            np.abs(x) < 1.0,
            np.cos(np.sqrt(a1) * x) / np.sqrt(a1),
            -np.sin(np.abs(x) - 1.0),
        )[None, :],
    )
    f = internal_data(q, u)
    assert f.values[0, 200] == pytest.approx(1.0, abs=1e-12)


def test_internal_data_sign_invariance_and_grid_check():
    g = unit_square(9)
    rng = np.random.default_rng(1)
    q = ScalarField(g, rng.uniform(0.5, 2.0, g.shape))
    u = ScalarField(g, rng.normal(size=g.shape))
    neg = ScalarField(g, -u.values)
    np.testing.assert_array_equal(
        internal_data(q, u).values, internal_data(q, neg).values
    )
    with pytest.raises(ContractViolation):
        internal_data(q, ScalarField.constant(unit_square(11), 1.0))


# --- perturb_coefficient ----------------------------------------------------

def test_perturb_amplitude_zero_is_identity():
    g = unit_square(11)
    q = ScalarField.constant(g, 2.0)
    for mode in ("bump", "smooth-random", "piecewise"):
        res = perturb_coefficient(q, mode, 0.0, seed=4, bounds=BOUNDS)
        np.testing.assert_array_equal(res.field.values, q.values)
        assert not res.saturated


def test_perturb_bump_matches_formula():
    g = unit_square(21)
    q = ScalarField.constant(g, 1.5)
    res = perturb_coefficient(
        q, "bump", 0.25, seed=0, center=(0.4, 0.6), width=0.2
    )
    X, Y = g.meshgrid()
    expect = 1.5 + 0.25 * np.exp(-((X - 0.4) ** 2 + (Y - 0.6) ** 2) / 0.04)
    np.testing.assert_allclose(res.field.values, expect, atol=1e-15)
    assert res.center == (0.4, 0.6)
    assert res.width == pytest.approx(0.2)


def test_perturb_determinism_and_seed_sensitivity():
    g = unit_square(15)
    q = ScalarField.constant(g, 2.0)
    for mode in ("bump", "smooth-random", "piecewise"):
        a = perturb_coefficient(q, mode, 0.3, seed=9, bounds=BOUNDS)
        b = perturb_coefficient(q, mode, 0.3, seed=9, bounds=BOUNDS)
        c = perturb_coefficient(q, mode, 0.3, seed=10, bounds=BOUNDS)
        np.testing.assert_array_equal(a.field.values, b.field.values)
        assert not np.array_equal(a.field.values, c.field.values)


def test_perturb_clipping_and_saturation_warning():
    g = unit_square(15)
    q = ScalarField.constant(g, 2.0)
    with pytest.warns(UserWarning):
        res = perturb_coefficient(
            q, "bump", 100.0, seed=2, bounds=BOUNDS, width=0.4
        )
    assert res.saturated
    assert res.clipped_fraction > 0.5
    assert res.field.values.max() <= BOUNDS.k_bound
    assert res.field.values.min() >= 1.0 / BOUNDS.k_bound
    with pytest.raises(ContractViolation):
        perturb_coefficient(q, "bump", -1.0, seed=0)
    with pytest.raises(ContractViolation):
        perturb_coefficient(q, "sawtooth", 1.0, seed=0)


def test_perturb_smooth_random_respects_amplitude():
    g = unit_square(15)
    q = ScalarField.constant(g, 2.0)
    res = perturb_coefficient(q, "smooth-random", 0.4, seed=3)
    dev = np.abs(res.field.values - 2.0)
    assert dev.max() <= 0.4 + 1e-12
    assert dev.max() == pytest.approx(0.4, rel=1e-9)  # normalized to the sup


def test_perturb_piecewise_is_two_valued():
    g = unit_square(21)
    q = ScalarField.constant(g, 1.0)
    res = perturb_coefficient(q, "piecewise", 0.5, seed=6, bounds=BOUNDS)
    vals = np.unique(res.field.values)
    assert set(np.round(vals, 12)).issubset({1.0, 1.5})
    assert len(vals) == 2  # the drawn rectangle contains at least one node


# --- make_pair --------------------------------------------------------------

def test_identical_pair_has_zero_discrepancy():
    g = unit_square(17)
    q = ScalarField.constant(g, 2.0)
    pair = make_pair(q, q, coscos, BOUNDS, seed=0)
    assert pair.epsilon == 0.0
    assert pair.bdry_gap == 0.0
    assert pair.hypothesis_ok
    assert pair.flags["k_ok"] and pair.flags["e_ok"] and pair.flags["h_ok"]


def test_pair_triangle_inequality_envelope():
    g = unit_square(17)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.1, seed=5, bounds=BOUNDS).field
    pair = make_pair(q1, q2, coscos, BOUNDS, seed=5, mode="bump", amplitude=0.1)
    assert pair.epsilon > 0.0
    du = np.max(np.abs(pair.u1.values**2 - pair.u2.values**2))
    dq = np.max(np.abs(q1.values - q2.values))
    envelope = BOUNDS.k_bound * du + dq * np.max(np.abs(pair.u2.values)) ** 2
    assert pair.epsilon <= envelope + 1e-12


def test_pair_reuses_given_base_report():
    g = unit_square(17)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.1, seed=5, bounds=BOUNDS).field
    own = make_pair(q1, q2, coscos, BOUNDS, seed=5)
    base = solve_dirichlet(q1, coscos)
    shared = make_pair(q1, q2, coscos, BOUNDS, seed=5, report1=base)
    assert shared.report1 is base
    for name in ("u1", "u2", "f1", "f2"):
        np.testing.assert_array_equal(getattr(shared, name).values,
                                      getattr(own, name).values)
    assert (shared.epsilon, shared.bdry_gap, shared.flags) == \
        (own.epsilon, own.bdry_gap, own.flags)
    other = solve_dirichlet(ScalarField.constant(unit_square(9), 2.0), coscos)
    with pytest.raises(ContractViolation):
        make_pair(q1, q2, coscos, BOUNDS, report1=other)


def test_pair_nodewise_measurement_consistency():
    g = unit_square(17)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "smooth-random", 0.2, seed=8, bounds=BOUNDS).field
    pair = make_pair(q1, q2, coscos, BOUNDS)
    np.testing.assert_allclose(
        pair.f1.values, pair.q1.values * pair.u1.values**2, rtol=1e-14
    )
    np.testing.assert_allclose(
        pair.f2.values, pair.q2.values * pair.u2.values**2, rtol=1e-14
    )
    assert pair.bdry_gap == 0.0  # same boundary data on both sides


def test_pair_epsilon_symmetric():
    g = unit_square(17)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.15, seed=11, bounds=BOUNDS).field
    fwd = make_pair(q1, q2, coscos, BOUNDS)
    rev = make_pair(q2, q1, coscos, BOUNDS)
    assert fwd.epsilon == pytest.approx(rev.epsilon, rel=1e-12)


def test_counterexample_pair_ported_to_grid():
    # oscillatory family members m = 1 and 2m = 2 on (-2, 2) with r = 1,
    # shifted to [0, 4]: the measured discrepancy stays at most 2
    r, big_r = 1.0, 2.0

    def a_const(m):
        return (np.pi / 2 + 2 * m * np.pi) ** 2 / r**2

    grid = Grid(nx=801, lx=2 * big_r)
    x = grid.xs() - big_r
    q1 = ScalarField(grid, np.where(np.abs(x) < r, a_const(1), 1.0)[None, :])
    q2 = ScalarField(grid, np.where(np.abs(x) < r, a_const(2), 1.0)[None, :])
    bounds = PriorBounds(
        k_bound=a_const(2) * 1.01, e_bound=10.0, h_bound=0.5, d_margin=0.1
    )
    g_ends = np.array([-np.sin(big_r - r), -np.sin(big_r - r)])
    pair = make_pair(q1, q2, g_ends, bounds, seed=1)
    assert pair.epsilon <= 2.0
    assert pair.epsilon > 0.5  # genuinely order-one, not accidentally tiny
    assert pair.bdry_gap == 0.0
    assert pair.hypothesis_ok
    # discrete solutions track the closed-form family members
    u1_exact = np.where(
        np.abs(x) < r,
        np.cos(np.sqrt(a_const(1)) * x) / np.sqrt(a_const(1)),
        -np.sin(np.abs(x) - r),
    )
    assert np.max(np.abs(pair.u1.values[0] - u1_exact)) <= 1e-3


def test_pair_flags_record_h_violation():
    g = unit_square(17)
    q = ScalarField.constant(g, 2.0)
    greedy = PriorBounds(k_bound=4.0, e_bound=10.0, h_bound=9.0, d_margin=0.1)
    pair = make_pair(q, q, coscos, greedy)
    assert not pair.flags["h_ok"]  # integral of q u^2 is about 1, far below 81
    assert pair.hypothesis_ok  # boundary hypothesis still fine


def test_pair_jitter_moves_boundary_gap():
    g = unit_square(17)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.2, seed=21, bounds=BOUNDS).field
    plain = make_pair(q1, q2, coscos, BOUNDS, seed=21)
    stressed = make_pair(q1, q2, coscos, BOUNDS, seed=21, jitter=0.5)
    assert plain.bdry_gap == 0.0
    assert stressed.bdry_gap > 0.0
    assert stressed.bdry_gap <= np.sqrt(BOUNDS.k_bound * stressed.epsilon) + 1e-12



def test_jittered_pair_computes_f1_once(monkeypatch):
    # F1, then F2 before and after the jitter: the jittered pair keeps F1
    g = unit_square(17)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.2, seed=21, bounds=BOUNDS).field
    calls = []

    def counting(q, u):
        calls.append(q)
        return internal_data(q, u)

    monkeypatch.setattr(hybridlab.synthesis, "internal_data", counting)
    pair = make_pair(q1, q2, coscos, BOUNDS, seed=21, jitter=0.5)
    pair.epsilon, pair.flags
    assert len(calls) == 3
    monkeypatch.undo()
    fresh = ExperimentPair(q1=pair.q1, q2=pair.q2, u1=pair.u1, u2=pair.u2,
                           bounds=BOUNDS, seed=21, mode="custom",
                           amplitude=0.0)
    np.testing.assert_array_equal(pair.f1.values, fresh.f1.values)
    assert pair.epsilon == fresh.epsilon and pair.flags == fresh.flags

# --- manifests --------------------------------------------------------------

@pytest.mark.parametrize("jitter", [0.0, 0.5])
def test_pair_round_trip(tmp_path, jitter):
    g = unit_square(13)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.1, seed=13, bounds=BOUNDS).field
    pair = make_pair(q1, q2, coscos, BOUNDS, seed=13, mode="bump",
                     amplitude=0.1, jitter=jitter)
    mpath = save_pair(pair, tmp_path / "pair0")
    assert mpath.name == "manifest.json"
    loaded = load_pair(tmp_path / "pair0")
    assert loaded.epsilon == pair.epsilon
    assert loaded.bdry_gap == pair.bdry_gap
    assert (loaded.bdry_gap > 0.0) is (jitter > 0.0)
    assert loaded.seed == 13 and loaded.mode == "bump"
    assert loaded.bounds == pair.bounds
    assert loaded.flags == pair.flags
    np.testing.assert_array_equal(loaded.q2.values, pair.q2.values)
    np.testing.assert_array_equal(loaded.u1.values, pair.u1.values)


def test_load_pair_reads_flags_and_gap_off_the_fields(tmp_path):
    # the manifest's flags and boundary gap are a record for readers;
    # the loaded pair derives both from its four fields and the bounds
    g = unit_square(13)
    q1 = ScalarField.constant(g, 2.0)
    q2 = perturb_coefficient(q1, "bump", 0.1, seed=13, bounds=BOUNDS).field
    pair = make_pair(q1, q2, coscos, BOUNDS, seed=13, jitter=0.5)
    mpath = save_pair(pair, tmp_path / "p")
    manifest = json.loads(mpath.read_text())
    manifest["flags"] = {name: not ok for name, ok in manifest["flags"].items()}
    manifest["bdry_gap"] = 123.0
    mpath.write_text(json.dumps(manifest))
    loaded = load_pair(mpath)
    assert loaded.flags == pair.flags
    assert all(pair.flags.values())
    assert loaded.bdry_gap == pair.bdry_gap


def test_manifest_keys_and_epsilon_revalidation(tmp_path):
    g = unit_square(13)
    q = ScalarField.constant(g, 2.0)
    pair = make_pair(q, q, coscos, BOUNDS, seed=2)
    mpath = save_pair(pair, tmp_path / "p")
    manifest = json.loads(mpath.read_text())
    assert set(manifest) == {
        "seed", "mode", "amplitude", "epsilon", "bdry_gap",
        "k", "e", "h", "d", "flags",
    }
    manifest["epsilon"] = 0.5  # fields cannot support this value
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ContractViolation):
        load_pair(mpath)
