"""Acceptance gate: the eight headline capabilities, one pass/fail line each.

Each test prints `acceptance N <name>: PASS/FAIL [...]` and enforces its
runtime budget, so this module run under `pytest -v` doubles as the
release checklist.  The lines are also replayed in the terminal summary
(see conftest.py) so they survive pytest's output capture.
"""

import math
import time
import warnings

import numpy as np
import pytest

from hybridlab.cli import main as cli_main
from hybridlab.counterexample import OscillatoryFamily, pathology_table
from hybridlab.diagnostics import (
    level_set_error,
    negative_power_integral,
    weighted_checks,
)
from hybridlab.fields import Grid, PriorBounds, ScalarField, integrate, norms
from hybridlab.forward import solve_dirichlet
from hybridlab.harness import SweepConfig, fit_holder, run_sweep
from hybridlab.reconstruction import reconstruct, reconstruction_error
from hybridlab.synthesis import internal_data, make_pair, perturb_coefficient


# collected by conftest.pytest_terminal_summary after capture ends
CHECKLIST_LINES = []


def _report(num, name, ok, detail):
    line = f"acceptance {num} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    CHECKLIST_LINES.append(line)
    assert ok, f"acceptance {num} {name}: {detail}"


def _synthesize_batch(grid, bounds, count, amps):
    """Deterministic mixed-mode batch sharing one base coefficient."""
    q1 = ScalarField.constant(grid, 2.0)
    g = lambda x, y: np.cos(x) * np.cos(y)
    modes = ("bump", "smooth-random", "piecewise")
    pairs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(count):
            mode = modes[i % len(modes)]
            amplitude = amps[i % len(amps)]
            pr = perturb_coefficient(q1, mode, amplitude, i, bounds=bounds)
            pairs.append(make_pair(q1, pr.field, g, bounds, seed=i,
                                   mode=mode, amplitude=amplitude))
    return pairs


def test_1_weighted_constant_bound():
    t0 = time.perf_counter()
    grid = Grid(nx=65, ny=65, lx=1.0, ly=1.0)
    bounds = PriorBounds(k_bound=4.0, e_bound=50.0, h_bound=0.05,
                         d_margin=0.125)
    pairs = _synthesize_batch(grid, bounds, 21, (0.1, 0.3, 0.6, 1.0, 1.4))
    satisfying = [
        p for p in pairs
        if p.hypothesis_ok and p.flags["k_ok"] and p.flags["e_ok"]
        and p.flags["h_ok"]
    ]
    worst = 0.0
    for pair in satisfying:
        w = weighted_checks(pair)
        worst = max(worst, w.lhs / w.proof_bound)
    elapsed = time.perf_counter() - t0
    ok = len(satisfying) >= 20 and worst <= 1.05 and elapsed <= 60.0
    _report(1, "weighted-constant bound", ok,
            f"{len(satisfying)}/21 pairs, worst lhs/bound {worst:.3e}, "
            f"{elapsed:.1f}s")


def test_2_instability_family_growth():
    t0 = time.perf_counter()
    r, rr = 1.0, 2.0
    rows = pathology_table(r, rr, 20)
    max_gap = max(row.data_gap for row in rows)
    ms = np.array([row.m for row in rows], dtype=float)
    gaps = np.array([row.coef_gaps[1.0] for row in rows])
    c_fit = float(np.sum(gaps * ms**2) / np.sum(ms**4))
    c_min = float(np.min(gaps / ms**2))
    a_err = max(
        abs(OscillatoryFamily(r=r, rr=rr, m=row.m).a_m
            - ((4 * row.m + 1) ** 2 * math.pi**2) / (4.0 * r**2))
        / row.a_m
        for row in rows
    )
    elapsed = time.perf_counter() - t0
    quad_ok = bool(np.all(gaps >= c_min * ms**2 * (1 - 1e-12))) and c_min > 0
    ok = (max_gap <= 2.0 and c_fit > 0 and quad_ok and a_err <= 1e-14
          and elapsed <= 1.0)
    _report(2, "bounded data gap with quadratic coefficient gap", ok,
            f"max data_gap {max_gap:.6f}, fitted c {c_fit:.2f}, "
            f"min c {c_min:.2f}, A_m rel err {a_err:.1e}, {elapsed:.2f}s")


def test_3_forward_convergence_order():
    t0 = time.perf_counter()
    errs = []
    hs = []
    for nx in (17, 33, 65):
        grid = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
        q = ScalarField.constant(grid, 2.0)
        report = solve_dirichlet(q, lambda x, y: np.cos(x) * np.cos(y))
        exact = ScalarField.from_function(
            grid, lambda x, y: np.cos(x) * np.cos(y)
        )
        errs.append(float(np.max(np.abs(report.u.values - exact.values))))
        hs.append(grid.h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = 1.8 <= slope <= 2.2 and elapsed <= 30.0
    _report(3, "forward solver second-order convergence", ok,
            f"order {slope:.3f} over h in {{1/16,1/32,1/64}}, {elapsed:.1f}s")


def test_4_reconstruction_consistency():
    t0 = time.perf_counter()
    grid = Grid(nx=65, ny=65, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0)
    report = solve_dirichlet(q, lambda x, y: np.cos(x) * np.cos(y))
    f = internal_data(q, report.u)
    result = reconstruct(f, lambda x, y: np.cos(x) * np.cos(y), 4.0)
    err = reconstruction_error(result.q_hat, q, 0.0).l1
    rel = err / integrate(q)
    elapsed = time.perf_counter() - t0
    ok = (result.converged and result.iterations <= 50 and rel <= 1e-3
          and elapsed <= 60.0)
    _report(4, "reconstruction recovers the constant coefficient", ok,
            f"relative L1 error {rel:.2e} in {result.iterations} iterations, "
            f"{elapsed:.1f}s")


def test_5_holder_envelope_fit():
    t0 = time.perf_counter()
    # planted power laws must come back exactly
    eps = np.logspace(-4, -1, 8)
    planted = fit_holder(list(zip(eps, 2.0 * (np.sqrt(eps) + eps) ** 0.5)))
    planted_ok = (abs(planted.c_hat - 2.0) <= 1e-10
                  and abs(planted.eta_hat - 0.5) <= 1e-10)
    unit = fit_holder(list(zip(eps, (np.sqrt(eps) + eps) ** 1.0)))
    planted_ok = planted_ok and abs(unit.c_hat - 1.0) <= 1e-10 \
        and abs(unit.eta_hat - 1.0) <= 1e-10

    # measured sweep: large-discrepancy regime where the envelope is tight
    amplitudes = ",".join(f"{a:.17g}" for a in np.geomspace(1.0, 8.0, 8))
    cfg = SweepConfig.from_config({
        "sweep.nx": "33", "sweep.q": "const:8",
        "sweep.g": "expr:2.5*cos(x)*cos(y)", "sweep.mode": "bump",
        "sweep.amplitudes": amplitudes, "sweep.seeds": "3",
        "sweep.k": "16", "sweep.e": "100", "sweep.h": "0.5",
        "sweep.d": "0.125",
    })
    rep = run_sweep(cfg)
    usable = [s for s in rep.samples if s.usable]
    envelope_ok = all(
        s.err_l1_interior <= rep.fit.envelope(s.epsilon) for s in usable
    )
    elapsed = time.perf_counter() - t0
    ok = (planted_ok and len(usable) == 24 and rep.fit is not None
          and 0.0 < rep.fit.eta_hat <= 1.2 and rep.eta_in_range
          and envelope_ok and elapsed <= 300.0)
    _report(5, "stability fit within the theoretical exponent range", ok,
            f"eta_hat {rep.fit.eta_hat:.4f}, ci ({rep.fit.eta_ci[0]:.3f}, "
            f"{rep.fit.eta_ci[1]:.3f}), {len(usable)}/24 samples under "
            f"envelope {envelope_ok}, planted exact {planted_ok}, "
            f"{elapsed:.1f}s")


def test_6_negative_power_threshold_bracket():
    t0 = time.perf_counter()
    d = 0.125
    vals = {}
    for nx in (64, 128, 256):
        grid = Grid(nx=nx, lx=1.0)
        u = ScalarField.from_function(grid, lambda x: x - 0.5)
        for delta in (0.5, 1.5):
            vals[(nx, delta)], _ = negative_power_integral(u, d, delta)
    # stable side: changes shrink and the 1D closed form is approached
    exact = 2.0 * 0.375**0.5 / 0.5
    stable_changes = [
        abs(vals[(128, 0.5)] - vals[(64, 0.5)]) / vals[(128, 0.5)],
        abs(vals[(256, 0.5)] - vals[(128, 0.5)]) / vals[(256, 0.5)],
    ]
    stable_ok = (stable_changes[1] < stable_changes[0]
                 and abs(vals[(256, 0.5)] - exact) / exact <= 0.05)
    # divergent side: every refinement multiplies the integral
    ratios = [vals[(128, 1.5)] / vals[(64, 1.5)],
              vals[(256, 1.5)] / vals[(128, 1.5)]]
    divergent_ok = all(r >= 1.3 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = stable_ok and divergent_ok and elapsed <= 60.0
    _report(6, "integrability threshold bracketed at delta 1", ok,
            f"delta 0.5 off closed form by "
            f"{abs(vals[(256, 0.5)] - exact) / exact:.1%}, delta 1.5 "
            f"refinement ratios {ratios[0]:.2f}/{ratios[1]:.2f}, "
            f"{elapsed:.1f}s")


def test_7_structural_inequalities():
    t0 = time.perf_counter()
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    bounds = PriorBounds(k_bound=4.0, e_bound=50.0, h_bound=0.05,
                         d_margin=0.125)
    pairs = _synthesize_batch(grid, bounds, 12, (0.1, 0.5, 1.0))
    l3_ok = True
    level_ok = True
    for pair in pairs:
        w = weighted_checks(pair)
        l3_ok = l3_ok and w.l3_lhs <= w.lhs * (1 + 1e-12)
        for t in (0.01, 0.1, 1.0):
            ls = level_set_error(pair.q1, pair.q2, pair.u1, t)
            level_ok = level_ok and (
                t * ls.value
                <= bounds.k_bound * w.weightq_lhs * (1 + 1e-12)
            )
    elapsed = time.perf_counter() - t0
    ok = l3_ok and level_ok and elapsed <= 60.0
    _report(7, "cubic and level-set inequalities on synthesized pairs", ok,
            f"12 pairs, l3<=lhs {l3_ok}, t*level<=K*weightq {level_ok}, "
            f"{elapsed:.1f}s")


def test_8_sweep_determinism(tmp_path, capsys):
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(
        "sweep.nx = 17\n"
        "sweep.q = const:2\n"
        "sweep.g = coscos\n"
        "sweep.mode = bump\n"
        "sweep.amplitudes = 0.02,0.1,0.3\n"
        "sweep.seeds = 2\n"
        "sweep.k = 4\n"
        "sweep.e = 50\n"
        "sweep.h = 0.05\n"
        "sweep.d = 0.125\n"
    )
    codes = [
        cli_main(["sweep", "--config", str(cfg), "--out",
                  str(tmp_path / run)])
        for run in ("run1", "run2")
    ]
    capsys.readouterr()
    identical = all(
        (tmp_path / "run1" / name).read_bytes()
        == (tmp_path / "run2" / name).read_bytes()
        for name in ("samples.csv", "fit.json", "diagnostics.csv",
                     "scatter.svg")
    )
    ok = codes == [0, 0] and identical
    _report(8, "repeated sweep is byte-identical", ok,
            f"exit codes {codes}, outputs identical {identical}")
