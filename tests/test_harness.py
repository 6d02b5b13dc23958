import csv
import dataclasses
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import hybridlab.forward
from hybridlab import ContractViolation, Grid, PriorBounds, UnderdeterminedFit
from hybridlab.config import DEFAULTS, parse_config
from hybridlab.diagnostics import DiagnosticsReport
from hybridlab.errors import NearSingularError
from hybridlab.harness import (
    HolderFit,
    StabilityReport,
    SweepConfig,
    SweepSample,
    emit_report,
    fit_holder,
    run_sweep,
    sweep_pairs,
)


def normal_equations_fit(eps, err):
    """Closed-form simple-regression oracle on the log-log points."""
    xs = np.log(np.sqrt(eps) + eps)
    ys = np.log(err)
    n = len(xs)
    sx, sy = xs.sum(), ys.sum()
    sxx, sxy = (xs * xs).sum(), (xs * ys).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return math.exp(intercept), slope


def small_sweep_config(**overrides):
    base = dict(
        grid=Grid(nx=17, ny=17, lx=1.0, ly=1.0),
        q_spec="const:2",
        g_spec="coscos",
        mode="bump",
        amplitudes=(0.01, 0.05, 0.2),
        seeds=2,
        bounds=PriorBounds(k_bound=4.0, e_bound=50.0, h_bound=0.05,
                           d_margin=0.125),
        d_list=(0.125, 0.25),
        jitter=float(DEFAULTS["sweep.jitter"]),
        solver_tol=float(DEFAULTS["solver.tol"]),
        recon_tol=float(DEFAULTS["recon.tol"]),
        recon_max_iter=int(DEFAULTS["recon.max_iter"]),
        echo={"sweep.nx": "17"},
    )
    base.update(overrides)
    return SweepConfig(**base)


# ---------------------------------------------------------------- fit_holder

def test_fit_recovers_planted_half_power():
    eps = np.logspace(-4, -1, 8)
    err = 2.0 * (np.sqrt(eps) + eps) ** 0.5
    fit = fit_holder(list(zip(eps, err)))
    assert abs(fit.c_hat - 2.0) <= 1e-10
    assert abs(fit.eta_hat - 0.5) <= 1e-10
    assert fit.residual_rms <= 1e-12
    assert fit.n_used == 8 and fit.n_excluded == 0


def test_fit_recovers_planted_unit_power():
    eps = np.logspace(-3, 0, 10)
    err = (np.sqrt(eps) + eps) ** 1.0
    fit = fit_holder(list(zip(eps, err)))
    assert abs(fit.c_hat - 1.0) <= 1e-10
    assert abs(fit.eta_hat - 1.0) <= 1e-10


def test_fit_noisy_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    eps = np.repeat(np.logspace(-4, -1, 8), 3)
    err = 1.7 * (np.sqrt(eps) + eps) ** 0.8
    err = err * (1.0 + 0.05 * rng.uniform(-1, 1, err.size))
    fit = fit_holder(list(zip(eps, err)))
    assert abs(fit.eta_hat - 0.8) <= 0.1
    c_ref, eta_ref = normal_equations_fit(eps, err)
    assert abs(fit.eta_hat - eta_ref) <= 1e-10
    assert abs(fit.c_hat - c_ref) <= 1e-10 * c_ref
    lo, hi = fit.eta_ci
    assert lo <= 0.8 <= hi


def test_fit_envelope_dominates_noisy_samples():
    rng = np.random.default_rng(11)
    eps = np.repeat(np.logspace(-4, -1, 8), 3)
    err = 1.7 * (np.sqrt(eps) + eps) ** 0.8
    err = err * (1.0 + 0.05 * rng.uniform(-1, 1, err.size))
    fit = fit_holder(list(zip(eps, err)))
    assert np.all(err <= fit.envelope(eps))


def test_fit_excludes_and_counts_zero_error_samples():
    eps = np.logspace(-2, 0, 6)
    err = 3.0 * (np.sqrt(eps) + eps) ** 0.6
    samples = list(zip(eps, err)) + [(0.5, 0.0), (0.0, 1.0)]
    fit = fit_holder(samples)
    assert fit.n_used == 6 and fit.n_excluded == 2
    assert abs(fit.eta_hat - 0.6) <= 1e-10


def test_fit_underdetermined_below_two_points():
    with pytest.raises(UnderdeterminedFit):
        fit_holder([(0.1, 0.2)])
    with pytest.raises(UnderdeterminedFit):
        fit_holder([(0.1, 0.2), (0.2, 0.0), (0.3, 0.0)])
    assert fit_holder([(0.1, 0.2), (0.2, 0.3)]).underdetermined


def test_fit_two_points_is_the_exact_line():
    eps, err = (1e-3, 0.04), (2e-2, 0.3)
    fit = fit_holder(list(zip(eps, err)))
    x = [math.log(math.sqrt(e) + e) for e in eps]
    y = [math.log(e) for e in err]
    slope = (y[1] - y[0]) / (x[1] - x[0])
    assert fit.underdetermined and fit.residual_rms == 0.0
    assert fit.eta_ci[0] == fit.eta_ci[1]
    assert abs(fit.eta_hat - slope) <= 1e-13 * abs(slope)
    assert fit.n_used == 2 and fit.n_excluded == 0


def test_fit_underdetermined_without_epsilon_spread():
    with pytest.raises(UnderdeterminedFit):
        fit_holder([(0.1, 0.2), (0.1, 0.3), (0.1, 0.25)])


def test_fit_flag_ok_underdetermined_or_skipped():
    eps = np.logspace(-4, -1, 6)
    err = 1e-3 * (np.sqrt(eps) + eps) ** 0.8
    config = small_sweep_config(echo={})

    def flag(fit):
        return StabilityReport(samples=(), config=config, fit=fit,
                               diagnostics=None).fit_flag

    assert flag(fit_holder(list(zip(eps, err)))) == "ok"
    assert flag(fit_holder(list(zip(eps[:2], err[:2])))) == "underdetermined"
    with pytest.raises(UnderdeterminedFit):
        fit_holder([(eps[0], err[0])])
    # run_sweep maps a refused fit to no fit, flagged skipped
    rep = run_sweep(small_sweep_config(amplitudes=(0.0,), seeds=1,
                                       d_list=(0.125,)))
    assert rep.fit is None and rep.fit_flag == "skipped"


# --------------------------------------------------------------- SweepConfig

def test_sweep_config_validation():
    with pytest.raises(ContractViolation):
        small_sweep_config(amplitudes=())
    with pytest.raises(ContractViolation):
        small_sweep_config(amplitudes=(0.1, -0.2))
    with pytest.raises(ContractViolation):
        small_sweep_config(seeds=0)
    with pytest.raises(ContractViolation):
        small_sweep_config(d_list=())


def test_sweep_config_refuses_nan_and_empty_margins():
    nan = float("nan")
    with pytest.raises(ContractViolation, match="nonnegative"):
        small_sweep_config(amplitudes=(0.1, nan))
    with pytest.raises(ContractViolation, match="margin"):
        small_sweep_config(d_list=(0.125, nan))
    # the unit square's inradius is 0.5: d = 0.5 leaves no interior node
    with pytest.raises(ContractViolation, match="d = 0.5 leaves no interior node"):
        small_sweep_config(d_list=(0.125, 0.5))


@pytest.mark.parametrize("field, value, named", [
    ("solver_tol", 0.0, "solver.tol"),
    ("solver_tol", float("nan"), "solver.tol"),
    ("recon_tol", -1e-8, "recon.tol"),
    ("recon_tol", float("nan"), "recon.tol"),
    ("recon_max_iter", 0, "recon.max_iter"),
    ("jitter", -3.0, "sweep.jitter"),
    ("jitter", float("nan"), "sweep.jitter"),
])
def test_sweep_config_refuses_bad_tolerance_iterations_or_jitter(field, value,
                                                                 named):
    with pytest.raises(ContractViolation, match=named):
        small_sweep_config(**{field: value})


def test_sweep_config_from_config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("""
sweep.nx = 17
sweep.q = const:2
sweep.g = coscos
sweep.mode = bump
sweep.amplitudes = 0.01,0.05
sweep.seeds = 2
sweep.seed0 = 5
sweep.k = 4
sweep.e = 50
sweep.h = 0.05
sweep.d = 0.125,0.25
sweep.out = reports
recon.max_iter = 80
""")
    cfg = SweepConfig.from_config(parse_config(path))
    assert cfg.grid == Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    assert cfg.amplitudes == (0.01, 0.05)
    assert cfg.seeds == 2 and cfg.seed0 == 5
    assert cfg.d_list == (0.125, 0.25)
    assert cfg.out_dir == "reports"
    assert cfg.recon_max_iter == 80
    assert cfg.bounds.d_margin == 0.125
    assert cfg.echo["sweep.q"] == "const:2"
    with pytest.raises(ContractViolation, match="sweep.q"):
        SweepConfig.from_config({"sweep.nx": "17"})


# ----------------------------------------------------------------- run_sweep

@pytest.fixture(scope="module")
def smoke_report():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(small_sweep_config())


def test_sweep_samples_ordered_and_complete(smoke_report):
    rep = smoke_report
    keys = [(s.amplitude, s.seed) for s in rep.samples]
    assert keys == [(a, s) for a in (0.01, 0.05, 0.2) for s in (0, 1)]
    for s in rep.samples:
        assert s.usable
        assert s.epsilon > 0 and s.err_l1_interior > 0
        assert s.err_l1_interior == s.err_true[0.125]
        assert set(s.err_true) == {0.125, 0.25} == set(s.err_recon)
        assert s.flags["recon_converged"]


def test_jittered_sweep_reconstructs_from_the_data_that_made_f2():
    # with jitter, F2 comes from u2 solved against a displaced g2; the
    # reconstruction must see that boundary data, not the undisplaced g
    cfg = small_sweep_config(amplitudes=(0.02, 0.1), seeds=2,
                             d_list=(0.125,), jitter=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    assert len(rep.samples) == 4
    for s in rep.samples:
        assert s.bdry_gap > 0 and s.flags["recon_converged"]
        assert s.err_recon[0.125] < cfg.recon_tol


def test_sweep_error_monotone_in_margin(smoke_report):
    # enlarging the margin shrinks the region, so the L1 error cannot grow
    for s in smoke_report.samples:
        assert s.err_true[0.25] <= s.err_true[0.125] + 1e-15
        assert s.err_recon[0.25] <= s.err_recon[0.125] + 1e-15


def test_sweep_fit_and_diagnostics_attached(smoke_report):
    rep = smoke_report
    # one fit, of err_true; err_recon is solver noise (under
    # recon.tol = 1e-8), so it gets none
    assert {f.name for f in dataclasses.fields(rep)} == {
        "samples", "config", "fit", "diagnostics"}
    assert rep.fit is not None and rep.fit_flag == "ok"
    assert rep.fit.n_used == 6
    assert rep.eta_in_range == (0.0 < rep.fit.eta_hat <= 1.2)
    assert rep.diagnostics is not None
    assert rep.diagnostics.weighted is not None
    assert rep.config == small_sweep_config()
    # fitted envelope with 3-sigma slack dominates every usable sample
    for s in rep.samples:
        assert s.err_l1_interior <= rep.fit.envelope(s.epsilon)


def test_sweep_zero_amplitude_skips_fit():
    cfg = small_sweep_config(amplitudes=(0.0,), seeds=1, d_list=(0.125,))
    rep = run_sweep(cfg)
    (sample,) = rep.samples
    assert sample.epsilon == 0.0
    assert sample.err_l1_interior == 0.0
    assert not sample.usable
    assert rep.fit is None
    assert rep.fit_flag == "skipped"
    assert not rep.eta_in_range



def test_fit_counts_the_samples_it_leaves_out(tmp_path):
    # amplitude 0 gives epsilon 0: kept as a flagged row, left out of the fit
    cfg = small_sweep_config(amplitudes=(0.0, 0.02, 0.1, 0.5), seeds=1,
                             d_list=(0.125,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    fit = json.loads(emit_report(rep, tmp_path)["fit"].read_text())
    assert fit["n_samples"] == 4
    assert fit["fits"]["true"]["n_used"] == 3
    assert fit["fits"]["true"]["n_excluded"] == 1


def test_samples_csv_rows_match_the_header_failed_cells_included(tmp_path):
    ok_flags = dict.fromkeys(SweepSample.FLAGS, True) | {"failed": False}
    samples = (
        SweepSample(0.1, 0, ok_flags, epsilon=1e-3, bdry_gap=0.0,
                    err_true={0.125: 2e-2, 0.25: 1e-2},
                    err_recon={0.125: 1e-10, 0.25: 1e-10}),
        SweepSample(0.2, 0, {"failed": True, "failure": "NearSingularError"}),
    )
    rep = StabilityReport(
        samples=samples, config=small_sweep_config(echo={}), fit=None,
        diagnostics=None,
    )
    path = emit_report(rep, tmp_path)["samples"]
    header, *rows = list(csv.reader(path.read_text().splitlines()))
    assert len(rows) == 2 and {len(row) for row in rows} == {len(header)}
    assert header[-len(SweepSample.FLAGS):] == list(SweepSample.FLAGS)
    failed = dict(zip(header, rows[1]))
    assert failed["failed"] == "1" and failed["recon_converged"] == "0"
    assert failed["epsilon"] == failed["err_true_d0.25"] == "nan"
    assert samples[0].err_l1_interior == 2e-2
    assert math.isnan(samples[1].err_l1_interior)


@pytest.mark.parametrize("flag", SweepSample.FLAGS)
def test_usable_reads_the_flag_columns(flag):
    # every flag but the reconstruction's gates the fit of err_true
    ok_flags = dict.fromkeys(SweepSample.FLAGS, True) | {"failed": False}
    flipped = dict(ok_flags, **{flag: not ok_flags[flag]})
    sample = SweepSample(0.1, 0, flipped, epsilon=1e-3,
                         err_true={0.125: 2e-2})
    assert SweepSample(0.1, 0, ok_flags, epsilon=1e-3,
                       err_true={0.125: 2e-2}).usable
    assert sample.usable is (flag == "recon_converged")

def test_sweep_two_point_fit_passes_through_samples():
    cfg = small_sweep_config(amplitudes=(0.01, 0.2), seeds=1, d_list=(0.125,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    fit = rep.fit
    assert fit is not None and fit.underdetermined
    assert rep.fit_flag == "underdetermined"
    assert fit.residual_rms == 0.0
    for s in rep.samples:
        x = math.sqrt(s.epsilon) + s.epsilon
        assert abs(fit.c_hat * x**fit.eta_hat - s.err_l1_interior) \
            <= 1e-9 * s.err_l1_interior


def test_sweep_flags_failed_pair_and_continues():
    # a constant coefficient sitting exactly on a discrete eigenvalue
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    h = grid.h
    mu = (4.0 / h**2) * (1.0 - math.cos(math.pi * h))
    cfg = small_sweep_config(
        grid=grid, q_spec=f"const:{mu!r}", g_spec="const:1",
        bounds=PriorBounds(k_bound=16.0, e_bound=500.0, h_bound=0.05,
                           d_margin=0.125),
        amplitudes=(1e-8,), seeds=1, d_list=(0.125,),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    (sample,) = rep.samples
    assert sample.flags["failed"]
    assert sample.flags["failure"] == "NearSingularError"
    assert math.isnan(sample.epsilon)
    assert rep.fit is None and rep.fit_flag == "skipped"


def test_sweep_constructs_one_operator_per_cell_plus_base(monkeypatch):
    # the base q1 is assembled and solved once per sweep; reconstruction
    # builds no operator at all
    built = []
    real_init = hybridlab.forward.DiscreteOperator.__init__

    def counting_init(self, q):
        built.append(q)
        real_init(self, q)

    monkeypatch.setattr(hybridlab.forward.DiscreteOperator, "__init__",
                        counting_init)
    cfg = small_sweep_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    cells = len(cfg.amplitudes) * cfg.seeds
    assert len(rep.samples) == cells
    assert all(s.flags["recon_converged"] for s in rep.samples)
    assert len(built) == cells + 1


def test_sweep_orders_its_grid_once_and_factors_each_operator_once(
        monkeypatch):
    # the minimum-degree ordering belongs to the grid: one sweep computes
    # it once, then factors its N+1 operators in that order
    calls = []
    real_splu = scipy.sparse.linalg.splu

    def counting_splu(matrix, **kwargs):
        calls.append(kwargs["permc_spec"])
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    hybridlab.forward._pattern.cache_clear()
    cfg = small_sweep_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    cells = len(cfg.amplitudes) * cfg.seeds
    assert len(rep.samples) == cells
    assert calls == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (cells + 1)


def test_sweep_samples_come_in_amplitude_seed_order(tmp_path):
    # the config's amplitude order reaches neither report.samples nor the
    # files
    runs = {}
    for amplitudes in ((0.5, 0.1), (0.1, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = run_sweep(small_sweep_config(amplitudes=amplitudes))
        assert [(s.amplitude, s.seed) for s in rep.samples] == [
            (0.1, 0), (0.1, 1), (0.5, 0), (0.5, 1)]
        files = emit_report(rep, tmp_path / str(amplitudes[0]))
        runs[amplitudes] = {k: p.read_bytes() for k, p in files.items()}
    assert runs[(0.5, 0.1)] == runs[(0.1, 0.5)]


def test_sweep_base_solve_failure_fails_every_cell():
    # the base coefficient sits on a discrete eigenvalue: every cell
    # carries the base solve's exception
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    mu = (4.0 / grid.h**2) * (1.0 - math.cos(math.pi * grid.h))
    cfg = small_sweep_config(
        grid=grid, q_spec=f"const:{mu!r}", g_spec="const:1",
        bounds=PriorBounds(k_bound=16.0, e_bound=500.0, h_bound=0.05,
                           d_margin=0.125),
        amplitudes=(0.01, 0.1), seeds=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cells = list(sweep_pairs(cfg))
        rep = run_sweep(cfg)
    assert [(a, s) for a, s, _ in cells] == [(0.01, 0), (0.01, 1),
                                              (0.1, 0), (0.1, 1)]
    assert all(isinstance(p, NearSingularError) for _, _, p in cells)
    assert [s.flags["failure"] for s in rep.samples] == ["NearSingularError"] * 4


def test_sweep_negative_control_weak_data_excluded():
    # boundary data too small for the energy floor: h_ok fails everywhere
    cfg = small_sweep_config(g_spec="const:0.01")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    assert all(not s.flags["h_ok"] for s in rep.samples)
    assert all(not s.usable for s in rep.samples)
    assert rep.fit is None
    assert rep.fit_flag == "skipped"
    assert rep.diagnostics is None


def test_sweep_negative_control_coefficient_outside_bounds():
    # base coefficient above K: samples are kept but flagged unusable
    cfg = small_sweep_config(q_spec="const:20")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    assert all(not s.flags["k_ok"] for s in rep.samples)
    assert rep.fit is None and rep.fit_flag == "skipped"


# --------------------------------------------------------------- emit_report

def test_emit_report_files_and_structure(tmp_path, smoke_report):
    files = emit_report(smoke_report, tmp_path / "out")
    samples = files["samples"].read_text().splitlines()
    header = samples[0].split(",")
    assert header[:4] == ["amplitude", "seed", "epsilon", "bdry_gap"]
    assert "err_true_d0.125" in header and "err_recon_d0.25" in header
    assert len(samples) == 1 + len(smoke_report.samples)

    fit = json.loads(files["fit"].read_text())
    assert fit["fits"]["true"]["eta_hat"] == smoke_report.fit.eta_hat
    assert "fit" not in fit
    assert set(fit["fits"]) == {"true"}
    assert fit["fit_flags"] == {"true": "ok"}
    assert fit["n_samples"] == 6
    assert fit["diagnostics_summary"]["max_doubling"] > 0
    assert fit["config"] == {"sweep.nx": "17"}

    diag = files["diagnostics"].read_text().splitlines()
    assert diag[0].startswith("functional,")
    assert len(diag) > 1

    svg = files["scatter"].read_text()
    assert svg.count("<circle") == len(smoke_report.samples)
    assert svg.count("<polyline") == 1


def test_emit_report_empty_sample_list(tmp_path):
    rep = StabilityReport(
        samples=(), config=small_sweep_config(d_list=(0.125,), echo={}),
        fit=None, diagnostics=None,
    )
    files = emit_report(rep, tmp_path / "empty")
    assert files["samples"].read_text().count("\n") == 1
    assert files["diagnostics"].read_text().count("\n") == 1
    fit = json.loads(files["fit"].read_text())
    assert fit["fits"]["true"] is None and fit["n_samples"] == 0
    assert fit["fit_flags"] == {"true": "skipped"}
    assert fit["d_list"] == [0.125] and fit["config"] == {}
    svg = files["scatter"].read_text()
    assert "<circle" not in svg and "<polyline" not in svg
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_scatter_keeps_samples_above_the_fit_line_inside_the_plot(tmp_path):
    # the fit line (c_hat 1e-3, eta 1) runs far below both samples, so
    # the y-range must come from the sample maximum, not the line
    samples = tuple(
        SweepSample(amplitude=a, seed=0, epsilon=eps, bdry_gap=0.0,
                    err_true={0.125: err}, err_recon={}, flags={})
        for a, eps, err in ((0.1, 1e-4, 1e-2), (1.0, 1e-2, 1.0))
    )
    fit = HolderFit(c_hat=1e-3, eta_hat=1.0, residual_rms=0.0,
                    eta_ci=(1.0, 1.0), n_used=2, n_excluded=0)
    rep = StabilityReport(
        samples=samples, config=small_sweep_config(d_list=(0.125,), echo={}),
        fit=fit, diagnostics=None,
    )
    svg = emit_report(rep, tmp_path / "scatter")["scatter"].read_text()
    x, y, w, h = (float(v) for v in re.search(
        r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)"',
        svg).groups())
    circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)
    assert len(circles) == 2
    for cx, cy in circles:
        assert x <= float(cx) <= x + w
        assert y <= float(cy) <= y + h


def test_emit_report_byte_deterministic(tmp_path):
    cfg = small_sweep_config(amplitudes=(0.02, 0.1), seeds=2,
                             d_list=(0.125,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep1 = run_sweep(cfg)
        rep2 = run_sweep(cfg)
    f1 = emit_report(rep1, tmp_path / "a")
    f2 = emit_report(rep2, tmp_path / "b")
    for name in ("samples", "fit", "diagnostics", "scatter"):
        assert f1[name].read_bytes() == f2[name].read_bytes()


# ------------------------------------------------------ golden determinism
#
# The golden report is compared under the cross-machine determinism
# contract (README, "Reproducibility"), not byte for byte: BLAS builds,
# kernels and thread counts round the forward and reconstruction solves
# differently.  Structure, flags, integers and strings match exactly;
# floats agree within the tolerance of the contract that produced them.

GOLDEN = Path(__file__).parent / "golden" / "sweep"
REPORT_FILES = ("samples.csv", "fit.json", "diagnostics.csv", "scatter.svg")
# scatter.svg prints coordinates to 6 significant digits, so a solver
# rounding change can move the last printed digit (0.001 px here).
SVG_PX_TOL = 0.01


def _pinned_config():
    return SweepConfig.from_config(parse_config(GOLDEN / "pinned.cfg"))


def _close(a, b, rel, abs_):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _assert_csv_contract(produced, golden, tol_for):
    """Exact header, row order and cells; tol_for(column) returns the
    (rel, abs) tolerance of a float column, or None for an exact one."""
    got, want = _read_csv(produced), _read_csv(golden)
    name = produced.name
    assert got[0] == want[0], f"{name} header: {got[0]} vs {want[0]}"
    assert len(got) == len(want), f"{name} row count"
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row) == len(ref), f"{name} row {i} length"
        for col, a, b in zip(want[0], row, ref):
            tol = tol_for(col)
            ok = a == b if tol is None else _close(float(a), float(b), *tol)
            assert ok, f"{name} row {i} column {col}: {a} vs {b}"


def _assert_json_contract(got, want, float_tol, path=""):
    """Exact keys, types, ints, bools and strings; float_tol(path) gives
    a float's (rel, abs) tolerance."""
    where = f"fit.json {path or '<root>'}"
    assert type(got) is type(want), f"{where}: type {got!r} vs {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys"
        for k in want:
            _assert_json_contract(got[k], want[k], float_tol,
                                  f"{path}.{k}" if path else k)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_json_contract(a, b, float_tol, f"{path}[{i}]")
    elif isinstance(want, float):
        assert _close(got, want, *float_tol(path)), \
            f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


_SVG_ATTR = re.compile(r'="[^"]*"')
_SVG_NUM = re.compile(r"(?<![#\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _mask_svg(text):
    """The SVG with every number inside an attribute value replaced by
    '#', and those numbers in document order."""
    nums = []

    def mask(m):
        nums.append(float(m.group()))
        return "#"

    return _SVG_ATTR.sub(lambda a: _SVG_NUM.sub(mask, a.group()), text), nums


def assert_report_contract(report_dir, golden_dir, cfg):
    """Compare a sweep report with the golden one under the cross-machine
    determinism contract, with tolerances from the sweep's own config:
    relative solver.tol (forward residual contract) for floats derived
    from forward solves, absolute recon.tol (fixed-point update
    tolerance) for reconstruction errors."""
    solver = (cfg.solver_tol, 0.0)
    recon = (0.0, cfg.recon_tol)

    def samples_tol(col):
        if col in ("epsilon", "bdry_gap") or col.startswith("err_true_"):
            return solver
        if col.startswith("err_recon_"):
            return recon
        return None

    _assert_csv_contract(report_dir / "samples.csv",
                         golden_dir / "samples.csv", samples_tol)
    _assert_csv_contract(report_dir / "diagnostics.csv",
                         golden_dir / "diagnostics.csv",
                         lambda col: solver if col == "value" else None)

    def fit_tol(path):
        if path.startswith(("fit.", "fits.true.", "diagnostics_summary.")):
            return solver
        return (0.0, 0.0)

    got = json.loads((report_dir / "fit.json").read_text())
    want = json.loads((golden_dir / "fit.json").read_text())
    _assert_json_contract(got, want, fit_tol)

    svg, nums = _mask_svg((report_dir / "scatter.svg").read_text())
    ref, ref_nums = _mask_svg((golden_dir / "scatter.svg").read_text())
    assert svg == ref, "scatter.svg differs outside its numbers"
    for i, (a, b) in enumerate(zip(nums, ref_nums)):
        assert abs(a - b) <= SVG_PX_TOL, f"scatter.svg number {i}: {a} vs {b}"


def test_emit_report_matches_golden_files(tmp_path):
    cfg = _pinned_config()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_sweep(cfg)
    emit_report(rep, tmp_path / "golden-check")
    assert_report_contract(tmp_path / "golden-check", GOLDEN, cfg)


def _edit_csv(path, row, col, edit):
    rows = _read_csv(path)
    j = rows[0].index(col)
    rows[row][j] = edit(rows[row][j])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _drop_csv_column(path, col):
    rows = _read_csv(path)
    j = rows[0].index(col)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            r[:j] + r[j + 1:] for r in rows)


def _edit_json(path, keys, edit):
    payload = json.loads(path.read_text())
    node = payload
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = edit(node[keys[-1]])
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _move_first_circle(path, dx):
    text = path.read_text()
    m = re.search(r'<circle cx="([^"]+)"', text)
    moved = format(float(m.group(1)) + dx, ".6g")
    path.write_text(text[:m.start(1)] + moved + text[m.end(1):])


def _scale(factor):
    return lambda v: format(float(v) * factor, ".17g")


# (mutation of a golden copy, where the contract must report it)
GOLDEN_MUTATIONS = {
    "flag_flipped": (
        lambda d, cfg: _edit_csv(d / "samples.csv", 1, "h_ok",
                                 lambda v: "0" if v == "1" else "1"),
        r"samples\.csv row 1 column h_ok"),
    "fit_integer_changed": (
        lambda d, cfg: _edit_json(d / "fit.json", ("fits", "true", "n_used"),
                                  lambda v: v + 1),
        r"fit\.json fits\.true\.n_used"),
    "floor_hits_changed": (
        lambda d, cfg: _edit_csv(d / "diagnostics.csv", -1, "floor_hits",
                                 lambda v: str(int(v) + 1)),
        r"diagnostics\.csv row \d+ column floor_hits"),
    "csv_column_dropped": (
        lambda d, cfg: _drop_csv_column(d / "samples.csv", "bdry_gap"),
        r"samples\.csv header"),
    "epsilon_moved_10_tol": (
        lambda d, cfg: _edit_csv(d / "samples.csv", 2, "epsilon",
                                 _scale(1 + 10 * cfg.solver_tol)),
        r"samples\.csv row 2 column epsilon"),
    "err_recon_moved_10_tol": (
        lambda d, cfg: _edit_csv(
            d / "samples.csv", 3, "err_recon_d0.125",
            lambda v: format(float(v) + 10 * cfg.recon_tol, ".17g")),
        r"samples\.csv row 3 column err_recon_d0\.125"),
    "diagnostics_value_moved_10_tol": (
        lambda d, cfg: _edit_csv(d / "diagnostics.csv", 5, "value",
                                 _scale(1 + 10 * cfg.solver_tol)),
        r"diagnostics\.csv row 5 column value"),
    "fit_true_moved_10_tol": (
        lambda d, cfg: _edit_json(d / "fit.json", ("fits", "true", "c_hat"),
                                  lambda v: v * (1 + 10 * cfg.solver_tol)),
        r"fit\.json fits\.true\.c_hat"),
    "svg_circle_moved_0.1px": (
        lambda d, cfg: _move_first_circle(d / "scatter.svg", 0.1),
        r"scatter\.svg number \d+"),
}


@pytest.fixture
def golden_copy(tmp_path):
    out = tmp_path / "golden-copy"
    out.mkdir()
    for name in REPORT_FILES:
        shutil.copyfile(GOLDEN / name, out / name)
    return out


def test_golden_contract_accepts_unmodified_goldens(golden_copy):
    cfg = _pinned_config()
    assert_report_contract(golden_copy, GOLDEN, cfg)


@pytest.mark.parametrize("mutation", list(GOLDEN_MUTATIONS))
def test_golden_contract_rejects_mutation(golden_copy, mutation):
    mutate, where = GOLDEN_MUTATIONS[mutation]
    cfg = _pinned_config()
    mutate(golden_copy, cfg)
    with pytest.raises(AssertionError, match=where):
        assert_report_contract(golden_copy, GOLDEN, cfg)


def test_emit_report_unwritable_directory_has_path_context(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    rep = StabilityReport(
        samples=(), config=small_sweep_config(d_list=(0.1,), echo={}),
        fit=None, diagnostics=None,
    )
    with pytest.raises(OSError, match="blocked"):
        emit_report(rep, target)
