import json
import math

import numpy as np
import pytest

import hybridlab.harness as harness
from hybridlab import Grid, PriorBounds, ScalarField, load_field, save_field
from hybridlab.cli import main
from hybridlab.config import parse_config
from hybridlab.forward import solve_dirichlet
from hybridlab.harness import SweepConfig, run_sweep
from hybridlab.synthesis import internal_data

SWEEP_CFG = """
sweep.nx = 17
sweep.q = const:2
sweep.g = coscos
sweep.mode = bump
sweep.amplitudes = 0.02,0.1
sweep.seeds = 1
sweep.k = 4
sweep.e = 50
sweep.h = 0.05
sweep.d = 0.125
"""


@pytest.fixture()
def q_file(tmp_path):
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    path = tmp_path / "q.field"
    save_field(ScalarField.constant(grid, 2.0), path)
    return path


def test_forward_writes_solution(tmp_path, q_file, capsys):
    out = tmp_path / "u.field"
    assert main(["forward", "--q", str(q_file), "--g", "coscos",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "forward: solved 17x17" in printed
    assert "gap_converged=True" in printed
    u = load_field(out)
    q = load_field(q_file)
    direct = solve_dirichlet(q, lambda x, y: np.cos(x) * np.cos(y))
    np.testing.assert_allclose(u.values, direct.u.values, rtol=0, atol=1e-12)


def test_forward_missing_field_file_is_io_error(tmp_path, capsys):
    code = main(["forward", "--q", str(tmp_path / "absent.field"),
                 "--g", "coscos", "--out", str(tmp_path / "u.field")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_forward_bad_boundary_spec_is_contract_error(tmp_path, q_file, capsys):
    code = main(["forward", "--q", str(q_file), "--g", "bogus:1",
                 "--out", str(tmp_path / "u.field")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_forward_near_singular_is_solver_failure(tmp_path, capsys):
    grid = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    mu = (4.0 / grid.h**2) * (1.0 - math.cos(math.pi * grid.h))
    path = tmp_path / "singular.field"
    save_field(ScalarField.constant(grid, mu), path)
    code = main(["forward", "--q", str(path), "--g", "const:1",
                 "--out", str(tmp_path / "u.field")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_forward_nan_tol_is_contract_error(tmp_path, q_file, capsys):
    code = main(["forward", "--q", str(q_file), "--g", "coscos",
                 "--out", str(tmp_path / "u.field"), "--tol", "nan"])
    assert code == 2
    assert "tol must be positive, got nan" in capsys.readouterr().err


@pytest.fixture()
def f_file(tmp_path):
    grid = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    q = ScalarField.constant(grid, 2.0)
    report = solve_dirichlet(q, lambda x, y: np.cos(x) * np.cos(y))
    path = tmp_path / "f.field"
    save_field(internal_data(q, report.u), path)
    return path


def test_reconstruct_nan_tol_is_contract_error(tmp_path, f_file, capsys):
    out = tmp_path / "recon"
    code = main(["reconstruct", "--f", str(f_file), "--g", "coscos",
                 "--out", str(out), "--tol", "nan"])
    assert code == 2
    assert "tol must be positive, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_roundtrip(tmp_path, f_file, capsys):
    out = tmp_path / "recon"
    code = main(["reconstruct", "--f", str(f_file), "--g", "coscos",
                 "--out", str(out), "--k", "4"])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    q_hat = load_field(out / "q.field")
    assert np.max(np.abs(q_hat.values - 2.0)) <= 1e-5
    manifest = json.loads((out / "result.json").read_text())
    assert manifest["converged"] is True
    assert manifest["admissible"] is True
    assert (out / "u.field").exists()


def test_synth_then_diagnose(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "pairs"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert "wrote 2 pairs" in capsys.readouterr().out
    manifest = out / "pair_a0.02_s0" / "manifest.json"
    assert manifest.exists()

    assert main(["diagnose", "--pair", str(manifest)]) == 0
    line = capsys.readouterr().out
    assert "max_doubling=" in line and "best_delta=" in line
    assert (manifest.parent / "diagnostics.csv").exists()
    summary = json.loads((manifest.parent / "diagnostics.json").read_text())
    assert set(summary) == {"max_doubling", "min_propagation", "best_delta",
                            "proof_bound_margin"}


def test_diagnose_malformed_manifest_is_contract_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    assert main(["diagnose", "--pair", str(manifest)]) == 2
    assert "error:" in capsys.readouterr().err


def test_diagnose_unparsable_manifest_names_the_file(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{not json")
    assert main(["diagnose", "--pair", str(tmp_path)]) == 2
    assert str(manifest) in capsys.readouterr().err


def test_diagnose_manifest_without_keys_names_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "pairs"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "pair_a0.02_s0" / "manifest.json"
    manifest.write_text("{}")
    capsys.readouterr()
    assert main(["diagnose", "--pair", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "'epsilon'" in err


def test_synth_manifests_match_sweep_samples(tmp_path, capsys):
    # synth and run_sweep share one cell loop: same config, same pairs
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "pairs"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    report = run_sweep(SweepConfig.from_config(parse_config(cfg)))
    assert len(report.samples) == 2
    for s in report.samples:
        tag = f"pair_a{format(s.amplitude, 'g')}_s{s.seed}"
        m = json.loads((out / tag / "manifest.json").read_text())
        assert m["epsilon"] == s.epsilon
        assert m["bdry_gap"] == s.bdry_gap
        assert set(m["flags"]) == {"k_ok", "e_ok", "h_ok", "hypothesis_ok"}
        assert m["flags"] == {k: s.flags[k] for k in m["flags"]}


def test_synth_colliding_amplitude_tags_is_contract_error(tmp_path, capsys):
    # both amplitudes print as 0.1 under format(a, "g")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG.replace("0.02,0.1", "0.1000001,0.1000002"))
    out = tmp_path / "pairs"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert "collide" in capsys.readouterr().err
    assert not out.exists()


def test_synth_near_singular_cell_is_solver_failure(tmp_path, capsys):
    # the cell that run_sweep records as failed stops synth with exit 3
    h = 1.0 / 32
    mu = (4.0 / h**2) * (1.0 - math.cos(math.pi * h))
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(
        f"sweep.nx = 33\nsweep.q = const:{mu!r}\nsweep.g = const:1\n"
        "sweep.mode = bump\nsweep.amplitudes = 1e-8\nsweep.seeds = 1\n"
        "sweep.k = 16\nsweep.e = 500\nsweep.h = 0.05\nsweep.d = 0.125\n"
    )
    out = tmp_path / "pairs"
    with pytest.warns(UserWarning):  # the coefficient leaves [1/K, K]
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not list(out.glob("*/manifest.json"))


def test_synth_requires_output_directory(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    assert main(["synth", "--config", str(cfg)]) == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, named", [
    ("sweep.d", "nan", "sweep.d"),
    ("sweep.d", "0.6", "d = 0.6"),  # beyond the unit square's inradius 0.5
    ("sweep.e", "nan", "sweep.e"),
    ("sweep.k", "nan", "sweep.k"),
    ("solver.tol", "nan", "solver.tol"),
    ("sweep.amplitudes", "nan,0.1", "sweep.amplitudes"),
])
def test_sweep_refuses_non_finite_setting_or_empty_margin(
        tmp_path, capsys, key, value, named):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + f"{key} = {value}\n")
    out = tmp_path / "report"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
@pytest.mark.parametrize("key, value", [
    ("solver.tol", "0"),      # every cell would miss its residual contract
    ("recon.tol", "0"),       # every reconstruction would end unconverged
    ("recon.max_iter", "0"),
    ("sweep.jitter", "-3"),
    ("recon.max_itr", "1"),   # a typo would run on the default
])
def test_bad_setting_is_refused_before_any_cell(tmp_path, monkeypatch, capsys,
                                                command, key, value):
    cells = []
    monkeypatch.setattr(harness, "field_from_spec",
                        lambda *args: cells.append(args))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not cells and not out.exists()


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_empty_sweep_out_needs_output_directory(tmp_path, monkeypatch, capsys,
                                                command):
    # an empty sweep.out counts as unset, not as the current directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + "sweep.out =\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"{command} needs an output directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


@pytest.mark.parametrize("text", [
    "FIELD v1 x 3 1 1\n",                    # header count is not an integer
    "FIELD v1 1 3 1 1\n" + "1\n" * 3,        # nx = 1 is not a grid
    "FIELD v1 3 1 1 0\n1\nabc\n1\n",        # value is not a number
    "FIELD v1 5 5 nan nan\n" + "1\n" * 25,  # extents are not finite
], ids=["bad-count", "nx-1", "bad-value", "nan-extent"])
def test_forward_malformed_field_file_names_path(tmp_path, capsys, text):
    bad = tmp_path / "bad.field"
    bad.write_text(text)
    code = main(["forward", "--q", str(bad), "--g", "const:1",
                 "--out", str(tmp_path / "u.field")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("extents", ["nan nan", "inf inf"])
def test_reconstruct_non_finite_extent_is_contract_error(tmp_path, capsys,
                                                         extents):
    bad = tmp_path / "f.field"
    bad.write_text(f"FIELD v1 5 5 {extents}\n" + "1\n" * 25)
    out = tmp_path / "recon"
    code = main(["reconstruct", "--f", str(bad), "--g", "coscos",
                 "--out", str(out)])
    assert code == 2
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_writes_table(tmp_path, capsys):
    out = tmp_path / "family.csv"
    code = main(["counterexample", "--r", "1.0", "--R", "2.0",
                 "--mmax", "3", "--out", str(out)])
    assert code == 0
    assert "3 members" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("m,")
    assert len(lines) == 4


def test_counterexample_bad_radii_is_contract_error(tmp_path, capsys):
    code = main(["counterexample", "--r", "2.0", "--R", "1.0",
                 "--mmax", "3", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("r, rr", [("1.0", "inf"), ("nan", "2.0")])
def test_counterexample_non_finite_radius_is_contract_error(tmp_path, capsys,
                                                            r, rr):
    # an infinite outer radius once overflowed the sample count
    code = main(["counterexample", "--r", r, "--R", rr,
                 "--mmax", "3", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "radii" in capsys.readouterr().err


def test_counterexample_unwritable_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "family.csv"
    code = main(["counterexample", "--r", "1.0", "--R", "2.0",
                 "--mmax", "3", "--out", str(out)])
    assert code == 4
    assert str(out) in capsys.readouterr().err


def test_sweep_emits_reports(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    out = tmp_path / "report"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "eta_hat=" in line
    for name in ("samples.csv", "fit.json", "diagnostics.csv", "scatter.svg"):
        assert (out / name).exists(), name
    payload = json.loads((out / "fit.json").read_text())
    assert payload["n_samples"] == 2
    assert payload["fits"]["true"]["underdetermined"] is True


def test_sweep_bad_config_key_is_contract_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("mesh.nx = 17\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_sweep_missing_config_file_is_io_error(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "r")]) == 4
