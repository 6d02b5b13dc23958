from pathlib import Path

import numpy as np
import pytest

from hybridlab import ContractViolation, Grid, ScalarField, boundary_values, save_field
from hybridlab.config import DEFAULTS, field_from_spec, g_from_spec, parse_config
from hybridlab.harness import SweepConfig

# the keys a sweep cannot do without
REQUIRED = {
    "sweep.nx": "17", "sweep.q": "const:2", "sweep.g": "coscos",
    "sweep.amplitudes": "0.1", "sweep.k": "4", "sweep.e": "50",
    "sweep.h": "0.1", "sweep.d": "0.25",
}


README = Path(__file__).resolve().parent.parent / "README.md"


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_defaults_present_without_file_keys(tmp_path):
    # parse_config returns the file's keys only; from_config reads them
    # over the defaults and echoes both
    assert parse_config(write_cfg(tmp_path, "\n")) == {}
    sweep = SweepConfig.from_config(REQUIRED)
    assert sweep.echo == dict(sorted({**DEFAULTS, **REQUIRED}.items()))
    assert (sweep.solver_tol, sweep.recon_tol, sweep.recon_max_iter,
            sweep.jitter) == (1e-9, 1e-8, 200, 0.0)


def test_parse_overrides_comments_and_blanks(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, """
# solver block
solver.tol = 1e-7   # inline comment

sweep.nx = 33
sweep.amplitudes = 0.1, 0.2,0.3
"""))
    assert cfg == {"solver.tol": "1e-7", "sweep.nx": "33",
                   "sweep.amplitudes": "0.1, 0.2,0.3"}
    sweep = SweepConfig.from_config({**REQUIRED, **cfg})
    assert sweep.amplitudes == (0.1, 0.2, 0.3)
    assert sweep.solver_tol == 1e-7
    # untouched defaults survive
    assert sweep.recon_max_iter == 200


def test_from_config_rejects_unknown_key():
    # a key from_config does not read is refused by name, typo or not
    for key in ("mesh.nx", "recon.max_itr", "recon.tau"):
        with pytest.raises(ContractViolation, match=f"unknown config key '{key}'"):
            SweepConfig.from_config({**REQUIRED, key: "1"})


def test_parse_rejects_missing_equals(tmp_path):
    with pytest.raises(ContractViolation):
        parse_config(write_cfg(tmp_path, "solver.tol 1e-7\n"))


def test_from_config_errors_name_the_key():
    for key, value in (("solver.tol", "abc"), ("sweep.seeds", "2.5")):
        with pytest.raises(ContractViolation, match=f"{key} = '{value}'"):
            SweepConfig.from_config({**REQUIRED, key: value})
    without_k = {k: v for k, v in REQUIRED.items() if k != "sweep.k"}
    with pytest.raises(ContractViolation, match="missing config key 'sweep.k'"):
        SweepConfig.from_config(without_k)
    assert SweepConfig.from_config(REQUIRED).seeds == 1


def test_readme_config_block_is_accepted(tmp_path):
    # the example under "Config files" names every key from_config reads
    block = README.read_text().split("### Config files", 1)[1].split("```\n")[1]
    cfg = parse_config(write_cfg(tmp_path, block))
    assert "sweep.nx" in cfg
    SweepConfig.from_config(cfg)


def test_field_spec_const_and_coscos():
    grid = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    f = field_from_spec(grid, "const:2.5")
    assert np.all(f.values == 2.5)
    xs, ys = np.meshgrid(grid.xs(), grid.ys())
    cc = field_from_spec(grid, "coscos")
    np.testing.assert_allclose(cc.values, np.cos(xs) * np.cos(ys), rtol=0, atol=0)
    line = Grid(nx=9, lx=2.0)
    c1 = field_from_spec(line, "coscos")
    np.testing.assert_allclose(c1.values[0], np.cos(line.xs()), rtol=0, atol=0)


def test_field_spec_expr_matches_direct_evaluation():
    grid = Grid(nx=7, ny=5, lx=1.2, ly=0.8)
    f = field_from_spec(grid, "expr:2 + sin(pi*x)*y")
    xs, ys = np.meshgrid(grid.xs(), grid.ys())
    np.testing.assert_allclose(f.values, 2 + np.sin(np.pi * xs) * ys,
                               rtol=1e-15, atol=0)


def test_field_spec_expr_rejects_unknown_names():
    grid = Grid(nx=5, ny=5, lx=1.0, ly=1.0)
    with pytest.raises(ContractViolation, match="unknown name"):
        field_from_spec(grid, "expr:__import__('os')")
    with pytest.raises(ContractViolation, match="unknown name"):
        field_from_spec(grid, "expr:open('x')")


def test_field_spec_file_roundtrip(tmp_path):
    grid = Grid(nx=6, ny=4, lx=1.0, ly=0.6)
    rng = np.random.default_rng(3)
    f = ScalarField(grid, rng.uniform(1.0, 2.0, grid.shape))
    path = tmp_path / "q.field"
    save_field(f, path)
    back = field_from_spec(grid, f"file:{path}")
    np.testing.assert_array_equal(back.values, f.values)
    other = Grid(nx=6, ny=5, lx=1.0, ly=0.8)
    with pytest.raises(ContractViolation, match="grid"):
        field_from_spec(other, f"file:{path}")


def test_field_spec_unrecognized():
    grid = Grid(nx=5, ny=5, lx=1.0, ly=1.0)
    with pytest.raises(ContractViolation, match="spec"):
        field_from_spec(grid, "fourier:3")


def test_g_spec_matches_boundary_values():
    grid = Grid(nx=8, ny=6, lx=1.4, ly=1.0)
    g = g_from_spec(grid, "const:2")
    np.testing.assert_array_equal(g, np.full(g.shape, 2.0))
    ge = g_from_spec(grid, "expr:x + 10*y")
    direct = boundary_values(grid, lambda x, y: x + 10 * y)
    np.testing.assert_allclose(ge, direct, rtol=1e-15, atol=0)


def test_grid_and_bounds_from_config():
    # SweepConfig.from_config is the one reader of the sweep settings
    cfg = {
        "sweep.nx": "17", "sweep.lx": "2.0",
        "sweep.q": "const:2", "sweep.g": "coscos", "sweep.amplitudes": "0.1",
        "sweep.k": "4", "sweep.e": "50", "sweep.h": "0.1",
        "sweep.d": "0.25,0.5",
    }
    sweep = SweepConfig.from_config(cfg)
    grid = sweep.grid
    assert grid.nx == 17 and grid.ny == 17 and grid.lx == 2.0 and grid.ly == 2.0
    b = sweep.bounds
    assert (b.k_bound, b.e_bound, b.h_bound, b.d_margin) == (4.0, 50.0, 0.1, 0.25)
    line_cfg = dict(cfg, **{"sweep.ny": "1"})
    assert SweepConfig.from_config(line_cfg).grid.is_1d
