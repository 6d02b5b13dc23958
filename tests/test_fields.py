"""Grid, mask, quadrature, norm and file-format unit tests."""

import re
from pathlib import Path

import numpy as np
import pytest

import hybridlab
from hybridlab import (
    ContractViolation,
    Grid,
    PriorBounds,
    ScalarField,
    ball_mask,
    boundary_values,
    energy,
    integrate,
    interior_mask,
    load_field,
    norms,
    save_field,
)
from hybridlab.fields import boundary_field, full_mask, mask_measure


# --- grid construction ------------------------------------------------------

def test_grid_spacing_and_flags():
    g = Grid(nx=11, ny=11, lx=1.0, ly=1.0)
    assert g.h == pytest.approx(0.1)
    assert not g.is_1d
    assert g.shape == (11, 11)
    assert g.n_nodes == 121

    g1 = Grid(nx=5, lx=2.0)
    assert g1.is_1d
    assert g1.h == pytest.approx(0.5)
    assert g1.shape == (1, 5)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ContractViolation):
        Grid(nx=2)
    with pytest.raises(ContractViolation):
        Grid(nx=5, ny=2, lx=1.0, ly=1.0)
    with pytest.raises(ContractViolation):
        Grid(nx=5, ny=5, lx=1.0, ly=2.0)  # anisotropic spacing
    with pytest.raises(ContractViolation):
        Grid(nx=5, ny=1, lx=1.0, ly=1.0)  # 1D must have ly = 0
    with pytest.raises(ContractViolation):
        Grid(nx=5, lx=-1.0)


@pytest.mark.parametrize("lx, ny, ly", [
    (np.nan, 1, 0.0), (np.inf, 1, 0.0), (np.nan, 5, np.nan),
    (np.inf, 5, np.inf), (1.0, 5, np.nan), (1.0, 5, np.inf), (1.0, 5, -1.0),
])
def test_grid_rejects_non_finite_extents(lx, ny, ly):
    # the anisotropy test alone is False for NaN and for inf - inf
    with pytest.raises(ContractViolation):
        Grid(nx=5, ny=ny, lx=lx, ly=ly)


def test_meshgrid_is_cached_and_read_only():
    g = Grid(nx=5, ny=3, lx=2.0, ly=1.0)
    X, Y = g.meshgrid()
    assert g.meshgrid()[0] is X
    np.testing.assert_array_equal(X, np.meshgrid(g.xs(), g.ys())[0])
    np.testing.assert_array_equal(Y, np.meshgrid(g.xs(), g.ys())[1])
    with pytest.raises(ValueError):
        Y[0, 0] = 1.0


def test_rectangular_grid_allows_matched_spacing():
    g = Grid(nx=21, ny=11, lx=2.0, ly=1.0)
    assert g.h == pytest.approx(0.1)


def test_prior_bounds_validation():
    PriorBounds(k_bound=4.0, e_bound=10.0, h_bound=1.0, d_margin=0.1)
    with pytest.raises(ContractViolation):
        PriorBounds(k_bound=0.5, e_bound=10.0, h_bound=1.0, d_margin=0.1)
    with pytest.raises(ContractViolation):
        PriorBounds(k_bound=4.0, e_bound=1.0, h_bound=3.0, d_margin=0.1)  # H > E sqrt(K)
    with pytest.raises(ContractViolation):
        PriorBounds(k_bound=4.0, e_bound=1.0, h_bound=1.0, d_margin=0.0)


@pytest.mark.parametrize("field", ["k_bound", "e_bound", "h_bound", "d_margin"])
def test_prior_bounds_refuse_nan(field):
    good = dict(k_bound=4.0, e_bound=10.0, h_bound=1.0, d_margin=0.1)
    with pytest.raises(ContractViolation):
        PriorBounds(**dict(good, **{field: float("nan")}))


# --- scalar fields ----------------------------------------------------------

def test_field_shape_and_immutability():
    g = Grid(nx=4, ny=4, lx=1.0, ly=1.0)
    f = ScalarField(g, np.arange(16.0))
    assert f.values.shape == (4, 4)
    with pytest.raises(ValueError):
        f.values[0, 0] = 99.0


def test_field_rejects_nonfinite_and_misshapen():
    g = Grid(nx=3, lx=1.0)
    with pytest.raises(ContractViolation):
        ScalarField(g, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ContractViolation):
        ScalarField(g, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ContractViolation):
        ScalarField(g, np.zeros(5))


def test_from_function_matches_manual_sampling():
    g = Grid(nx=6, ny=6, lx=1.0, ly=1.0)
    f = ScalarField.from_function(g, lambda x, y: x + 10 * y)
    assert f.values[0, 3] == pytest.approx(3 * g.h)
    assert f.values[2, 0] == pytest.approx(20 * g.h)

    g1 = Grid(nx=5, lx=1.0)
    f1 = ScalarField.from_function(g1, np.sin)
    assert f1.values[0, 2] == pytest.approx(np.sin(0.5))


# --- quadrature -------------------------------------------------------------

def test_integral_exact_on_affine():
    g = Grid(nx=7, ny=7, lx=1.0, ly=1.0)
    assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-14)
    f = ScalarField.from_function(g, lambda x, y: x)
    assert integrate(f) == pytest.approx(0.5, abs=1e-14)
    f = ScalarField.from_function(g, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
    assert integrate(f) == pytest.approx(2.0 * 0.5 - 3.0 * 0.5 + 1.0, abs=1e-13)


def test_integral_linearity_is_exact():
    g = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    rng = np.random.default_rng(7)
    a = ScalarField(g, rng.normal(size=g.shape))
    b = ScalarField(g, rng.normal(size=g.shape))
    lhs = integrate(ScalarField(g, 2.0 * a.values + 3.0 * b.values))
    rhs = 2.0 * integrate(a) + 3.0 * integrate(b)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_integral_second_order_convergence():
    # int_0^1 int_0^1 cos(x)^2 cos(y)^2 = (1/2 + sin(2)/4)^2
    exact = (0.5 + np.sin(2.0) / 4.0) ** 2
    errs = []
    for nx in (11, 21, 41):
        g = Grid(nx=nx, ny=nx, lx=1.0, ly=1.0)
        f = ScalarField.from_function(g, lambda x, y: np.cos(x) ** 2 * np.cos(y) ** 2)
        errs.append(abs(integrate(f) - exact))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert rate[0] == pytest.approx(2.0, abs=0.1)
    assert rate[1] == pytest.approx(2.0, abs=0.1)


def test_integral_1d_closed_form():
    # int_0^1 cos(x)^2 = 1/2 + sin(2)/4
    g = Grid(nx=2001, lx=1.0)
    f = ScalarField.from_function(g, lambda x: np.cos(x) ** 2)
    assert integrate(f) == pytest.approx(0.5 + np.sin(2.0) / 4.0, abs=1e-6)


def test_mask_measure_splits_domain():
    g = Grid(nx=11, ny=11, lx=1.0, ly=1.0)
    m = interior_mask(g, 0.0)
    assert mask_measure(g, m) + mask_measure(g, ~m) == pytest.approx(1.0, abs=1e-14)


# --- masks ------------------------------------------------------------------

def test_interior_mask_examples_5x5():
    g = Grid(nx=5, ny=5, lx=1.0, ly=1.0)  # h = 0.25
    assert interior_mask(g, 0.0).sum() == 9   # all non-boundary nodes
    assert interior_mask(g, 0.3).sum() == 1   # only the center node
    m = interior_mask(g, 0.6)                 # beyond the inradius: empty
    assert m.sum() == 0
    assert norms(ScalarField.constant(g, 1.0), m).empty


def test_interior_mask_monotone_in_d():
    g = Grid(nx=17, ny=17, lx=1.0, ly=1.0)
    prev = interior_mask(g, 0.0)
    for d in (0.1, 0.2, 0.3, 0.45):
        cur = interior_mask(g, d)
        assert np.all(cur <= prev)
        prev = cur
    with pytest.raises(ContractViolation):
        interior_mask(g, -0.1)


def test_interior_mask_refuses_nan_margin():
    g = Grid(nx=5, ny=5, lx=1.0, ly=1.0)
    with pytest.raises(ContractViolation, match="nan"):
        interior_mask(g, float("nan"))


def test_interior_mask_is_shared_and_read_only():
    # built once per (grid, d) like Grid.meshgrid, so no caller may edit it
    g = Grid(nx=9, ny=9, lx=1.0, ly=1.0)
    m = interior_mask(g, 0.125)
    assert interior_mask(Grid(nx=9, ny=9, lx=1.0, ly=1.0), 0.125) is m
    assert interior_mask(g, 0) is interior_mask(g, 0.0)
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[4, 4] = False
    np.testing.assert_array_equal(m, g.boundary_distance() > 0.125)


def test_ball_mask_open_and_centered():
    g = Grid(nx=5, ny=5, lx=1.0, ly=1.0)
    m = ball_mask(g, (0.5, 0.5), 0.25)  # strict: only the center node
    assert m.sum() == 1
    m = ball_mask(g, (0.5, 0.5), 0.26)  # now the 4 axis neighbors join
    assert m.sum() == 5
    with pytest.raises(ContractViolation):
        ball_mask(g, (0.5, 0.5), 0.0)


def test_ball_mask_1d():
    g = Grid(nx=11, lx=1.0)
    m = ball_mask(g, 0.5, 0.15)
    assert m.sum() == 3  # nodes 0.4, 0.5, 0.6


# --- norms ------------------------------------------------------------------

def test_norms_of_sine():
    g = Grid(nx=4001, lx=1.0)
    f = ScalarField.from_function(g, lambda x: np.sin(np.pi * x))
    n = norms(f)
    assert n.l1 == pytest.approx(2.0 / np.pi, abs=1e-6)
    assert n.l2 == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert n.linf == pytest.approx(1.0, abs=1e-6)
    assert not n.empty


def test_norms_masked_region():
    g = Grid(nx=101, ny=101, lx=1.0, ly=1.0)
    f = ScalarField.from_function(g, lambda x, y: np.ones_like(x))
    m = interior_mask(g, 0.25)
    n = norms(f, m)
    # the strict interior at margin 0.25 on h = 0.01 is (0.26..0.74)^2 by node count
    assert n.l1 == pytest.approx(mask_measure(g, m), abs=1e-12)
    assert n.linf == 1.0


def test_norms_order_l1_l2_linf():
    g = Grid(nx=33, ny=33, lx=1.0, ly=1.0)
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.normal(size=g.shape))
    n = norms(f)
    # on a unit-measure domain the quadrature norms are monotone in p
    assert n.l1 <= n.l2 * 1.0000001
    assert n.l2 <= n.linf * 1.0000001


# --- boundary ---------------------------------------------------------------

def test_boundary_nodes_count_and_order():
    # boundary vectors list the nodes of ~interior_mask(grid, 0) in
    # row-major order: the first is the origin, the last the far corner
    g = Grid(nx=5, ny=4, lx=1.0, ly=0.75)
    X, Y = g.meshgrid()
    xs = boundary_values(g, ScalarField(g, X))
    ys = boundary_values(g, ScalarField(g, Y))
    assert len(xs) == len(ys) == 2 * 5 + 2 * 4 - 4
    assert (xs[0], ys[0]) == (0.0, 0.0)
    assert (xs[-1], ys[-1]) == (1.0, 0.75)

    g1 = Grid(nx=7, lx=1.0)
    X1, Y1 = g1.meshgrid()
    assert boundary_values(g1, ScalarField(g1, X1)).tolist() == [0.0, 1.0]
    assert boundary_values(g1, ScalarField(g1, Y1)).tolist() == [0.0, 0.0]


def test_boundary_trace_min_of_coscos():
    g = Grid(nx=41, ny=41, lx=1.0, ly=1.0)
    f = ScalarField.from_function(g, lambda x, y: np.cos(x) * np.cos(y))
    vals = boundary_values(g, f)
    # minimum over the boundary sits at the far corner: cos(1)^2
    assert vals.min() == pytest.approx(np.cos(1.0) ** 2, abs=1e-12)
    assert vals.max() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("grid", [
    Grid(nx=9, ny=9, lx=1.0, ly=1.0),
    Grid(nx=9, ny=5, lx=1.0, ly=0.5),
    Grid(nx=9, lx=1.0),
], ids=["square", "rectangle", "1d"])
def test_boundary_field_round_trip(grid):
    # scattering the boundary vector back gives f on the boundary, 0 inside
    rng = np.random.default_rng(5)
    f = ScalarField(grid, rng.uniform(1.0, 2.0, size=grid.shape))
    full = boundary_field(grid, boundary_values(grid, f))
    inner = interior_mask(grid, 0.0)
    np.testing.assert_array_equal(full[~inner], f.values[~inner])
    np.testing.assert_array_equal(full[inner], 0.0)


def test_boundary_values_forms_agree():
    g = Grid(nx=6, ny=6, lx=1.0, ly=1.0)
    fn = lambda x, y: x + 2 * y
    from_fn = boundary_values(g, fn)
    field = ScalarField.from_function(g, fn)
    from_field = boundary_values(g, field)
    np.testing.assert_allclose(from_fn, from_field, atol=1e-14)
    from_vec = boundary_values(g, from_fn)
    np.testing.assert_array_equal(from_vec, from_fn)
    np.testing.assert_array_equal(
        boundary_values(g, 3.0), np.full(len(from_fn), 3.0)
    )
    with pytest.raises(ContractViolation):
        boundary_values(g, np.zeros(7))


# --- energy -----------------------------------------------------------------

def test_energy_of_linear_function():
    # u = x on (0,1): int u^2 + (u')^2 = 1/3 + 1 = 4/3
    g = Grid(nx=501, lx=1.0)
    f = ScalarField.from_function(g, lambda x: x)
    assert energy(f) == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_energy_of_coscos():
    # u = cos(x)cos(y): u^2 + |grad u|^2 integrates to a product closed form
    a = 0.5 + np.sin(2.0) / 4.0   # int cos^2 on (0,1)
    b = 0.5 - np.sin(2.0) / 4.0   # int sin^2 on (0,1)
    exact = a * a + 2 * a * b
    g = Grid(nx=201, ny=201, lx=1.0, ly=1.0)
    f = ScalarField.from_function(g, lambda x, y: np.cos(x) * np.cos(y))
    assert energy(f) == pytest.approx(exact, abs=2e-4)


# --- files ------------------------------------------------------------------

def test_field_round_trip_bit_exact(tmp_path):
    g = Grid(nx=7, ny=5, lx=1.5, ly=1.0)
    rng = np.random.default_rng(11)
    f = ScalarField(g, rng.normal(size=g.shape))
    p = tmp_path / "f.field"
    save_field(f, p)
    f2 = load_field(p)
    assert f2.grid == g
    np.testing.assert_array_equal(f2.values, f.values)


def _v2(header: str, values, tail: bytes = b"") -> bytes:
    """A hand-written field file: header line, float64 values, tail."""
    return header.encode() + np.asarray(values, "<f8").tobytes() + tail


def test_field_file_header_and_determinism(tmp_path):
    g = Grid(nx=3, lx=2.0)
    f = ScalarField(g, np.array([1.0, -0.5, 1e-17]))
    p1, p2 = tmp_path / "a.field", tmp_path / "b.field"
    save_field(f, p1)
    save_field(f, p2)
    assert p1.read_bytes() == p2.read_bytes()
    first = p1.read_bytes().split(b"\n", 1)[0]
    assert first == b"FIELD v2 3 1 2 0"


def test_field_file_bytes_match_the_per_value_writer(tmp_path):
    # the body is each value's own little-endian float64 bytes, awkward
    # values included (a ScalarField refuses nan and inf, so a stand-in
    # carries them): -0.0 keeps its sign, a subnormal its bits
    import struct
    from types import SimpleNamespace

    values = np.array([-0.0, 0.0, 1e-300, 5e-324, -1.7976931348623157e308,
                       0.1, -1.0 / 3.0, 1e16, 2.5, np.nan, np.inf, -np.inf])
    g = Grid(nx=4, ny=3, lx=1.5, ly=1.0)
    p = tmp_path / "awkward.field"
    save_field(SimpleNamespace(grid=g, values=values.reshape(g.shape)), p)
    body = b"".join(struct.pack("<d", v) for v in values)
    assert p.read_bytes() == b"FIELD v2 4 3 1.5 1\n" + body


def test_load_field_rejects_malformed(tmp_path):
    # each file is a well-formed v2 file but for the one fault named
    p = tmp_path / "bad.field"
    cases = [
        (_v2("NOTAFIELD v2 3 1 1.0 0.0\n", [1, 2, 3]), "not a FIELD v2 file"),
        (_v2("FIELD v2 3 1 1.0 0.0\n", [1, 2]),
         "16 bytes of values for a 3x1 grid, expected 24"),
        (_v2("FIELD v2 3 1 1.0 0.0\n", [1, 2, 3], b"\n"),
         "25 bytes of values for a 3x1 grid, expected 24"),
        (_v2("FIELD v2 3 1 1.0 0.0\n", [1, np.inf, 3]),
         "field values must be finite"),
    ]
    for data, reason in cases:
        p.write_bytes(data)
        with pytest.raises(ContractViolation, match=re.escape(reason)):
            load_field(p)
    p.write_bytes(_v2("FIELD v2 3 1 1.0 0.0\n", [1, 2, 3]))
    assert load_field(p).values.tolist() == [[1.0, 2.0, 3.0]]


def test_load_field_refuses_v1_naming_the_file_and_the_conversion(tmp_path):
    p = tmp_path / "old.field"
    p.write_text("FIELD v1 3 1 1 0\n1\n2\n3\n")
    with pytest.raises(ContractViolation) as info:
        load_field(p)
    message = str(info.value)
    assert message.startswith(f"{p}: FIELD v1 text files are no longer read")
    assert "np.loadtxt(path, skiprows=1).astype('<f8').tobytes()" in message


def test_readme_converter_turns_v1_into_the_v2_file(tmp_path):
    # the one-line converter in the README's "Field files" section
    import shlex
    import subprocess
    import sys

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Field files", 1)[1]
    line = re.search(r"^python3 -c .* old\.field new\.field$", section, re.M)
    _, flag, code, *_ = shlex.split(line.group(0))
    values = [1.0, -0.5, 1e-17, 5e-324, -0.0, 0.1, 1e300, -1.0 / 3.0, 2.5]
    old, new = tmp_path / "old.field", tmp_path / "new.field"
    old.write_text("FIELD v1 3 3 2 2\n"
                   + "".join(format(v, ".17g") + "\n" for v in values))
    subprocess.run([sys.executable, flag, code, str(old), str(new)],
                   check=True, timeout=60)
    expected = tmp_path / "expected.field"
    save_field(ScalarField(Grid(nx=3, ny=3, lx=2.0, ly=2.0), values), expected)
    assert new.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("extents", ["nan nan", "inf inf", "1 nan", "inf 1"])
def test_load_field_rejects_non_finite_extents(tmp_path, extents):
    p = tmp_path / "bad.field"
    p.write_bytes(_v2(f"FIELD v2 5 5 {extents}\n", np.ones(25)))
    with pytest.raises(ContractViolation,
                       match=re.escape(str(p)) + ".*must be finite"):
        load_field(p)


def test_report_writers_live_only_in_fields():
    # every JSON/CSV report and every 17-digit float goes through fields.py
    src = Path(hybridlab.__file__).parent
    for pattern in (r"json\.dump", r"csv\.writer", r"\.17g"):
        hits = [
            f"{path.name}:{n}"
            for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)
        ]
        assert len(hits) == 1 and hits[0].startswith("fields.py:"), (
            pattern, hits)


def test_boundary_distance_lives_only_in_fields():
    # ~interior_mask(grid, 0) is the one definition of the boundary nodes
    src = Path(hybridlab.__file__).parent
    hits = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "boundary_distance(" in line and path.name != "fields.py"
    ]
    assert hits == []


def test_full_mask_covers_grid():
    g = Grid(nx=4, ny=5, lx=0.75, ly=1.0)
    assert full_mask(g).sum() == 20
