"""Grids, scalar fields, subdomain masks, quadrature and norms, and the
file writers every field and report goes through.

The computational domain is an axis-aligned rectangle [0, lx] x [0, ly]
(an interval [0, lx] in 1D) discretized by a uniform tensor grid.  All
integrals are composite trapezoid sums: each node carries the area of
its Voronoi cell clipped to the rectangle (h^2 interior, h^2/2 on an
edge, h^2/4 at a corner), and a masked integral sums the weighted values
of the selected nodes only.  Balls B_r(x) are realized as node sets by
center-of-node inclusion, which is O(h)-accurate on ball integrals and
sufficient for ratio diagnostics.  The boundary nodes are the mask
~interior_mask(grid, 0), the two endpoints in 1D, and every
boundary-value vector lists them in row-major order.

Fields are immutable after construction and every operation here is
pure, so shared read-only fields may be evaluated concurrently.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ContractViolation

__all__ = [
    "Grid",
    "ScalarField",
    "PriorBounds",
    "Norms",
    "interior_mask",
    "full_mask",
    "as_point",
    "ball_mask",
    "integrate",
    "masked_sum",
    "mask_measure",
    "norms",
    "boundary_values",
    "boundary_field",
    "energy",
    "write_text",
    "write_json",
    "write_csv",
    "save_field",
    "load_field",
]

_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [0, lx] x [0, ly]; ny = 1 signals a 1D interval.

    Spacing h = lx/(nx-1) must equal ly/(ny-1) in 2D.
    """

    nx: int
    ny: int = 1
    lx: float = 1.0
    ly: float = 0.0

    def __post_init__(self):
        if self.nx < 3:
            raise ContractViolation(f"nx must be >= 3, got {self.nx}")
        # written as `not 0 < x < inf` so that NaN is refused too
        if not 0 < self.lx < np.inf:
            raise ContractViolation(
                f"lx must be finite and positive, got {self.lx}"
            )
        if self.ny == 1:
            if self.ly != 0.0:
                raise ContractViolation("1D grids must have ly = 0")
        else:
            if self.ny < 3:
                raise ContractViolation(f"2D grids need ny >= 3, got {self.ny}")
            if not 0 < self.ly < np.inf:
                raise ContractViolation(
                    f"ly must be finite and positive, got {self.ly}"
                )
            hx = self.lx / (self.nx - 1)
            hy = self.ly / (self.ny - 1)
            if not abs(hx - hy) <= _SPACING_RTOL * hx:
                raise ContractViolation(
                    f"anisotropic spacing: hx={hx!r} vs hy={hy!r}"
                )

    @property
    def h(self) -> float:
        return self.lx / (self.nx - 1)

    @property
    def is_1d(self) -> bool:
        return self.ny == 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.lx, self.nx)

    def ys(self) -> np.ndarray:
        if self.is_1d:
            return np.zeros(1)
        return np.linspace(0.0, self.ly, self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates as (X, Y), both of shape (ny, nx), read-only."""
        return _node_coordinates(self)

    def boundary_distance(self) -> np.ndarray:
        """Distance of every node to the rectangle boundary, shape (ny, nx)."""
        x = self.xs()
        dx = np.minimum(x, self.lx - x)
        if self.is_1d:
            return dx[None, :]
        y = self.ys()
        dy = np.minimum(y, self.ly - y)
        return np.minimum(dx[None, :], dy[:, None])


@dataclass(frozen=True)
class ScalarField:
    """Nodal values of a scalar quantity on a Grid, row-major, all finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size != self.grid.n_nodes:
            raise ContractViolation(
                f"value count {vals.size} != grid nodes {self.grid.n_nodes}"
            )
        vals = vals.reshape(self.grid.shape).copy()
        if not np.all(np.isfinite(vals)):
            raise ContractViolation("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample fn(x, y) (fn(x) in 1D) at the grid nodes."""
        if grid.is_1d:
            return cls(grid, np.asarray(fn(grid.xs()), dtype=float)[None, :])
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))


@dataclass(frozen=True)
class PriorBounds:
    """A-priori constants: coefficient range K, energy E, nondegeneracy H,
    interior margin d.

    H <= E*sqrt(K) is forced: the measurement integral is at most K times
    the squared L2 mass, itself bounded by E^2.
    """

    k_bound: float
    e_bound: float
    h_bound: float
    d_margin: float

    def __post_init__(self):
        # written as `not x > 0` so that NaN is refused too
        if not self.k_bound >= 1:
            raise ContractViolation(f"K must be >= 1, got {self.k_bound}")
        if not (self.e_bound > 0 and self.h_bound > 0 and self.d_margin > 0):
            raise ContractViolation("E, H, d must all be positive")
        if self.h_bound > self.e_bound * np.sqrt(self.k_bound) * (1 + 1e-15):
            raise ContractViolation(
                f"H={self.h_bound} exceeds E*sqrt(K)={self.e_bound * np.sqrt(self.k_bound)}"
            )


@lru_cache(maxsize=64)
def _node_coordinates(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    X, Y = np.meshgrid(grid.xs(), grid.ys())
    X.setflags(write=False)
    Y.setflags(write=False)
    return X, Y


@lru_cache(maxsize=64)
def _quad_weights(grid: Grid) -> np.ndarray:
    """Trapezoid weights, shape (ny, nx); rows sum to the domain measure."""
    h = grid.h
    wx = np.full(grid.nx, h)
    wx[0] = wx[-1] = h / 2
    if grid.is_1d:
        w = wx[None, :].copy()
    else:
        wy = np.full(grid.ny, h)
        wy[0] = wy[-1] = h / 2
        w = wy[:, None] * wx[None, :]
    w.setflags(write=False)
    return w


def full_mask(grid: Grid) -> np.ndarray:
    return np.ones(grid.shape, dtype=bool)


def interior_mask(grid: Grid, d: float) -> np.ndarray:
    """Nodes at distance strictly greater than d from the boundary.

    d = 0 selects all non-boundary nodes; a d at or beyond the inradius
    yields an empty mask, which is a valid (flagged-empty) result rather
    than an error.  Like Grid.meshgrid, the mask is built once per
    (grid, d) and returned read-only; copy it before editing.
    """
    if not d >= 0:  # refuses NaN too
        raise ContractViolation(f"interior margin d must be >= 0, got {d}")
    return _interior_mask(grid, float(d))


@lru_cache(maxsize=64)
def _interior_mask(grid: Grid, d: float) -> np.ndarray:
    mask = grid.boundary_distance() > d
    mask.setflags(write=False)
    return mask


def ball_mask(grid: Grid, center, r: float) -> np.ndarray:
    """Nodes with |node - center| < r (open ball, center-of-node inclusion).

    Like interior_mask, the mask is built once per (grid, center, r) and
    returned read-only; copy it before editing.
    """
    if not r > 0:  # refuses NaN too
        raise ContractViolation(f"ball radius must be positive, got {r}")
    return _ball_mask(grid, as_point(grid, center), float(r))


@lru_cache(maxsize=64)
def _ball_mask(grid: Grid, center: tuple[float, float], r: float) -> np.ndarray:
    cx, cy = center
    X, Y = grid.meshgrid()
    mask = (X - cx) ** 2 + (Y - cy) ** 2 < r * r
    mask.setflags(write=False)
    return mask


def as_point(grid: Grid, center) -> tuple[float, float]:
    """(x, y) from a scalar or a 1- or 2-coordinate point; y = 0 in 1D."""
    if np.isscalar(center):
        return float(center), 0.0
    c = tuple(float(v) for v in center)
    if len(c) == 1:
        return c[0], 0.0
    if len(c) != 2:
        raise ContractViolation(f"point must have 1 or 2 coordinates, got {center!r}")
    if grid.is_1d and c[1] != 0.0:
        raise ContractViolation("1D grids only take y = 0 centers")
    return c


def _check_mask(grid: Grid, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        return full_mask(grid)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ContractViolation(
            f"mask shape {mask.shape} incompatible with grid {grid.shape}"
        )
    return mask


def integrate(f: ScalarField, mask: np.ndarray | None = None) -> float:
    """Composite trapezoid integral of f over the masked node set.

    Exact for affine integrands on the full rectangle; O(h^2) consistent
    on smooth integrands.
    """
    mask = _check_mask(f.grid, mask)
    return masked_sum(f.grid, mask, f.values[mask])


def masked_sum(grid: Grid, mask: np.ndarray, values: np.ndarray) -> float:
    """The trapezoid sum of integrate over the nodes of mask, taking the
    values at those nodes alone (v[mask] for a full-grid v): the same
    products in the same order, without building a field."""
    return float(np.sum(_quad_weights(grid)[mask] * values))


def mask_measure(grid: Grid, mask: np.ndarray | None = None) -> float:
    """Quadrature measure carried by a node mask."""
    mask = _check_mask(grid, mask)
    return float(np.sum(_quad_weights(grid)[mask]))


@dataclass(frozen=True)
class Norms:
    l1: float
    l2: float
    linf: float
    empty: bool = False


def norms(f: ScalarField, mask: np.ndarray | None = None) -> Norms:
    """L1, L2 (quadrature) and sup (nodal max) norms over a masked region.

    An empty mask yields all-zero norms with the empty flag set.
    """
    mask = _check_mask(f.grid, mask)
    if not mask.any():
        return Norms(0.0, 0.0, 0.0, empty=True)
    w = _quad_weights(f.grid)
    vals = f.values[mask]
    wm = w[mask]
    l1 = float(np.sum(wm * np.abs(vals)))
    l2 = float(np.sqrt(np.sum(wm * vals**2)))
    linf = float(np.max(np.abs(vals)))
    return Norms(l1, l2, linf)


def boundary_values(grid: Grid, g) -> np.ndarray:
    """Build a boundary-value vector: g at the nodes of the mask
    ~interior_mask(grid, 0), in row-major order.

    g may be a scalar, a callable g(x, y) (g(x) in 1D), an array already
    in that order, or a ScalarField whose trace is taken.
    """
    mask = ~interior_mask(grid, 0.0)
    if isinstance(g, ScalarField):
        if g.grid != grid:
            raise ContractViolation("boundary source field lives on another grid")
        return g.values[mask]
    if callable(g):
        j, i = np.nonzero(mask)
        if grid.is_1d:
            return np.asarray(g(i * grid.h), dtype=float)
        return np.asarray(g(i * grid.h, j * grid.h), dtype=float)
    n = int(np.count_nonzero(mask))
    if np.isscalar(g):
        return np.full(n, float(g))
    arr = np.asarray(g, dtype=float)
    if arr.shape != (n,):
        raise ContractViolation(
            f"boundary vector has {arr.size} entries, expected {n}"
        )
    return arr.copy()


def boundary_field(grid: Grid, g) -> np.ndarray:
    """Full-grid array holding g on the boundary and zeros inside."""
    out = np.zeros(grid.shape)
    out[~interior_mask(grid, 0.0)] = boundary_values(grid, g)
    return out


def energy(u: ScalarField) -> float:
    """Integral of u^2 + |grad u|^2 over the whole domain.

    Gradients are central differences, second-order one-sided at the
    boundary; used to validate the global energy bound E.
    """
    h = u.grid.h
    if u.grid.is_1d:
        gx = np.gradient(u.values[0], h)
        dens = u.values[0] ** 2 + gx**2
        return integrate(ScalarField(u.grid, dens[None, :]))
    gy, gx = np.gradient(u.values, h)
    dens = u.values**2 + gx**2 + gy**2
    return integrate(ScalarField(u.grid, dens))


# ---------------------------------------------------------------------------
# report and field-file I/O: every file the package writes goes through
# _write, so an OSError always names the path.  Report floats are written
# with 17 significant digits (exact float64 round trip), field values as
# their float64 bytes.


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _write(path, data: bytes) -> Path:
    path = Path(path)
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc
    return path


def write_text(path, text: str) -> Path:
    """Write text as UTF-8, no newline translation; returns the path."""
    return _write(path, text.encode())


def write_json(path, payload) -> Path:
    """Indented, key-sorted JSON with a trailing newline."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    return write_text(path, text + "\n")


def write_csv(path, header, rows) -> Path:
    """Header plus rows, "\n" line ends; float cells print with 17
    significant digits, every other cell with str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row]
        for row in rows
    )
    return write_text(path, buf.getvalue())


# field file format: the line "FIELD v2 nx ny lx ly", then nx*ny
# little-endian float64 values, row-major, and nothing after them.
_FIELD_DTYPE = "<f8"
_V1_HINT = ("FIELD v1 text files are no longer read; convert one: header "
            "with v1 -> v2, then np.loadtxt(path, skiprows=1).astype('<f8')"
            ".tobytes() (README, Field files)")


def save_field(f: ScalarField, path) -> None:
    g = f.grid
    header = f"FIELD v2 {g.nx} {g.ny} {_fmt(g.lx)} {_fmt(g.ly)}\n"
    _write(path, header.encode()
           + np.ascontiguousarray(f.values, _FIELD_DTYPE).tobytes())


def load_field(path) -> ScalarField:
    """Read a field file; a malformed one raises ContractViolation naming it."""
    line, _, body = Path(path).read_bytes().partition(b"\n")
    header = line.split()
    try:
        if header[:2] == [b"FIELD", b"v1"]:
            raise ContractViolation(_V1_HINT)
        if len(header) != 6 or header[:2] != [b"FIELD", b"v2"]:
            raise ContractViolation("not a FIELD v2 file")
        nx, ny = int(header[2]), int(header[3])
        grid = Grid(nx=nx, ny=ny, lx=float(header[4]), ly=float(header[5]))
        size = np.dtype(_FIELD_DTYPE).itemsize * grid.n_nodes
        if len(body) != size:
            raise ContractViolation(f"{len(body)} bytes of values for a "
                                    f"{nx}x{ny} grid, expected {size}")
        return ScalarField(grid, np.frombuffer(body, _FIELD_DTYPE))
    except ValueError as exc:  # ContractViolation included
        raise ContractViolation(f"{path}: {exc}") from None
