"""Flat key=value configuration and field/boundary specification strings.

Config files are plain text: one `key = value` per line, `#` comments,
blank lines ignored.  Every key is namespaced (solver.*, recon.*,
sweep.*) and unknown namespaces are rejected so typos fail loud.  The
sweep settings are read in one place, harness.SweepConfig.from_config.

Field and boundary data are described by small spec strings usable both
in configs and on the command line:

    const:<v>     constant value
    coscos        cos(x) cos(y)  (cos(x) in 1D)
    expr:<text>   numpy expression in x, y with a restricted namespace
    file:<path>   a stored field (boundary specs take its trace)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ContractViolation
from .fields import Grid, ScalarField, boundary_values, load_field

__all__ = [
    "DEFAULTS",
    "parse_config",
    "get_float",
    "get_int",
    "get_float_list",
    "field_from_spec",
    "g_from_spec",
]

DEFAULTS = {
    "solver.tol": "1e-9",
    "recon.tol": "1e-8",
    "recon.max_iter": "200",
    "recon.tau": "0",
    "sweep.jitter": "0",
}

_NAMESPACES = ("solver.", "recon.", "sweep.")


def parse_config(path) -> dict:
    """Read a flat key=value file over the documented defaults."""
    cfg = dict(DEFAULTS)
    path = Path(path)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if not key.startswith(_NAMESPACES):
            raise ContractViolation(
                f"{path}:{lineno}: unknown namespace in key {key!r}"
            )
        cfg[key] = value
    return cfg


def _read(cfg: dict, key: str, parse, default=None):
    """parse(cfg[key]), or default when absent.  A missing key without a
    default, a value that does not parse or a non-finite float raises
    ContractViolation naming the key."""
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ContractViolation(f"missing config key {key!r}")
        return default
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ContractViolation(f"config key {key} = {raw!r}: {exc}") from exc
    if isinstance(value, (float, list)) and not np.all(np.isfinite(value)):
        raise ContractViolation(f"config key {key} = {raw!r} is not finite")
    return value


def get_float(cfg: dict, key: str, default: float | None = None) -> float:
    return _read(cfg, key, float, default)


def get_int(cfg: dict, key: str, default: int | None = None) -> int:
    return _read(cfg, key, int, default)


def get_float_list(cfg: dict, key: str) -> list[float]:
    return _read(cfg, key, lambda raw: [
        float(part) for part in raw.split(",") if part.strip()])


_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
    "pi": np.pi, "e": np.e, "minimum": np.minimum, "maximum": np.maximum,
    "where": np.where,
}


def _expr_callable(text: str):
    code = compile(text, "<field-spec>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in ("x", "y"):
            raise ContractViolation(
                f"expression uses unknown name {name!r}; allowed: x, y, "
                + ", ".join(sorted(_EXPR_NAMES))
            )

    def fn(x, y=None):
        ns = dict(_EXPR_NAMES)
        ns["x"] = x
        ns["y"] = 0.0 if y is None else y
        out = eval(code, {"__builtins__": {}}, ns)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy()

    return fn


def field_from_spec(grid: Grid, spec: str) -> ScalarField:
    """Build a full field on the grid from a spec string."""
    spec = spec.strip()
    if spec.startswith("const:"):
        return ScalarField.constant(grid, float(spec[6:]))
    if spec == "coscos":
        if grid.is_1d:
            return ScalarField.from_function(grid, np.cos)
        return ScalarField.from_function(grid, lambda x, y: np.cos(x) * np.cos(y))
    if spec.startswith("expr:"):
        fn = _expr_callable(spec[5:])
        if grid.is_1d:
            return ScalarField.from_function(grid, lambda x: fn(x))
        return ScalarField.from_function(grid, fn)
    if spec.startswith("file:"):
        f = load_field(spec[5:])
        if f.grid != grid:
            raise ContractViolation(
                f"field file grid {f.grid} does not match requested {grid}"
            )
        return f
    raise ContractViolation(f"unrecognized field spec {spec!r}")


def g_from_spec(grid: Grid, spec: str) -> np.ndarray:
    """Boundary-value vector, in the row-major order of the boundary mask,
    from a spec string."""
    return boundary_values(grid, field_from_spec(grid, spec))
