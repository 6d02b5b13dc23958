"""Flat key=value configuration and field/boundary specification strings.

Config files are plain text: one `key = value` per line, `#` comments,
blank lines ignored.  parse_config only splits the lines; the keys are
namespaced (solver.*, recon.*, sweep.*) and read, defaulted from
DEFAULTS and checked in one place, harness.SweepConfig.from_config,
which refuses a key it does not know, so a typo fails loud there.

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
    "field_from_spec",
    "g_from_spec",
]

# the settings a config may leave out; SweepConfig.from_config reads
# every mapping over these
DEFAULTS = {
    "solver.tol": "1e-9",
    "recon.tol": "1e-8",
    "recon.max_iter": "200",
    "sweep.jitter": "0",
}


def parse_config(path) -> dict:
    """The key=value pairs of a flat config file, as strings."""
    cfg = {}
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
        cfg[key] = value
    return cfg


def _read(cfg: dict, key: str, parse, default=None):
    """parse(cfg.pop(key)), or default when absent.  A missing key
    without a default, a value that does not parse or a non-finite float
    (alone or in a tuple) raises ContractViolation naming the key."""
    raw = cfg.pop(key, None)
    if raw is None:
        if default is None:
            raise ContractViolation(f"missing config key {key!r}")
        return default
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ContractViolation(f"config key {key} = {raw!r}: {exc}") from exc
    if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
        raise ContractViolation(f"config key {key} = {raw!r} is not finite")
    return value


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
        # a non-finite value is refused with the spec named, not warned of
        with np.errstate(all="ignore"):
            out = eval(code, {"__builtins__": {}}, ns)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy()

    return fn


def field_from_spec(grid: Grid, spec: str) -> ScalarField:
    """Build a full field on the grid from a spec string; a malformed or
    non-finite const: or expr: spec raises ContractViolation naming it."""
    spec = spec.strip()
    kind, _, text = spec.partition(":")
    try:
        if kind == "const":
            return ScalarField.constant(grid, float(text))
        if kind == "expr":
            return ScalarField.from_function(grid, _expr_callable(text))
    except Exception as exc:  # the user's own syntax, arithmetic or values
        cause = ("" if isinstance(exc, ContractViolation)
                 else f"{type(exc).__name__}: ")
        raise ContractViolation(f"field spec {spec!r}: {cause}{exc}") from exc
    if spec == "coscos":  # cos(0) = 1 leaves cos(x) in 1D
        return ScalarField.from_function(
            grid, lambda x, y=0.0: np.cos(x) * np.cos(y))
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
