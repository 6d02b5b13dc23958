"""Comparison of a pass's outputs with the stored reference.

The rule follows the determinism contract across machines and solver
changes: structure, integers, strings and flags must match exactly;
floats must match within what the forward solver's residual contract
certifies; nothing is compared byte for byte.  Reconstruction error and
reconstruction convergence are never part of the summary (see
workloads.Outcome), because a correct solver fix must be free to change
them.

Tolerance.  A solve meets ||A u - b|| <= tol ||b||, so its relative
forward error is at most tol * cond(A) <= tol * (4 arms / h^2 + K) / gap,
with gap the smallest spectral gap of any operator in the pass.  That is
`rtol`.  Data derived from the solved fields, such as epsilon =
max |F1 - F2|, can be much smaller than the fields they are made from,
so each float also gets the absolute slack `atol = rtol * max F`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def tolerance(pairs: list, solver_tol: float) -> dict:
    """rtol and atol from the pairs one pass synthesized (PairWatch)."""
    gap = min(p["gap"] for p in pairs)
    norm = max(4.0 * p["arms"] / p["h"] ** 2 + p["k"] for p in pairs)
    rtol = max(solver_tol * norm / gap, solver_tol)
    return {"rtol": rtol, "atol": rtol * max(p["f_max"] for p in pairs)}


def compare(ref, got, rtol: float, atol: float, path: str = "") -> list:
    """Differences between a stored summary and a new one."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for key in ref:
            out += compare(ref[key], got[key], rtol, atol, f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, rtol, atol, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, float):
        if math.isnan(ref) and math.isnan(got):
            return []
        if abs(got - ref) <= rtol * max(abs(ref), abs(got)) + atol:
            return []
        return [f"{path}: {got!r} != {ref!r} (rtol {rtol:.3g}, atol {atol:.3g})"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    """The stored entry for this workload and seed, or None."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check_reference(entry, summary: dict) -> list:
    if entry is None:
        return []
    return compare(entry["summary"], summary, entry["rtol"], entry["atol"])
