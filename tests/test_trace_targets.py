"""The benchmark's tracer wraps hybridlab names by import path
(perfbench/spans.py TARGETS) and reports a missing one only as "absent"
in a traced run.  This checks that every traced name still resolves, so
a refactor that moves one fails here instead of silently dropping its
span from the per-layer metrics."""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# names the CLI no longer imports since synth draws its cells from
# harness.sweep_pairs; dropping them is a change to the benchmark
KNOWN_ABSENT = {"hybridlab.cli:make_pair", "hybridlab.cli:perturb_coefficient"}


def _load_spans():
    """Execute spans.py from its source text: nothing is written next
    to it and no package import of perfbench is needed."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    targets = [target for target, _, _ in spans.TARGETS]
    assert targets
    absent = set()
    for target in targets:
        try:
            spans.resolve(target)
        except (ImportError, AttributeError):
            absent.add(target)
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
