"""Determinism-equivalence guard for the hot-path overhaul.

Runs the quick variants of two named scenarios end to end and asserts
the canonical JSON artifact hashes match goldens committed *before* the
optimization work (measured with the deterministic voting tie-break in
place).  Any optimization that perturbs RNG draw order, event ordering,
or detector results — however subtly — flips these hashes.

Regenerate golden_hashes.json (only after an *intentional* semantic
change, never to paper over a perf regression) by computing
``_artifact_sha256(name)`` for each guarded scenario on the commit that
defines the new expected behavior.
"""

import hashlib
import json
import os

import pytest

from repro import scenarios
from repro.results import dumps_artifact

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_hashes.json")

#: Scenarios covered by the guard: the paper's headline sweep, a
#: failure-heavy one (recovery, replay, and broadcast paths all firing),
#: and the state-heavy EdgeML workload (multi-MB copy-on-write
#: snapshots moving through checkpoint + restore).
GUARDED = ("paper-fig8", "failure-cascade", "edgeml-baseline")


def _artifact_sha256(name: str) -> str:
    spec = scenarios.get(name).quick()
    result = scenarios.run_sweep(spec, jobs=1)
    payload = dumps_artifact(result) + "\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", GUARDED)
def test_quick_artifact_matches_pre_optimization_golden(name, golden):
    assert name in golden, f"no golden hash committed for {name}"
    assert _artifact_sha256(name) == golden[name], (
        f"{name}: quick-sweep artifact diverged from the pre-optimization "
        "golden — an optimization changed simulation results"
    )
