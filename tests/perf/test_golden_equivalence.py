"""Determinism-equivalence guard for the hot-path overhaul.

Runs the quick variants of two named scenarios end to end and asserts
the canonical JSON artifact hashes match goldens committed *before* the
optimization work (measured with the deterministic voting tie-break in
place).  Any optimization that perturbs RNG draw order, event ordering,
or detector results — however subtly — flips these hashes.

Regenerate golden_hashes.json (only after an *intentional* semantic
change, never to paper over a perf regression) by computing
``_artifact_sha256(name)`` for each guarded scenario on the commit that
defines the new expected behavior.  golden_row_hashes.json pins
scenarios whose envelope may change (a spec key dropped) but whose
result rows must not: one sha256 per row, keyed ``app/scheme/seed=N``.
"""

import hashlib
import json
import os

import pytest

from repro import scenarios
from repro.results import dumps_artifact

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_hashes.json")
ROW_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_row_hashes.json")

#: Scenarios covered by the guard: the paper's headline sweep, a
#: failure-heavy one (recovery, replay, and broadcast paths all firing),
#: and the state-heavy EdgeML workload (multi-MB copy-on-write
#: snapshots moving through checkpoint + restore).  The device-store
#: scenarios pin the battery loop, captured when it still ran on
#: per-phone objects: the critical ladder (battery-cliff), per-region
#: CPU speed and charge (heterogeneous-fleet), a handoff carrying the
#: phone's charge (handoff-storm), and joins growing a region's
#: membership mid-run (rush-hour-churn).
GUARDED = ("paper-fig8", "failure-cascade", "edgeml-baseline",
           "battery-cliff", "heterogeneous-fleet", "handoff-storm",
           "rush-hour-churn")
#: Row-level guard: 1500 phones crossing the chronic threshold in one
#: sweep.
ROW_GUARDED = ("fleet-battery-wave",)


def _quick_sweep(name: str) -> dict:
    return scenarios.run_sweep(scenarios.get(name).quick(), jobs=1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _artifact_sha256(name: str) -> str:
    return _sha256(dumps_artifact(_quick_sweep(name)) + "\n")


def _row_sha256s(name: str) -> dict:
    return {
        f"{row['app']}/{row['scheme']}/seed={row['seed']}":
            _sha256(json.dumps(row, sort_keys=True, separators=(",", ":")))
        for row in _quick_sweep(name)["cases"]
    }


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return _load(GOLDEN_PATH)


@pytest.mark.parametrize("name", GUARDED)
def test_quick_artifact_matches_pre_optimization_golden(name, golden):
    assert name in golden, f"no golden hash committed for {name}"
    assert _artifact_sha256(name) == golden[name], (
        f"{name}: quick-sweep artifact diverged from the pre-optimization "
        "golden — an optimization changed simulation results"
    )


@pytest.mark.parametrize("name", ROW_GUARDED)
def test_quick_rows_match_golden(name):
    golden_rows = _load(ROW_GOLDEN_PATH)
    assert name in golden_rows, f"no golden row hashes committed for {name}"
    assert _row_sha256s(name) == golden_rows[name], (
        f"{name}: a quick-sweep result row diverged from its golden"
    )
