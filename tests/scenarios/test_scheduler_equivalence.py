"""Run-to-run determinism of the event scheduler on the fleet backend.

The simulator has one event queue (a binary heap); the same ScenarioSpec
run twice must serialize to byte-identical artifacts.  The fleet device
backend batches battery sweeps over numpy arrays, so it is the spec most
likely to leak an ordering dependency into the schedule.
"""

from repro import scenarios
from repro.results import dumps_artifact


def _artifact(spec):
    return dumps_artifact(scenarios.run_sweep(spec, jobs=1))


def test_fleet_backend_is_deterministic_per_scheduler():
    """Two runs of the same fleet spec are byte-identical."""
    spec = scenarios.get("fleet-idle-churn").quick()
    assert _artifact(spec) == _artifact(spec)
