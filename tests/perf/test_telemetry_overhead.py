"""The telemetry overhead gate: enabling the QoS monitor must cost at
most a few percent of a full-length scenario run, and a disabled run
must not touch any telemetry machinery at all."""

import dataclasses
import gc
import time

import pytest

from repro.scenarios import TelemetrySpec, get
from repro.scenarios.runner import build_system, run_case

#: Allowed enabled-run slowdown.  Measured steady-state overhead is ~0%
#: (the monitor is a few dict increments per tuple plus ~30 samples);
#: the margin absorbs shared-CI scheduler noise on top.
OVERHEAD_BOUND = 0.05
#: Noisy-box insurance: the gate passes if *any* attempt fits the
#: bound.  A real per-tuple regression shifts every attempt, so retries
#: do not mask one; they only strip one-off scheduler spikes.
ATTEMPTS = 4


def _measure_overhead() -> float:
    """min-of-3 interleaved walls, telemetry off vs on (~30 samples)."""
    spec = get("flash-crowd")
    spec_on = dataclasses.replace(
        spec, telemetry=TelemetrySpec(interval_s=spec.duration_s / 30.0))

    def one(s) -> float:
        # A collection landing inside one arm but not the other swamps
        # the few-percent signal; measure with the collector parked.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            run_case(s, "bcp", "ms-8", 3)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    offs, ons = [], []
    for _ in range(3):
        offs.append(one(spec))
        ons.append(one(spec_on))
    return min(ons) / min(offs) - 1.0


def test_enabled_overhead_within_bound():
    run_case(get("flash-crowd").quick(), "bcp", "ms-8", 3)  # warm-up
    fractions = []
    for _ in range(ATTEMPTS):
        frac = _measure_overhead()
        fractions.append(frac)
        if frac <= OVERHEAD_BOUND:
            return
    pytest.fail(
        f"telemetry overhead exceeded {OVERHEAD_BOUND:.0%} in all "
        f"{ATTEMPTS} attempts: {[f'{f:.1%}' for f in fractions]}"
    )


def test_disabled_run_touches_no_telemetry_machinery():
    """The ~0%-disabled half of the gate, checked structurally instead
    of with wall clocks: a plain case must leave every telemetry hook
    unarmed (so the hot paths pay one is-None/empty-list check only)."""
    spec = get("flash-crowd").quick()
    system = build_system(spec, "bcp", "ms-8", 3)
    assert all(r.telemetry is None for r in system.regions)
    assert system.trace._observers == []
    result = run_case(spec, "bcp", "ms-8", 3)
    assert result.timeline is None
