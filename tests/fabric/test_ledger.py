"""CaseLedger unit tests — explicit clocks, no sockets, no threads."""

import pytest

from repro.fabric.ledger import (
    DONE,
    ERRORED,
    LEASED,
    QUARANTINED,
    QUEUED,
    CaseLedger,
)


def _cases(n):
    return [(i, f"app{i}", "base", 100 + i) for i in range(n)]


def _ledger(n=3, **kwargs):
    defaults = dict(lease_timeout_s=10.0, retry_limit=3, max_kills=2,
                    error_retry_limit=2, backoff_base_s=1.0,
                    backoff_cap_s=8.0)
    defaults.update(kwargs)
    return CaseLedger(_cases(n), **defaults)


def test_lease_hands_out_lowest_index_first():
    ledger = _ledger(3)
    assert ledger.lease("w1", now=0.0).index == 0
    assert ledger.lease("w2", now=0.0).index == 1
    assert ledger.lease("w1", now=0.0).index == 2
    assert ledger.lease("w1", now=0.0) is None  # nothing queued


def test_complete_is_idempotent_first_wins():
    ledger = _ledger(1)
    ledger.lease("w1", now=0.0)
    assert ledger.complete(0, {"row": 1}) is True
    assert ledger.complete(0, {"row": 2}) is False  # stale duplicate
    assert ledger.case(0).payload == {"row": 1}
    assert ledger.status(0) == DONE
    assert ledger.drained()
    # Indices the ledger never owned (cache hits) are ignored too.
    assert ledger.complete(99, {"row": 3}) is False


def test_release_owner_requeues_with_backoff_then_quarantines():
    ledger = _ledger(1, max_kills=2, backoff_base_s=1.0)
    ledger.lease("w1#1", now=0.0)

    # First violent disconnect: one kill, requeued behind a backoff gate.
    assert ledger.release_owner("w1#1", now=5.0) == [0]
    entry = ledger.case(0)
    assert entry.status == QUEUED
    assert entry.kills == 1
    assert ledger.lease("w2#1", now=5.0) is None         # gate closed
    assert ledger.lease("w2#1", now=6.1).index == 0      # gate open

    # Second kill hits max_kills: quarantined, never leased again.
    assert ledger.release_owner("w2#1", now=7.0) == [0]
    assert ledger.status(0) == QUARANTINED
    assert ledger.lease("w3#1", now=100.0) is None
    assert ledger.drained()
    assert ledger.record(0) == {
        "app": "app0", "scheme": "base", "seed": 100,
        "reason": "killed its worker 2 time(s)", "kills": 2, "attempts": 2,
    }


def test_release_owner_only_touches_that_owners_leases():
    ledger = _ledger(2)
    ledger.lease("w1#1", now=0.0)
    ledger.lease("w2#1", now=0.0)
    assert ledger.release_owner("w1#1", now=0.0) == [0]
    assert ledger.status(1) == LEASED
    assert ledger.case(1).kills == 0


def test_requeue_owner_charges_no_kill():
    ledger = _ledger(1)
    ledger.lease("w1#1", now=0.0)
    assert ledger.requeue_owner("w1#1", now=0.0) == [0]
    entry = ledger.case(0)
    assert entry.status == QUEUED
    assert entry.kills == 0
    # No backoff on a clean departure: immediately leasable.
    assert ledger.lease("w2#1", now=0.0).index == 0


def test_lease_timeout_requeues_without_blame():
    ledger = _ledger(1, lease_timeout_s=10.0, retry_limit=3)
    ledger.lease("w1#1", now=0.0)
    assert ledger.expire(now=9.9) == []            # deadline not reached
    assert ledger.expire(now=10.0) == [0]          # lapsed: requeued
    entry = ledger.case(0)
    assert entry.status == QUEUED
    assert entry.kills == 0                        # no kill charged
    # The same case can be leased again once its backoff gate opens.
    release = ledger.lease("w2#1", now=20.0)
    assert release is not None and release.index == 0
    assert entry.attempts == 2


def test_retry_budget_exhaustion_quarantines():
    ledger = _ledger(1, lease_timeout_s=1.0, retry_limit=3,
                     backoff_base_s=0.0)
    now = 0.0
    for _ in range(3):
        assert ledger.lease("w#1", now=now) is not None
        now += 2.0
        ledger.expire(now=now)
    assert ledger.status(0) == QUARANTINED
    assert ledger.case(0).reason == "retry budget exhausted after 3 leases"
    assert ledger.drained()


def test_backoff_doubles_and_caps():
    ledger = _ledger(1, backoff_base_s=1.0, backoff_cap_s=8.0)
    assert ledger.backoff_s(1) == 1.0
    assert ledger.backoff_s(2) == 2.0
    assert ledger.backoff_s(3) == 4.0
    assert ledger.backoff_s(4) == 8.0
    assert ledger.backoff_s(10) == 8.0  # capped


def test_record_error_retries_then_marks_errored():
    ledger = _ledger(1, error_retry_limit=2, backoff_base_s=1.0)
    ledger.lease("w1#1", now=0.0)
    status = ledger.record_error(0, {"type": "RuntimeError"}, now=0.0)
    assert status == QUEUED                        # one retry granted
    assert ledger.lease("w2#1", now=5.0).index == 0
    status = ledger.record_error(0, {"type": "RuntimeError"}, now=5.0)
    assert status == ERRORED
    assert ledger.drained()
    record = ledger.record(0)
    assert record["reason"] == "raised on 2 separate attempts"
    assert record["error"] == {"type": "RuntimeError"}


def test_wait_hint_tracks_nearest_backoff_gate():
    ledger = _ledger(1, backoff_base_s=2.0)
    ledger.lease("w1#1", now=0.0)
    ledger.release_owner("w1#1", now=0.0)          # gate at t=2.0
    assert ledger.wait_hint(now=0.0) == 1.0        # clamped to max 1.0
    assert ledger.wait_hint(now=1.8) == pytest.approx(0.2)
    assert ledger.wait_hint(now=3.0) == 0.05       # gate already open


def test_counts_and_constructor_validation():
    ledger = _ledger(3)
    ledger.lease("w1", now=0.0)
    ledger.complete(0, None)
    ledger.lease("w1", now=0.0)
    assert ledger.counts() == {DONE: 1, LEASED: 1, QUEUED: 1}
    with pytest.raises(ValueError, match="duplicate case index"):
        CaseLedger([(0, "a", "base", 1), (0, "a", "base", 2)])
    with pytest.raises(ValueError):
        CaseLedger([], lease_timeout_s=0.0)
