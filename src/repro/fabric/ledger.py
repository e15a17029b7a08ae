"""Lease ledger: the coordinator's case state machine.

Pure bookkeeping — no sockets, no clock, no locks.  Every method takes
an explicit ``now`` so the coordinator (and the tests) fully control
time, and the caller is responsible for serializing access (the
coordinator holds one lock around every call).

Case lifecycle::

    QUEUED --lease()--> LEASED --complete()--> DONE
      ^                   |
      |   release_owner() / expire()          (requeue w/ backoff)
      +-------------------+
                          |
                          +--> QUARANTINED  (killed its worker twice,
                          |                  or retry budget exhausted)
                          +--> ERRORED      (case raised on 2 workers)

``release_owner`` is the *violent* path — the worker's connection died
or its heartbeat lapsed, so every lease it held counts a **kill**
against the case.  ``expire`` is the *slow* path — the lease deadline
passed while the connection looked healthy (worker wedged on one case);
it requeues without blaming the case, but the per-case attempt budget
still bounds total retries so a poison case cannot loop forever.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

QUEUED = "queued"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"
ERRORED = "errored"

#: States from which a case can never run again.
TERMINAL = frozenset({DONE, QUARANTINED, ERRORED})


class _Case:
    __slots__ = (
        "index", "app", "scheme", "seed", "status", "attempts", "kills",
        "error_attempts", "owner", "deadline", "not_before", "payload",
        "reason", "error",
    )

    def __init__(self, index: int, app: Any, scheme: str, seed: int) -> None:
        self.index = index
        self.app = app
        self.scheme = scheme
        self.seed = seed
        self.status = QUEUED
        self.attempts = 0          # times leased
        self.kills = 0             # times its worker died while leased
        self.error_attempts = 0    # times it raised inside the executor
        self.owner: Optional[str] = None
        self.deadline = 0.0
        self.not_before = 0.0      # backoff gate for re-leasing
        self.payload: Any = None
        self.reason: Optional[str] = None
        self.error: Optional[Dict[str, Any]] = None

    def _requeue(self, not_before: float) -> None:
        self.status = QUEUED
        self.owner = None
        self.deadline = 0.0
        self.not_before = not_before


class CaseLedger:
    """Tracks every case of one sweep from QUEUED to a terminal state.

    ``cases`` is a sequence of ``(index, app, scheme, seed)`` tuples —
    ``index`` is the case's position in the *full* matrix order, which
    is what the coordinator's merge cursor walks; cache-satisfied cases
    are simply never entered into the ledger.
    """

    def __init__(
        self,
        cases: Sequence[Tuple[int, Any, str, int]],
        *,
        lease_timeout_s: float = 120.0,
        retry_limit: int = 5,
        max_kills: int = 2,
        error_retry_limit: int = 2,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if retry_limit < 1 or max_kills < 1 or error_retry_limit < 1:
            raise ValueError("retry/kill budgets must be at least 1")
        self.lease_timeout_s = float(lease_timeout_s)
        self.retry_limit = int(retry_limit)
        self.max_kills = int(max_kills)
        self.error_retry_limit = int(error_retry_limit)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._cases: Dict[int, _Case] = {}
        for index, app, scheme, seed in cases:
            if index in self._cases:
                raise ValueError(f"duplicate case index {index}")
            self._cases[index] = _Case(index, app, scheme, seed)
        # Lease order is always lowest-index-first: it keeps the merge
        # cursor's stall window small and makes scheduling reproducible.
        self._order = sorted(self._cases)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cases)

    def case(self, index: int) -> _Case:
        return self._cases[index]

    def status(self, index: int) -> Optional[str]:
        entry = self._cases.get(index)
        return None if entry is None else entry.status

    def drained(self) -> bool:
        """True when every case is terminal — nothing left to lease."""
        return all(c.status in TERMINAL for c in self._cases.values())

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self._cases.values():
            out[entry.status] = out.get(entry.status, 0) + 1
        return out

    # -- transitions -----------------------------------------------------

    def backoff_s(self, attempts: int) -> float:
        """Exponential backoff before re-leasing: base * 2^(attempts-1)."""
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** max(0, attempts - 1)))

    def lease(self, owner: str, now: float) -> Optional[_Case]:
        """Lease the lowest-index QUEUED case whose backoff has elapsed."""
        for index in self._order:
            entry = self._cases[index]
            if entry.status != QUEUED:
                continue
            if entry.not_before > now:
                continue
            entry.status = LEASED
            entry.owner = owner
            entry.attempts += 1
            entry.deadline = now + self.lease_timeout_s
            return entry
        return None

    def complete(self, index: int, payload: Any) -> bool:
        """Record a finished case.  Idempotent, first result wins.

        Duplicate/stale results (a slow worker finishing a case that
        was already re-run elsewhere) are harmless because case
        execution is deterministic — the payloads are identical — so
        they are silently ignored, as are indices the ledger never
        owned (cache hits).
        """
        entry = self._cases.get(index)
        if entry is None or entry.status in TERMINAL:
            return False
        entry.status = DONE
        entry.payload = payload
        entry.owner = None
        return True

    def record_error(self, index: int, error: Dict[str, Any],
                     now: float) -> str:
        """The case raised inside the executor (worker itself is fine).

        Retried on another lease until ``error_retry_limit`` distinct
        failures, then marked ERRORED.  Returns the resulting status.
        """
        entry = self._cases.get(index)
        if entry is None or entry.status in TERMINAL:
            return DONE if entry is None else entry.status
        entry.error_attempts += 1
        entry.error = error
        if entry.error_attempts >= self.error_retry_limit:
            entry.status = ERRORED
            entry.owner = None
            entry.reason = (
                f"raised on {entry.error_attempts} separate attempts"
            )
        else:
            entry._requeue(now + self.backoff_s(entry.attempts))
        return entry.status

    def release_owner(self, owner: str, now: float) -> List[int]:
        """The owner's connection died: every lease it held counts a
        kill.  Returns the indices that changed state."""
        touched: List[int] = []
        for entry in self._cases.values():
            if entry.status != LEASED or entry.owner != owner:
                continue
            entry.kills += 1
            if entry.kills >= self.max_kills:
                entry.status = QUARANTINED
                entry.owner = None
                entry.reason = (
                    f"killed its worker {entry.kills} time(s)"
                )
            else:
                entry._requeue(now + self.backoff_s(entry.attempts))
            touched.append(entry.index)
        return touched

    def requeue_owner(self, owner: str, now: float) -> List[int]:
        """The owner departed *cleanly* (goodbye) — requeue any leases it
        still held without blaming the cases.  Normally a no-op: workers
        drain their in-flight cases before saying goodbye."""
        touched: List[int] = []
        for entry in self._cases.values():
            if entry.status != LEASED or entry.owner != owner:
                continue
            entry._requeue(now)
            touched.append(entry.index)
        return touched

    def expire(self, now: float) -> List[int]:
        """Requeue (or quarantine) leases whose deadline has passed.

        No kill is charged — the connection may still be up, the worker
        just failed to finish in time — but the attempt budget caps how
        often one case can cycle.  Returns the indices touched.
        """
        touched: List[int] = []
        for entry in self._cases.values():
            if entry.status != LEASED or entry.deadline > now:
                continue
            if entry.attempts >= self.retry_limit:
                entry.status = QUARANTINED
                entry.owner = None
                entry.reason = (
                    f"retry budget exhausted after {entry.attempts} leases"
                )
            else:
                entry._requeue(now + self.backoff_s(entry.attempts))
            touched.append(entry.index)
        return touched

    def wait_hint(self, now: float) -> float:
        """How long a fetch should wait before retrying: until the
        nearest backoff gate opens, clamped to [0.05, 1.0] seconds."""
        nearest: Optional[float] = None
        for entry in self._cases.values():
            if entry.status == QUEUED:
                delta = entry.not_before - now
                if nearest is None or delta < nearest:
                    nearest = delta
        if nearest is None or nearest <= 0:
            return 0.05
        return max(0.05, min(1.0, nearest))

    # -- reporting -------------------------------------------------------

    def record(self, index: int) -> Dict[str, Any]:
        """The run-report record of case ``index`` (the shape of the
        envelope's ``quarantined`` and ``errors`` entries)."""
        entry = self._cases[index]
        record: Dict[str, Any] = {
            "app": entry.app.key if hasattr(entry.app, "key") else str(entry.app),
            "scheme": entry.scheme,
            "seed": entry.seed,
            "reason": entry.reason,
            "kills": entry.kills,
            "attempts": entry.attempts,
        }
        if entry.error is not None:
            record["error"] = entry.error
        return record
