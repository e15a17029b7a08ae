"""The runtime invariant harness: recovery correctness, checked live.

:class:`InvariantHarness` attaches to a running
:class:`~repro.core.system.MobiStreamsSystem` through the
:meth:`~repro.sim.monitor.Trace.add_observer` API — the same observe-only
tap the QoS monitor uses.  It draws no randomness, mutates no simulation
state, and schedules nothing, so arming it cannot change a case's
metrics row; when disarmed (the default everywhere) no harness object is
built at all and the hot paths pay nothing.

Each region is checked against its scheme's declared
:class:`~repro.verify.contracts.DeliveryContract`:

* **Delivery ledger** — a per-region count of ``source_ingest`` records
  (one per preserved input tuple, replays included) anchored at every
  ``checkpoint_requested`` cut.  At ``catchup_started`` the replayed
  tuple count must equal the ingests since the restored cut: the
  preservation store covered the full gap between the MRC and the crash
  (``replay_covers_gap``).
* **Commit-token safety** (``token_protocol``) — no
  ``checkpoint_complete`` while a node still holds unready channel
  tokens for that version; no commit of an abandoned version; no
  restore from an abandoned or never-completed version.
* **Duplication-free delivery** — no two ``sink_output`` records of one
  region share an ``(op, emit key)`` pair across crash/recovery epochs.
* **Monotone versions** — ``checkpoint_requested`` versions strictly
  increase per region, ``node_snapshot`` versions strictly increase per
  (region, node), and the restored MRC never moves backwards.
* **Progress after recovery** — a region that recovered successfully
  and keeps ingesting input must eventually deliver data to its sinks
  again (published *or* discarded as a replay/duplicate — suppression
  is still progress), after a congestion grace period (checked at
  :meth:`InvariantHarness.finish`).

Violations are collected as structured :class:`Violation` records, each
carrying a window of the most recent trace records for debugging;
:meth:`InvariantHarness.raise_if_violated` wraps them in an
:class:`InvariantViolation`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set, Tuple

from repro.verify.contracts import DeliveryContract, contract_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import MobiStreamsSystem
    from repro.sim.monitor import Trace, TraceRecord

#: Trace records kept in the rolling debug window attached to violations.
WINDOW_SIZE = 48

#: Ingests after a recovery before silence counts as a wedged region.
#: Generous on purpose: sinks aggregate (one output per many inputs),
#: and a recovery near the end of a run legitimately sees few outputs.
PROGRESS_MIN_INGESTS = 200

#: Simulated seconds after a recovery before sink silence counts as a
#: wedged region.  Catch-up replays a full inter-checkpoint interval of
#: input through a contended WiFi cell, so the first post-recovery sink
#: result (even a discarded replay result) can legitimately take over a
#: minute to surface.
PROGRESS_GRACE_S = 120.0


def _json_shape(value: Any) -> Any:
    """``value`` as JSON reads it back: tuples become lists.  A
    violation dict then compares equal however it travelled — pickled
    from a pool worker or framed as JSON by a fabric worker."""
    if isinstance(value, dict):
        return {k: _json_shape(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_shape(v) for v in value]
    return value


class Violation:
    """One structured invariant violation."""

    __slots__ = ("invariant", "region", "time", "message", "details", "window")

    def __init__(
        self,
        invariant: str,
        region: str,
        time: float,
        message: str,
        details: Optional[Dict[str, Any]] = None,
        window: Tuple[Dict[str, Any], ...] = (),
    ) -> None:
        self.invariant = invariant
        self.region = region
        self.time = time
        self.message = message
        self.details: Dict[str, Any] = details or {}
        #: The trailing trace records (as plain dicts) leading up to the
        #: violation — the evidence a reproducer needs.
        self.window = window

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped form (stable keys, lists for tuples; rides beside
        artifacts, never inside a row)."""
        return {
            "invariant": self.invariant,
            "region": self.region,
            "time": self.time,
            "message": self.message,
            "details": _json_shape(self.details),
            "window": _json_shape(self.window),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Violation {self.invariant} region={self.region} "
                f"t={self.time:.3f} {self.message!r}>")


class InvariantViolation(AssertionError):
    """Raised (on request) when a run breaks its delivery contract.

    Carries the full structured violation list; ``str()`` shows the
    first few with their invariant names and times.
    """

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = list(violations)
        head = "; ".join(
            f"[{v.invariant}] {v.region} t={v.time:.1f}s: {v.message}"
            for v in self.violations[:3]
        )
        more = len(self.violations) - 3
        if more > 0:
            head += f" (+{more} more)"
        super().__init__(head)


class _RegionState:
    """Per-region checker state (contract + counters + protocol sets)."""

    __slots__ = (
        "contract", "ingests", "cut_marker", "sink_seen", "waiting",
        "snapshotted", "abandoned", "completed", "last_requested",
        "last_node_snapshot", "last_mrc", "last_recovery_time",
        "ingests_after_recovery", "sinks_after_recovery", "stopped",
    )

    def __init__(self, contract: DeliveryContract) -> None:
        self.contract = contract
        #: Total ``source_ingest`` records seen (replays included) — the
        #: exact mirror of ``PreservationStore.record`` calls.
        self.ingests = 0
        #: checkpoint version -> ingest count at its cut.
        self.cut_marker: Dict[int, int] = {}
        #: Published sink (op, emit key) pairs.
        self.sink_seen: Set[Tuple[str, Any]] = set()
        #: (version, node) -> unready channel-token count.
        self.waiting: Dict[Tuple[int, str], int] = {}
        #: (version, node) pairs that snapshotted.
        self.snapshotted: Set[Tuple[int, str]] = set()
        self.abandoned: Set[int] = set()
        self.completed: Set[int] = set()
        self.last_requested = 0
        self.last_node_snapshot: Dict[str, int] = {}
        self.last_mrc = 0
        self.last_recovery_time: Optional[float] = None
        self.ingests_after_recovery = 0
        self.sinks_after_recovery = 0
        self.stopped = False


class InvariantHarness:
    """Observe-only recovery-invariant checker for one live system.

    Wiring order (what ``run_case(..., verify=True)`` does)::

        harness = InvariantHarness(system)
        harness.start()            # resolves contracts, taps the trace
        system.run(duration)
        harness.finish()           # end-of-run checks, detach
        harness.violations         # [] on a contract-clean run

    By default violations are *collected*, not raised — a sweep wants
    every violation of every case, not the first traceback.  Pass
    ``raise_on_violation=True`` (or call :meth:`raise_if_violated`) to
    turn the first violation into an :class:`InvariantViolation`.
    """

    def __init__(
        self,
        system: "MobiStreamsSystem",
        raise_on_violation: bool = False,
        window: int = WINDOW_SIZE,
    ) -> None:
        self.system = system
        self.trace: "Trace" = system.trace
        self.raise_on_violation = raise_on_violation
        self.violations: List[Violation] = []
        self._recent: Deque[Dict[str, Any]] = deque(maxlen=window)
        self._regions: Dict[str, _RegionState] = {}
        self._handlers = {
            "source_ingest": self._on_source_ingest,
            "sink_output": self._on_sink_output,
            "sink_discard": self._on_sink_discard,
            "checkpoint_requested": self._on_checkpoint_requested,
            "token_received": self._on_token_received,
            "node_snapshot": self._on_node_snapshot,
            "checkpoint_complete": self._on_checkpoint_complete,
            "checkpoint_abandoned": self._on_checkpoint_abandoned,
            "catchup_started": self._on_catchup_started,
            "recovery_finished": self._on_recovery_finished,
            "region_stopped": self._on_region_stopped,
        }
        self._started = False
        self._finished = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Resolve every region's contract and tap the trace."""
        if self._started:
            raise RuntimeError("harness already started")
        if not self.trace.enabled:
            raise ValueError(
                "invariant harness needs an enabled trace: a disabled "
                "trace records nothing, so an armed harness would "
                "silently verify nothing"
            )
        for region in self.system.regions:
            self._regions[region.name] = _RegionState(
                contract_for(region.scheme))
        self.trace.add_observer(self.observe, categories=self._handlers)
        self._started = True

    def finish(self) -> List[Violation]:
        """Run end-of-run checks, detach, and return the violations."""
        if self._finished:
            return self.violations
        self._finished = True
        self.trace.remove_observer(self.observe)
        self._check_progress()
        return self.violations

    def raise_if_violated(self) -> None:
        """Raise :class:`InvariantViolation` if any check failed."""
        if self.violations:
            raise InvariantViolation(self.violations)

    def contract(self, region_name: str) -> DeliveryContract:
        """The contract being enforced on one region."""
        return self._regions[region_name].contract

    # -- observation --------------------------------------------------------
    def observe(self, rec: "TraceRecord") -> None:
        """Trace-observer entry point (hot: one dict lookup when the
        category is unchecked)."""
        handler = self._handlers.get(rec.category)
        if handler is None:
            return
        self._recent.append(
            {"time": rec.time, "category": rec.category, **rec.data})
        state = self._regions.get(rec.data.get("region", ""))
        if state is None:
            return
        handler(state, rec.time, rec.data)

    def _violate(
        self,
        state: _RegionState,
        invariant: str,
        region: str,
        time: float,
        message: str,
        **details: Any,
    ) -> None:
        violation = Violation(
            invariant, region, time, message, details,
            window=tuple(dict(r) for r in self._recent),
        )
        self.violations.append(violation)
        if self.raise_on_violation:
            raise InvariantViolation([violation])

    # -- per-category checkers ---------------------------------------------
    def _on_source_ingest(self, state, time, data) -> None:
        state.ingests += 1
        if state.last_recovery_time is not None:
            state.ingests_after_recovery += 1

    def _on_sink_discard(self, state, time, data) -> None:
        # A discarded sink result (replay suppression, replica dedup) is
        # still *progress*: the pipeline delivered data to a sink.
        if state.last_recovery_time is not None:
            state.sinks_after_recovery += 1

    def _on_sink_output(self, state, time, data) -> None:
        if state.last_recovery_time is not None:
            state.sinks_after_recovery += 1
        if not state.contract.duplication_free:
            return
        key = data.get("key")
        if key is None:
            return
        pair = (data["op"], key)
        if pair in state.sink_seen:
            self._violate(
                state, "duplication-free", data["region"], time,
                f"sink {data['op']} published emit key {key!r} twice",
                op=data["op"], key=repr(key), seq=data.get("seq"),
            )
            return
        state.sink_seen.add(pair)

    def _on_checkpoint_requested(self, state, time, data) -> None:
        version = data["version"]
        # The cut: start_segment(version) and this record happen in one
        # synchronous block, so the ingest count *here* anchors the
        # replay ledger for this version exactly.
        state.cut_marker[version] = state.ingests
        if state.contract.monotone_versions and version <= state.last_requested:
            self._violate(
                state, "monotone-versions", data["region"], time,
                f"checkpoint version went backwards: requested {version} "
                f"after {state.last_requested}",
                version=version, previous=state.last_requested,
            )
        state.last_requested = max(state.last_requested, version)

    def _on_token_received(self, state, time, data) -> None:
        if not state.contract.token_protocol:
            return
        key = (data["version"], data["node"])
        if data.get("ready"):
            state.waiting.pop(key, None)
        else:
            state.waiting[key] = state.waiting.get(key, 0) + 1

    def _on_node_snapshot(self, state, time, data) -> None:
        node, version = data["node"], data["version"]
        state.snapshotted.add((version, node))
        state.waiting.pop((version, node), None)
        if state.contract.monotone_versions:
            last = state.last_node_snapshot.get(node)
            if last is not None and version <= last:
                self._violate(
                    state, "monotone-versions", data["region"], time,
                    f"node {node} snapshotted version {version} after "
                    f"already snapshotting {last}",
                    node=node, version=version, previous=last,
                )
            state.last_node_snapshot[node] = max(
                version, last if last is not None else version)

    def _on_checkpoint_complete(self, state, time, data) -> None:
        version = data["version"]
        state.completed.add(version)
        if not state.contract.token_protocol:
            return
        if version in state.abandoned:
            self._violate(
                state, "token-safety", data["region"], time,
                f"checkpoint v{version} committed after being abandoned",
                version=version,
            )
        outstanding = sorted(
            node for (v, node), n in state.waiting.items()
            if v == version and n > 0 and (v, node) not in state.snapshotted
        )
        if outstanding:
            self._violate(
                state, "token-safety", data["region"], time,
                f"checkpoint v{version} committed with channel tokens "
                f"outstanding at {outstanding}",
                version=version, nodes=outstanding,
            )

    def _on_checkpoint_abandoned(self, state, time, data) -> None:
        version = data["version"]
        state.abandoned.add(version)
        for key in [k for k in state.waiting if k[0] == version]:
            del state.waiting[key]

    def _on_catchup_started(self, state, time, data) -> None:
        mrc, replayed = data["mrc"], data["tuples"]
        region = data["region"]
        if state.contract.monotone_versions and mrc < state.last_mrc:
            self._violate(
                state, "monotone-versions", region, time,
                f"restored version went backwards: MRC {mrc} after "
                f"restoring {state.last_mrc}",
                mrc=mrc, previous=state.last_mrc,
            )
        state.last_mrc = max(state.last_mrc, mrc)
        if state.contract.token_protocol and mrc != 0:
            if mrc in state.abandoned:
                self._violate(
                    state, "token-safety", region, time,
                    f"restored from abandoned checkpoint v{mrc}",
                    mrc=mrc,
                )
            elif mrc not in state.completed:
                self._violate(
                    state, "token-safety", region, time,
                    f"restored from v{mrc} which never completed",
                    mrc=mrc,
                )
        if state.contract.replay_covers_gap:
            expected = state.ingests - state.cut_marker.get(mrc, 0)
            if replayed != expected:
                self._violate(
                    state, "replay-gap", region, time,
                    f"catch-up from v{mrc} replayed {replayed} tuple(s) "
                    f"but {expected} were ingested since that cut",
                    mrc=mrc, replayed=replayed, expected=expected,
                )

    def _on_recovery_finished(self, state, time, data) -> None:
        if data.get("outcome") != "recovered":
            return
        # Restart the progress window at every successful recovery: only
        # silence *after the last one* counts.
        state.last_recovery_time = time
        state.ingests_after_recovery = 0
        state.sinks_after_recovery = 0

    def _on_region_stopped(self, state, time, data) -> None:
        state.stopped = True

    # -- end-of-run checks --------------------------------------------------
    def _check_progress(self) -> None:
        for name, state in self._regions.items():
            if not state.contract.progress_after_recovery:
                continue
            if state.last_recovery_time is None or state.stopped:
                continue
            elapsed = self.system.sim.now - state.last_recovery_time
            if (elapsed >= PROGRESS_GRACE_S
                    and state.ingests_after_recovery >= PROGRESS_MIN_INGESTS
                    and state.sinks_after_recovery == 0):
                self._violate(
                    state, "progress-after-recovery", name,
                    self.system.sim.now,
                    f"region ingested {state.ingests_after_recovery} "
                    f"tuple(s) over {elapsed:.0f}s after its recovery at "
                    f"t={state.last_recovery_time:.1f}s without a single "
                    f"sink result (published or discarded)",
                    recovered_at=state.last_recovery_time,
                    ingests=state.ingests_after_recovery,
                    elapsed=elapsed,
                )
