"""The streaming QoS monitor: live per-operator/per-region stats.

:class:`QoSMonitor` watches a running :class:`~repro.core.system.
MobiStreamsSystem` through three read-only taps:

* a **trace observer** (:meth:`repro.sim.monitor.Trace.add_observer`)
  for discrete QoS events — sink outputs (latency), checkpoint round
  start/commit, recoveries, crashes;
* a **node hook** (``region.telemetry``) on the operator runtime's
  tuple-completion path for per-operator throughput;
* a **periodic sampler** (:meth:`repro.sim.core.Simulator.call_every`)
  that every ``interval_s`` of *virtual* time closes the window: it
  reads the hot counters (``net.*.bytes``, ``ft.network_bytes``,
  per-region ``sink_outputs``/``source_inputs``), polls queue depths,
  and freezes everything into a
  :class:`~repro.telemetry.timeline.TelemetrySnapshot`.

Determinism contract: the monitor *observes only*.  It draws no random
numbers, mutates no simulation state, and its sampling events schedule
nothing but the next sample — so enabling telemetry cannot change a
case's metrics row, and two processes running the same case produce
byte-identical timelines.  When telemetry is off, the hot paths pay one
``is None``/empty-list check and nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.stats import OnlineQuantile, RateTracker
from repro.telemetry.timeline import (
    NetSample,
    OperatorSample,
    RegionSample,
    TelemetrySnapshot,
    Timeline,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.region import Region
    from repro.sim.core import Simulator
    from repro.sim.monitor import Trace, TraceRecord


class _OpStats:
    """Hot-path accumulator for one (region, operator) pair."""

    __slots__ = ("tuples", "rate")

    def __init__(self) -> None:
        self.tuples = 0
        self.rate = RateTracker()


class _RegionStats:
    """Observer-fed accumulator for one region."""

    __slots__ = ("latency", "throughput", "checkpoints_started",
                 "checkpoints_committed", "recoveries", "crashes")

    def __init__(self) -> None:
        self.latency = OnlineQuantile()
        self.throughput = RateTracker()
        self.checkpoints_started = 0
        self.checkpoints_committed = 0
        self.recoveries = 0
        self.crashes = 0


#: Trace counters sampled into :class:`NetSample` rates.
_NET_COUNTERS = ("net.wifi.bytes", "net.cellular.bytes", "ft.network_bytes")


class QoSMonitor:
    """Streaming QoS telemetry over one live system.

    Wiring order (what :func:`repro.scenarios.runner.run_case` does)::

        monitor = QoSMonitor(system.sim, system.trace, interval_s=10.0,
                             meta={"scenario": ..., "app": ..., ...})
        system.attach_telemetry(monitor)   # hooks regions + nodes
        monitor.start()                    # trace observer + sampler
        system.run(duration)
        monitor.finish()                   # final snapshot, detach
        timeline = monitor.timeline()
    """

    def __init__(
        self,
        sim: "Simulator",
        trace: "Trace",
        interval_s: float = 10.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.trace = trace
        self.interval_s = interval_s
        self.meta = dict(meta or {})
        self.snapshots: List[TelemetrySnapshot] = []

        self._regions: List["Region"] = []
        self._region_stats: Dict[str, _RegionStats] = {}
        #: (region name, op name) -> stats, in watch order (region
        #: cascade order, then graph operator order) — the order every
        #: snapshot's ``operators`` mapping preserves.
        self._op_stats: Dict[Tuple[str, str], _OpStats] = {}
        self._net_rates = {name: RateTracker() for name in _NET_COUNTERS}
        self._on_snapshot: List[Callable[[TelemetrySnapshot], None]] = []
        self._handlers = {
            "sink_output": self._on_sink_output,
            "checkpoint_requested": self._on_checkpoint_requested,
            "checkpoint_complete": self._on_checkpoint_complete,
            "recovery_finished": self._on_recovery_finished,
            "phone_crashed": self._on_phone_crashed,
        }
        self._started = False
        self._finished = False
        self._cancel_sampler: Optional[Callable[[], None]] = None
        self._last_sample_time: Optional[float] = None

    # -- wiring --------------------------------------------------------------
    def watch_region(self, region: "Region") -> None:
        """Hook one region: node runtimes start reporting completions
        and every operator in its graph gets a stats row (operators
        that never process a tuple still show up, at zero)."""
        if region.name in self._region_stats:
            raise ValueError(f"already watching region {region.name!r}")
        region.telemetry = self
        self._regions.append(region)
        self._region_stats[region.name] = _RegionStats()
        for op_name in region.graph.names():
            self._op_stats[(region.name, op_name)] = _OpStats()

    def add_callback(self, fn: Callable[[TelemetrySnapshot], None]) -> None:
        """Call ``fn(snapshot)`` after every sample (live watch feeds)."""
        self._on_snapshot.append(fn)

    def start(self) -> None:
        """Attach the trace observer and arm the virtual-time sampler."""
        if self._started:
            raise RuntimeError("monitor already started")
        self._started = True
        self._last_sample_time = self.sim.now
        # Category-scoped: per-tuple categories (source ingests, sink
        # discards) never reach this observer at all.
        self.trace.add_observer(self.observe, categories=self._handlers)
        self._cancel_sampler = self.sim.call_every(self.interval_s, self._tick)

    def finish(self) -> None:
        """Close the run: final partial-window snapshot, detach all taps.

        ``Simulator.run(until=...)`` stops *at* the deadline before a
        sample scheduled for that exact instant fires, so the tail
        window is sampled here (idempotent; no-op on an empty window).
        """
        if self._finished:
            return
        self._finished = True
        if self._started:
            if self.sim.now > (self._last_sample_time or 0.0):
                self._tick()
            if self._cancel_sampler is not None:
                self._cancel_sampler()
            self.trace.remove_observer(self.observe)
        for region in self._regions:
            region.telemetry = None

    # -- hot-path taps -------------------------------------------------------
    def tuple_complete(self, region_name: str, op_name: str, n_out: int) -> None:
        """Operator runtime hook: one tuple finished processing.

        Called from :meth:`NodeRuntime._process_chain` for every tuple,
        so this stays two dict ops and two adds.  ``n_out`` (emitted
        tuples) is accepted for forward compatibility but not yet
        aggregated separately from completions.
        """
        st = self._op_stats.get((region_name, op_name))
        if st is None:
            # An operator outside the watched graphs (defensive; recovery
            # rebuilds reuse graph names, so this should never fire).
            st = self._op_stats[(region_name, op_name)] = _OpStats()
        st.tuples += 1
        st.rate.add(1.0)

    def observe(self, rec: "TraceRecord") -> None:
        """Trace observer: route QoS-relevant records to accumulators."""
        handler = self._handlers.get(rec.category)
        if handler is not None:
            handler(rec.data)

    def _region(self, data: Dict[str, Any]) -> Optional[_RegionStats]:
        return self._region_stats.get(data.get("region"))

    def _on_sink_output(self, data: Dict[str, Any]) -> None:
        st = self._region(data)
        if st is not None:
            st.latency.add(data["latency"])

    def _on_checkpoint_requested(self, data: Dict[str, Any]) -> None:
        st = self._region(data)
        if st is not None:
            st.checkpoints_started += 1

    def _on_checkpoint_complete(self, data: Dict[str, Any]) -> None:
        st = self._region(data)
        if st is not None:
            st.checkpoints_committed += 1

    def _on_recovery_finished(self, data: Dict[str, Any]) -> None:
        st = self._region(data)
        if st is not None:
            st.recoveries += 1

    def _on_phone_crashed(self, data: Dict[str, Any]) -> None:
        st = self._region(data)
        if st is not None:
            st.crashes += 1

    # -- sampling ------------------------------------------------------------
    def _tick(self) -> None:
        snapshot = self._sample()
        self.snapshots.append(snapshot)
        for fn in self._on_snapshot:
            fn(snapshot)

    def _sample(self) -> TelemetrySnapshot:
        now = self.sim.now
        dt = now - (self._last_sample_time or 0.0)
        if dt <= 0:
            dt = self.interval_s
        self._last_sample_time = now

        trace_value = self.trace.value
        regions: Dict[str, RegionSample] = {}
        for region in self._regions:
            name = region.name
            st = self._region_stats[name]
            sink_outputs = trace_value(f"{name}.sink_outputs")
            st.throughput.set_total(sink_outputs)
            regions[name] = RegionSample(
                throughput_tps=st.throughput.sample(dt),
                latency_p50_s=st.latency.quantile(0.5),
                latency_p95_s=st.latency.quantile(0.95),
                latency_mean_s=st.latency.mean,
                sink_outputs=int(sink_outputs),
                source_inputs=int(trace_value(f"{name}.source_inputs")),
                checkpoints_started=st.checkpoints_started,
                checkpoints_committed=st.checkpoints_committed,
                recoveries=st.recoveries,
                crashes=st.crashes,
            )

        operators: Dict[str, OperatorSample] = {}
        region_by_name = {r.name: r for r in self._regions}
        for (region_name, op_name), st in self._op_stats.items():
            region = region_by_name.get(region_name)
            depth = 0
            if region is not None and op_name in region.graph:
                node = region.nodes.get(region.placement.node_for(op_name, 0))
                if node is not None and node.alive:
                    depth = node.queued_items()
            operators[f"{region_name}.{op_name}"] = OperatorSample(
                tuples=st.tuples,
                rate_tps=st.rate.sample(dt),
                queue_depth=depth,
            )

        wifi, cellular, ft = (
            self._net_rates[name] for name in _NET_COUNTERS)
        for name, tracker in self._net_rates.items():
            tracker.set_total(trace_value(name))
        return TelemetrySnapshot(
            time=now,
            events_processed=self.sim.events_processed,
            regions=regions,
            operators=operators,
            net=NetSample(
                wifi_bytes_per_s=wifi.sample(dt),
                cellular_bytes_per_s=cellular.sample(dt),
                ft_bytes_per_s=ft.sample(dt),
            ),
        )

    # -- results -------------------------------------------------------------
    def timeline(self) -> Timeline:
        """The run's snapshots as a :class:`Timeline` artifact value."""
        return Timeline(
            scenario=str(self.meta.get("scenario", "")),
            app=str(self.meta.get("app", "")),
            scheme=str(self.meta.get("scheme", "")),
            seed=int(self.meta.get("seed", 0)),
            interval_s=self.interval_s,
            snapshots=tuple(self.snapshots),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<QoSMonitor regions={len(self._regions)} "
                f"snapshots={len(self.snapshots)} every={self.interval_s}s>")
