"""Layer tracer for the benchmark's traced run.

Wraps the public functions of each layer of ``repro`` from outside the
package (nothing under ``src/`` changes) and aggregates what the
wrappers see into per-layer counts and times:

* A *span* is one call into a wrapped function, or one resumption of a
  wrapped generator.  Every span carries its own id and its parent's id
  (the span open when it started), so a span's self time is its length
  minus the length of its children.
* Spans are aggregated as they close, per name and per (parent name,
  name) edge, instead of being kept one by one: a full ``paper-fig8``
  sweep closes about a quarter of a million of them.
* Counts are exact integers taken at the same call boundaries.

Where a module did ``from x import f``, the name is replaced in that
module too, because that is where the caller looks it up.

Pool workers inherit the wrappers through ``fork`` and start with an
empty tracer; each process writes its own ``trace-<pid>.json`` into the
trace directory after every case, and the benchmark merges them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_perf = time.perf_counter

#: App packages whose operators are counted per family; any other
#: operator (the generic ones in ``repro.core``) counts as ``core``.
APP_FAMILIES = ("bcp", "signalguru", "edgeml", "core")


class Tracer:
    """Span stack plus aggregates for one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: dict = {}
        self.edges: dict = {}
        self.counts: dict = {}
        self.categories: dict = {}
        self.case_walls: list = []
        self.systems: list = []
        self.stack: list = []
        self.vision_caches: list = []
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from zero)."""
        self.pid = os.getpid()
        self.next_id = 1
        self.stack.clear()
        self.spans.clear()
        self.edges.clear()
        self.counts.clear()
        self.categories.clear()
        self.case_walls.clear()
        self.systems.clear()
        self.sweep_start = None
        self.first_row_s = None
        self.process_depth = 0
        self.case_depth = 0

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> list:
        stack = self.stack
        frame = [self.next_id, stack[-1][0] if stack else 0, name, _perf(), 0.0]
        self.next_id += 1
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = _perf()
        stack = self.stack
        # Spans nest strictly (one thread, try/finally on every exit), so
        # the closing frame is on top; anything above it was leaked by an
        # exception path and is closed with it.
        while stack and stack.pop() is not frame:
            pass
        duration = end - frame[3]
        name = frame[2]
        parent = stack[-1] if stack else None
        parent_name = parent[2] if parent is not None else ""
        if parent is not None:
            parent[4] += duration
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[2] += duration - frame[4]
        if parent_name != name:
            # Recursion into the same name is already inside the outer
            # span: count calls and inclusive time once.
            rec[0] += 1
            rec[1] += duration
        edge = self.edges.get((parent_name, name))
        if edge is None:
            edge = self.edges[(parent_name, name)] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration
        return duration

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- per-case harvest --------------------------------------------------
    def harvest(self) -> None:
        """Fold the finished case's simulators and traces into the counts."""
        for system in self.systems:
            self.count("sim.events", int(system.sim.events_processed))
            counters = system.trace.counters
            for key, name in (
                ("net.wifi_bytes", "net.wifi.bytes"),
                ("net.cellular_bytes", "net.cellular.bytes"),
                ("checkpoint.saved_bytes", "ckpt.saved_bytes"),
                ("checkpoint.ft_network_bytes", "ft.network_bytes"),
            ):
                counter = counters.get(name)
                self.count(key, int(round(counter.value)) if counter else 0)
        self.systems.clear()

    def to_dict(self) -> dict:
        hits = misses = 0
        for cached in self.vision_caches:
            info = cached.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "pid": self.pid,
            "spans": self.spans,
            "edges": [[p, n, c, t] for (p, n), (c, t) in self.edges.items()],
            "counts": self.counts,
            "categories": self.categories,
            "case_walls": self.case_walls,
            "first_row_s": self.first_row_s,
            "vision_cache": [hits, misses],
        }

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"trace-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
        os.replace(tmp, path)


# -- wrappers ---------------------------------------------------------------
def _span_wrapper(tracer: Tracer, fn, name: str, count_key=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count_key is not None:
            tracer.count(count_key)
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return wrapper


def _count_wrapper(tracer: Tracer, fn, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = tracer.counts
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def _generator_wrapper(tracer: Tracer, fn, name: str, count_key=None):
    """Time every resumption of the generator ``fn`` returns.

    The wrapper is itself a generator that forwards ``send``, ``throw``
    and ``close`` to the inner one, so ``yield from`` and
    ``Process.interrupt`` behave exactly as without it.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if count_key is not None:
            tracer.count(count_key)
        inner = fn(*args, **kwargs)
        value = None
        thrown = None
        while True:
            frame = tracer.enter(name)
            try:
                if thrown is None:
                    yielded = inner.send(value)
                else:
                    exc, thrown = thrown, None
                    yielded = inner.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame)
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the inner generator
                thrown = exc
                value = None
    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_function(module, attr: str, make) -> None:
    original = getattr(module, attr)
    wrapper = make(original)
    for extra in ("cache_info", "cache_clear", "cache_parameters"):
        if hasattr(original, extra):
            setattr(wrapper, extra, getattr(original, extra))
    _replace_everywhere(original, wrapper)


def _patch_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _app_family(cls) -> str:
    parts = cls.__module__.split(".")
    if len(parts) > 2 and parts[:2] == ["repro", "apps"] and parts[2] in APP_FAMILIES:
        return parts[2]
    return "core"


def _all_subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install(out_dir: str) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read at."""
    import importlib

    for name in (
        "repro.apps.bcp.operators", "repro.apps.signalguru.operators",
        "repro.apps.edgeml.operators", "repro.apps.vision",
        "repro.checkpoint.broadcast", "repro.checkpoint.scheme",
        "repro.checkpoint.store", "repro.core.graph", "repro.core.node",
        "repro.core.operator", "repro.core.region", "repro.core.system",
        "repro.core.windows", "repro.device.battery", "repro.device.fleet",
        "repro.net.cellular", "repro.net.wifi", "repro.results.model",
        "repro.scenarios", "repro.scenarios.executor",
        "repro.scenarios.runner", "repro.sim.core", "repro.sim.monitor",
        "repro.sim.resources",
    ):
        importlib.import_module(name)
    m = sys.modules
    tracer = Tracer(out_dir)
    os.register_at_fork(after_in_child=tracer.reset)

    def span(name, count_key=None):
        return lambda fn: _span_wrapper(tracer, fn, name, count_key)

    def gen(name, count_key=None):
        return lambda fn: _generator_wrapper(tracer, fn, name, count_key)

    def counted(key):
        return lambda fn: _count_wrapper(tracer, fn, key)

    # sim
    _patch_method(m["repro.sim.core"].Simulator, "run", span("sim.run"))
    _patch_method(m["repro.sim.core"].Simulator, "process", counted("sim.process_spawns"))
    _patch_method(m["repro.sim.resources"].Resource, "request",
                  counted("sim.resource_requests"))

    def traced_record(fn):
        categories = tracer.categories

        @functools.wraps(fn)
        def record(self, time_, category, **data):
            categories[category] = categories.get(category, 0) + 1
            return fn(self, time_, category, **data)
        return record
    _patch_method(m["repro.sim.monitor"].Trace, "record", traced_record)

    # core
    def traced_build(fn):
        @functools.wraps(fn)
        def build_system(*args, **kwargs):
            frame = tracer.enter("core.build")
            try:
                system = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            tracer.systems.append(system)
            return system
        return build_system
    _patch_function(m["repro.scenarios.runner"], "build_system", traced_build)
    _patch_method(m["repro.core.node"].NodeRuntime, "deliver", counted("core.deliveries"))
    _patch_method(m["repro.core.region"].Region, "route_tuple",
                  span("core.route", "core.route_calls"))
    _patch_method(m["repro.core.graph"].QueryGraph, "downstream_of",
                  counted("core.downstream_of_calls"))
    _patch_method(m["repro.core.region"].Region, "on_sink_output",
                  counted("core.sink_outputs"))
    _patch_method(m["repro.core.system"].MobiStreamsSystem, "metrics", span("core.metrics"))

    # apps: every concrete Operator.process, per family
    def traced_process(fn, family):
        name = f"apps.{family}.process"
        calls_key = f"apps.{family}.process_calls"
        out_key = f"apps.{family}.tuples_out"

        @functools.wraps(fn)
        def process(self, tup, ctx):
            if tracer.process_depth:
                # super().process() inside an operator: one invocation.
                return fn(self, tup, ctx)
            tracer.process_depth += 1
            frame = tracer.enter(name)
            try:
                out = fn(self, tup, ctx)
            finally:
                tracer.exit(frame)
                tracer.process_depth -= 1
            counts = tracer.counts
            counts[calls_key] = counts.get(calls_key, 0) + 1
            counts[out_key] = counts.get(out_key, 0) + len(out)
            return out
        return process

    operator_cls = m["repro.core.operator"].Operator
    for cls in _all_subclasses(operator_cls):
        if "process" in cls.__dict__ and not getattr(
                cls.__dict__["process"], "__isabstractmethod__", False):
            family = _app_family(cls)
            _patch_method(cls, "process", lambda fn, f=family: traced_process(fn, f))

    vision = m["repro.apps.vision"]
    for attr, value in list(vars(vision).items()):
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) != vision.__name__:
            continue
        if hasattr(value, "cache_info"):
            tracer.vision_caches.append(value)
        _patch_function(vision, attr, span("apps.vision"))

    # net
    wifi_cls = m["repro.net.wifi"].WifiCell
    for attr in ("tcp_unicast", "udp_unicast", "control_exchange"):
        _patch_method(wifi_cls, attr, gen("net.wifi"))
    _patch_method(wifi_cls, "udp_broadcast_round", gen("net.wifi", "net.broadcast_rounds"))
    _patch_method(m["repro.net.cellular"].CellularNetwork, "send", gen("net.cellular"))

    # checkpoint
    _patch_function(m["repro.checkpoint.broadcast"], "broadcast_checkpoint",
                    gen("checkpoint.broadcast"))
    _patch_method(m["repro.checkpoint.store"].CheckpointStore, "put",
                  span("checkpoint.store_put"))

    def traced_replay(fn):
        @functools.wraps(fn)
        def replay_from(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.count("checkpoint.replayed_tuples", len(out))
            return out
        return replay_from
    _patch_method(m["repro.checkpoint.store"].PreservationStore, "replay_from", traced_replay)

    # device
    _patch_method(m["repro.device.fleet"].Fleet, "sweep_battery",
                  span("device.fleet_sweep", "device.fleet_sweep_calls"))
    _patch_method(m["repro.device.battery"].Battery, "drain_idle",
                  counted("device.battery_drain_calls"))

    # scenarios
    def traced_run_case(fn):
        @functools.wraps(fn)
        def run_case(spec, app, scheme, seed, *args, **kwargs):
            outer = tracer.case_depth == 0
            tracer.case_depth += 1
            frame = tracer.enter("scenarios.case")
            try:
                return fn(spec, app, scheme, seed, *args, **kwargs)
            finally:
                wall = tracer.exit(frame)
                tracer.case_depth -= 1
                if outer:
                    key = getattr(app, "key", app)
                    tracer.case_walls.append([f"{key}/{scheme}/seed={seed}", wall])
                    tracer.harvest()
                    tracer.dump()
        return run_case
    _patch_function(m["repro.scenarios.runner"], "run_case", traced_run_case)

    def traced_run_sweep(fn):
        @functools.wraps(fn)
        def run_sweep(*args, **kwargs):
            tracer.sweep_start = _perf()
            return fn(*args, **kwargs)
        return run_sweep
    _patch_function(m["repro.scenarios.executor"], "run_sweep", traced_run_sweep)

    def traced_write_row(fn):
        @functools.wraps(fn)
        def write_row(self, row):
            if tracer.first_row_s is None and tracer.sweep_start is not None:
                tracer.first_row_s = _perf() - tracer.sweep_start
            frame = tracer.enter("scenarios.merge")
            try:
                return fn(self, row)
            finally:
                tracer.exit(frame)
        return write_row
    writer_cls = m["repro.scenarios.executor"].StreamingSweepWriter
    _patch_method(writer_cls, "write_row", traced_write_row)
    _patch_method(writer_cls, "finish", span("scenarios.merge"))

    # results
    _patch_method(m["repro.results.model"].CaseResult, "from_report",
                  span("results.row_build"))
    return tracer
