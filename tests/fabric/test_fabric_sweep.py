"""Fabric integration tests: distributed sweeps against real sockets.

The fast paths (byte-identity, error capture) run coordinator and
workers in-process on threads; the failure-mode paths (quarantine,
coordinator restart) use real worker subprocesses because the behavior
under test *is* process death.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time


from repro.fabric import FabricCoordinator, FabricWorker
from repro.fabric.chaos import _worker_env, run_chaos
from repro.fabric.testing import (
    CHAOS_ERROR,
    CHAOS_KILL,
    ENABLE_ENV,
    KILL_DIR_ENV,
    KILL_LIMIT_ENV,
    chaos_schemes,
)
from repro.scenarios import TelemetrySpec, executor
from repro.scenarios.executor import run_sweep
from repro.scenarios.spec import EventSpec, MatrixSpec, ScenarioSpec
from repro.verify.testing import BROKEN_REPLAY, broken_replay_scheme

FAST = dict(lease_timeout_s=8.0, heartbeat_timeout_s=3.0,
            backoff_base_s=0.05, idle_timeout_s=60.0)


def small_spec(**kwargs):
    defaults = dict(
        name="fabric-t", duration_s=200.0, warmup_s=40.0, idle_per_region=4,
        checkpoint_period_s=60.0,
        matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4)),
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def _run_workers(address, n, **kwargs):
    """Run n in-process FabricWorkers on threads; returns (threads, codes)."""
    codes = [None] * n
    threads = []
    for i in range(n):
        worker = FabricWorker(
            address, worker_id=f"t{i}", heartbeat_interval_s=0.2,
            reconnect_delay_s=0.1, patience_s=20.0, **kwargs)

        def _run(i=i, worker=worker):
            codes[i] = worker.run()

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        threads.append(thread)
    return threads, codes


def _join_all(threads, timeout=30.0):
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), "worker thread failed to exit"


def test_distributed_sweep_matches_serial_and_local_pool(tmp_path):
    """Serial, --jobs 2, and a 2-worker fabric sweep must all produce
    byte-identical artifacts."""
    spec = small_spec()
    serial = tmp_path / "serial.json"
    jobs2 = tmp_path / "jobs2.json"
    fabric = tmp_path / "fabric.json"

    run_sweep(spec, jobs=1, out_path=str(serial))
    run_sweep(spec, jobs=2, out_path=str(jobs2))

    coordinator = FabricCoordinator(spec, ("127.0.0.1", 0), **FAST)
    threads, codes = _run_workers((coordinator.host, coordinator.port), 2)
    envelope = coordinator.run(out_path=str(fabric))
    _join_all(threads)

    assert codes == [0, 0]
    assert envelope["n_cases"] == 4
    assert "quarantined" not in envelope and "errors" not in envelope
    assert serial.read_bytes() == jobs2.read_bytes() == fabric.read_bytes()


def _fabric_sweep(spec, *, n_workers=2, out_path=None, timelines_dir=None,
                  **options):
    """One coordinator sweep served by in-process workers."""
    coordinator = FabricCoordinator(spec, ("127.0.0.1", 0), **FAST, **options)
    threads, codes = _run_workers((coordinator.host, coordinator.port),
                                  n_workers)
    envelope = coordinator.run(out_path=out_path, timelines_dir=timelines_dir)
    _join_all(threads)
    assert codes == [0] * n_workers
    return envelope


def _read_dir(dirname):
    return {name: (dirname / name).read_bytes()
            for name in sorted(os.listdir(dirname))}


def test_telemetry_timelines_match_across_engines(tmp_path):
    """Both engines write the same artifact and the same per-case
    timeline files, byte for byte."""
    spec = small_spec(telemetry=TelemetrySpec(interval_s=30.0))
    serial, fabric = tmp_path / "serial.json", tmp_path / "fabric.json"
    serial_tl, fabric_tl = tmp_path / "serial-tl", tmp_path / "fabric-tl"
    run_sweep(spec, out_path=str(serial), timelines_dir=str(serial_tl))
    envelope = _fabric_sweep(spec, out_path=str(fabric),
                             timelines_dir=str(fabric_tl))

    assert sorted(envelope) == ["cases", "n_cases", "scenario", "spec"]
    assert serial.read_bytes() == fabric.read_bytes()
    timelines = _read_dir(serial_tl)
    assert len(timelines) == envelope["n_cases"] == 4
    assert _read_dir(fabric_tl) == timelines


def test_verify_violations_match_across_engines():
    """A verified fabric sweep reports exactly the serial sweep's
    tagged violations (a broken scheme guarantees there are some)."""
    spec = ScenarioSpec(
        name="fabric-verify", duration_s=300.0, warmup_s=10.0,
        phones_per_region=8, idle_per_region=2, checkpoint_period_s=60.0,
        events=(EventSpec(kind="crash", time=200.0, phones=(2,)),),
        matrix=MatrixSpec(apps=("signalguru",),
                          schemes=("ms-8", BROKEN_REPLAY), seeds=(3,)))
    with broken_replay_scheme():
        serial = run_sweep(spec, verify=True)
        fabric = _fabric_sweep(spec, verify=True)

    assert fabric["violations"] == serial["violations"]
    assert {v["scheme"] for v in serial["violations"]} == {BROKEN_REPLAY}
    assert fabric["cases"] == serial["cases"]


def test_fabric_finishes_a_cache_half_filled_by_a_local_sweep(tmp_path):
    """Cross-engine resume: a partial local sweep fills half the cache,
    the coordinator simulates only the rest, and the artifact is
    byte-identical to an uninterrupted serial sweep."""
    spec = small_spec()
    serial, fabric = tmp_path / "serial.json", tmp_path / "fabric.json"
    cache = str(tmp_path / "cache")
    run_sweep(spec, out_path=str(serial))
    run_sweep(spec, max_cases=2, resume_dir=cache)

    kinds = []
    runs_before = executor.stats["cases_run"]
    envelope = _fabric_sweep(
        spec, out_path=str(fabric), resume_dir=cache,
        on_progress=lambda kind, *_case: kinds.append(kind))

    assert kinds == ["cached", "cached", "row", "row"]
    assert executor.stats["cases_run"] - runs_before == 2
    assert envelope["n_cases"] == 4
    assert fabric.read_bytes() == serial.read_bytes()


def test_worker_errors_are_reported_not_silently_dropped(tmp_path):
    """A case that raises on the worker lands in the envelope's
    ``errors`` sidecar after one retry — never as an artifact row."""
    with chaos_schemes():
        spec = small_spec(
            matrix=MatrixSpec(apps=("bcp",), schemes=("base", CHAOS_ERROR),
                              seeds=(3,)))
        out = tmp_path / "out.json"
        coordinator = FabricCoordinator(spec, ("127.0.0.1", 0), **FAST)
        threads, codes = _run_workers((coordinator.host, coordinator.port), 1)
        envelope = coordinator.run(out_path=str(out))
        _join_all(threads)

    assert codes == [0]
    assert envelope["n_cases"] == 1
    assert [row["scheme"] for row in envelope["cases"]] == ["base"]
    assert "quarantined" not in envelope
    (record,) = envelope["errors"]
    assert record["scheme"] == CHAOS_ERROR and record["seed"] == 3
    assert record["attempts"] == 2
    assert record["error"]["type"] == "RuntimeError"
    assert "chaos-error" in record["error"]["message"]
    # The on-disk artifact carries only real rows — no error sidecar.
    artifact = json.loads(out.read_text())
    assert "errors" not in artifact and len(artifact["cases"]) == 1


def test_case_that_kills_its_worker_twice_is_quarantined(tmp_path):
    """A poison case gets exactly two chances, then the sweep finishes
    without it (and without hanging) and reports the quarantine."""
    kill_dir = tmp_path / "kills"
    kill_dir.mkdir()
    with chaos_schemes():
        spec = small_spec(
            matrix=MatrixSpec(apps=("bcp",), schemes=("base", CHAOS_KILL),
                              seeds=(3,)))
        result = run_chaos(
            spec, work_dir=str(tmp_path / "work"), n_workers=1, kills=0,
            # Arm the kill scheme only inside the worker subprocesses:
            # the in-process serial reference must not kill pytest.
            worker_env={ENABLE_ENV: "1", KILL_DIR_ENV: str(kill_dir),
                        KILL_LIMIT_ENV: "-1"},
            lease_timeout_s=8.0, heartbeat_timeout_s=3.0,
            backoff_base_s=0.05, idle_timeout_s=60.0)

    # The poison case never produced a row, so the artifact differs
    # from serial — by exactly that one missing case.
    assert not result.identical
    assert result.n_cases == 1
    assert [row["scheme"] for row in result.envelope["cases"]] == ["base"]
    (record,) = result.quarantined
    assert record["scheme"] == CHAOS_KILL and record["seed"] == 3
    assert record["kills"] == 2
    assert record["reason"] == "killed its worker 2 time(s)"
    # Two SIGKILLed workers were replaced so the sweep could drain.
    assert result.respawns >= 2
    assert len(list(kill_dir.iterdir())) == 2


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _StderrTail:
    """Collect a subprocess's stderr lines without blocking it."""

    def __init__(self, proc):
        self.lines = []
        self._cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._pump, args=(proc,), daemon=True)
        self._thread.start()

    def _pump(self, proc):
        for line in proc.stderr:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()
        proc.stderr.close()

    def wait_for(self, needle, timeout=60.0):
        deadline = time.monotonic() + timeout
        scanned = 0
        with self._cond:
            while True:
                for line in self.lines[scanned:]:
                    if needle in line:
                        return line
                scanned = len(self.lines)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(
                        f"timed out waiting for {needle!r} in stderr:\n"
                        + "\n".join(self.lines))
                self._cond.wait(min(remaining, 0.5))


def test_coordinator_restart_workers_reregister(tmp_path):
    """SIGKILL the coordinator mid-sweep; a restarted coordinator on the
    same port resumes from the case cache, the surviving worker
    re-registers, and the final artifact still byte-matches serial."""
    spec = small_spec(matrix=MatrixSpec(
        apps=("bcp",), schemes=("base", "ms-8"), seeds=(3, 4, 5)))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    serial = tmp_path / "serial.json"
    run_sweep(spec, jobs=1, out_path=str(serial))

    port = _free_port()
    cache_dir = tmp_path / "cache"
    out = tmp_path / "fabric.json"
    env = _worker_env()

    def _coordinator():
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "fabric", "coordinator",
             str(spec_path), "--bind", f"127.0.0.1:{port}",
             "--out", str(out), "--resume", "--cache-dir", str(cache_dir),
             "--lease-timeout", "8", "--heartbeat-timeout", "3",
             "--idle-timeout", "60"],
            env=env, stderr=subprocess.PIPE, text=True)

    coord = _coordinator()
    tail = _StderrTail(coord)
    tail.wait_for("fabric: listening")

    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric", "worker",
         "--connect", f"127.0.0.1:{port}", "--id", "survivor",
         "--heartbeat-interval", "0.2", "--patience", "30"],
        env=env)
    try:
        # Let at least one case merge (and hit the resume cache), then
        # kill the coordinator without warning.
        tail.wait_for(" row ")
        coord.send_signal(signal.SIGKILL)
        coord.wait(timeout=10)

        # Same port, same cache: the restarted coordinator preloads the
        # finished cases and the worker reconnects within its patience.
        coord = _coordinator()
        tail = _StderrTail(coord)
        tail.wait_for("fabric: listening")
        assert coord.wait(timeout=120) == 0
        assert worker.wait(timeout=30) == 0
    finally:
        for proc in (worker, coord):
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    assert out.read_bytes() == serial.read_bytes()
    # The restart actually resumed: at least one case came from cache.
    assert any(" cached " in line for line in tail.lines), tail.lines
