"""Cold-start sweep benchmark for the MobiStreams reproduction.

Usage, from the repository root::

    python3 sweepbench/run.py --workload fig8-serial --seed 3 --seconds 60 --trace 0

One closed-loop client: each iteration spawns a fresh interpreter that
runs ``repro scenario sweep <spec.json> --out <artifact>`` through the
CLI (``child.py``) and waits for it to exit before the next starts.  The
spec is the named scenario with ``matrix.seeds`` rewritten to
``--seed``; the program receives only that spec file.  Iterations repeat
until ``--seconds`` is spent (at least three), and each metric is the
median over them.  Every artifact is checked row by row against
reference digests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs pairs of
untraced and traced iterations and prints the per-layer metrics (see
``tracer.py``), the set-up breakdown and the tracing overhead.  The last
line of standard output is one JSON object; everything before it is
for people.  ``--write-reference`` records the reference digests at the
default seed.  Why each workload exists is in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracer import APP_FAMILIES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

#: The seed the named specs commit; reference digests exist for it.
DEFAULT_SEED = 3
#: A run measures at least this many iterations, however long they take.
MIN_ITERATIONS = 3
#: Extra set-up-only interpreters per untraced run (set-up is the
#: noisiest metric, so it gets more samples than the sweeps give).
SETUP_PROBES = 12
#: Set-up breakdown samples per traced run.
INTERPRETER_PROBES = 5
IMPORTTIME_PROBES = 3
#: One child may not outlive this (the whole run must end in 180 s).
CHILD_TIMEOUT_S = 120.0

WORKLOADS = {
    "fig8-serial": {"scenario": "paper-fig8", "jobs": 1},
    "fleet-wave": {"scenario": "fleet-battery-wave", "jobs": 1},
    "fig8-jobs2": {"scenario": "paper-fig8", "jobs": 2},
}

#: The end-to-end metrics in the result JSON.
END_TO_END_UNITS = {
    "setup_s": "s",
    "e2e_wall_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed for people only: the first is mostly noise while a sweep
#: crashes, the second is 0 while every case fails.
PRINTED_UNITS = {"sweep_wall_s": "s", "sim_s_per_wall_s": "sim-s/s"}


class BenchError(Exception):
    """The benchmark cannot run here (no result is printed)."""


# -- processes ----------------------------------------------------------------
def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def _kill_group(pgid: int) -> bool:
    """SIGKILL a process group; False once no process is left in it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    deadline = time.monotonic() + 10.0
    while _kill_group(pgid):
        if time.monotonic() > deadline:
            raise BenchError(f"process group {pgid} did not exit")
        time.sleep(0.01)


def spawn(argv, stdout_path: str, stderr_path: str):
    """Run ``argv`` in its own process group; return (spawn time, exit
    time, exit code, peak RSS in KB over the child and its reaped
    descendants).  Nothing it started outlives this call."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return start, end, proc.returncode, usage.ru_maxrss


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


# -- inputs ---------------------------------------------------------------------
def prepare(workload: str, seed: int, run_dir: str) -> dict:
    """Compile the tree, and write the workload's spec with its seeds
    rewritten to ``seed``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro/cli.py is missing")
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], cwd=ROOT,
                   env=_child_env(), check=True, stdout=subprocess.DEVNULL)
    scenario = WORKLOADS[workload]["scenario"]
    shown = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", "show", scenario], cwd=ROOT,
        env=_child_env(), check=True, capture_output=True, text=True)
    spec = json.loads(shown.stdout)
    spec["matrix"]["seeds"] = [seed]
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
    matrix = spec["matrix"]
    n_cases = len(matrix["apps"]) * len(matrix["schemes"]) * len(matrix["seeds"])
    return {"path": spec_path, "n_cases": n_cases, "duration_s": float(spec["duration_s"]),
            "scenario": scenario}


def row_key(row: dict) -> str:
    return f"{row['app']}/{row['scheme']}/seed={row['seed']}"


def row_digest(row: dict) -> str:
    canonical = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_digests(path: str):
    """``{"artifact": sha256, "rows": {case key: sha256}}`` or None when
    the sweep left no artifact."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
        rows = {row_key(row): row_digest(row) for row in doc["cases"]}
    except (ValueError, KeyError, TypeError):
        return {"artifact": hashlib.sha256(data).hexdigest(), "rows": {}}
    return {"artifact": hashlib.sha256(data).hexdigest(), "rows": rows}


def reference_path(scenario: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{scenario}.json")


def load_reference(scenario: str):
    with open(reference_path(scenario), encoding="utf-8") as fh:
        return json.load(fh)


def check(digests, reference, n_cases: int) -> dict:
    """Per-row verdict: a case fails if it left no row or a row whose
    bytes differ from the reference; a differing row is also wrong."""
    if digests is None:
        return {"ok": 0, "failed": n_cases, "wrong": 0}
    expected = reference["rows"] if reference is not None else {}
    ok = wrong = 0
    for key, digest in digests["rows"].items():
        if expected.get(key) == digest:
            ok += 1
        else:
            wrong += 1
    if ok == n_cases and digests["artifact"] != reference["artifact"]:
        wrong += 1  # every row right, envelope bytes wrong
    return {"ok": ok, "failed": n_cases - ok, "wrong": wrong}


# -- one iteration ----------------------------------------------------------------
def _child(spec: dict, out: str, jobs: int, run_dir: str, tag: str, trace_dir=None):
    """Run ``child.py`` once; return its timings, exit code and stderr."""
    marks = os.path.join(run_dir, f"{tag}.marks.json")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), marks, spec["path"],
            out, str(jobs)]
    if trace_dir is not None:
        argv.append(trace_dir)
    stderr_path = os.path.join(run_dir, f"{tag}.stderr")
    start, end, code, rss_kb = spawn(argv, os.path.join(run_dir, f"{tag}.stdout"),
                                     stderr_path)
    stderr = _read(stderr_path)
    if not os.path.isfile(marks):
        raise BenchError(f"sweep child exited {code} before set-up:\n{stderr}")
    with open(marks, encoding="utf-8") as fh:
        mark = json.load(fh)
    if not os.path.realpath(mark["repro"]).startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported repro from {mark['repro']}, not from {SRC}")
    return {
        "setup_s": mark["setup_done"] - start,
        "e2e_wall_s": end - start,
        "sweep_wall_s": end - mark["setup_done"],
        "peak_rss_mb": rss_kb / 1024.0,
        "exit_code": code,
        "error": stderr.strip().splitlines()[-1] if code != 0 and stderr.strip() else None,
        "traceback": stderr if code != 0 else None,
    }


def sweep_once(spec: dict, jobs: int, run_dir: str, tag: str, trace_dir=None) -> dict:
    out = os.path.join(run_dir, f"{tag}.sweep.json")
    it = _child(spec, out, jobs, run_dir, tag, trace_dir)
    it["digests"] = artifact_digests(out)
    if os.path.exists(out):
        os.unlink(out)
    return it


def setup_probe(spec: dict, run_dir: str, tag: str) -> float:
    probe = _child(spec, "-", 1, run_dir, tag)
    if probe["exit_code"] != 0:
        raise BenchError(f"set-up probe exited {probe['exit_code']}: {probe['error']}")
    return probe["setup_s"]


# -- statistics ---------------------------------------------------------------------
def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range as a share of the median (0 with < 2 samples)."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


# -- untraced run -------------------------------------------------------------------
def run_untraced(workload: str, spec: dict, reference, deadline: float, run_dir: str) -> dict:
    jobs = WORKLOADS[workload]["jobs"]
    setups = [setup_probe(spec, run_dir, f"probe{i}") for i in range(SETUP_PROBES)]
    iterations = []
    while True:
        it = sweep_once(spec, jobs, run_dir, f"it{len(iterations)}")
        if reference is None:
            reference = it["digests"]  # a non-default seed: the run checks itself
        it["check"] = check(it["digests"], reference, spec["n_cases"])
        iterations.append(it)
        typical = median([i["e2e_wall_s"] for i in iterations])
        if len(iterations) >= MIN_ITERATIONS and time.monotonic() + typical > deadline:
            break
    setups += [it["setup_s"] for it in iterations]
    series = {name: [it[name] for it in iterations]
              for name in ("e2e_wall_s", "sweep_wall_s", "peak_rss_mb")}
    series["setup_s"] = setups
    series["sim_s_per_wall_s"] = [
        it["check"]["ok"] * spec["duration_s"] / it["sweep_wall_s"] for it in iterations]
    attempted = spec["n_cases"] * len(iterations)
    failed = sum(it["check"]["failed"] for it in iterations)
    return {"series": series, "iterations": iterations, "attempted": attempted,
            "failed": failed, "reference": reference}


# -- traced run ---------------------------------------------------------------------
def _importtime_groups(stderr: str) -> dict:
    groups = {"numpy": 0, "networkx": 0, "repro": 0, "other": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        top = fields[2].strip().split(".")[0]
        group = top if top in groups else "other"
        groups[group] += int(fields[0])
    return {k: v / 1e6 for k, v in groups.items()}


def setup_breakdown(run_dir: str) -> dict:
    interp = []
    for i in range(INTERPRETER_PROBES):
        start, end, code, _ = spawn([sys.executable, "-c", "pass"], os.devnull,
                                    os.path.join(run_dir, f"interp{i}.stderr"))
        if code != 0:
            raise BenchError("bare interpreter failed")
        interp.append(end - start)
    samples = []
    for i in range(IMPORTTIME_PROBES):
        err = os.path.join(run_dir, f"importtime{i}.stderr")
        _s, _e, code, _ = spawn([sys.executable, "-X", "importtime", "-c", "import repro.cli"],
                                os.devnull, err)
        if code != 0:
            raise BenchError(f"import repro.cli failed:\n{_read(err)}")
        samples.append(_importtime_groups(_read(err)))
    out = {"setup.interpreter_s": median(interp)}
    for group in ("numpy", "networkx", "repro", "other"):
        out[f"setup.import_{group}_s"] = median([s[group] for s in samples])
    return out


def merge_traces(trace_dir: str) -> dict:
    merged = {"spans": {}, "edges": {}, "counts": {}, "categories": {}, "case_walls": [],
              "first_row_s": None, "vision_cache": [0, 0]}
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            dump = json.load(fh)
        for span, (calls, total, self_s) in dump["spans"].items():
            rec = merged["spans"].setdefault(span, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for parent, span, calls, total in dump["edges"]:
            rec = merged["edges"].setdefault(f"{parent or '<root>'} -> {span}", [0, 0.0])
            rec[0] += calls
            rec[1] += total
        for key in ("counts", "categories"):
            for name_, value in dump[key].items():
                merged[key][name_] = merged[key].get(name_, 0) + value
        merged["case_walls"] += dump["case_walls"]
        if dump["first_row_s"] is not None:
            merged["first_row_s"] = dump["first_row_s"]
        merged["vision_cache"][0] += dump["vision_cache"][0]
        merged["vision_cache"][1] += dump["vision_cache"][1]
    return merged


LAYERS = ("sim", "core", "apps", "net", "checkpoint", "device", "scenarios", "results")
#: The workloads run no edgeml operators, so edgeml counts only toward
#: the ``apps.*`` totals.
REPORTED_APP_FAMILIES = ("bcp", "signalguru", "core")
#: Counts that depend on which cases share a worker process's caches, so
#: they need not repeat between parallel sweeps.
PROCESS_LOCAL_COUNTS = ("apps.vision_cache_lookups",)


def layer_metrics(m: dict) -> dict:
    """The per-layer metrics of one traced sweep: ``{name: (value, unit)}``."""
    spans, counts, cats = m["spans"], m["counts"], m["categories"]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def n(key):
        return int(counts.get(key, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "sim.events": (n("sim.events"), "count"),
        "sim.events_per_output": (ratio(n("sim.events"), n("core.sink_outputs")), "ratio"),
        "sim.run_self_s": (spans.get("sim.run", [0, 0.0, 0.0])[2], "s"),
        "sim.process_spawns": (n("sim.process_spawns"), "count"),
        "sim.resource_requests": (n("sim.resource_requests"), "count"),
        "sim.trace_records": (int(sum(cats.values())), "count"),
        "core.build_s": (total("core.build"), "s"),
        "core.deliveries": (n("core.deliveries"), "count"),
        "core.route_calls": (n("core.route_calls"), "count"),
        "core.route_s": (total("core.route"), "s"),
        "core.downstream_of_calls": (n("core.downstream_of_calls"), "count"),
        "core.sink_outputs": (n("core.sink_outputs"), "count"),
        "core.metrics_s": (total("core.metrics"), "s"),
    }
    families = {}
    for fam in APP_FAMILIES:
        families[fam] = {
            "process_calls": (n(f"apps.{fam}.process_calls"), "count"),
            "process_s": (total(f"apps.{fam}.process"), "s"),
            "tuples_out": (n(f"apps.{fam}.tuples_out"), "count"),
        }
    for what, unit in (("process_calls", "count"), ("process_s", "s"), ("tuples_out", "count")):
        out[f"apps.{what}"] = (sum(f[what][0] for f in families.values()), unit)
    for fam in REPORTED_APP_FAMILIES:
        for what, value in families[fam].items():
            out[f"apps.{fam}.{what}"] = value
    hits, misses = m["vision_cache"]
    out.update({
        "apps.vision_s": (total("apps.vision"), "s"),
        "apps.vision_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "apps.vision_cache_lookups": (int(hits + misses), "count"),
        "net.wifi_s": (total("net.wifi"), "s"),
        "net.broadcast_rounds": (n("net.broadcast_rounds"), "count"),
        "net.cellular_s": (total("net.cellular"), "s"),
        "net.wifi_bytes": (n("net.wifi_bytes"), "B"),
        "net.cellular_bytes": (n("net.cellular_bytes"), "B"),
        "checkpoint.requested": (int(cats.get("checkpoint_requested", 0)), "count"),
        "checkpoint.completed": (int(cats.get("checkpoint_complete", 0)), "count"),
        "checkpoint.abandoned": (int(cats.get("checkpoint_abandoned", 0)), "count"),
        "checkpoint.commit_ratio": (ratio(cats.get("checkpoint_complete", 0),
                                          cats.get("checkpoint_requested", 0)), "ratio"),
        "checkpoint.broadcast_s": (total("checkpoint.broadcast"), "s"),
        "checkpoint.store_put_s": (total("checkpoint.store_put"), "s"),
        "checkpoint.saved_bytes": (n("checkpoint.saved_bytes"), "B"),
        "checkpoint.ft_network_bytes": (n("checkpoint.ft_network_bytes"), "B"),
        "checkpoint.replayed_tuples": (n("checkpoint.replayed_tuples"), "count"),
        "device.fleet_sweep_calls": (n("device.fleet_sweep_calls"), "count"),
        "device.fleet_sweep_s": (total("device.fleet_sweep"), "s"),
        "device.battery_drain_calls": (n("device.battery_drain_calls"), "count"),
    })
    walls = [wall for _label, wall in m["case_walls"]]
    out.update({
        "scenarios.cases_run": (len(walls), "count"),
        "scenarios.case_wall_p50_s": (median(walls), "s"),
        "scenarios.case_wall_max_s": (max(walls) if walls else 0.0, "s"),
        "scenarios.first_row_s": (m["first_row_s"] or 0.0, "s"),
        "scenarios.merge_s": (total("scenarios.merge"), "s"),
        "results.row_build_s": (total("results.row_build"), "s"),
    })
    for layer in LAYERS:
        self_s = sum((rec[2] for name, rec in spans.items() if name.split(".")[0] == layer), 0.0)
        out[f"layer.{layer}_self_s"] = (self_s, "s")
    return out


def run_traced(workload: str, spec: dict, reference, deadline: float, run_dir: str) -> dict:
    jobs = WORKLOADS[workload]["jobs"]
    setup = setup_breakdown(run_dir)
    began = time.monotonic()
    pairs = []
    while True:
        i = len(pairs)
        plain = sweep_once(spec, jobs, run_dir, f"plain{i}")
        trace_dir = os.path.join(run_dir, f"trace{i}")
        os.makedirs(trace_dir)
        traced = sweep_once(spec, jobs, run_dir, f"traced{i}", trace_dir=trace_dir)
        merged = merge_traces(trace_dir)
        if reference is None:
            reference = plain["digests"]
        pairs.append({"plain": plain, "traced": traced, "merged": merged,
                      "layers": layer_metrics(merged),
                      "check": check(traced["digests"], reference, spec["n_cases"])})
        now = time.monotonic()
        if now + (now - began) / len(pairs) > deadline:
            break
    return {"setup": setup, "pairs": pairs, "reference": reference}


# -- reporting ----------------------------------------------------------------------
def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.4f}"


def report_untraced(workload: str, seed: int, spec: dict, res: dict) -> dict:
    its = res["iterations"]
    print(f"workload {workload}: {spec['scenario']} x {spec['n_cases']} case(s), "
          f"jobs={WORKLOADS[workload]['jobs']}, seed={seed}, "
          f"{len(its)} cold sweep(s), {len(res['series']['setup_s'])} set-up sample(s)")
    for i, it in enumerate(its):
        c = it["check"]
        print(f"  sweep {i}: e2e {it['e2e_wall_s']:.3f} s, set-up {it['setup_s']:.3f} s, "
              f"rss {it['peak_rss_mb']:.1f} MB, exit {it['exit_code']}, "
              f"rows ok {c['ok']}/{spec['n_cases']}, wrong {c['wrong']}"
              + (f", error: {it['error']}" if it["error"] else ""))
    for name, unit in {**END_TO_END_UNITS, **PRINTED_UNITS}.items():
        values = res["series"][name]
        print(f"  {name:<18} median {median(values):10.4f} {unit:<8} "
              f"IQR/median {spread(values):.4f}  n={len(values)}")
    print(f"  {'case_fail_frac':<18} {res['failed'] / res['attempted']:10.4f} "
          f"({res['failed']} of {res['attempted']} cases failed)")
    failing = [it for it in its if it["traceback"]]
    if failing:
        print("  last failure traceback:")
        for line in failing[-1]["traceback"].strip().splitlines()[-6:]:
            print(f"    {line}")
    return {name: {"value": median(res["series"][name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def report_traced(workload: str, seed: int, spec: dict, res: dict):
    pairs = res["pairs"]
    print(f"workload {workload} (traced): {spec['scenario']} x {spec['n_cases']} case(s), "
          f"jobs={WORKLOADS[workload]['jobs']}, seed={seed}, {len(pairs)} untraced/traced pair(s)")
    correct = True
    for i, p in enumerate(pairs):
        same = p["plain"]["digests"] == p["traced"]["digests"]
        correct &= same
        print(f"  pair {i}: untraced {p['plain']['e2e_wall_s']:.3f} s, traced "
              f"{p['traced']['e2e_wall_s']:.3f} s, traced rows ok {p['check']['ok']}/"
              f"{spec['n_cases']}, artifacts {'byte-identical' if same else 'DIFFER'}")
    first = pairs[0]["layers"]
    unstable = sorted(
        name for name, (value, unit) in first.items()
        if isinstance(value, int) and name not in PROCESS_LOCAL_COUNTS
        and any(p["layers"][name][0] != value for p in pairs[1:]))
    if unstable:
        correct = False
        print(f"  NONDETERMINISM: counts differ between traced sweeps: {', '.join(unstable)}")
    metrics = {}
    for name, (value, unit) in first.items():
        if not isinstance(value, int):
            value = median([p["layers"][name][0] for p in pairs])
        metrics[name] = {"value": value, "unit": unit}
    for name, value in res["setup"].items():
        metrics[name] = {"value": value, "unit": "s"}
    plain = median([p["plain"]["e2e_wall_s"] for p in pairs])
    traced = median([p["traced"]["e2e_wall_s"] for p in pairs])
    metrics["trace.overhead_frac"] = {"value": traced / plain - 1.0, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"  {name:<34} {_fmt(m['value']):>16} {m['unit']}")
    walls = pairs[0]["merged"]["case_walls"]
    if walls:
        label, wall = max(walls, key=lambda w: w[1])
        print(f"  slowest case: {label} ({wall:.3f} s traced)")
    if pairs[0]["merged"]["vision_cache"] != [0, 0]:
        hits, misses = pairs[0]["merged"]["vision_cache"]
        print(f"  vision cache: {hits} hits of {hits + misses} lookups")
    cats = pairs[0]["merged"]["categories"]
    print(f"  checkpoint commits: {cats.get('checkpoint_complete', 0)} of "
          f"{cats.get('checkpoint_requested', 0)} requested")
    top = sorted(pairs[0]["merged"]["spans"].items(), key=lambda kv: -kv[1][2])[:12]
    print("  self time by span (first traced sweep):")
    for name, (calls, total_s, self_s) in top:
        print(f"    {name:<28} self {self_s:8.3f} s  total {total_s:8.3f} s  calls {calls}")
    edges = sorted(pairs[0]["merged"]["edges"].items(), key=lambda kv: -kv[1][1])[:12]
    print("  time by parent -> child span (first traced sweep):")
    for edge, (calls, total_s) in edges:
        print(f"    {edge:<48} total {total_s:8.3f} s  calls {calls}")
    failed = sum(p["check"]["failed"] for p in pairs)
    correct &= all(p["check"]["wrong"] == 0 for p in pairs)
    return metrics, correct, spec["n_cases"] * len(pairs), failed


def print_digests(workload: str, seed: int, digests) -> None:
    if digests is None:
        print(f"digests {workload} seed={seed}: no artifact")
        return
    print(f"digests {workload} seed={seed}: artifact sha256 {digests['artifact']}")
    for key, digest in sorted(digests["rows"].items()):
        print(f"  {key} {digest[:16]}")


# -- entry ----------------------------------------------------------------------------
def write_reference() -> None:
    """Record the serial workloads' digests at the default seed."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in ("fig8-serial", "fleet-wave"):
        run_dir = os.path.join(WORK, f"reference-{workload}-{os.getpid()}")
        os.makedirs(run_dir)
        try:
            spec = prepare(workload, DEFAULT_SEED, run_dir)
            it = sweep_once(spec, 1, run_dir, "ref")
            if it["exit_code"] != 0 or it["digests"] is None:
                raise BenchError(f"{workload}: reference sweep failed: {it['error']}")
            record = {"scenario": spec["scenario"], "seed": DEFAULT_SEED, **it["digests"]}
            with open(reference_path(spec["scenario"]), "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"{workload}: {len(it['digests']['rows'])} row digest(s) -> "
                  f"{reference_path(spec['scenario'])}")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        return run(args)
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        spec = prepare(args.workload, args.seed, run_dir)
        # Everything from here on, an untimed reference sweep included,
        # fits in --seconds (bar the minimum number of iterations).
        deadline = time.monotonic() + args.seconds
        reference = None
        if args.seed == DEFAULT_SEED:
            reference = load_reference(spec["scenario"])
        elif WORKLOADS[args.workload]["jobs"] > 1:
            # No committed reference at this seed: the parallel sweep's
            # rows must equal a serial sweep's of the same spec.
            ref = sweep_once(spec, 1, run_dir, "serial-reference")
            if ref["exit_code"] != 0 or ref["digests"] is None:
                raise BenchError(f"serial reference sweep failed: {ref['error']}")
            reference = ref["digests"]
        if args.trace:
            res = run_traced(args.workload, spec, reference, deadline, run_dir)
            metrics, correct, attempted, failed = report_traced(
                args.workload, args.seed, spec, res)
        else:
            res = run_untraced(args.workload, spec, reference, deadline, run_dir)
            metrics = report_untraced(args.workload, args.seed, spec, res)
            attempted, failed = res["attempted"], res["failed"]
            correct = all(it["check"]["wrong"] == 0 for it in res["iterations"])
        if args.seed != DEFAULT_SEED:
            print_digests(args.workload, args.seed, res["reference"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
