"""One cold sweep in a fresh interpreter: the benchmark's client.

Usage (run by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 sweepbench/child.py MARKS SPEC OUT JOBS [TRACE_DIR]

Imports the CLI and resolves the spec file exactly as ``python -m repro
scenario sweep SPEC`` does, writes the monotonic clock at that point
(the end of set-up) to MARKS, then runs the sweep through the CLI.
With TRACE_DIR the layer tracer is installed after set-up, so set-up is
never traced.  With OUT ``-`` it stops after set-up (a set-up probe).
"""

import json
import os
import sys
import time


def main(argv) -> int:
    marks_path, spec_path, out_path, jobs = argv[:4]
    trace_dir = argv[4] if len(argv) > 4 else None
    import repro.cli
    from repro.scenarios import ScenarioSpec

    with open(spec_path, encoding="utf-8") as fh:
        ScenarioSpec.from_json(fh.read())
    marks = {"setup_done": time.monotonic(), "repro": repro.cli.__file__}
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    if out_path == "-":
        return 0
    tracer = None
    if trace_dir is not None:
        import tracer as layer_tracer

        tracer = layer_tracer.install(trace_dir)
    try:
        return repro.cli.main(
            ["scenario", "sweep", spec_path, "--out", out_path, "--jobs", jobs])
    finally:
        if tracer is not None and tracer.pid == os.getpid():
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
