"""Start-up hook for child processes of a benchmark run.

The benchmark puts this directory on ``PYTHONPATH`` of the processes it
launches (CLI jobs, the server, and through them dispatch workers).
Python imports ``sitecustomize`` at start-up.  When
``PERFBENCH_SAMPLE_OUT`` is set (timed ``cold_cli`` runs), this module
takes calibration samples inside the process until it exits and writes
them to that file (see calibration.py).  When ``PERFBENCH_TRACE_DIR`` is
set (traced runs), it imports ``repro``, installs the benchmark's
wrappers and writes the process's spans into that directory when the
process exits.  Without either variable it does nothing.
"""

import os

if os.environ.get("PERFBENCH_SAMPLE_OUT"):
    import atexit
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import calibration as _bench_calibration  # perfbench/calibration.py

    sys.path.pop(0)
    # Taken out of the environment, so this process's children are not
    # sampled.
    _sample_out = os.environ.pop(_bench_calibration.ENV_SAMPLE_OUT)
    _sampler = _bench_calibration.InJobSampler(
        float(os.environ.pop(_bench_calibration.ENV_SAMPLE_EVERY)))
    _sampler.__enter__()

    def _dump_samples() -> None:
        _sampler.__exit__(None, None, None)
        with open(_sample_out, "w", encoding="utf-8") as fh:
            json.dump({"samples": _sampler.samples, "stolen": _sampler.stolen}, fh)

    atexit.register(_dump_samples)

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import atexit
    import sys
    import time

    _T0 = time.monotonic_ns()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans as _bench_trace  # perfbench/spans.py

    sys.path.pop(0)
    _rec = _bench_trace.Recorder(
        default_rid=os.environ.get(_bench_trace.ENV_RID) or None,
        role=os.environ.get(_bench_trace.ENV_ROLE, "main"),
    )
    # Every span of this process nests under one "process" span, itself
    # a child of the span that launched the process.
    _process = _rec.new_id()
    _rec.default_parent = _process
    _parent = os.environ.get(_bench_trace.ENV_PARENT) or None
    _modules = [m for m in os.environ.get(_bench_trace.ENV_MODULES, "").split(",") if m]
    with _rec.span("import", parent=_process):
        import repro.api  # noqa: F401

        _bench_trace.install(_rec, _modules)

    def _dump() -> None:
        _rec.spans.append({
            "name": "process", "layer": "other", "id": _process,
            "parent": _parent, "rid": _rec.default_rid, "pid": _rec.pid,
            "tid": 0, "t0": _T0, "t1": time.monotonic_ns(),
        })
        path = os.path.join(os.environ["PERFBENCH_TRACE_DIR"], f"spans-{_rec.pid}.json")
        _rec.dump(path)

    atexit.register(_dump)
