"""``cold_cli``: one fresh ``python -m repro`` process per job.

Jobs run one after another with ``--no-cache --json``; each job's
latency is its process's wall time, from launch to exit, and its CPU
and peak memory come from ``wait4`` (dispatch workers included, since
the CLI reaps them); timed runs leave out the calibration samples taken
inside the process (see run_job).  Set-up is the fresh-interpreter
``import repro.api`` every job pays.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from calibration import ENV_SAMPLE_EVERY, ENV_SAMPLE_OUT, calibrate, in_job_scale
from common import SHIM, child_env, median, stop, wait_rusage

JOB_TIMEOUT_S = 120.0

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.api\n"
    "dt = time.perf_counter() - t\n"
    "heavy = sum(m in sys.modules for m in ('numpy', 'networkx', 'scipy'))\n"
    "print(dt, heavy)\n"
)


def import_probe(src, scratch, samples: int = 3) -> dict:
    """Fresh-interpreter set-up: seconds from launch until ``import
    repro.api`` returns, the import's own seconds, and how many of numpy,
    networkx and scipy it loaded.  Medians over ``samples``."""
    walls, imports, heavy, calibration = [], [], 0, []
    for _ in range(samples):
        calibration.append(calibrate())
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                             env=child_env(src, scratch), capture_output=True,
                             text=True, timeout=60, check=True)
        walls.append(time.perf_counter() - t0)
        dt, heavy = out.stdout.split()
        imports.append(float(dt))
    return {"setup": walls, "import_s": median(imports), "heavy": int(heavy),
            "calibration": calibration}


def run_job(src, scratch, job: dict, *, trace_dir=None, parent=None, rid=None,
            sample_every=0.0) -> dict:
    """Run one CLI job; returns latency, envelopes (one per spec),
    process accounting and, with ``sample_every``, the calibration
    samples taken inside the process and the seconds they took (a
    dispatching job is not sampled: its workers share the CPU)."""
    out_path = os.path.join(scratch.path, "cli-stdout.json")
    samples_path = os.path.join(scratch.path, "cli-samples.json")
    modules = ("dispatch",) if "--transport" in job["argv"] else ()
    env = child_env(src, scratch, trace_dir=trace_dir, parent=parent, rid=rid,
                    modules=modules if trace_dir else ())
    sampled = bool(sample_every) and not modules and trace_dir is None
    if sampled:
        env["PYTHONPATH"] = src + os.pathsep + SHIM
        env[ENV_SAMPLE_EVERY] = str(sample_every)
        env[ENV_SAMPLE_OUT] = samples_path
    with open(out_path, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "repro", *job["argv"]],
                                stdout=out, stderr=subprocess.DEVNULL, env=env)
        try:
            usage = wait_rusage(proc, timeout=JOB_TIMEOUT_S)
        finally:
            stop(proc)
        latency = time.perf_counter() - t0
    envelopes = []
    if usage["returncode"] == 0:
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        payloads = doc if isinstance(doc, list) else [doc]
        envelopes = [json.dumps(p, indent=2, sort_keys=True) for p in payloads]
    sampling = {"samples": [], "stolen": 0.0}
    if sampled and os.path.exists(samples_path):
        with open(samples_path, encoding="utf-8") as fh:
            sampling = json.load(fh)
        os.remove(samples_path)
    return {"latency": latency, "envelopes": envelopes, "usage": usage, **sampling}


def run_pass(src, scratch, jobs: list[dict], check, *, rec=None, trace_dir=None,
             sample_every=0.0) -> dict:
    """All jobs of one pass; ``check(text, spec)`` is the gate.  A job
    sampled inside (see run_job) leaves the samples' time out of its
    latency and CPU and carries its own ``scale`` to reference seconds."""
    attempts, envelopes, roots, calibration = [], [], [], []
    cpu = rss = 0.0
    wall = 0.0
    for job in jobs:
        calibration.append(calibrate())
        if rec is not None:
            rid = job["name"]
            with rec.span("job", rid=rid) as sid:
                res = run_job(src, scratch, job, trace_dir=trace_dir, parent=sid, rid=rid)
            roots.append(sid)
        else:
            res = run_job(src, scratch, job, sample_every=sample_every)
        ok = (res["usage"]["returncode"] == 0 and len(res["envelopes"]) == len(job["specs"])
              and not any(check(text, spec)
                          for text, spec in zip(res["envelopes"], job["specs"])))
        attempt = {"latency": res["latency"] - res["stolen"], "ok": ok,
                   "cpu_s": res["usage"]["cpu_s"] - res["stolen"]}
        if res["samples"]:
            attempt["scale"] = in_job_scale(res["samples"])
        attempts.append(attempt)
        wall += attempt["latency"]
        envelopes += res["envelopes"]
        cpu += attempt["cpu_s"]
        rss = max(rss, res["usage"]["maxrss_mb"])
    return {"wall": wall, "attempts": attempts, "envelopes": envelopes,
            "cpu_s": cpu, "maxrss_mb": rss, "roots": roots, "calibration": calibration}
