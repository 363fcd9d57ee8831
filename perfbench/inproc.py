"""In-process workloads (``bnb_certify``, ``sat_certify``) and the
python-kernel replay of the traced runs.

The parent side (:func:`run_child`) launches this file as a fresh
interpreter and times it until it prints ``ready``: that is one set-up
sample (start, ``import repro.api``, block tables filled).  The child
then runs passes over its job list, one closed-loop caller, while at
least half of the next pass fits in ``--seconds`` (at least one), and
writes every job's latency and envelope to ``--out``, with calibration
samples taken before each job and after each pass (a pass's wall time
is the sum of its jobs' latencies).  With ``--sample-every S`` it also
takes calibration samples every S seconds inside each job (see
calibration.InJobSampler), leaves their time out of latencies and CPU, and
starts another pass only while all of it fits in ``--seconds``,
counted in reference seconds (calibration.in_job_scale).

With ``--trace-dir`` the child records spans (see spans.py) from the
moment it starts and writes them there when it ends.

    python3 perfbench/inproc.py --jobs JOBS.json --out OUT.json \\
        --mode {setup,run} --seconds 10 [--sample-every S] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--sample-every", type=float, default=0.0)
    ap.add_argument("--trace-dir")
    args = ap.parse_args(argv)
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)

    rec = None
    if args.trace_dir:
        import spans

        rec = spans.Recorder()
    nothing = contextlib.nullcontext

    with rec.span("setup", rid="setup") if rec else nothing():
        with rec.span("import") if rec else nothing():
            import repro.api  # noqa: F401
        if rec:
            spans.install(rec)
        from repro.api import CoverSpec, Result, solve
        from repro.core.engine import convex_block_table, tight_block_table

        for n in sorted({job["spec"]["n"] for job in jobs}):
            convex_block_table(n, 4)
            tight_block_table(n, 4)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    from calibration import InJobSampler, calibrate, in_job_scale
    from common import keep_going

    sampler = InJobSampler(args.sample_every) if args.sample_every else None

    encode = getattr(Result.to_json, "__wrapped__", Result.to_json)
    counts_setup = dict(rec.counts) if rec else {}
    before_last = counts_setup
    passes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    begin = time.perf_counter()
    calibration = []
    reference_s = 0.0
    while True:
        before = dict(rec.counts) if rec else {}
        records = []
        wall = 0.0
        first_sample = len(sampler.samples) if sampler else 0
        for job in jobs:
            calibration.append(calibrate())
            rid = f"p{len(passes)}:{job['name']}"
            stolen = sampler.stolen if sampler else 0.0
            j0 = time.perf_counter()
            with rec.span("job", rid=rid) if rec else nothing():
                with sampler or nothing():
                    result = solve(CoverSpec.from_payload(job["spec"]))
            latency = time.perf_counter() - j0
            if sampler:
                latency -= sampler.stolen - stolen
            wall += latency
            records.append({"name": job["name"], "rid": rid, "latency": latency,
                            "spec": job["spec"], "envelope": encode(result)})
        calibration.append(calibrate())
        passes.append({"wall": wall, "jobs": records})
        before_last = before
        if sampler:
            # A pass lasts most of a run: start another only if all of
            # it fits, counted in reference seconds, so the number of
            # passes does not follow the host's speed.
            pass_s = wall * in_job_scale(sampler.samples[first_sample:])
            reference_s += pass_s
            if reference_s + pass_s > args.seconds:
                break
        elif not keep_going(begin, wall, args.seconds):
            break
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "passes": passes,
        "calibration": calibration,
        "cpu_s": ((usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
                  - (sampler.stolen if sampler else 0.0)),
        "in_job_samples": sampler.samples if sampler else [],
        "maxrss_mb": usage1.ru_maxrss / 1024.0,
    }
    if rec:
        last = dict(rec.counts)
        out["counts"] = {
            k: counts_setup.get(k, 0) + last.get(k, 0) - before_last.get(k, 0)
            for k in last
        }
        rec.dump(os.path.join(args.trace_dir, f"spans-{rec.pid}.json"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def run_child(src, scratch, jobs, *, mode, seconds=0.0, sample_every=0.0, trace_dir=None,
              extra_env=None, timeout=170.0) -> dict:
    """Launch one child; returns its set-up time, its report (``run``
    mode) and its process accounting."""
    from common import child_env, stop, wait_rusage

    tag = f"{mode}-{time.monotonic_ns()}"
    jobs_path = os.path.join(scratch.path, f"jobs-{tag}.json")
    out_path = os.path.join(scratch.path, f"out-{tag}.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), "--jobs", jobs_path,
           "--out", out_path, "--mode", mode, "--seconds", str(seconds),
           "--sample-every", str(sample_every)]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    env = child_env(src, scratch, extra=extra_env)
    env["PYTHONPATH"] = src + os.pathsep + HERE
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        usage = wait_rusage(proc, timeout=timeout)
    finally:
        stop(proc)
        proc.stdout.close()
    if line.strip() != "ready" or usage["returncode"] != 0:
        raise RuntimeError(f"in-process child failed ({mode}): exit {usage['returncode']}")
    report = {}
    if mode == "run":
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    return {"setup_s": setup_s, "report": report, "usage": usage}


if __name__ == "__main__":
    sys.exit(main())
