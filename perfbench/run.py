"""Layered benchmark for the rho(n) certifier.

    python3 perfbench/run.py --workload {bnb_certify,sat_certify,serve_mix,cold_cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is ``src/repro``
of that checkout (the benchmark exits with status 2 when there is none).

``--trace 0`` measures the end-to-end metrics with tracing off, with
every measured process pinned to one CPU, its times in reference
seconds (see IN_JOB_SAMPLE_EVERY_S below).
``--trace 1`` is the separate traced run: it measures the per-layer
metrics from spans recorded around each layer's public functions (see
spans.py), plus the tracing overhead against an untraced pass, and
writes the spans as Chrome trace-event JSON to ``perfbench/traces/``.
Both check every envelope with the correctness gate (gate.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the environment.  A full report of the run goes to
``perfbench/results/``.  The benchmark writes nowhere else but a private
scratch directory under ``perfbench/.tmp`` that it removes on exit.

Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import cold_cli
import inproc
import metrics
import serve_mix
import workloads
from calibration import calibrate, calibration_scale, in_job_scale
from common import (HERE, Scratch, environment_stamp, keep_going, load_config, median, pinned,
                    quantile, source_root)
from spans import Recorder, chrome_trace, load_dumps

WORKLOADS = ("bnb_certify", "sat_certify", "serve_mix", "cold_cli")
# Every workload reports its time metrics in reference seconds (see
# calibration.py), except serve_mix's pass wall, which its schedule
# sets.  A run's times are scaled by calibration samples taken between
# its jobs or requests.  Jobs long enough for the host's speed to drift
# inside them are also sampled inside, every IN_JOB_SAMPLE_EVERY_S
# seconds (calibration.InJobSampler): sat_certify's passes (a 15-20 s
# proof and a 1 s one) are scaled as a whole by their in-job samples;
# cold_cli's CLI processes are sampled through the start-up shim and
# each is scaled by its own samples, except the dispatched sweep, whose
# workers would share the CPU with the samples.
IN_JOB_SAMPLE_EVERY_S = 0.2
# Workloads whose traced-run overhead compares times scaled by the
# between-job samples (the traced runs take no in-job samples).
CALIBRATED = ("bnb_certify", "serve_mix", "cold_cli")
# Set-up samples: set-up-only children before the measured one
# (in-process workloads), fresh-interpreter import probes (cold_cli).
SETUP_CHILDREN = 4
COLD_SETUP_PROBES = 5


class Gate:
    """The correctness gate, memoized on (envelope, spec): repeats of one
    proof are checked once each distinct text."""

    def __init__(self) -> None:
        import gate

        self._check = gate.check
        self._seen: dict[str, list[str]] = {}
        self.problems: list[str] = []

    def __call__(self, text: str | None, spec: dict) -> list[str]:
        if text is None:
            return ["no envelope"]
        key = hashlib.sha256((text + json.dumps(spec, sort_keys=True)).encode()).hexdigest()
        if key not in self._seen:
            self._seen[key] = self._check(text, spec)
            self.problems += self._seen[key]
        return self._seen[key]


def _inprocess_attempts(report: dict, check) -> list[dict]:
    return [{"latency": job["latency"], "ok": not check(job["envelope"], job["spec"])}
            for p in report["passes"] for job in p["jobs"]]


def _bnb_specs(specs: list[dict]) -> list[dict]:
    return [{"name": f"py{i}", "spec": s} for i, s in enumerate(specs)
            if s["backend"] == "exact"]


def _python_kernel_rate(src, scratch, jobs: list[dict]) -> float:
    """B&B nodes per second of search self time for ``jobs`` re-run in
    one traced pass under ``REPRO_KERNEL=python``."""
    if not jobs:
        return 0.0
    tdir = scratch.sub("trace-python")
    child = inproc.run_child(src, scratch, jobs, mode="run", trace_dir=tdir,
                             extra_env={"REPRO_KERNEL": "python"})
    spans, _ = load_dumps(tdir)
    roots = [s["id"] for s in spans if s["name"] == "job"]
    layer = metrics.per_layer(spans, roots, {}, [j["envelope"] for j in
                                                 child["report"]["passes"][0]["jobs"]], {})
    return layer["search.bnb.nodes_per_s"][0]


# ---------------------------------------------------------------------------
# Timed runs (tracing off)
# ---------------------------------------------------------------------------


def timed_inprocess(workload, seed, seconds, src, scratch, check):
    jobs = workloads.IN_PROCESS[workload](seed)
    calibration, setups = [], []
    with pinned():
        for _ in range(SETUP_CHILDREN):
            calibration += [calibrate() for _ in range(3)]
            setups.append(inproc.run_child(src, scratch, jobs, mode="setup")["setup_s"])
        calibration += [calibrate() for _ in range(3)]
        main = inproc.run_child(src, scratch, jobs, mode="run", seconds=seconds,
                                sample_every=(IN_JOB_SAMPLE_EVERY_S
                                              if workload == "sat_certify" else 0.0))
        calibration += [calibrate() for _ in range(3)]
    report = main["report"]
    attempts = _inprocess_attempts(report, check)
    calibration += report["calibration"]
    # Set-up ran between the calibration samples, the jobs (when sampled
    # inside) during the in-job samples.
    setup_scale = calibration_scale(calibration)
    samples = report["in_job_samples"]
    return {"attempts": attempts, "walls": [p["wall"] for p in report["passes"]],
            "setups": setups + [main["setup_s"]], "cpu_s": report["cpu_s"],
            "maxrss_mb": main["usage"]["maxrss_mb"],
            "scale": in_job_scale(samples) if samples else setup_scale,
            "setup_scale": setup_scale}


def timed_serve(workload, seed, seconds, src, scratch, check):
    passes = []
    begin = time.perf_counter()
    with pinned():
        while True:
            p0 = time.perf_counter()
            passes.append(serve_mix.one_pass(src, scratch, seed, len(passes), check))
            if not keep_going(begin, time.perf_counter() - p0, seconds):
                break
    calibration = [c for p in passes for c in p["calibration"]]
    return {"attempts": [a for p in passes for a in p["attempts"]],
            "walls": [p["wall"] for p in passes], "setups": [p["setup_s"] for p in passes],
            "cpu_s": sum(p["usage"]["cpu_s"] for p in passes),
            "maxrss_mb": max(p["usage"]["maxrss_mb"] for p in passes),
            "scale": calibration_scale(calibration), "wall_scale": 1.0}


def timed_cold(workload, seed, seconds, src, scratch, check):
    jobs = workloads.cold_cli(seed)
    passes = []
    begin = time.perf_counter()
    with pinned():
        probe = cold_cli.import_probe(src, scratch, samples=COLD_SETUP_PROBES)
        while True:
            p0 = time.perf_counter()
            passes.append(cold_cli.run_pass(src, scratch, jobs, check,
                                            sample_every=IN_JOB_SAMPLE_EVERY_S))
            if not keep_going(begin, time.perf_counter() - p0, seconds):
                break
    scale = calibration_scale(probe["calibration"]
                              + [c for p in passes for c in p["calibration"]])
    # Jobs sampled inside carry their own scale; the others (the
    # dispatched sweep) take the run's.
    attempts = [a for p in passes for a in p["attempts"]]
    for a in attempts:
        a.setdefault("scale", scale)
    cpu_s = sum(a["cpu_s"] for a in attempts)
    return {"attempts": attempts,
            "walls": [sum(a["latency"] * a["scale"] for a in p["attempts"]) for p in passes],
            "raw_walls": [p["wall"] for p in passes], "setups": probe["setup"],
            "cpu_s": cpu_s, "maxrss_mb": max(p["maxrss_mb"] for p in passes),
            "scale": scale, "wall_scale": 1.0,
            "cpu_scale": sum(a["cpu_s"] * a["scale"] for a in attempts) / cpu_s}


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def _common_extra(workload, probe, attempts, traced, plain, python_rate) -> dict:
    """``traced`` and ``plain`` are (times, calibration samples) of the
    traced and the untraced passes; the overhead compares their medians,
    in reference seconds for the CALIBRATED workloads since the two ran
    at different moments."""
    failed = sum(1 for a in attempts if not a["ok"])
    overhead = median(traced[0]) / median(plain[0])
    if workload in CALIBRATED:
        overhead *= calibration_scale(traced[1]) / calibration_scale(plain[1])
    return {
        "import.s": (probe["import_s"], "s"),
        "import.heavy_modules": (probe["heavy"], "count"),
        "search.bnb.python.nodes_per_s": (python_rate, "1/s"),
        "trace.overhead": (overhead, "ratio"),
        "gate.fail_rate": (failed / len(attempts), "ratio"),
    }


def traced_inprocess(workload, seed, seconds, src, scratch, check):
    jobs = workloads.IN_PROCESS[workload](seed)
    probe = cold_cli.import_probe(src, scratch)
    tdir = scratch.sub("trace")
    with pinned():
        plain = inproc.run_child(src, scratch, jobs, mode="run", seconds=seconds / 2)
        traced = inproc.run_child(src, scratch, jobs, mode="run", seconds=seconds / 2,
                                  trace_dir=tdir)
    spans, _ = load_dumps(tdir)
    last = traced["report"]["passes"][-1]["jobs"]
    rids = {job["rid"] for job in last}
    roots = [s["id"] for s in spans
             if s["name"] == "setup" or (s["name"] == "job" and s["rid"] in rids)]
    attempts = (_inprocess_attempts(plain["report"], check)
                + _inprocess_attempts(traced["report"], check))
    extra = _common_extra(
        workload, probe, attempts,
        ([p["wall"] for p in traced["report"]["passes"]], traced["report"]["calibration"]),
        ([p["wall"] for p in plain["report"]["passes"]], plain["report"]["calibration"]),
        _python_kernel_rate(src, scratch, _bnb_specs([j["spec"] for j in jobs])))
    layer = metrics.per_layer(spans, roots, traced["report"]["counts"],
                              [job["envelope"] for job in last], extra)
    return {"attempts": attempts, "layer": layer, "spans": spans}


def traced_serve(workload, seed, seconds, src, scratch, check):
    probe = cold_cli.import_probe(src, scratch)
    tdir = scratch.sub("trace")
    rec = Recorder()
    with pinned():
        plain = serve_mix.one_pass(src, scratch, seed, 0, check)
        traced = serve_mix.one_pass(src, scratch, seed, 0, check, trace_dir=tdir, rec=rec)
    server_spans, docs = load_dumps(tdir)
    spans = rec.spans + server_spans
    counts = {}
    for doc in docs:
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    attempts = plain["attempts"] + traced["attempts"]
    specs = [workloads._spec(backend="exact", use_hints=False, **fields)
             for _, fields, _, _ in workloads.SERVE_EXACT]
    # The open loop's pass wall is its schedule, so the overhead compares
    # request latencies.
    extra = _common_extra(
        workload, probe, attempts,
        ([a["latency"] for a in traced["attempts"]], traced["calibration"]),
        ([a["latency"] for a in plain["attempts"]], plain["calibration"]),
        _python_kernel_rate(src, scratch, _bnb_specs(specs)))
    stats = traced["stats"]
    extra.update({
        "serve.solves": (stats["solves"], "count"),
        "serve.coalesced": (stats["coalesced"], "count"),
        "serve.refused": (stats["admission"]["rejected"], "count"),
        "serve.queue_depth_max": (traced["queue_max"], "count"),
        "serve.overhead_s": (serve_mix.overhead(traced["records"], server_spans), "s"),
        "loadgen.lag_p90_s": (quantile([a["lag"] for a in traced["attempts"]], 0.9), "s"),
    })
    layer = metrics.per_layer(spans, [traced["pass_span"]], counts, traced["envelopes"], extra)
    return {"attempts": attempts, "layer": layer, "spans": spans}


def traced_cold(workload, seed, seconds, src, scratch, check):
    jobs = workloads.cold_cli(seed)
    probe = cold_cli.import_probe(src, scratch)
    tdir = scratch.sub("trace")
    rec = Recorder()
    with pinned():
        plain = cold_cli.run_pass(src, scratch, jobs, check)
        traced = cold_cli.run_pass(src, scratch, jobs, check, rec=rec, trace_dir=tdir)
    child_spans, docs = load_dumps(tdir)
    spans = rec.spans + child_spans
    counts = {}
    start = 0.0
    for doc in docs:
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if doc["role"] == "dispatch_worker":
            process = [s for s in doc["spans"] if s["name"] == "process"]
            ready = [s for s in doc["spans"] if s["name"] == "import"]
            if process and ready:
                start += (ready[0]["t1"] - process[0]["t0"]) / 1e9
    attempts = plain["attempts"] + traced["attempts"]
    specs = [spec for job in jobs if job["name"] in ("exact10", "sweep") for spec in job["specs"]]
    extra = _common_extra(workload, probe, attempts, ([traced["wall"]], traced["calibration"]),
                          ([plain["wall"]], plain["calibration"]),
                          _python_kernel_rate(src, scratch, _bnb_specs(specs)))
    extra["dispatch.worker_start_s"] = (start, "s")
    layer = metrics.per_layer(spans, traced["roots"], counts, traced["envelopes"], extra)
    return {"attempts": attempts, "layer": layer, "spans": spans}


TIMED = {"bnb_certify": timed_inprocess, "sat_certify": timed_inprocess,
         "serve_mix": timed_serve, "cold_cli": timed_cold}
TRACED = {"bnb_certify": traced_inprocess, "sat_certify": traced_inprocess,
          "serve_mix": traced_serve, "cold_cli": traced_cold}


def declared_metrics(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in bench["per_layer"]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checkout = os.getcwd()
    src = source_root(checkout)
    sys.path.insert(0, src)  # the gate imports repro from the checkout
    declared = declared_metrics(checkout)
    config = load_config()
    check = Gate()
    extra_report = {}
    with Scratch() as scratch:
        stamp = environment_stamp(src, args.seed, scratch)
        if args.trace:
            out = TRACED[args.workload](args.workload, args.seed, args.seconds, src,
                                        scratch, check)
            values = out["layer"]
            wanted = declared["per_layer"]
            trace_dir = os.path.join(HERE, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            chrome_trace(out["spans"], os.path.join(
                trace_dir, f"{args.workload}-seed{args.seed}.json"))
        else:
            out = TIMED[args.workload](args.workload, args.seed, args.seconds, src,
                                       scratch, check)
            slo = config["slo_limit_s"][args.workload]
            values = metrics.end_to_end(
                out["attempts"], out["walls"], out["setups"], out["cpu_s"], out["maxrss_mb"],
                slo, out["scale"], wall_scale=out.get("wall_scale"),
                setup_scale=out.get("setup_scale"), cpu_scale=out.get("cpu_scale"))
            wanted = declared["end_to_end"]
            plain = metrics.end_to_end(
                [{"latency": a["latency"], "ok": a["ok"]} for a in out["attempts"]],
                out.get("raw_walls", out["walls"]), out["setups"], out["cpu_s"],
                out["maxrss_mb"], slo, 1.0)
            extra_report = {"calibration_scale": out["scale"],
                            "uncalibrated": {k: v[0] for k, v in plain.items()}}
    attempted = len(out["attempts"])
    failed = sum(1 for a in out["attempts"] if not a["ok"])
    printed = {name: {"value": values[name][0], "unit": unit} for name, unit in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": printed}
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"environment": stamp, "result": result, **extra_report,
                   "computed": {k: v[0] for k, v in values.items()},
                   "gate_problems": sorted(set(check.problems))}, fh, indent=2)
    print("# environment " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
