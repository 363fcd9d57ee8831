"""End-to-end and per-layer metrics from one run's measurements."""

from __future__ import annotations

import json

from common import median, quantile
from spans import attribute

# Per-layer metrics whose value is the self time of one or more span
# names (see spans.LAYERS).
SELF_TIME = {
    "import.self_s": ("import",),
    "route.s": ("route",),
    "api.s": ("api.solve", "backend.run"),
    "construction.s": ("construction",),
    "prologue.tables_s": ("prologue.tables",),
    "prologue.incumbent_s": ("prologue.incumbent",),
    "search.bnb.s": ("search.bnb",),
    "sat.encode_s": ("sat.encode",),
    "sat.solve_s": ("sat.solve",),
    "checkpoint.save_s": ("checkpoint.save",),
    "verify.s": ("verify",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "result.encode_s": ("result.encode",),
    "result.decode_s": ("result.decode",),
    "dispatch.s": ("dispatch",),
    "serve.s": ("serve.request", "serve.job"),
    "other.s": ("other",),
}
# Per-layer metrics measured outside the spans; workloads where a layer
# does not run report 0.
EXTRA = ("import.s", "import.heavy_modules", "search.bnb.python.nodes_per_s",
         "trace.overhead", "gate.fail_rate", "dispatch.worker_start_s", "serve.solves",
         "serve.coalesced", "serve.refused", "serve.queue_depth_max", "serve.overhead_s",
         "loadgen.lag_p90_s")
# Per-layer metrics read from the wrappers' counters.
COUNTS = ("route.calls", "construction.calls", "checkpoint.saves", "checkpoint.bytes",
          "verify.calls", "cache.hits", "cache.misses", "result.bytes",
          "dispatch.jobs", "dispatch.retries")


def end_to_end(attempts: list[dict], pass_walls: list[float], setups: list[float],
               cpu_s: float, maxrss_mb: float, slo_limit_s: float, scale: float, *,
               wall_scale: float | None = None, setup_scale: float | None = None,
               cpu_scale: float | None = None) -> dict:
    """``attempts`` holds one ``{"latency": s, "ok": bool}`` per job or
    request; failures count against success and SLO attainment.  Times
    are multiplied by ``scale`` (see calibration.py), except that a
    latency is multiplied by its attempt's own ``"scale"`` when it has
    one, and the pass walls, set-up times and CPU by ``wall_scale``,
    ``setup_scale`` and ``cpu_scale`` when given (``wall_scale=1.0`` for
    walls already in reference seconds, or set by an open loop's
    schedule).  The SLO applies to the scaled latency."""
    latencies = [a["latency"] * a.get("scale", scale) for a in attempts]
    ok = [a["ok"] for a in attempts]
    within = sum(1 for a, lat in zip(attempts, latencies) if a["ok"] and lat <= slo_limit_s)
    return {
        "setup_s": (median(setups) * (scale if setup_scale is None else setup_scale), "s"),
        "wall_s": (median(pass_walls) * (scale if wall_scale is None else wall_scale), "s"),
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_p90_s": (quantile(latencies, 0.9), "s"),
        "slo_attainment": (within / len(attempts), "ratio"),
        "success_rate": (sum(ok) / len(attempts), "ratio"),
        "cpu_s_per_job": (cpu_s / len(attempts) * (scale if cpu_scale is None else cpu_scale),
                          "s"),
        "peak_rss_mb": (maxrss_mb, "MB"),
    }


def effort(envelopes: list[str]) -> dict:
    """B&B nodes and CDCL counters summed over envelopes, read from the
    program's own records (``stats.nodes``, ``sat_certificate``)."""
    out = {"search.bnb.nodes": 0, "sat.conflicts": 0, "sat.decisions": 0,
           "sat.propagations": 0}
    for text in envelopes:
        doc = json.loads(text)
        if doc.get("backend") in ("exact", "exact_sharded"):
            out["search.bnb.nodes"] += int(doc["stats"]["nodes"])
        cert = doc.get("sat_certificate")
        if cert:
            out["sat.conflicts"] += int(cert["conflicts"])
            out["sat.decisions"] += int(cert["decisions"])
            out["sat.propagations"] += int(cert["propagations"])
    return out


def per_layer(spans: list[dict], roots: list[str], counts: dict, envelopes: list[str],
              extra: dict) -> dict:
    """Every per-layer metric.  ``roots`` are the job spans whose wall
    time is split into self times; ``extra`` supplies the values measured
    outside the spans (import probe, overhead, serve counters, ...)."""
    share: dict[str, float] = {}
    wall = 0.0
    by_id = {s["id"]: s for s in spans}
    for root in roots:
        for name, seconds in attribute(spans, root).items():
            share[name] = share.get(name, 0.0) + seconds
        wall += (by_id[root]["t1"] - by_id[root]["t0"]) / 1e9
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = (sum(share.get(n, 0.0) for n in names), "s")
    for key in COUNTS:
        out[key] = (counts.get(key, 0), "bytes" if key.endswith("bytes") else "count")
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    out["cache.hit_ratio"] = (counts.get("cache.hits", 0) / lookups if lookups else 0.0,
                              "ratio")
    work = effort(envelopes)
    out["search.bnb.nodes"] = (work["search.bnb.nodes"], "count")
    bnb_s = out["search.bnb.s"][0]
    out["search.bnb.nodes_per_s"] = (work["search.bnb.nodes"] / bnb_s if bnb_s else 0.0, "1/s")
    for key in ("sat.conflicts", "sat.decisions", "sat.propagations"):
        out[key] = (work[key], "count")
    solve_s = out["sat.solve_s"][0]
    out["sat.propagations_per_s"] = (work["sat.propagations"] / solve_s if solve_s else 0.0,
                                     "1/s")
    out["trace.coverage"] = (sum(share.values()) / wall if wall else 0.0, "ratio")
    out["trace.job_wall_s"] = (wall, "s")
    unknown = set(extra) - set(EXTRA)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    for key in EXTRA:
        out[key] = extra.get(key, (0, "count"))
    return out
