"""``serve_mix``: ``repro serve`` under an open-loop request schedule.

Each pass starts a fresh server (default settings: one worker,
checkpoint every 256 nodes) on fresh ledger and cache directories, then
replays one seeded schedule (workloads.serve_mix) from one client
connection.  A request is timed from its due time to the moment its
envelope is in hand: a ``200`` answer directly, or a ``202`` job whose
result the client then polls (oldest pending job first, every 10 ms;
every request waiting on the same spec completes with it).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import workloads
from calibration import calibrate
from common import child_env, median, stop, wait_rusage

POLL_S = 0.010
CALIBRATE_GAP_S = 0.06
STATS_EVERY_S = 0.25
PASS_TIMEOUT_S = 90.0


class Client:
    """One HTTP/1.0 connection at a time to the server under test."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: bytes | None = None,
             headers: dict | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()


def start_server(src, scratch, index: int, *, trace_dir=None, parent=None):
    """Launch ``repro serve`` and wait until it answers ``/v1/health``;
    returns (process, client, seconds from launch to ready)."""
    state = tempfile.mkdtemp(prefix=f"serve-{index}-", dir=scratch.path)
    ledger = os.path.join(state, "ledger")
    cache = os.path.join(state, "cache")
    log_path = os.path.join(state, "serve.log")
    env = child_env(src, scratch, trace_dir=trace_dir, parent=parent,
                    modules=("serve",) if trace_dir else ())
    t0 = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--ledger", ledger, "--cache", cache],
            stdout=subprocess.DEVNULL, stderr=log, env=env)
    try:
        port = None
        while time.perf_counter() - t0 < 60:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up ({proc.returncode})")
            if port is None:
                with open(log_path, encoding="utf-8") as fh:
                    found = re.search(r"listening on http://[\d.]+:(\d+)", fh.read())
                port = int(found.group(1)) if found else None
            if port is not None:
                try:
                    if Client(port).call("GET", "/v1/health")[0] == 200:
                        return proc, Client(port), time.perf_counter() - t0
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become ready within 60 s")
    except BaseException:
        stop(proc)
        raise


def stop_server(proc) -> dict:
    proc.send_signal(signal.SIGTERM)
    return wait_rusage(proc, timeout=30)


def _spec_hash(spec: dict) -> str:
    from repro.api import CoverSpec

    return CoverSpec.from_payload(spec).spec_hash


def replay(client: Client, schedule: list[dict], *, watch_stats: bool = False) -> dict:
    """Send the schedule open-loop; returns per-request records (due,
    sent, done offsets in seconds from the pass start, HTTP outcome,
    envelope text), the deepest queue seen in ``/v1/stats`` and
    calibration samples taken while no request was outstanding and the
    next one was not due for CALIBRATE_GAP_S."""
    hashes = [_spec_hash(r["spec"]) for r in schedule]
    records = [{"kind": r["kind"], "due": r["due"], "hash": h, "sent": None,
                "done": None, "code": None, "body": None, "via": None}
               for r, h in zip(schedule, hashes)]
    pending: list[int] = []
    calibration: list[float] = []
    queue_max = 0
    next_poll = next_stats = 0.0
    i = 0
    t0 = time.perf_counter()
    while i < len(records) or pending:
        now = time.perf_counter() - t0
        if now > PASS_TIMEOUT_S:
            break
        if i < len(records) and records[i]["due"] <= now:
            rec = records[i]
            rec["sent"] = now
            code, body = client.call(
                "POST", "/v1/solve", json.dumps(schedule[i]["spec"]).encode(),
                {"Content-Type": "application/json", "X-Perfbench-Request": str(i)})
            if code == 202:
                pending.append(i)
            else:
                rec.update(code=code, body=body.decode(), via="direct",
                           done=time.perf_counter() - t0)
            i += 1
            continue
        if pending and now >= next_poll:
            h = records[pending[0]]["hash"]
            code, body = client.call("GET", f"/v1/jobs/{h}/result")
            if code == 409:
                next_poll = time.perf_counter() - t0 + POLL_S
            else:
                done = time.perf_counter() - t0
                for j in [j for j in pending if records[j]["hash"] == h]:
                    records[j].update(code=code, body=body.decode(), via="job", done=done)
                    pending.remove(j)
            continue
        if watch_stats and now >= next_stats:
            code, body = client.call("GET", "/v1/stats")
            if code == 200:
                queue_max = max(queue_max, json.loads(body)["queue_depth"])
            next_stats = time.perf_counter() - t0 + STATS_EVERY_S
            continue
        if (not pending and i < len(records)
                and records[i]["due"] - now > CALIBRATE_GAP_S):
            calibration.append(calibrate())
            continue
        wake = [next_poll] if pending else []
        if i < len(records):
            wake.append(records[i]["due"])
        if watch_stats:
            wake.append(next_stats)
        time.sleep(max(0.0, min(min(wake, default=now + POLL_S) - now, POLL_S)))
    return {"records": records, "queue_max": queue_max, "calibration": calibration}


def one_pass(src, scratch, seed: int, index: int, check, *, trace_dir=None, rec=None) -> dict:
    """Start a server, replay pass ``index`` of the seed's schedule, stop
    the server.  ``check(body, spec)`` is the correctness gate."""
    schedule = workloads.serve_mix(seed, index)
    sid = rec.new_id() if rec is not None else None
    proc, client, setup_s = start_server(src, scratch, index, trace_dir=trace_dir, parent=sid)
    try:
        if rec is not None:
            with rec.span("pass", sid=sid, rid=f"pass{index}"):
                out = replay(client, schedule, watch_stats=True)
        else:
            out = replay(client, schedule)
        stats = json.loads(client.call("GET", "/v1/stats")[1])
    finally:
        usage = stop_server(proc) if proc.returncode is None else None
    if usage is None or usage["returncode"] != 0:
        raise RuntimeError("server did not drain cleanly")
    first_body: dict[str, str] = {}
    attempts = []
    for req, rec_ in zip(schedule, out["records"]):
        ok = rec_["code"] == 200 and not check(rec_["body"], req["spec"])
        if ok:
            # Every answer for one spec must be byte-identical.
            ok = first_body.setdefault(rec_["hash"], rec_["body"]) == rec_["body"]
        latency = (rec_["done"] if rec_["done"] is not None else PASS_TIMEOUT_S) - rec_["due"]
        attempts.append({"latency": latency, "ok": ok,
                         "lag": (rec_["sent"] if rec_["sent"] is not None else PASS_TIMEOUT_S)
                         - rec_["due"]})
    done = [r["done"] for r in out["records"] if r["done"] is not None]
    wall = (max(done) if done else PASS_TIMEOUT_S) - out["records"][0]["due"]
    envelopes = [r["body"] for r, q in zip(out["records"], schedule)
                 if q["kind"] == "exact" and r["code"] == 200]
    return {"setup_s": setup_s, "wall": wall, "attempts": attempts, "usage": usage,
            "stats": stats, "queue_max": out["queue_max"], "records": out["records"],
            "schedule": schedule, "envelopes": envelopes, "pass_span": sid,
            "calibration": out["calibration"]}


def overhead(records: list[dict], spans: list[dict]) -> float:
    """Median over requests of latency minus the engine time of the job
    the request waited on (backend runs inside the server's job span)."""
    engine: dict[str, float] = {}
    for s in spans:
        if s["name"] == "backend.run" and s["rid"]:
            engine[s["rid"]] = engine.get(s["rid"], 0.0) + (s["t1"] - s["t0"]) / 1e9
    values = []
    for r in records:
        if r["done"] is None:
            continue
        latency = r["done"] - r["due"]
        waited = engine.get(r["hash"][:16], 0.0) if r["via"] == "job" else 0.0
        values.append(max(0.0, latency - waited))
    return median(values)
