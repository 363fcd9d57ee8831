"""Span recording for the benchmark's traced runs.

The benchmark times ``repro``'s layers from outside: :func:`install`
replaces public functions and methods of the package with wrappers that
record a span around each call.  Nothing under ``src/repro`` changes.

A span is a dict with ``name``, ``layer``, ``id``, ``parent``, ``rid``
(the request id shared by the spans of one job), ``pid``, ``tid``,
``t0`` and ``t1`` (``time.monotonic_ns``, one clock for every process
on the host).  Spans stay in memory in a :class:`Recorder` and are
written out when the traced process ends.

:func:`attribute` turns spans into per-layer self times.  A layer's self
time is the part of its spans' wall time that no child span covers.
Where children run in parallel (dispatch workers, server threads) each
instant is split evenly between the innermost spans active at that
instant, so the layer times plus ``other`` always add up to the job's
wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# Span name -> layer.  Names not listed here belong to the benchmark
# itself (job and pass spans) and count as ``other``.
LAYERS = {
    "import": "repro",
    "route": "repro.api",
    "api.solve": "repro.api",
    "backend.run": "repro.api",
    "construction": "repro.core.construction",
    "prologue.tables": "repro.core.improve",
    "prologue.incumbent": "repro.core.improve",
    "search.bnb": "repro.core.engine",
    "sat.encode": "repro.sat",
    "sat.solve": "repro.sat",
    "checkpoint.save": "repro.core.checkpoint",
    "verify": "repro.core.verify",
    "cache.get": "repro.api.cache",
    "cache.put": "repro.api.cache",
    "result.encode": "repro.api.result",
    "result.decode": "repro.api.result",
    "dispatch": "repro.dispatch",
    "serve.request": "repro.serve",
    "serve.job": "repro.serve",
}

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_RID = contextvars.ContextVar("perfbench_rid", default=None)

# Environment that links a child process's spans to the span that
# launched it (see shim/sitecustomize.py).
ENV_TRACE_DIR = "PERFBENCH_TRACE_DIR"
ENV_PARENT = "PERFBENCH_PARENT"
ENV_RID = "PERFBENCH_RID"
ENV_ROLE = "PERFBENCH_ROLE"
ENV_MODULES = "PERFBENCH_TRACE_MODULES"


class Recorder:
    """Spans and counters of one process.  Threads without a current
    span fall back to ``default_parent`` / ``default_rid``."""

    def __init__(self, *, default_parent=None, default_rid=None, role="main"):
        self.pid = os.getpid()
        self.role = role
        self.default_parent = default_parent
        self.default_rid = default_rid
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> str:
        return f"{self.pid}:{next(self._ids)}"

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def span(self, name: str, *, rid=None, parent=None, sid=None):
        sid = sid or self.new_id()
        parent = parent or _SPAN.get() or self.default_parent
        rid = rid or _RID.get() or self.default_rid
        tok_span = _SPAN.set(sid)
        tok_rid = _RID.set(rid)
        t0 = time.monotonic_ns()
        try:
            yield sid
        finally:
            t1 = time.monotonic_ns()
            _SPAN.reset(tok_span)
            _RID.reset(tok_rid)
            record = {
                "name": name,
                "layer": LAYERS.get(name, "other"),
                "id": sid,
                "parent": parent,
                "rid": rid,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "t0": t0,
                "t1": t1,
            }
            with self._lock:
                self.spans.append(record)

    def dump(self, path: str) -> None:
        doc = {"pid": self.pid, "role": self.role, "spans": self.spans,
               "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, out, args)
        return out

    return wrapper


def _rebind(orig, wrapped) -> None:
    """Point every loaded ``repro`` module name bound to ``orig`` at
    ``wrapped`` (``from x import f`` copies the binding)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _patch_function(rec, module: str, attr: str, name: str, after=None) -> None:
    orig = getattr(importlib.import_module(module), attr)
    _rebind(orig, _timed(rec, name, orig, after))


def _patch_method(rec, cls, attr: str, name: str, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_timed(rec, name, raw.__func__, after)))
    elif isinstance(raw, functools.cached_property):
        prop = functools.cached_property(_timed(rec, name, raw.func, after))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)
    else:
        setattr(cls, attr, _timed(rec, name, raw, after))


def _count_calls(key):
    def after(rec, out, args):
        rec.add(key)
    return after


def _after_cache_get(rec, out, args):
    rec.add("cache.hits" if out is not None else "cache.misses")


def _after_encode(rec, out, args):
    if isinstance(out, str):
        rec.add("result.bytes", len(out.encode("utf-8")))


def _after_checkpoint_save(rec, out, args):
    rec.add("checkpoint.saves")
    if isinstance(out, os.PathLike):
        try:
            rec.add("checkpoint.bytes", os.path.getsize(out))
        except OSError:
            pass


def _after_dispatch(rec, out, args):
    rec.add("dispatch.jobs", len(getattr(out, "results", ())))
    rec.add("dispatch.retries", int(getattr(out, "retries", 0)))


def _patch_dispatch(rec) -> None:
    """``dispatch_batch`` also exports its span as the parent of the
    worker processes it starts, so their spans nest under it."""
    orig = importlib.import_module("repro.dispatch.dispatcher").dispatch_batch

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        with rec.span("dispatch") as sid:
            saved = {k: os.environ.get(k) for k in (ENV_PARENT, ENV_RID, ENV_ROLE)}
            os.environ[ENV_PARENT] = sid
            os.environ[ENV_RID] = str(_RID.get() or "")
            os.environ[ENV_ROLE] = "dispatch_worker"
            try:
                out = orig(*args, **kwargs)
            finally:
                for key, value in saved.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value
        _after_dispatch(rec, out, args)
        return out

    _rebind(orig, wrapper)


def _patch_serve(rec) -> None:
    handlers = importlib.import_module("repro.serve.handlers")
    service = importlib.import_module("repro.serve.service")
    cls = handlers.ServeHandler
    for attr in ("do_POST", "do_GET"):
        orig = cls.__dict__[attr]

        def wrapper(self, _orig=orig):
            rid = self.headers.get("X-Perfbench-Request")
            with rec.span("serve.request", rid=rid):
                return _orig(self)

        setattr(cls, attr, wrapper)
    orig_job = service.SolverService.__dict__["_run_job"]

    def run_job(self, spec_hash, _orig=orig_job):
        with rec.span("serve.job", rid=spec_hash[:16]):
            return _orig(self, spec_hash)

    service.SolverService._run_job = run_job


def install(rec: Recorder, extra_modules=()) -> None:
    """Wrap every layer boundary the benchmark reports on (once per
    process).  Modules in
    ``extra_modules`` (``"dispatch"``, ``"serve"``) are imported first;
    the rest are already loaded by ``import repro.api``."""
    for extra in extra_modules:
        importlib.import_module(f"repro.{extra}")
    from repro.api import backends, cache, checkpoints, result, spec
    from repro.sat import backend as sat_backend
    from repro.sat import cdcl, engines

    spec_cls = spec.CoverSpec
    _patch_method(rec, spec_cls, "spec_hash", "route", _count_calls("route.calls"))
    # from_payload is a classmethod: wrap the underlying function.
    raw = spec_cls.__dict__["from_payload"]
    spec_cls.from_payload = classmethod(
        _timed(rec, "route", raw.__func__, _count_calls("route.calls"))
    )
    _patch_function(rec, "repro.api.router", "route_backend", "route",
                    _count_calls("route.calls"))
    _patch_function(rec, "repro.api.service", "solve", "api.solve")
    _patch_function(rec, "repro.api.service", "_validate", "verify",
                    _count_calls("verify.calls"))
    for cls in (backends.ClosedFormBackend, backends.ExactBackend,
                backends.ExactShardedBackend, backends.HeuristicBackend,
                sat_backend.SatBackend):
        _patch_method(rec, cls, "run", "backend.run")

    _patch_function(rec, "repro.core.construction", "optimal_covering",
                    "construction", _count_calls("construction.calls"))
    _patch_function(rec, "repro.core.engine", "convex_block_table", "prologue.tables")
    _patch_function(rec, "repro.core.engine", "tight_block_table", "prologue.tables")
    _patch_function(rec, "repro.core.improve", "improved_greedy_covering",
                    "prologue.incumbent")
    _patch_method(rec, sat_backend.SatBackend, "_incumbent_blocks", "prologue.incumbent")

    engine_cls = importlib.import_module("repro.core.engine").SolverEngine
    _patch_method(rec, engine_cls, "min_covering", "search.bnb")
    _patch_method(rec, engine_cls, "min_covering_instance", "search.bnb")

    _patch_function(rec, "repro.sat.cnf", "build_covering_cnf", "sat.encode")
    _patch_function(rec, "repro.sat.cnf", "attach_walk_layers", "sat.encode")
    _patch_function(rec, "repro.sat.engines", "load_encoding", "sat.encode")
    _patch_method(rec, cdcl.Cdcl, "solve", "sat.solve")
    _patch_method(rec, engines.PysatSolver, "solve", "sat.solve")

    for cls in (checkpoints.CheckpointStore, checkpoints.MemoryCheckpointStore):
        _patch_method(rec, cls, "save", "checkpoint.save", _after_checkpoint_save)

    _patch_function(rec, "repro.core.verify", "verify_covering", "verify",
                    _count_calls("verify.calls"))

    _patch_method(rec, cache.ResultCache, "get", "cache.get", _after_cache_get)
    _patch_method(rec, cache.ResultCache, "put", "cache.put")
    res_cls = result.Result
    _patch_method(rec, res_cls, "to_json", "result.encode", _after_encode)
    _patch_method(rec, res_cls, "to_payload", "result.encode")
    raw = res_cls.__dict__["from_json"]
    res_cls.from_json = classmethod(_timed(rec, "result.decode", raw.__func__))
    raw = res_cls.__dict__["from_payload"]
    res_cls.from_payload = classmethod(_timed(rec, "result.decode", raw.__func__))

    if "repro.dispatch" in sys.modules:
        _patch_dispatch(rec)
    if "repro.serve" in sys.modules:
        _patch_serve(rec)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def attribute(spans: list[dict], root_id: str) -> dict[str, float]:
    """Self seconds of the root span's wall time, per span name.

    Every instant inside the root is split evenly between the innermost
    spans of its subtree active at that instant; the root's own share
    and that of any span outside ``LAYERS`` count as ``other``.  The
    values add up to the root's duration.
    """
    by_id = {s["id"]: s for s in spans}
    root = by_id[root_id]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    lo, hi = root["t0"], root["t1"]
    events = []  # (time, kind, order, span): ends (0) sort before starts (1)
    stack = [(root, 0)]
    while stack:
        s, depth = stack.pop()
        a, b = max(s["t0"], lo), min(s["t1"], hi)
        if b > a:
            events.append((a, 1, depth, s))
            events.append((b, 0, -depth, s))
        stack.extend((c, depth + 1) for c in children.get(s["id"], ()))
    events.sort(key=lambda e: e[:3])
    layer = {s["id"]: (s["name"] if s is not root and s["name"] in LAYERS else "other")
             for *_, s in events}
    active: set[str] = set()
    busy: Counter = Counter()  # active children per active span
    leaves: set[str] = set()
    share: dict[str, float] = defaultdict(float)
    prev = None
    for t, kind, _, s in events:
        if prev is not None and t > prev and leaves:
            piece = (t - prev) / len(leaves) / 1e9
            for sid in leaves:
                share[layer[sid]] += piece
        prev = t
        sid, parent = s["id"], (None if s is root else s["parent"])
        if kind == 1:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                busy[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                busy[parent] -= 1
                if busy[parent] == 0:
                    leaves.add(parent)
    return dict(share)


def chrome_trace(spans: list[dict], path: str) -> None:
    """Write spans as Chrome trace-event JSON (Perfetto opens it)."""
    events = [
        {
            "name": s["name"],
            "cat": s["layer"],
            "ph": "X",
            "ts": s["t0"] / 1e3,
            "dur": (s["t1"] - s["t0"]) / 1e3,
            "pid": s["pid"],
            "tid": s["tid"],
            "args": {"id": s["id"], "parent": s["parent"], "rid": s["rid"]},
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def load_dumps(directory: str) -> tuple[list[dict], list[dict]]:
    """Every ``spans-*.json`` a traced process wrote into ``directory``:
    (all spans, per-process docs)."""
    spans, docs = [], []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                doc = json.load(fh)
            docs.append(doc)
            spans.extend(doc["spans"])
    return spans, docs
