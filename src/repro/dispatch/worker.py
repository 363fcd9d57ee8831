"""Worker-side loops behind ``python -m repro worker``.

Two modes, one job shape (the canonical
:class:`~repro.api.spec.CoverSpec` JSON payload), one answer shape (the
deterministic :class:`~repro.api.result.Result` envelope):

stdio mode (the ``subprocess`` transport)
    One request per line on stdin — ``{"spec": {...}}``, optionally
    carrying a ``"checkpoint"`` payload to resume from — answered by
    one line on stdout::

        {"ok": true,  "spec_hash": H, "result": {...envelope...}}
        {"ok": false, "spec_hash": H, "error": "...", "kind": "..."}
        {"ok": false, "spec_hash": H, "kind": "Preempted",
         "checkpoint": {...resumable search state...}, "error": "..."}

    A ``{"preempt": true}`` control line arriving after a job (while it
    runs, or while it is still queued) makes the solver flush its state
    and answer with the ``Preempted`` reply, after which the worker
    exits — the transport hands the checkpoint to a replacement worker,
    which resumes the proof instead of restarting it.  EOF on stdin
    ends the worker.  Nothing else is ever written to stdout, so the
    dispatcher can treat a short read as worker death.

spool mode (the ``spool`` transport; ``--spool DIR``)
    Poll ``DIR/jobs/`` for ``<spec-hash>.json`` job documents, claim
    one by atomically renaming it into ``DIR/claims/``, solve, write
    ``DIR/results/<spec-hash>.result.json`` atomically (temp file +
    rename — a reader never sees a partial envelope), delete the
    claim.  While solving, a checkpoint is flushed to
    ``DIR/checkpoints/<spec-hash>.ckpt.json`` every
    ``checkpoint_every`` nodes, so a worker killed mid-proof strands at
    most one flush interval of work: whoever claims the reclaimed job
    next resumes from the checkpoint.  ``preempt_after`` makes the
    worker bow out of long proofs voluntarily (flush, restore the job
    file, keep polling).  A job document's ``excluded`` list names
    worker ids that must not take it (retry-with-exclusion after a
    death); a ``STOP`` file in the spool root shuts every polling
    worker down.  An idle worker backs its polling interval off toward
    a cap (and snaps back on the first claim), so a parked fleet burns
    no CPU.

Heartbeat leases: a spool worker writes
``DIR/leases/<spec-hash>.<worker-id>.json`` the moment it claims a job
and *renews* it (bumping a monotone ``beat`` counter) at most every
``heartbeat_every`` seconds, piggybacked on the engine's preempt-poll
cadence — zero extra engine hooks.  The dispatcher reclaims a claim
only when its lease goes stale (the beat stops moving), never while
the worker is demonstrably alive — which is what decouples reclaim
from the job deadline and closes the duplicate-solve window a
deadline-only reclaim had for slow-but-healthy workers.

Jobs are solved through :func:`repro.api.solve` with **no cache**, so
the envelope a worker emits is byte-identical to what an in-process
solve of the same spec produces — the differential harness pins this,
and checkpoint/resume history never changes envelope bytes.

Fault injection (test/CI-only) is served by
:mod:`repro.dispatch.faults`: a structured, seeded
:class:`~repro.dispatch.faults.FaultPlan` arrives through the
``REPRO_FAULT_PLAN`` environment variable (or ``--fault-plan``) and
drives crash, mid-proof crash, stall, slow-but-alive, corrupt-result,
dropped-heartbeat, and refused-preempt faults deterministically — at
most one worker per armed fault.
"""

from __future__ import annotations

import json
import os
import queue
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, TextIO

from ..api.checkpoints import CheckpointStore, MemoryCheckpointStore
from ..api.spec import CoverSpec, SpecError
from ..core.checkpoint import SearchCheckpoint
from ..util.errors import ReproError, SolverPreempted
from .base import RetryPolicy
from .faults import FaultInjector

__all__ = [
    "HEARTBEAT_EVERY_DEFAULT",
    "SPOOL_CHECKPOINT_EVERY_DEFAULT",
    "SPOOL_ERROR_FORMAT",
    "SPOOL_JOB_FORMAT",
    "parse_preempt_after",
    "spool_worker_loop",
    "stdio_worker_loop",
]

SPOOL_JOB_FORMAT = "repro-spool-job"
SPOOL_ERROR_FORMAT = "repro-spool-error"
# Spool workers flush search state every this-many nodes by default, so
# a worker killed mid-proof strands at most one interval of work.
SPOOL_CHECKPOINT_EVERY_DEFAULT = 2048
# Lease renewal cadence: the beat is bumped at most every this-many
# seconds (renewals ride the engine's preempt polls, which fire far
# more often on any proof long enough to matter).
HEARTBEAT_EVERY_DEFAULT = 0.5
# Adaptive idle polling backs off toward this ceiling while the spool
# stays empty, and snaps back to the base interval on the first claim.
SPOOL_IDLE_POLL_CAP = 0.5


def parse_preempt_after(text: str) -> "tuple[str, float]":
    """Parse a ``--preempt-after`` budget: ``"800n"`` means 800 search
    nodes (deterministic — what the CI smoke uses), a bare number means
    that many wall-clock seconds.  Returns ``("nodes", 800.0)`` or
    ``("seconds", 2.5)``."""
    raw = str(text).strip().lower()
    try:
        if raw.endswith("n"):
            nodes = int(raw[:-1])
            if nodes <= 0:
                raise ValueError(raw)
            return ("nodes", float(nodes))
        seconds = float(raw)
        if seconds <= 0:
            raise ValueError(raw)
        return ("seconds", seconds)
    except ValueError:
        raise SpecError(
            f"bad preempt-after value {text!r} "
            "(expected a node count like '800n' or seconds like '2.5')"
        ) from None


def _solve_payload(
    payload: Any,
    *,
    checkpoints: CheckpointStore | None = None,
    checkpoint_every: int | None = None,
    preempt=None,
    injector: FaultInjector | None = None,
    heartbeat=None,
) -> "tuple[CoverSpec, Any]":
    """Parse and solve one job payload (the spec dict).  Raises
    SpecError/ReproError with the worker loops deciding how to report.

    ``injector`` arms any per-job faults (and wraps the preempt
    callback with the in-search ones); ``heartbeat`` is called on every
    engine preempt poll so the worker's lease keeps renewing for
    exactly as long as the search is making progress."""
    from ..api.service import solve

    spec = CoverSpec.from_payload(payload)
    if injector is not None:
        injector.begin_job(heartbeat)
        preempt = injector.wrap_preempt(preempt)
    if heartbeat is not None:
        inner = preempt

        def preempt(st, _inner=inner):
            heartbeat()
            return _inner(st) if _inner is not None else False

    if checkpoints is None and checkpoint_every is None and preempt is None:
        result = solve(spec, cache=None)
    else:
        result = solve(
            spec,
            cache=None,
            checkpoints=checkpoints,
            checkpoint_every=checkpoint_every,
            preempt=preempt,
        )
    return spec, result.to_payload()


# ---------------------------------------------------------------------------
# stdio mode
# ---------------------------------------------------------------------------


def _is_preempt_control(line: str) -> bool:
    if '"preempt"' not in line:
        return False
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(doc, dict) and bool(doc.get("preempt")) and "spec" not in doc


def _stdio_reply(
    line: str,
    *,
    preempt=None,
    checkpoint_every: int | None = None,
    injector: FaultInjector | None = None,
) -> dict[str, Any]:
    try:
        request = json.loads(line)
        raw_spec = request["spec"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return {
            "ok": False,
            "spec_hash": None,
            "error": f"malformed job line: {exc}",
            "kind": type(exc).__name__,
        }
    store: MemoryCheckpointStore | None = None
    if preempt is not None or request.get("checkpoint") is not None:
        store = MemoryCheckpointStore()
        raw_ckpt = request.get("checkpoint")
        if raw_ckpt is not None:
            try:
                ckpt = SearchCheckpoint.from_payload(raw_ckpt)
                store.save(CoverSpec.from_payload(raw_spec).spec_hash, ckpt)
            except ReproError:
                pass  # corrupt wire checkpoint: degrade to solving fresh
    try:
        spec, payload = _solve_payload(
            raw_spec,
            checkpoints=store,
            checkpoint_every=checkpoint_every,
            preempt=preempt,
            injector=injector,
        )
    except SolverPreempted as exc:
        spec_hash = CoverSpec.from_payload(raw_spec).spec_hash
        ckpt = store.load(spec_hash) if store is not None else exc.checkpoint
        return {
            "ok": False,
            "spec_hash": spec_hash,
            "error": str(exc),
            "kind": "Preempted",
            "checkpoint": ckpt.to_payload() if ckpt is not None else None,
        }
    except SpecError as exc:
        return {"ok": False, "spec_hash": None, "error": str(exc), "kind": "SpecError"}
    except ReproError as exc:
        return {
            "ok": False,
            "spec_hash": CoverSpec.from_payload(raw_spec).spec_hash,
            "error": str(exc),
            "kind": type(exc).__name__,
        }
    return {"ok": True, "spec_hash": spec.spec_hash, "result": payload}


class _StdioInbox:
    """stdin lines, pumped by a reader thread, sorted into queued jobs
    and preempt marks.

    Jobs are numbered in arrival order.  A ``{"preempt": true}`` line
    preempts every job that arrived before it and has not finished —
    including one still queued behind the drain, so a preempt buffered
    together with its job is kept rather than dropped.  A preempt that
    reaches a job only after the job finished (or that arrives with no
    job at all) never touches a later job.
    """

    def __init__(self, stdin: TextIO) -> None:
        self._lines: "queue.Queue[str]" = queue.Queue()
        self.eof = threading.Event()
        self._jobs: deque[tuple[int, str]] = deque()
        self._received = 0
        self._preempt_before = 0  # jobs numbered below this are preempted
        threading.Thread(
            target=self._pump, args=(stdin,), daemon=True, name="repro-stdin-pump"
        ).start()

    def _pump(self, stdin: TextIO) -> None:
        try:
            for raw in stdin:
                self._lines.put(raw)
        finally:
            self.eof.set()

    def _take(self, raw: str) -> None:
        line = raw.strip()
        if not line:
            return
        if _is_preempt_control(line):
            self._preempt_before = self._received
        else:
            self._jobs.append((self._received, line))
            self._received += 1

    def _drain(self) -> None:
        while True:
            try:
                raw = self._lines.get_nowait()
            except queue.Empty:
                return
            self._take(raw)

    def next_job(self) -> tuple[int, str] | None:
        """The next ``(number, line)`` job; ``None`` at EOF."""
        while True:
            self._drain()
            if self._jobs:
                return self._jobs.popleft()
            if self.eof.is_set() and self._lines.empty():
                return None
            try:
                self._take(self._lines.get(timeout=0.05))
            except queue.Empty:
                continue

    def preempted(self, number: int) -> bool:
        self._drain()
        return self._preempt_before > number


def stdio_worker_loop(
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
    *,
    checkpoint_every: int | None = None,
) -> int:
    """Serve jobs line-by-line until EOF (the subprocess transport's
    worker body).

    A reader thread pumps stdin into a queue so the solver can notice a
    ``{"preempt": true}`` control line *mid-proof* (the engine polls a
    preempt callback between nodes).  On preemption the worker answers
    with the checkpoint payload and exits; the transport's replacement
    worker resumes from it.
    """
    inbox = _StdioInbox(stdin if stdin is not None else sys.stdin)
    return _serve_stdio(
        inbox,
        stdout if stdout is not None else sys.stdout,
        checkpoint_every=checkpoint_every,
    )


def _serve_stdio(
    inbox: _StdioInbox, stdout: TextIO, *, checkpoint_every: int | None
) -> int:
    injector = FaultInjector.from_env()
    while True:
        job = inbox.next_job()
        if job is None:
            return 0
        number, line = job
        reply = _stdio_reply(
            line,
            preempt=lambda st, number=number: inbox.preempted(number),
            checkpoint_every=checkpoint_every,
            injector=injector,
        )
        text = json.dumps(reply, sort_keys=True, separators=(",", ":"))
        if injector is not None:
            # A corrupt_result fault truncates the reply line: the
            # dispatcher reads garbage and retries the job elsewhere.
            text = injector.corrupt(text)
        try:
            stdout.write(text + "\n")
            stdout.flush()
        except (OSError, ValueError):
            return 0  # parent hung up; nobody is left to read the reply
        if reply.get("kind") == "Preempted":
            # The contract with the transport: one preempt reply, then a
            # clean exit — the checkpoint travels in the reply.
            return 0


# ---------------------------------------------------------------------------
# spool mode
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _claim_one(root: Path, worker_id: str) -> "tuple[str, dict, Path] | None":
    """Claim the first eligible job via atomic rename; losers of the
    rename race simply move on to the next file.  Job files are named
    ``<seq>-<spec-hash>.json`` with ``<seq>`` the dispatcher's schedule
    position, so sorted directory order *is* the LPT heaviest-first
    plan."""
    jobs_dir = root / "jobs"
    try:
        candidates = sorted(jobs_dir.glob("*.json"))
    except OSError:
        return None
    for job_file in candidates:
        try:
            doc = json.loads(job_file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue  # mid-write or already claimed — not ours to judge
        if doc.get("format") != SPOOL_JOB_FORMAT:
            continue
        if worker_id in doc.get("excluded", ()):
            continue
        prefix, sep, rest = job_file.stem.partition("-")
        spec_hash = rest if sep else prefix
        claim = root / "claims" / f"{spec_hash}.{worker_id}.json"
        try:
            os.replace(job_file, claim)
        except (OSError, ValueError):
            continue  # another worker won the claim
        return spec_hash, doc, claim
    return None


def _restore_spool_job(root: Path, spec_hash: str, doc: dict) -> None:
    """Put a self-preempted job back into ``jobs/`` under its original
    schedule position, so any worker (this one included) can claim and
    resume it from the persisted checkpoint."""
    try:
        seq = int(doc.get("seq", 999999))
    except (TypeError, ValueError):
        seq = 999999
    _atomic_write(
        root / "jobs" / f"{seq:06d}-{spec_hash}.json",
        json.dumps(doc, sort_keys=True),
    )


class _Lease:
    """The worker side of the heartbeat-lease protocol: one small JSON
    file beside the claim, renewed by bumping a monotone ``beat``
    counter at most every ``every`` seconds.  The dispatcher reads only
    whether the beat is still moving — wall clocks never cross the
    filesystem, so skewed machines cannot fake (or miss) a death."""

    def __init__(
        self,
        root: Path,
        spec_hash: str,
        worker_id: str,
        *,
        every: float = HEARTBEAT_EVERY_DEFAULT,
        injector: FaultInjector | None = None,
    ) -> None:
        self.path = root / "leases" / f"{spec_hash}.{worker_id}.json"
        self.worker_id = worker_id
        self.every = max(0.01, float(every))
        self.injector = injector
        self.beat = 0
        self._last = 0.0

    def write(self) -> None:
        if self.injector is not None and self.injector.heartbeats_dropped:
            return  # drop_heartbeat fault: look dead while solving on
        _atomic_write(
            self.path,
            json.dumps(
                {"beat": self.beat, "worker": self.worker_id}, sort_keys=True
            ),
        )
        self._last = time.monotonic()

    def renew(self) -> None:
        """Bump-and-write, rate-limited to ``every`` — cheap enough to
        call on every engine preempt poll."""
        if time.monotonic() - self._last < self.every:
            return
        self.beat += 1
        self.write()

    def clear(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


def _run_spool_job(
    root: Path,
    spec_hash: str,
    doc: dict,
    *,
    checkpoints: CheckpointStore | None = None,
    checkpoint_every: int | None = None,
    preempt=None,
    injector: FaultInjector | None = None,
    heartbeat=None,
) -> bool:
    """Solve one claimed job.  Returns ``False`` when the solve was
    preempted — the checkpoint is already persisted and the caller owes
    a job-file restore — and ``True`` when a result (or a deterministic
    error document) was written."""
    result_file = root / "results" / f"{spec_hash}.result.json"
    try:
        spec, payload = _solve_payload(
            doc.get("spec"),
            checkpoints=checkpoints,
            checkpoint_every=checkpoint_every,
            preempt=preempt,
            injector=injector,
            heartbeat=heartbeat,
        )
        if spec.spec_hash != spec_hash:
            raise SpecError(
                f"job file named {spec_hash[:12]} holds a spec hashing to "
                f"{spec.spec_hash[:12]}"
            )
        text = json.dumps(payload, indent=2, sort_keys=True)
    except SolverPreempted:
        return False  # the backend flushed the checkpoint on the way out
    except ReproError as exc:
        text = json.dumps(
            {
                "format": SPOOL_ERROR_FORMAT,
                "spec_hash": spec_hash,
                "error": str(exc),
                "kind": type(exc).__name__,
            },
            indent=2,
            sort_keys=True,
        )
    if injector is not None:
        # A corrupt_result fault truncates the envelope text (the
        # write itself stays atomic): exactly the torn-result shape the
        # dispatcher's quarantine machinery must catch.
        text = injector.corrupt(text)
    _atomic_write(result_file, text)
    return True


def _spool_preempt(budget, store: CheckpointStore, spec_hash: str):
    """The per-claim preempt callback for a ``preempt_after`` budget:
    node budgets count from the resumed checkpoint's floor (so every
    claim advances the proof by the full budget), second budgets count
    from claim time."""
    if budget is None:
        return None
    unit, amount = budget
    if unit == "nodes":
        prior = store.load(spec_hash)
        ceiling = (prior.nodes if prior is not None else 0) + int(amount)
        return lambda st: st.nodes >= ceiling
    deadline = time.monotonic() + amount
    return lambda st: time.monotonic() >= deadline


def spool_worker_loop(
    root: Path | str,
    *,
    poll: float = 0.05,
    exit_when_idle: bool = False,
    max_jobs: int | None = None,
    worker_id: str | None = None,
    checkpoint_every: int | None = SPOOL_CHECKPOINT_EVERY_DEFAULT,
    preempt_after: str | None = None,
    heartbeat_every: float = HEARTBEAT_EVERY_DEFAULT,
) -> int:
    """Poll a spool directory for jobs until STOP (or idleness, with
    ``exit_when_idle``).  Safe to run many copies against one spool —
    claims are atomic renames, results are atomic writes.

    Every claim gets a heartbeat lease (``leases/``), written at claim
    time and renewed — at most every ``heartbeat_every`` seconds — on
    the engine's preempt polls while the proof advances; the dispatcher
    reclaims a claim only once its lease stops moving.  Search state is
    checkpointed to ``checkpoints/`` every ``checkpoint_every`` nodes,
    so a worker killed mid-proof leaves resumable state behind.
    ``preempt_after`` (``"800n"`` nodes or seconds) makes the worker
    bow out of long proofs voluntarily: flush a checkpoint, restore the
    job file, release the claim, and keep polling — real work
    migration, not retry-from-scratch.  While idle, the polling
    interval backs off (factor 1.5) toward ``SPOOL_IDLE_POLL_CAP`` and
    resets on the next claim."""
    root = Path(root)
    wid = worker_id or f"w{os.getpid()}"
    for sub in ("jobs", "claims", "results", "checkpoints", "leases"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    store = CheckpointStore(root / "checkpoints")
    budget = parse_preempt_after(preempt_after) if preempt_after is not None else None
    injector = FaultInjector.from_env()
    idle = RetryPolicy(
        base_delay=max(0.001, poll),
        factor=1.5,
        max_delay=max(poll, SPOOL_IDLE_POLL_CAP),
        max_retries=0,
    )
    idle_ticks = 0
    done = 0
    while True:
        if (root / "STOP").exists():
            return 0
        claimed = _claim_one(root, wid)
        if claimed is None:
            if exit_when_idle:
                return 0
            idle_ticks += 1
            time.sleep(idle.delay(idle_ticks))
            continue
        idle_ticks = 0
        spec_hash, doc, claim = claimed
        lease = _Lease(
            root, spec_hash, wid, every=heartbeat_every, injector=injector
        )
        lease.write()
        finished = _run_spool_job(
            root,
            spec_hash,
            doc,
            checkpoints=store,
            checkpoint_every=checkpoint_every,
            preempt=_spool_preempt(budget, store, spec_hash),
            injector=injector,
            heartbeat=lease.renew,
        )
        if not finished:
            # Self-preempted: hand the job back with its checkpoint on
            # disk and keep polling — whoever claims it next resumes.
            _restore_spool_job(root, spec_hash, doc)
            lease.clear()
            claim.unlink(missing_ok=True)
            continue
        lease.clear()
        claim.unlink(missing_ok=True)
        done += 1
        if max_jobs is not None and done >= max_jobs:
            return 0
