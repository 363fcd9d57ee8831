"""Shared plumbing: checkout layout, child environments, process
accounting and order statistics."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim")
CONFIG = os.path.join(HERE, "config.json")

# Selectors the benchmark clears so every run uses the default kernel and
# SAT engine resolution.
_SELECTORS = ("REPRO_KERNEL", "REPRO_SAT", "REPRO_NO_NUMPY", "REPRO_CACHE_DIR",
              "REPRO_FAULT_PLAN")


def load_config() -> dict:
    with open(CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def source_root(checkout: str) -> str:
    """``<checkout>/src``; exits with status 2 when the checkout holds no
    ``repro`` package (the benchmark has nothing to measure)."""
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        sys.exit(2)
    return src


class Scratch:
    """A private directory under ``perfbench/.tmp`` for caches, ledgers
    and traces of one run; removed on exit."""

    def __init__(self) -> None:
        base = os.path.join(HERE, ".tmp")
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass  # another run still uses it

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def child_env(src: str, scratch: Scratch, *, trace_dir: str | None = None,
              parent: str | None = None, rid: str | None = None,
              modules: tuple[str, ...] = (), extra: dict | None = None) -> dict:
    """Environment for a process running ``repro`` from ``src``.  The
    default cache dir and TMPDIR point into the run's scratch dir, so no
    child can write outside the checkout.  With ``trace_dir`` the shim
    traces the child (see shim/sitecustomize.py)."""
    env = {k: v for k, v in os.environ.items()
           if k not in _SELECTORS and not k.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = src
    env["REPRO_CACHE_DIR"] = scratch.sub("default-cache")
    env["TMPDIR"] = scratch.sub("tmp")
    if trace_dir is not None:
        env["PYTHONPATH"] = src + os.pathsep + SHIM
        env[spans.ENV_TRACE_DIR] = trace_dir
        if parent:
            env[spans.ENV_PARENT] = parent
        if rid:
            env[spans.ENV_RID] = rid
        if modules:
            env[spans.ENV_MODULES] = ",".join(modules)
    if extra:
        env.update(extra)
    return env


def wait_rusage(proc: subprocess.Popen, timeout: float | None = None) -> dict:
    """Reap ``proc`` (killing it after ``timeout`` seconds) and return
    its own CPU seconds (user + system, its waited-for children
    included), peak RSS in MB and exit code."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
        else:
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode}


def stop(proc: subprocess.Popen | None) -> None:
    """Kill ``proc`` if it still runs and reap it."""
    if proc is None or proc.returncode is not None:
        return
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def keep_going(begin: float, last_pass_s: float, seconds: float) -> bool:
    """Whether to start another pass: at least half of one more pass of
    ``last_pass_s`` fits in the ``seconds`` budget counted from
    ``begin`` (``time.perf_counter``).  A run therefore always makes the
    same number of passes on the same host, overrunning the budget by at
    most half a pass."""
    return time.perf_counter() - begin + last_pass_s / 2 <= seconds


@contextlib.contextmanager
def pinned():
    """Run this process, and every process it starts, on one CPU, so
    calibration samples measure the CPU the measured work runs on (the
    CPUs of a shared host drift apart)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 ≤ q ≤ 1)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def environment_stamp(src: str, seed: int, scratch: Scratch) -> dict:
    """Resolved kernel and SAT engine, versions, nproc and the seed — in
    a clean child so the stamp sees exactly what the workloads see."""
    probe = (
        "import json, sys, numpy\n"
        "from repro.core.kernel import resolve_kernel\n"
        "from repro.sat.engines import resolve_engine\n"
        "print(json.dumps({'kernel': resolve_kernel(), 'sat_engine': resolve_engine(),"
        " 'numpy': numpy.__version__}))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(src, scratch),
                         capture_output=True, text=True, timeout=60, check=True)
    stamp = json.loads(out.stdout.strip().splitlines()[-1])
    stamp.update({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    })
    return stamp
