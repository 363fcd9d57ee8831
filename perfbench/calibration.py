"""Calibration: how fast the host runs right now, so time metrics can be
reported in reference seconds.

Shared hosts drift in speed by more than the metrics' bounds, within a
run and between runs.  A fixed pure-Python kernel timed next to (or, for
long jobs, inside) the measured work tells how fast the CPU was then;
measured seconds x the kernel's reference seconds / its measured seconds
are the seconds the work would have taken on the reference machine.

Standard library only and cheap to import: the start-up shim loads it
into CLI child processes (see shim/sitecustomize.py).
"""

from __future__ import annotations

import signal
import time

# Seconds the calibration kernel takes on the reference machine (a 2-vCPU
# Xeon at 2.1 GHz, Python 3.11, idle).  Time metrics are reported in
# reference seconds: measured seconds x CALIBRATION_REFERENCE_S / the
# run's median kernel time, which cancels the host's speed drift between
# runs (shared hosts drift by more than the metrics' bounds).
CALIBRATION_REFERENCE_S = 0.04
# The in-job kernel's iterations (see interpreter_kernel) and its seconds
# on the same machine: 0.39 x CALIBRATION_REFERENCE_S per 25,000
# iterations, the median ratio of the two kernels timed alternately 300
# times.
IN_JOB_ITERATIONS = 10_000
IN_JOB_REFERENCE_S = 0.0062
# A child process started with these set samples itself from start-up to
# exit, every ENV_SAMPLE_EVERY seconds, and writes ``{"samples": [...],
# "stolen": s}`` to the file ENV_SAMPLE_OUT names (shim/sitecustomize.py).
ENV_SAMPLE_EVERY = "PERFBENCH_SAMPLE_EVERY"
ENV_SAMPLE_OUT = "PERFBENCH_SAMPLE_OUT"


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel takes right now.  It creates
    no containers, so the cyclic garbage collector never runs inside it
    whatever the caller's heap holds.  Call it only while nothing else of
    the benchmark runs."""
    t0 = time.perf_counter()
    acc = 1
    for i in range(250_000):
        acc = (acc * 31 + i) % 1_000_003
        if acc & 1:
            acc ^= i
    return time.perf_counter() - t0


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 0


_PAIR = _Pair()
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}
_ROW = [(i * 40503) & 0xFFFF for i in range(1024)]


def _step(pair: _Pair, x: int) -> int:
    if x & 1:
        pair.a += 1
    else:
        pair.b ^= x
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def interpreter_kernel() -> float:
    """Seconds a fixed kernel of calls, attribute and dict lookups, list
    indexing and data-dependent branches takes right now.  Long
    pure-Python jobs (the CDCL proof, CLI processes) slow down with this
    host by 1.5 to 2 times more, in log terms, than :func:`calibrate`'s
    arithmetic loop does, and about as much as this kernel does.  Like
    :func:`calibrate` it creates no containers."""
    t0 = time.perf_counter()
    x, acc = 1, 0
    pair, table, row = _PAIR, _TABLE, _ROW
    for _ in range(IN_JOB_ITERATIONS):
        x = _step(pair, x)
        if table[x & 255] > row[(x >> 8) & 1023]:
            acc += 1
        elif x & 4:
            acc -= 1
    return time.perf_counter() - t0


class InJobSampler:
    """Calibration samples taken *during* jobs that last many seconds:
    while active, a SIGALRM interval timer interrupts the job every
    ``every`` seconds of wall time to time :func:`interpreter_kernel`.
    ``stolen`` is the time the samples took; the caller subtracts it
    from the job's latency.  The job must run Python code in the main
    thread, so the handler gets to run."""

    def __init__(self, every: float) -> None:
        self.every = every
        self.samples: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(interpreter_kernel())
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "InJobSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def calibration_scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds for one run."""
    xs = sorted(samples)
    n = len(xs)
    return CALIBRATION_REFERENCE_S / ((xs[(n - 1) // 2] + xs[n // 2]) / 2)


def in_job_scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds for jobs sampled by
    :class:`InJobSampler`: the mean relative speed over the samples.
    They are evenly spaced in wall time, so the mean weights each
    stretch of the jobs by its length, and a stretch at half speed
    counts half (a median would drop stretches shorter than half)."""
    return sum(IN_JOB_REFERENCE_S / s for s in samples) / len(samples)
