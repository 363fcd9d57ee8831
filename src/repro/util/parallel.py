"""Process-based parallel map for embarrassingly parallel sweeps.

The benchmark harness sweeps constructions and failure simulations over
many independent ring sizes, and the solver engine shards a single
large-n certification across workers (see
:meth:`repro.core.engine.SolverEngine.min_covering_sharded`).  Following
the HPC guides' advice, the hot kernels themselves are
vectorised/algorithmic (optimise the algorithm first); this module only
adds *coarse-grained* parallelism across independent problem instances,
where process start-up cost amortises.

``parallel_map`` degrades gracefully to a serial loop when ``workers=1``
(or when the payload is tiny) so tests and benchmarks stay deterministic
and profile-friendly.  When per-item ``weights`` are supplied, items are
packed into per-worker bins by longest-processing-time first — the
right chunking when item costs vary by orders of magnitude (a ρ(n)
sweep's cost grows exponentially in n, so equal-*count* chunks leave
all but one worker idle).

The ``REPRO_MAX_WORKERS`` environment variable caps every worker count
resolved by this module; CI sets it to keep benchmark smoke jobs from
oversubscribing shared runners.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "default_workers", "weighted_chunks", "lpt_order"]

MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def _apply_env_cap(workers: int) -> int:
    """Clamp a worker count to the ``REPRO_MAX_WORKERS`` override (an
    unparsable override never breaks a sweep)."""
    cap = os.environ.get(MAX_WORKERS_ENV)
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            pass
    return workers


def default_workers() -> int:
    """A conservative worker count: physical parallelism minus one, at
    least 1 — leaves a core for the orchestrating process.  Capped by
    the ``REPRO_MAX_WORKERS`` environment variable when set."""
    return _apply_env_cap(max(1, (os.cpu_count() or 2) - 1))


def resolve_workers(workers: int | None) -> int:
    """Clamp an explicit worker request to ≥ 1 and to the
    ``REPRO_MAX_WORKERS`` cap; ``None`` means :func:`default_workers`."""
    if workers is None:
        return default_workers()
    return _apply_env_cap(max(1, workers))


def lpt_order(weights: Sequence[float]) -> list[int]:
    """Indices sorted heaviest-first (longest-processing-time order),
    ties breaking toward the earlier item.

    This is both the intake order of :func:`weighted_chunks` and the
    drain order of the dispatch work queue
    (:mod:`repro.dispatch`) — one definition so an in-process shard plan
    and a distributed schedule agree on which jobs are "big".
    """
    return sorted(range(len(weights)), key=lambda i: (-weights[i], i))


def weighted_chunks(
    items: Sequence[T], weights: Sequence[float], bins: int
) -> list[list[T]]:
    """Partition ``items`` into ≤ ``bins`` lists balanced by total
    weight (longest-processing-time-first greedy).

    Deterministic: ties in both the weight sort and the bin choice break
    toward earlier items / lower bin index, so the same inputs always
    shard the same way — a requirement for reproducible merged solver
    statistics.  Empty bins are dropped.
    """
    if len(items) != len(weights):
        raise ValueError(f"{len(items)} items but {len(weights)} weights")
    bins = max(1, bins)
    order = lpt_order(weights)
    loads = [0.0] * bins
    assignment: list[list[int]] = [[] for _ in range(bins)]
    for i in order:
        b = min(range(bins), key=lambda j: (loads[j], j))
        loads[b] += weights[i]
        assignment[b].append(i)
    # Preserve original item order within each bin.
    return [[items[i] for i in sorted(bin_)] for bin_ in assignment if bin_]


def _run_bin(payload: tuple[Callable, list]) -> list:
    fn, chunk = payload
    return [fn(item) for item in chunk]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
    min_chunk: int = 4,
    weights: Sequence[float] | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` preserving order.

    Runs serially when ``workers`` resolves to 1 or the item count is
    below ``min_chunk`` (process-pool overhead would dominate).  ``fn``
    must be picklable (module-level function) to use multiple workers.

    With ``weights`` (one non-negative cost estimate per item), items
    are packed into one bin per worker by
    :func:`weighted_chunks` and each bin runs as a single task, so a
    handful of expensive items cannot serialise the whole sweep behind
    uniform round-robin chunks.
    """
    seq: Sequence[T] = list(items)
    if weights is not None and len(weights) != len(seq):
        raise ValueError(f"{len(seq)} items but {len(weights)} weights")
    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(seq) < min_chunk:
        return [fn(item) for item in seq]
    from concurrent.futures import ProcessPoolExecutor

    if weights is not None:
        index_bins = weighted_chunks(list(range(len(seq))), weights, nworkers)
        payloads = [(fn, [seq[i] for i in bin_]) for bin_ in index_bins]
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            chunked = list(pool.map(_run_bin, payloads))
        out: list[R] = [None] * len(seq)  # type: ignore[list-item]
        for bin_, results in zip(index_bins, chunked):
            for i, r in zip(bin_, results):
                out[i] = r
        return out
    chunksize = max(1, len(seq) // (4 * nworkers))
    with ProcessPoolExecutor(max_workers=nworkers) as pool:
        return list(pool.map(fn, seq, chunksize=chunksize))
