"""Circular (ring) geometry kernel.

Everything in the paper happens on a discrete circle: the physical
network is the ring ``C_n`` with vertices ``0..n-1`` in circular order,
logical requests are chords of that circle, and a cycle of requests is
DRC-routable iff its vertices appear in circular order (see
:mod:`repro.core.drc`).  This module is the single home for the circle
arithmetic used everywhere else: gaps, distances, circular order,
chord crossing/nesting predicates, and numpy-vectorised bulk variants
used by the verifier and the benchmarks on large instances.

Conventions
-----------
* Vertices are ``int`` in ``[0, n)``; arithmetic is mod ``n``.
* The *gap* ``gap(n, a, b)`` is the clockwise arc length from ``a`` to
  ``b`` (in ``[0, n)``); the *distance* is the chord length
  ``min(gap, n - gap)`` (in ``[1, n // 2]`` for distinct endpoints).
* A *chord* is a normalised pair ``(min(a, b), max(a, b))``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "gap",
    "ring_distance",
    "chord",
    "all_chords",
    "n_chords",
    "chord_distance",
    "total_chord_distance",
    "gaps_of_cycle",
    "is_circular_order",
    "winding_number",
    "sort_circular",
    "convex_cycle",
    "chords_cross",
    "chords_nested",
    "chords_disjoint_arcs",
    "chords_compatible",
    "arc_between",
    "vertices_in_arc",
    "chord_distances_bulk",
    "cycle_gap_matrix",
    "canonical_rotation",
]


def gap(n: int, a: int, b: int) -> int:
    """Clockwise arc length from ``a`` to ``b`` on ``C_n`` (0 when equal)."""
    return (b - a) % n


def ring_distance(n: int, a: int, b: int) -> int:
    """Chord length between ``a`` and ``b``: hops along the shorter arc."""
    g = (b - a) % n
    return g if g <= n - g else n - g


def chord(a: int, b: int) -> tuple[int, int]:
    """Normalised undirected chord (request) between two vertices."""
    if a == b:
        raise ValueError(f"chord endpoints must differ, got {a}")
    return (a, b) if a < b else (b, a)


def all_chords(n: int) -> Iterator[tuple[int, int]]:
    """Iterate the edges of ``K_n`` as normalised chords, lexicographically."""
    for a in range(n):
        for b in range(a + 1, n):
            yield (a, b)


def n_chords(n: int) -> int:
    """Number of edges of ``K_n``."""
    return n * (n - 1) // 2


def chord_distance(n: int, e: tuple[int, int]) -> int:
    """Ring distance of a chord."""
    return ring_distance(n, e[0], e[1])


def total_chord_distance(n: int) -> int:
    """``Σ_e dist(e)`` over all edges of ``K_n`` — the numerator of the
    counting lower bound.

    Closed forms: ``n·p(p+1)/2`` for ``n = 2p+1`` and ``n·p²/2`` for
    ``n = 2p`` (distance-``p`` class has only ``n/2`` chords).
    """
    if n < 2:
        return 0
    p = n // 2
    if n % 2 == 1:
        return n * p * (p + 1) // 2
    return n * p * p // 2


def gaps_of_cycle(n: int, cycle: Sequence[int]) -> list[int]:
    """Clockwise gaps between consecutive cycle vertices (cyclically).

    The cycle is traversed in the given order; the result has the same
    length as ``cycle`` and sums to a multiple of ``n`` (``n`` exactly
    when the cycle is in circular order).
    """
    k = len(cycle)
    return [(cycle[(i + 1) % k] - cycle[i]) % n for i in range(k)]


def winding_number(n: int, cycle: Sequence[int]) -> int:
    """How many times the closed walk ``cycle`` winds around the ring
    when each consecutive pair is joined by its clockwise arc."""
    total = sum((cycle[(i + 1) % len(cycle)] - cycle[i]) % n for i in range(len(cycle)))
    return total // n


def is_circular_order(n: int, cycle: Sequence[int]) -> bool:
    """True iff ``cycle`` lists distinct vertices in ring circular order
    (clockwise or counterclockwise).

    This is exactly the DRC-feasibility condition for a logical cycle on
    the physical ring ``C_n`` (Lemma, :mod:`repro.core.drc`).
    """
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    forward = sum((cycle[(i + 1) % k] - cycle[i]) % n for i in range(k))
    # Distinct consecutive vertices give gaps in [1, n-1]; the total is a
    # positive multiple of n.  Clockwise circular order ⟺ winding 1;
    # counterclockwise ⟺ the reversed walk winds once, i.e. the forward
    # total equals (k-1)·n because opposite gaps sum to n pairwise.
    return forward == n or forward == (k - 1) * n


def sort_circular(n: int, vertices: Iterable[int], start: int | None = None) -> list[int]:
    """Vertices sorted in circular order, beginning at ``start`` (or the
    smallest vertex when omitted)."""
    vs = sorted(set(vertices))
    if not vs:
        return []
    if start is None:
        return vs
    if start not in vs:
        raise ValueError(f"start vertex {start} not among vertices")
    i = vs.index(start)
    return vs[i:] + vs[:i]


def convex_cycle(vertices: Iterable[int]) -> tuple[int, ...]:
    """The unique DRC-routable (convex) cycle on a vertex set: the cycle
    visiting the vertices in circular order.  Needs ``|S| ≥ 3``."""
    vs = tuple(sorted(set(vertices)))
    if len(vs) < 3:
        raise ValueError(f"a cycle needs at least 3 distinct vertices, got {vs}")
    return vs


def chords_cross(n: int, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Strict interleaving test: do chords ``e`` and ``f`` cross in the
    interior of the disk?  Shared endpoints do not count as crossing."""
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    # e splits the circle into (a, b) and (b, a); f crosses iff exactly
    # one endpoint lies strictly inside (a, b) clockwise.
    in1 = 0 < (c - a) % n < (b - a) % n
    in2 = 0 < (d - a) % n < (b - a) % n
    return in1 != in2


def chords_nested(n: int, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """True when one chord's endpoints both lie strictly inside one arc of
    the other (endpoint-disjoint, non-crossing, non-"parallel")."""
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    span = (b - a) % n
    in1 = 0 < (c - a) % n < span
    in2 = 0 < (d - a) % n < span
    return in1 == in2


def chords_disjoint_arcs(n: int, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """True when the chords neither cross nor share endpoints (they are
    compatible inside one convex cycle)."""
    a, b = e
    c, d = f
    if len({a, b, c, d}) < 4:
        return False
    return not chords_cross(n, e, f)


def chords_compatible(n: int, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Can ``e`` and ``f`` both be edges of a single convex cycle?

    Requires endpoint-disjointness and non-crossing: the convex
    quadrilateral on their four endpoints then contains both as edges.
    """
    return chords_disjoint_arcs(n, e, f)


def arc_between(n: int, a: int, b: int) -> list[int]:
    """Vertices strictly inside the clockwise arc from ``a`` to ``b``."""
    return [(a + i) % n for i in range(1, (b - a) % n)]


def vertices_in_arc(n: int, a: int, b: int, vertices: Iterable[int]) -> list[int]:
    """Subset of ``vertices`` lying strictly inside the clockwise arc
    ``a → b``, in arc order."""
    span = (b - a) % n
    inside = [(v, (v - a) % n) for v in vertices if 0 < (v - a) % n < span]
    inside.sort(key=lambda t: t[1])
    return [v for v, _ in inside]


# ---------------------------------------------------------------------------
# Vectorised bulk variants (hot paths: verifier, bounds, benchmarks)
# ---------------------------------------------------------------------------


def chord_distances_bulk(n: int, chords: np.ndarray) -> np.ndarray:
    """Ring distances for an ``(m, 2)`` integer array of chords.

    Vectorised; used by the verifier and the counting bound on large
    instances where a Python loop over ``Θ(n²)`` chords would dominate.
    """
    import numpy as np

    arr = np.asarray(chords, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (m, 2) chord array, got shape {arr.shape}")
    g = np.mod(arr[:, 1] - arr[:, 0], n)
    return np.minimum(g, n - g)


def cycle_gap_matrix(n: int, cycles: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Clockwise gap arrays for a batch of cycles (ragged lengths)."""
    import numpy as np

    out: list[np.ndarray] = []
    for cyc in cycles:
        arr = np.asarray(cyc, dtype=np.int64)
        out.append(np.mod(np.roll(arr, -1) - arr, n))
    return out


def canonical_rotation(cycle: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of a cycle under rotation and reflection.

    Used for hashing/deduplicating blocks: two blocks describe the same
    subnetwork iff their canonical rotations coincide.
    """
    k = len(cycle)
    if k == 0:
        return ()
    best: tuple[int, ...] | None = None
    seqs = [tuple(cycle), tuple(reversed(cycle))]
    for seq in seqs:
        for r in range(k):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best
