"""Unified incremental solver engine for DRC cycle coverings.

Engine architecture
-------------------
Every exact solver in the repo — tight exact decomposition (the pole
completion step), minimum covering of ``K_n`` (the ρ(n) certifier), and
minimum covering of an arbitrary instance (the λK_n certifier) — used
to carry its own copy of the same scaffolding: a sorted chord list, a
chord → bit index map, per-chord candidate-block lists, and a counting
lower bound.  :class:`SolverEngine` owns that scaffolding once:

* **Edge space** (:func:`edge_space`): the sorted chords of ``K_n``,
  their bit indices, ring distances, and the full-coverage bitmask.
  Memoized per ring size.
* **Block tables** (:func:`convex_block_table`,
  :func:`tight_block_table`): candidate pools with precomputed edge
  bitmasks, bit lists, per-block coverage masses (total chord distance
  — the quantity the DRC geometry caps at ``n`` per block), per-chord
  candidate indices pre-sorted by coverage mass, and the *bound
  fragments* below.  Memoized per ``(n, max_size)`` so batched sweeps
  (:func:`solve_many`) build each table once per process.
* **Packing lower bound** — the seed pruned with the counting bound
  ``⌈Σ_uncovered dist(e) / n⌉`` alone.  The engine's bound is the max
  of two strictly-dominating relaxations, both O(1) per node thanks to
  incrementally maintained residual totals:

  - the *per-chord fractional bound* ``⌈Σ dist(e)·(L/mm(e)) / L⌉``,
    where ``mm(e)`` is the largest in-demand coverage mass of any
    candidate block containing chord ``e`` and ``L = lcm{mm(e)}``.
    Since every block that covers ``e`` retires at most ``mm(e)`` of
    weighted demand, each chosen block contributes at most ``L`` to the
    weighted total; with ``mm(e) ≤ n`` everywhere this dominates the
    counting bound, strictly so whenever the demand leaves a chord
    without full-mass candidates (restricted instances, residual
    subproblems).  The scaled integer weights (``chord_weights``,
    ``weight_denom``) are cached in the memoized block tables.
  - the *cardinality bound* ``⌈|uncovered| / max cover⌉`` — each block
    covers at most ``max_size`` chords, which bites exactly where the
    distance-weighted bound is weakest (many short chords left).

* **Branching** — branch-and-bound always branches on one uncovered
  chord and tries exactly its candidate blocks (complete, since every
  covering must cover that chord).  Candidates are expanded in
  descending *residual* coverage-mass order, so near-zero-waste blocks
  — the only ones optimal coverings can afford — are tried first and
  strong incumbents appear early.  Two chord-selection orders are
  built in (measured in the A4 ablation):

  - ``"lex"`` (default): the lexicographically first uncovered chord.
    All chords at vertex 0 are resolved first, so sibling subtrees
    share most of their covered mask — which is precisely what makes
    the transposition memo below hit; measured on ``n = 8`` and
    ``n = 10`` this beats scarcity ordering by 2–30×.
  - ``"scarcest"``: fewest candidate blocks first (most-constrained;
    ties toward longer chords).  The classic MRV heuristic — smallest
    fan-out per node, but sibling subtrees diverge early, starving the
    memo.  Kept for the ablation and for restricted instances whose
    candidate counts are genuinely lopsided.

* **Dominance pruning** — when the demand does not touch every chord
  (the λK_n certifier, residual instances), candidate blocks are
  filtered at table-build time: a block whose in-demand edge set is a
  subset of another candidate's is *dominated* — any covering using it
  maps, block-for-block, to one at most as large using the dominator —
  and is dropped (:func:`dominated_candidates`).  Unsound for exact
  decomposition (a strict superset changes the partition), so
  :meth:`SolverEngine.decompose` never applies it.
* **Transposition memo** — the subproblem below a node depends only on
  its uncovered-chord set, so the search memoizes ``uncovered → fewest
  blocks used`` and prunes any revisit that does not arrive strictly
  cheaper.  For dihedral-invariant demand (All-to-All), masks are
  first canonicalised under the ``2n`` ring symmetries
  (:func:`dihedral_bit_perms`), collapsing rotated/reflected residual
  states *anywhere* in the tree, not just at the root.  This is the
  fix for the seed's ``n = 8`` anomaly: even ``n`` leaves a gap of one
  between the counting bound and ρ(n), so certification must exhaust a
  space that is ~``2n``-fold redundant — 85,650 nodes at ``n = 8``
  while the gap-free ``n = 9`` needed 234.  With the memo (plus the
  mass-ordered expansion) the same proof takes ~3.5k nodes, and
  ``n = 10`` / ``n = 11`` close in well under a second.
* **Symmetry breaking** — for dihedral-invariant demand the first
  branch only needs one candidate block per dihedral orbit
  (:func:`dihedral_canonical`); every solution maps, by some ring
  symmetry, to a solution through a retained representative.
* **Incumbents** — before branching, a deterministic max-coverage
  greedy pass (shared with :mod:`repro.baselines.greedy`) is tightened
  by the :mod:`repro.core.improve` local-search improver and seeds
  ``best_count``, letting the bound prune from the first node.
* **Sharded scale-out** — :meth:`SolverEngine.min_covering_sharded`
  partitions the root orbit representatives into per-worker shards
  balanced by orbit weight (:func:`repro.util.parallel.weighted_chunks`)
  and fans them out over :func:`repro.util.parallel.parallel_map`.
  Every worker starts from the same shared greedy/improver incumbent
  (the "incumbent broadcast"), so each shard proves its subtree cannot
  beat the best known covering; the union of shards covers every root
  orbit, which is exactly the serial proof.  :class:`SolverStats` from
  the shards merge deterministically (:meth:`SolverStats.merge`) in
  shard order, independent of worker scheduling.
* **Incremental coverings** — results are
  :class:`~repro.core.covering.Covering` objects backed by a
  :class:`~repro.core.ledger.CoverageLedger`, so downstream mutation
  (greedy loops, the improver, mutation tests) stays O(block size) per
  edit.

:mod:`repro.core.solver` remains as a thin compatibility façade
re-exporting the public entry points with their historical signatures.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from ..util import circular
from ..util.errors import SolverError, SolverPreempted
from ..util.parallel import parallel_map, resolve_workers, weighted_chunks
from .blocks import CycleBlock
from .checkpoint import KIND_INSTANCE, KIND_KN, CappedMemo, SearchCheckpoint, memo_cap
from .covering import Covering
from .kernel import load_numpy, resolve_kernel
from .ledger import CoverageLedger
from .objective import Objective, resolve_objective

__all__ = [
    "SolverEngine",
    "SolverStats",
    "dihedral_canonical",
    "dihedral_bit_perms",
    "dominated_candidates",
    "enumerate_convex_blocks",
    "enumerate_tight_blocks",
    "exact_decomposition",
    "restricted_block_table",
    "solve_many",
    "solve_min_covering",
    "solve_min_covering_instance",
    "solve_min_covering_sharded",
]

DEFAULT_NODE_LIMIT = 20_000_000

BRANCHING_ORDERS = ("lex", "scarcest")

# Wall-clock deadlines (``time.time()``-based so they survive pickling
# into sharded workers) are polled every DEADLINE_POLL_MASK+1 nodes —
# cheap enough to leave on, frequent enough for sub-second budgets.
DEADLINE_POLL_MASK = 0xFF


# The acceptance bar of the PR-2 perf work, shared by the regression
# tests, the solver benchmark, and CI: the seed solver explored 85,650
# nodes certifying ρ(8) (the even-n anomaly — see the module docstring)
# and the engine must stay ≥ 10× below it.
SEED_N8_NODES = 85_650
N8_NODE_CEILING = SEED_N8_NODES // 10


@dataclass
class SolverStats:
    """Search statistics, reported by the certifying benchmarks."""

    nodes: int = 0
    best_value: int | None = None
    proven_optimal: bool = False
    shards: int = 0

    @classmethod
    def merge(cls, parts: list["SolverStats"]) -> "SolverStats":
        """Deterministic merge of per-shard statistics (in shard order):
        nodes add up, the best value is the minimum, and optimality
        holds only when every shard ran to completion."""
        merged = cls(shards=len(parts))
        best: int | None = None
        proven = bool(parts)
        for st in parts:
            merged.nodes += st.nodes
            if st.best_value is not None and (best is None or st.best_value < best):
                best = st.best_value
            proven = proven and st.proven_optimal
        merged.best_value = best
        merged.proven_optimal = proven
        return merged


# ---------------------------------------------------------------------------
# Block enumeration
# ---------------------------------------------------------------------------


def _gap_compositions(total: int, parts: int, max_part: int) -> list[tuple[int, ...]]:
    """All ordered compositions of ``total`` into ``parts`` positive parts
    each ≤ ``max_part`` (gap sequences of tight blocks)."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, left: int, prefix: tuple[int, ...]) -> None:
        if left == 1:
            if 1 <= remaining <= max_part:
                out.append(prefix + (remaining,))
            return
        lo = max(1, remaining - max_part * (left - 1))
        hi = min(max_part, remaining - (left - 1))
        for g in range(lo, hi + 1):
            rec(remaining - g, left - 1, prefix + (g,))

    rec(total, parts, ())
    return out


def _least_rotation_period(gaps: tuple[int, ...]) -> int:
    """The period of ``gaps`` (the fewest parts after which it repeats)
    if it is the lexicographically least of its rotations, else 0."""
    for r in range(1, len(gaps)):
        rotated = gaps[r:] + gaps[:r]
        if rotated < gaps:
            return 0
        if rotated == gaps:
            return r
    return len(gaps)


@lru_cache(maxsize=64)
def enumerate_tight_blocks(n: int, max_size: int = 4) -> tuple[CycleBlock, ...]:
    """All *tight* convex blocks of size 3..max_size on ``C_n`` (gaps
    ≤ ⌊n/2⌋ summing to n), each listed once.

    A block is its vertex set, so it arises from every rotation of its
    gap cycle.  Compositions come out in lexicographic order, so a block
    is listed at the least rotation of its gap cycle, from the starts
    ``0..s-1`` where ``s`` is the ring distance of one period of the
    gaps (``s`` divides ``n``; start ``s`` gives the same block again).
    """
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    half = n // 2
    blocks: list[CycleBlock] = []
    for size in range(3, max_size + 1):
        for gaps in _gap_compositions(n, size, half):
            period = _least_rotation_period(gaps)
            if not period:
                continue  # listed at a smaller rotation already
            for start in range(sum(gaps[:period])):
                vs = [start]
                for g in gaps[:-1]:
                    vs.append((vs[-1] + g) % n)
                blocks.append(CycleBlock(tuple(vs)))
    return tuple(blocks)


@lru_cache(maxsize=32)
def enumerate_convex_blocks(n: int, max_size: int = 4) -> tuple[CycleBlock, ...]:
    """All convex blocks of size 3..max_size on ``C_n`` (any gaps): one
    block per vertex subset, joined in circular order."""
    if n < 3:
        raise SolverError(f"n ≥ 3 required, got {n}")
    from itertools import combinations

    blocks: list[CycleBlock] = []
    for size in range(3, max_size + 1):
        for subset in combinations(range(n), size):
            blocks.append(CycleBlock(subset))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Shared bitmask universe
# ---------------------------------------------------------------------------


class EdgeSpace(NamedTuple):
    """The chord universe of ``K_n`` as a bitmask space."""

    n: int
    edges: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    dist: tuple[int, ...]
    full_mask: int


class BlockTable(NamedTuple):
    """A candidate-block pool with precomputed masks, bound fragments,
    and per-chord candidate indices (sorted by coverage mass for the
    convex pool — the branching expansion order)."""

    blocks: tuple[CycleBlock, ...]
    masks: tuple[int, ...]
    edge_lists: tuple[tuple[tuple[int, int], ...], ...]
    per_edge: tuple[tuple[int, ...], ...]  # chord bit → candidate block indices
    bit_lists: tuple[tuple[int, ...], ...]  # block → covered chord bits
    masses: tuple[int, ...]  # block → Σ chord distance (≤ n, = n iff tight)
    chord_weights: tuple[int, ...]  # fractional-bound fragments (full demand)
    weight_denom: int


@lru_cache(maxsize=64)
def edge_space(n: int) -> EdgeSpace:
    edges = tuple(sorted(circular.all_chords(n)))
    index = {e: i for i, e in enumerate(edges)}
    dist = tuple(circular.chord_distance(n, e) for e in edges)
    return EdgeSpace(n, edges, index, dist, (1 << len(edges)) - 1)


@lru_cache(maxsize=64)
def dihedral_bit_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """Chord-bit permutations induced by the ``2n`` ring symmetries.

    ``perms[k][b]`` is the bit index of the image of chord-bit ``b``
    under the k-th symmetry; the identity is ``perms[0]``.  Used to
    canonicalise residual masks in the transposition memo.
    """
    space = edge_space(n)
    perms: list[tuple[int, ...]] = []
    for refl in (False, True):
        for r in range(n):
            perm = [0] * len(space.edges)
            for i, (a, b) in enumerate(space.edges):
                if refl:
                    a, b = (-a) % n, (-b) % n
                a2, b2 = (a + r) % n, (b + r) % n
                perm[i] = space.index[(a2, b2) if a2 < b2 else (b2, a2)]
            perms.append(tuple(perm))
    return tuple(perms)


def _mask_bits(mask: int) -> list[int]:
    bits: list[int] = []
    while mask:
        bits.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return bits


def _canonical_mask(mask: int, perms: tuple[tuple[int, ...], ...]) -> int:
    """Minimum image of ``mask`` under the dihedral bit permutations."""
    bits = _mask_bits(mask)
    best = mask
    for perm in perms[1:]:
        img = 0
        for b in bits:
            img |= 1 << perm[b]
        if img < best:
            best = img
    return best


def _bound_fragments(
    dist: tuple[int, ...], masks, bit_lists, demand_bits: list[int]
) -> tuple[list[int], int, list[int]]:
    """Fractional-bound fragments for the demanded chord bits.

    Returns ``(weights, denom, uncoverable)`` with ``weights[e] =
    dist(e) · denom / mm(e)`` for demanded bits (0 elsewhere), where
    ``mm(e)`` is the maximum in-demand coverage mass over candidate
    blocks containing ``e`` and ``denom = lcm{mm(e)}``; any demanded
    chord no candidate covers is reported in ``uncoverable``.
    """
    demand_mask = 0
    for b in demand_bits:
        demand_mask |= 1 << b
    nbits = len(dist)
    mm = [0] * nbits
    for mask, bits in zip(masks, bit_lists):
        if not mask & demand_mask:
            continue
        mass = sum(dist[b] for b in bits if (demand_mask >> b) & 1)
        for b in bits:
            if (demand_mask >> b) & 1 and mass > mm[b]:
                mm[b] = mass
    uncoverable = [b for b in demand_bits if mm[b] == 0]
    denom = 1
    for b in demand_bits:
        if mm[b]:
            denom = lcm(denom, mm[b])
    weights = [0] * nbits
    for b in demand_bits:
        if mm[b]:
            weights[b] = dist[b] * denom // mm[b]
    return weights, denom, uncoverable


def _build_table(n: int, pool: tuple[CycleBlock, ...], *, mass_sorted: bool) -> BlockTable:
    space = edge_space(n)
    dist = space.dist
    masks: list[int] = []
    edge_lists: list[tuple[tuple[int, int], ...]] = []
    bit_lists: list[tuple[int, ...]] = []
    masses: list[int] = []
    for blk in pool:
        es = blk.edges()
        mask = 0
        bits: list[int] = []
        for e in es:
            b = space.index[e]
            mask |= 1 << b
            bits.append(b)
        masks.append(mask)
        edge_lists.append(es)
        bit_lists.append(tuple(bits))
        masses.append(sum(dist[b] for b in bits))
    per_edge: list[list[int]] = [[] for _ in space.edges]
    for i, bits in enumerate(bit_lists):
        for b in bits:
            per_edge[b].append(i)
    if mass_sorted:
        # Widest coverage first (then heaviest): the branching expansion
        # sorts dynamically by residual mass, and this static order is
        # its tie-break — preferring more-chords-covered on residual
        # ties is measured ~47× cheaper at n = 10 than mass-first.
        for cands in per_edge:
            cands.sort(key=lambda i: (-pool[i].size, -masses[i], i))
    weights, denom, _ = _bound_fragments(
        dist, masks, bit_lists, list(range(len(space.edges)))
    )
    return BlockTable(
        tuple(pool),
        tuple(masks),
        tuple(edge_lists),
        tuple(tuple(c) for c in per_edge),
        tuple(bit_lists),
        tuple(masses),
        tuple(weights),
        denom,
    )


@lru_cache(maxsize=32)
def convex_block_table(n: int, max_size: int = 4) -> BlockTable:
    return _build_table(n, enumerate_convex_blocks(n, max_size), mass_sorted=True)


@lru_cache(maxsize=32)
def tight_block_table(n: int, max_size: int = 4) -> BlockTable:
    return _build_table(n, enumerate_tight_blocks(n, max_size), mass_sorted=False)


@lru_cache(maxsize=64)
def restricted_block_table(
    n: int, max_size: int, allowed_sizes: tuple[int, ...], pool: str = "convex"
) -> BlockTable:
    """A candidate table admitting only cycle lengths in
    ``allowed_sizes`` (Manthey-style restricted covers).

    The table is rebuilt — not just filtered — so the per-chord bound
    fragments (``chord_weights``/``weight_denom``) see the restricted
    pool: chords whose full-mass candidates were excluded get heavier
    fractional weights, which is exactly where the packing bound
    strengthens on restricted instances.  Memoized like the full
    tables; a chord no admitted block covers simply has an empty
    candidate list (callers decide whether that is fatal).
    """
    sizes = frozenset(allowed_sizes)
    if pool == "convex":
        base = enumerate_convex_blocks(n, max_size)
    elif pool == "tight":
        base = enumerate_tight_blocks(n, max_size)
    else:
        raise SolverError(f"unknown candidate pool {pool!r}")
    admitted = tuple(blk for blk in base if blk.size in sizes)
    return _build_table(n, admitted, mass_sorted=pool == "convex")


# ---------------------------------------------------------------------------
# Dihedral symmetry
# ---------------------------------------------------------------------------


def dihedral_canonical(n: int, vertices: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of a vertex set under the ``2n`` ring
    symmetries (rotations and reflections of ``C_n``).

    Convex blocks are determined by their vertex set, so two convex
    blocks lie in the same dihedral orbit iff their canonical vertex
    sets coincide.
    """
    best: tuple[int, ...] | None = None
    for vs in (vertices, tuple((-v) % n for v in vertices)):
        for r in range(n):
            img = tuple(sorted((v + r) % n for v in vs))
            if best is None or img < best:
                best = img
    assert best is not None
    return best


def _orbit_representatives(
    n: int, blocks: tuple[CycleBlock, ...], cand_indices
) -> tuple[list[int], list[int]]:
    """One candidate per dihedral orbit, in candidate order, plus the
    orbit weight (how many candidates each representative stands for —
    the shard-balancing weight)."""
    order: dict[tuple[int, ...], int] = {}
    reps: list[int] = []
    weights: list[int] = []
    for i in cand_indices:
        key = dihedral_canonical(n, blocks[i].vertices)
        pos = order.get(key)
        if pos is None:
            order[key] = len(reps)
            reps.append(i)
            weights.append(1)
        else:
            weights[pos] += 1
    return reps, weights


def _is_dihedral_invariant(instance) -> bool:
    """True when demand depends only on chord distance — the condition
    under which root symmetry breaking and canonical-mask memoization
    are sound for an instance."""
    n = instance.n
    per_dist: dict[int, int] = {}
    for e in circular.all_chords(n):
        d = circular.chord_distance(n, e)
        m = instance.required(e)
        if per_dist.setdefault(d, m) != m:
            return False
    return True


# ---------------------------------------------------------------------------
# Dominance pruning
# ---------------------------------------------------------------------------


def dominated_candidates(
    masks,
    restrict_mask: int | None = None,
    costs: "list[int] | tuple[int, ...] | None" = None,
) -> set[int]:
    """Indices of candidates dominated within the demanded chord set.

    Candidate ``i`` is dominated when some other candidate ``j`` covers
    a (weak) superset of ``i``'s demanded chords *at no greater cost*;
    of an exactly-equal pair only the later index is dropped, so at
    least one optimal covering always survives the filter (every
    covering maps block-for-block onto dominators without its objective
    value growing).  ``costs=None`` means unit costs — the historical
    ``min_blocks`` behaviour, where any superset dominates.  Weighted
    objectives **must** pass their block costs: a 4-cycle covering a
    superset of a triangle's demanded chords does not dominate it under
    the ring-size-sum objective (3 slots beat 4 — the cost-blind filter
    provably loses optima there).  Candidates with no demanded coverage
    at all are dominated trivially.  Only sound for *covering*
    problems — see :meth:`SolverEngine.decompose`.
    """
    if restrict_mask is None:
        restricted = list(masks)
    else:
        restricted = [m & restrict_mask for m in masks]
    dropped: set[int] = set()
    nblocks = len(restricted)
    for i in range(nblocks):
        ri = restricted[i]
        if ri == 0:
            dropped.add(i)
            continue
        for j in range(nblocks):
            if j == i or j in dropped:
                continue
            rj = restricted[j]
            if ri & ~rj != 0:
                continue
            if costs is None:
                strictly_better = ri != rj
            else:
                if costs[j] > costs[i]:
                    continue
                strictly_better = ri != rj or costs[j] < costs[i]
            if strictly_better or j < i:
                dropped.add(i)
                break
    return dropped


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class SolverEngine:
    """Shared bitmask kernel behind every exact solver and the greedy
    baseline (see the module docstring for the architecture)."""

    def __init__(self, n: int, *, max_size: int = 4, kernel: str | None = None):
        if n < 3:
            raise SolverError(f"n ≥ 3 required, got {n}")
        self.n = n
        self.max_size = max_size
        # "python" or "numpy" — resolved once per engine from the
        # argument or REPRO_KERNEL (see repro.core.kernel).  The choice
        # never enters results or checkpoints: both kernels produce
        # byte-identical envelopes and kernel-agnostic checkpoints.
        self.kernel = resolve_kernel(kernel)

    def _numpy_kernel(self) -> bool:
        """Whether a search starting now runs the numpy kernel.
        Resolution only looked numpy up; if importing it fails, the
        engine settles on the python kernel here, before any search
        state exists."""
        if self.kernel == "numpy" and load_numpy() is None:
            self.kernel = "python"
        return self.kernel == "numpy"

    # -- shared state (memoized at module level, cheap to re-ask) -------

    @property
    def space(self) -> EdgeSpace:
        return edge_space(self.n)

    @property
    def convex_table(self) -> BlockTable:
        return convex_block_table(self.n, self.max_size)

    @property
    def tight_table(self) -> BlockTable:
        return tight_block_table(self.n, self.max_size)

    def _table(
        self, pool: str, allowed_sizes: tuple[int, ...] | None = None
    ) -> BlockTable:
        if allowed_sizes is not None:
            return restricted_block_table(
                self.n, self.max_size, tuple(allowed_sizes), pool
            )
        if pool == "convex":
            return self.convex_table
        if pool == "tight":
            return self.tight_table
        raise SolverError(f"unknown candidate pool {pool!r}")

    # -- greedy kernel ---------------------------------------------------

    def greedy_cover_indices(
        self,
        demand: dict[tuple[int, int], int],
        *,
        pool: str = "convex",
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> tuple[list[int], int]:
        """Deterministic max-coverage greedy over the pool: repeatedly
        take the block covering the most residual requests, ties toward
        lower waste then enumeration order.  Returns the chosen block
        indices and the number of residual requests it failed to cover
        (0 whenever the pool can reach them, which it always can for
        ``pool="convex"`` without a size restriction)."""
        table = self._table(pool, allowed_sizes)
        residual = {e: m for e, m in demand.items() if m > 0}
        chosen: list[int] = []
        while residual:
            best_key: tuple[int, int] | None = None
            best_i = -1
            for i, edges in enumerate(table.edge_lists):
                gain = sum(1 for e in edges if residual.get(e, 0) > 0)
                if gain == 0:
                    continue
                key = (gain, gain - len(edges))  # maximise gain, minimise waste
                if best_key is None or key > best_key:
                    best_key = key
                    best_i = i
            if best_key is None:
                break
            chosen.append(best_i)
            for e in table.edge_lists[best_i]:
                m = residual.get(e, 0)
                if m > 0:
                    if m == 1:
                        del residual[e]
                    else:
                        residual[e] = m - 1
        return chosen, sum(residual.values())

    def greedy_cover(
        self,
        instance=None,
        *,
        pool: str = "convex",
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> Covering:
        """Greedy covering as a ledger-backed :class:`Covering`; raises
        :class:`SolverError` when the (possibly size-restricted) pool
        cannot reach some request."""
        from ..traffic.instances import all_to_all

        inst = instance if instance is not None else all_to_all(self.n)
        if inst.n != self.n:
            raise SolverError(f"instance order {inst.n} ≠ n = {self.n}")
        chosen, leftover = self.greedy_cover_indices(
            dict(inst.demand), pool=pool, allowed_sizes=allowed_sizes
        )
        if leftover:
            raise SolverError(
                f"greedy covering stuck with {leftover} requests left "
                f"(n={self.n}, pool={pool!r}, max_size={self.max_size}, "
                f"allowed_sizes={allowed_sizes})"
            )
        table = self._table(pool, allowed_sizes)
        return Covering(self.n, tuple(table.blocks[i] for i in chosen))

    def _incumbent_blocks(
        self,
        objective: Objective,
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> list[CycleBlock] | None:
        """Greedy All-to-All covering tightened by the local-search
        improver — the incumbent every ``K_n`` search starts from.
        Honours the objective's move scoring and the size restriction
        (a restricted search must never be seeded with an inadmissible
        incumbent)."""
        from .improve import improved_greedy_covering

        try:
            improved = improved_greedy_covering(
                self.n,
                max_size=self.max_size,
                max_rounds=2,
                objective=objective,
                allowed_sizes=allowed_sizes,
            )
        except SolverError:
            return None
        return list(improved.blocks)

    # -- minimum covering of K_n ----------------------------------------

    def min_covering(
        self,
        *,
        upper_bound: int | None = None,
        node_limit: int = DEFAULT_NODE_LIMIT,
        stats: SolverStats | None = None,
        branching: str = "lex",
        use_memo: bool = True,
        deadline: float | None = None,
        objective: Objective | str | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
        checkpoint: SearchCheckpoint | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        preempt=None,
    ) -> Covering:
        """Certified minimum DRC-covering of ``K_n`` over ``C_n``.

        ``upper_bound`` is *inclusive* and expressed in the objective's
        units: a covering of exactly that value is still found and
        returned (internally the branch-and-bound threshold is the
        exclusive ``upper_bound + 1``).  Raises :class:`SolverError`
        when no covering within the bound exists.

        ``objective`` selects the cost model (default ``min_blocks`` —
        the historical behaviour, node-for-node); ``allowed_sizes``
        restricts candidate cycle lengths (Manthey-style restricted
        covers) and raises when some chord becomes uncoverable.
        ``branching`` and ``use_memo`` select the chord order and the
        canonical-mask transposition memo (see the module docstring);
        the defaults are the measured-fastest configuration and the
        knobs exist for the A4 ablation.  ``deadline`` is an absolute
        ``time.time()`` wall-clock cutoff (the :mod:`repro.api` layer
        derives it from a spec's time budget); overrunning it raises,
        exactly like the node limit.

        Checkpointing: pass ``checkpoint`` (a
        :class:`~repro.core.checkpoint.SearchCheckpoint` from a prior
        run) to resume exactly where that run stopped — the final
        covering and node count are identical to an uninterrupted
        search.  ``on_checkpoint`` is called with a fresh snapshot
        every ``checkpoint_every`` nodes; ``preempt`` is polled with
        the live :class:`SolverStats` at the deadline cadence and a
        truthy return raises :class:`SolverPreempted` carrying the
        resumable checkpoint (deadline overruns raise the same way;
        a node-limit overrun raises :class:`SolverError` with the
        checkpoint attached).
        """
        n = self.n
        if n > 12:
            raise SolverError(f"exact covering solver is for small n (≤ 12), got {n}")

        obj = resolve_objective(objective)
        st = stats if stats is not None else SolverStats()
        best_count, best_blocks, order, root_cands, _ = self._search_prologue(
            upper_bound, branching, obj, allowed_sizes
        )
        best_count, best_blocks = self._covering_search(
            root_cands=root_cands,
            best_count=best_count,
            best_blocks=best_blocks,
            node_limit=node_limit,
            st=st,
            order=order,
            use_memo=use_memo,
            deadline=deadline,
            objective=obj,
            allowed_sizes=allowed_sizes,
            branching=branching,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            preempt=preempt,
        )
        if best_blocks is None:
            # The search ran to exhaustion (a node-limit overrun raises
            # inside), so the bound itself is below the optimum.
            raise SolverError(
                f"no covering of K_{n} within upper bound {upper_bound} "
                f"(the optimum is larger)"
            )
        st.best_value = best_count
        st.proven_optimal = True
        return Covering(n, tuple(best_blocks))

    def _search_prologue(
        self,
        upper_bound: int | None,
        branching: str,
        objective: Objective,
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> tuple[int, list[CycleBlock] | None, list[int], list[int], list[int]]:
        """Shared setup of the serial and sharded ``K_n`` certifications:
        the exclusive threshold (seeded by the greedy/improver
        incumbent, valued under the objective), the branch order, and
        the root orbit representatives with their orbit weights.
        Keeping one copy is what guarantees both paths prove against
        the same incumbent convention."""
        table = self._table("convex", allowed_sizes)
        if allowed_sizes is not None:
            for bit, cands in enumerate(table.per_edge):
                if not cands:
                    raise SolverError(
                        f"no candidate block of size in {tuple(sorted(set(allowed_sizes)))} "
                        f"covers chord {self.space.edges[bit]} of K_{self.n}"
                    )
        max_block_cost = max(
            (objective.block_cost(blk) for blk in table.blocks), default=1
        )
        best_count = (
            max_block_cost * len(self.space.edges) + 1
            if upper_bound is None
            else upper_bound + 1
        )
        best_blocks: list[CycleBlock] | None = None
        incumbent = self._incumbent_blocks(objective, allowed_sizes)
        if incumbent is not None:
            incumbent_value = sum(objective.block_cost(blk) for blk in incumbent)
            if incumbent_value < best_count:
                best_count = incumbent_value
                best_blocks = incumbent
        order = self._branch_order(table, branching)
        # All-to-All is dihedral-invariant, so the root branch needs one
        # block per orbit only.
        root_cands, orbit_weights = _orbit_representatives(
            self.n, table.blocks, table.per_edge[order[0]]
        )
        return best_count, best_blocks, order, root_cands, orbit_weights

    def _branch_order(self, table: BlockTable, branching: str) -> list[int]:
        space = self.space
        if branching == "lex":
            return list(range(len(space.edges)))
        if branching == "scarcest":
            return sorted(
                range(len(space.edges)),
                key=lambda e: (len(table.per_edge[e]), -space.dist[e], e),
            )
        raise SolverError(
            f"unknown branching order {branching!r} (expected one of {BRANCHING_ORDERS})"
        )

    def _covering_search(
        self,
        *,
        root_cands: list[int],
        best_count: int,
        best_blocks: list[CycleBlock] | None,
        node_limit: int,
        st: SolverStats,
        order: list[int],
        use_memo: bool = True,
        deadline: float | None = None,
        objective: Objective | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
        branching: str = "lex",
        checkpoint: SearchCheckpoint | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        preempt=None,
    ) -> tuple[int, list[CycleBlock] | None]:
        """Branch-and-bound over the (possibly size-restricted) convex
        pool for All-to-All demand, generic over the objective.

        ``best_count`` is the exclusive threshold in objective units
        (only strictly better coverings are accepted); ``root_cands``
        restricts the first branch — the sharded solver passes each
        worker its slice of the root orbit representatives.  The
        accumulated objective cost is what enters the transposition
        memo (for ``min_blocks`` that is the historical
        blocks-used value, node-for-node); parity-tracking objectives
        additionally get the residual odd-degree vertex count for their
        bound.  Returns the improved ``(best_count, best_blocks)``;
        exhaustive unless the node limit raises.

        The search runs as an explicit-stack loop over frames
        ``[covered, used, W, odd, scored, cursor]`` so its entire
        state — incumbent, per-frame candidate cursor, transposition
        memo, and the unexplored root frontier — can be captured in a
        :class:`SearchCheckpoint` at any loop boundary and resumed
        later with an identical node sequence.  The chosen-block path
        is implicit: frame ``k``'s active child is
        ``scored[cursor − 1]``, an invariant that holds for every
        non-top frame at the loop top.
        """
        n = self.n
        obj = resolve_objective(objective)
        if self._numpy_kernel():
            from .kernel import numpy_covering_search

            return numpy_covering_search(
                self,
                root_cands=root_cands,
                best_count=best_count,
                best_blocks=best_blocks,
                node_limit=node_limit,
                st=st,
                order=order,
                use_memo=use_memo,
                deadline=deadline,
                objective=obj,
                allowed_sizes=allowed_sizes,
                branching=branching,
                checkpoint=checkpoint,
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint,
                preempt=preempt,
            )
        space = self.space
        table = self._table("convex", allowed_sizes)
        dist = space.dist
        full_mask = space.full_mask
        masks = table.masks
        blocks = table.blocks
        per_edge = table.per_edge
        bit_lists = table.bit_lists
        weights = table.chord_weights
        denom = table.weight_denom
        max_cover = min(self.max_size, max((blk.size for blk in blocks), default=1))
        costs = tuple(obj.block_cost(blk) for blk in blocks)
        min_cost = min(costs, default=1)
        node_bound = obj.node_bound
        track_parity = obj.track_parity
        edges = space.edges
        perms = dihedral_bit_perms(n) if use_memo else ()
        memo = CappedMemo(memo_cap())
        lex = order == list(range(len(space.edges)))
        W_root = sum(weights)
        # Residual demand-degree parity per vertex: All-to-All leaves
        # every vertex at degree n − 1.
        odd_root = ((1 << n) - 1) if (track_parity and (n - 1) % 2) else 0

        best: list = [best_count, best_blocks]
        chosen: list[CycleBlock] = []
        # Frame layout: [covered, used, W, odd, scored, cursor].
        frames: list[list] = []

        def visit(covered: int, used: int, W: int, odd: int):
            """Process one search node (count, completion, bound, memo,
            branching target) and return the scored candidate list to
            expand — or ``None`` when the node is a leaf or pruned."""
            st.nodes += 1
            if covered == full_mask:
                if used < best[0]:
                    best[0] = used
                    best[1] = list(chosen)
                return None
            unc = full_mask & ~covered
            # Objective bound over the running residual totals (the
            # fractional/cardinality packing maximum for min_blocks).
            bound = node_bound(
                frac_units=W,
                frac_denom=denom,
                residual_requests=unc.bit_count(),
                max_cover=max_cover,
                min_cost=min_cost,
                odd_vertices=odd.bit_count(),
            )
            if used + (bound if bound > min_cost else min_cost) >= best[0]:
                return None
            if use_memo:
                key = _canonical_mask(unc, perms)
                prev = memo.get(key)
                if prev is not None and prev <= used:
                    return None
                memo.store(key, used)
            if lex:
                target = (unc & -unc).bit_length() - 1
            else:
                target = next(e for e in order if (unc >> e) & 1)
            cands = root_cands if covered == 0 else per_edge[target]
            return sorted(
                cands,
                key=lambda i: -sum(dist[b] for b in bit_lists[i] if (unc >> b) & 1),
            )

        def capture() -> SearchCheckpoint:
            return SearchCheckpoint(
                kind=KIND_KN,
                n=n,
                max_size=self.max_size,
                objective=obj.name,
                branching=branching,
                use_memo=use_memo,
                allowed_sizes=(
                    tuple(allowed_sizes) if allowed_sizes is not None else None
                ),
                nodes=st.nodes,
                best_value=best[0],
                best_blocks=(
                    tuple(blk.vertices for blk in best[1])
                    if best[1] is not None
                    else None
                ),
                frames=[[fr[0], fr[1], fr[2], fr[3], list(fr[4]), fr[5]] for fr in frames],
                memo=list(memo.items()),
                resumes=(checkpoint.resumes + 1) if checkpoint is not None else 0,
            )

        if checkpoint is not None:
            checkpoint.check_compatible(
                kind=KIND_KN,
                n=n,
                max_size=self.max_size,
                objective=obj.name,
                branching=branching,
                use_memo=use_memo,
                allowed_sizes=(
                    tuple(allowed_sizes) if allowed_sizes is not None else None
                ),
            )
            st.nodes = checkpoint.nodes
            best[0] = checkpoint.best_value
            best[1] = (
                [CycleBlock(tuple(vs)) for vs in checkpoint.best_blocks]
                if checkpoint.best_blocks is not None
                else None
            )
            for key, value in checkpoint.memo:
                memo.store(key, value)
            frames = [
                [covered, used, W, odd, list(scored), cursor]
                for covered, used, W, odd, scored, cursor in checkpoint.frames
            ]
            for k in range(len(frames) - 1):
                fr = frames[k]
                chosen.append(blocks[fr[4][fr[5] - 1]])
        else:
            scored0 = visit(0, 0, W_root, odd_root)
            if scored0 is not None:
                frames.append([0, 0, W_root, odd_root, scored0, 0])

        # A budget check at the loop top fires on the node count the
        # just-resumed checkpoint restored; gating polls on progress
        # past this floor guarantees every resume cycle advances at
        # least one poll window before it can be preempted again.
        poll_floor = st.nodes
        next_flush = (
            st.nodes + checkpoint_every
            if checkpoint_every and on_checkpoint is not None
            else None
        )

        while frames:
            if st.nodes > node_limit:
                raise SolverError(
                    f"solver exceeded node limit {node_limit} for n={n}",
                    checkpoint=capture(),
                    best_blocks=list(best[1]) if best[1] is not None else None,
                    best_value=best[0],
                    stats=st,
                )
            if st.nodes & DEADLINE_POLL_MASK == 0 and st.nodes > poll_floor:
                if deadline is not None and time.time() > deadline:
                    raise SolverPreempted(
                        f"solver exceeded its time budget for n={n}",
                        checkpoint=capture(),
                        best_blocks=list(best[1]) if best[1] is not None else None,
                        best_value=best[0],
                        stats=st,
                    )
                if preempt is not None and preempt(st):
                    raise SolverPreempted(
                        f"solver preempted at {st.nodes} nodes for n={n}",
                        checkpoint=capture(),
                        best_blocks=list(best[1]) if best[1] is not None else None,
                        best_value=best[0],
                        stats=st,
                    )
            if next_flush is not None and st.nodes >= next_flush:
                on_checkpoint(capture())
                next_flush = st.nodes + checkpoint_every
            fr = frames[-1]
            scored = fr[4]
            cursor = fr[5]
            if cursor >= len(scored):
                frames.pop()
                if frames:
                    chosen.pop()
                continue
            fr[5] = cursor + 1
            i = scored[cursor]
            covered, used, W, odd = fr[0], fr[1], fr[2], fr[3]
            unc = full_mask & ~covered
            dW = 0
            new_odd = odd
            if track_parity:
                for b in bit_lists[i]:
                    if (unc >> b) & 1:
                        dW += weights[b]
                        a, c = edges[b]
                        new_odd ^= (1 << a) | (1 << c)
            else:
                dW = sum(weights[b] for b in bit_lists[i] if (unc >> b) & 1)
            chosen.append(blocks[i])
            child_covered = covered | masks[i]
            child_used = used + costs[i]
            child_scored = visit(child_covered, child_used, W - dW, new_odd)
            if child_scored is None:
                chosen.pop()
            else:
                frames.append(
                    [child_covered, child_used, W - dW, new_odd, child_scored, 0]
                )
        return best[0], best[1]

    # -- sharded scale-out -----------------------------------------------

    def min_covering_sharded(
        self,
        *,
        workers: int | None = None,
        upper_bound: int | None = None,
        node_limit: int = DEFAULT_NODE_LIMIT,
        stats: SolverStats | None = None,
        branching: str = "lex",
        deadline: float | None = None,
        objective: Objective | str | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
    ) -> Covering:
        """Certified minimum covering of ``K_n`` sharded across
        processes by root-orbit partitioning (objective-generic — the
        objective is shipped to the shard workers by registry name).

        The root orbit representatives are split into per-worker shards
        balanced by orbit weight; every worker searches its shard
        starting from the shared greedy/improver incumbent, so the
        union of the shard proofs is exactly the serial proof.  Results
        and merged statistics are deterministic for a fixed shard count
        (scheduling order cannot change them).  With one worker this
        degrades to :meth:`min_covering`.
        """
        n = self.n
        if n > 12:
            raise SolverError(f"exact covering solver is for small n (≤ 12), got {n}")
        obj = resolve_objective(objective)
        nworkers = resolve_workers(workers)
        if nworkers == 1:
            return self.min_covering(
                upper_bound=upper_bound,
                node_limit=node_limit,
                stats=stats,
                branching=branching,
                deadline=deadline,
                objective=obj,
                allowed_sizes=allowed_sizes,
            )

        st = stats if stats is not None else SolverStats()
        best_count, best_blocks, _, root_cands, orbit_weights = self._search_prologue(
            upper_bound, branching, obj, allowed_sizes
        )
        shards = weighted_chunks(root_cands, orbit_weights, nworkers)
        payloads = [
            (
                n,
                self.max_size,
                tuple(shard),
                best_count,
                node_limit,
                branching,
                deadline,
                obj.name,
                allowed_sizes,
                self.kernel,
            )
            for shard in shards
        ]
        results = parallel_map(
            _sharded_root_worker, payloads, workers=len(payloads), min_chunk=1
        )
        shard_stats = []
        for count, vertex_lists, nodes in results:
            part = SolverStats(nodes=nodes, best_value=count, proven_optimal=True)
            shard_stats.append(part)
            if count is not None and count < best_count:
                best_count = count
                best_blocks = [CycleBlock(tuple(vs)) for vs in vertex_lists]
        merged = SolverStats.merge(shard_stats)
        st.nodes += merged.nodes
        st.shards = merged.shards
        if best_blocks is None:
            raise SolverError(
                f"no covering of K_{n} within upper bound {upper_bound} "
                f"(the optimum is larger)"
            )
        st.best_value = best_count
        st.proven_optimal = merged.proven_optimal
        return Covering(n, tuple(best_blocks))

    # -- minimum covering of an arbitrary instance -----------------------

    def min_covering_instance(
        self,
        instance,
        *,
        node_limit: int = DEFAULT_NODE_LIMIT,
        stats: SolverStats | None = None,
        dominance: bool = True,
        deadline: float | None = None,
        objective: Objective | str | None = None,
        allowed_sizes: tuple[int, ...] | None = None,
        checkpoint: SearchCheckpoint | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        preempt=None,
    ) -> Covering:
        """Certified minimum DRC-covering of an arbitrary instance on
        ``C_n`` (multiplicities supported — e.g. ``λK_n``), generic
        over the objective.

        Inadmissible candidates (cycle lengths outside
        ``allowed_sizes``) are dropped alongside the dominance filter
        (``dominance=False`` disables the latter — the knob the
        soundness property tests exercise); the branch-and-bound prunes
        with the objective's node bound over the residual demand (for
        ``min_blocks`` the historical fractional/cardinality packing
        maximum) plus a residual-state transposition memo keyed by
        accumulated objective cost.  Exponential; intended for small
        instances (``n ≤ 10``, small λ).  This is the certifier behind
        the λK_n experiment's exact values.

        ``checkpoint``/``checkpoint_every``/``on_checkpoint``/``preempt``
        follow :meth:`min_covering`'s resumable-search contract; the
        instance frames additionally carry the per-chord residual
        decrements so the mutable ``residual_counts`` vector restores
        exactly, and resume validates a demand fingerprint.
        """
        from ..traffic.instances import Instance

        if not isinstance(instance, Instance):
            raise SolverError(f"expected an Instance, got {type(instance).__name__}")
        n = instance.n
        if n != self.n:
            raise SolverError(f"instance order {n} ≠ n = {self.n}")
        if n > 10:
            raise SolverError(f"instance solver is for small n (≤ 10), got {n}")

        obj = resolve_objective(objective)
        space = self.space
        index = space.index
        dist_by_bit = space.dist
        residual_counts = [0] * len(space.edges)
        for e, m in instance.demand.items():
            if m > 0:
                residual_counts[index[e]] = m
        demand_bits = [b for b, m in enumerate(residual_counts) if m]
        st = stats if stats is not None else SolverStats()
        if not demand_bits:
            st.best_value = 0
            st.proven_optimal = True
            return Covering(n, ())

        table = self.convex_table
        demand_mask = 0
        for b in demand_bits:
            demand_mask |= 1 << b
        keep = [
            i
            for i, m in enumerate(table.masks)
            if m & demand_mask and obj.admits(table.blocks[i], allowed_sizes)
        ]
        if dominance:
            # Cost-aware dominance: under weighted objectives a superset
            # cover only dominates at equal-or-lower block cost (unit
            # costs reduce to the historical min_blocks filter).
            dropped = dominated_candidates(
                [table.masks[i] for i in keep],
                demand_mask,
                costs=[obj.block_cost(table.blocks[i]) for i in keep],
            )
            keep = [i for k, i in enumerate(keep) if k not in dropped]

        weights, denom, uncoverable = _bound_fragments(
            dist_by_bit,
            [table.masks[i] for i in keep],
            [table.bit_lists[i] for i in keep],
            demand_bits,
        )
        if uncoverable:
            e = space.edges[uncoverable[0]]
            raise SolverError(f"no candidate block covers requested chord {e}")
        per_bit: dict[int, list[int]] = {b: [] for b in demand_bits}
        max_cover = 1
        for i in keep:
            covered_bits = [b for b in table.bit_lists[i] if (demand_mask >> b) & 1]
            max_cover = max(max_cover, len(covered_bits))
            for b in covered_bits:
                per_bit[b].append(i)

        blocks = table.blocks
        bit_lists = table.bit_lists
        costs = {i: obj.block_cost(table.blocks[i]) for i in keep}
        min_cost = min(costs.values(), default=1)
        max_cost = max(costs.values(), default=1)
        node_bound = obj.node_bound
        track_parity = obj.track_parity
        edges = space.edges
        total_requests = sum(residual_counts)
        W_root = sum(residual_counts[b] * weights[b] for b in demand_bits)
        # Residual demand-degree parity per vertex, maintained alongside
        # residual_counts when the objective's bound wants it.
        odd_root = 0
        if track_parity:
            degree = [0] * n
            for b in demand_bits:
                a, c = edges[b]
                degree[a] += residual_counts[b]
                degree[c] += residual_counts[b]
            for v, d in enumerate(degree):
                if d % 2:
                    odd_root |= 1 << v

        best_blocks: list[CycleBlock] | None = None
        # Exclusive threshold: one admitted block per request always
        # suffices, so this is a true upper limit (max_cost = 1 recovers
        # min_covering's historical total_requests + 1).
        best_count = max_cost * total_requests + 1

        greedy_idx, leftover = self.greedy_cover_indices(
            dict(instance.demand), allowed_sizes=allowed_sizes
        )
        if not leftover:
            greedy_table = self._table("convex", allowed_sizes)
            greedy_value = sum(
                obj.block_cost(greedy_table.blocks[i]) for i in greedy_idx
            )
            if greedy_value < best_count:
                best_count = greedy_value
                best_blocks = [greedy_table.blocks[i] for i in greedy_idx]

        # Root symmetry breaking is sound only when the demand itself is
        # preserved by the ring's rotations and reflections.
        symmetric = _is_dihedral_invariant(instance)
        root_bit = min(demand_bits)
        root_cands: list[int] | None = None
        if symmetric:
            root_cands, _ = _orbit_representatives(n, blocks, per_bit[root_bit])

        # The numpy kernel vectorizes candidate scoring only — the
        # instance loop's mutable residual vector and ``decremented``
        # bookkeeping stay in Python (they are serialization-ordered).
        # argsort(kind="stable") over the same key keeps the scored
        # lists, and therefore the node sequence, identical.
        korder = None
        if self._numpy_kernel():
            from .kernel import InstanceOrder

            korder = InstanceOrder(n, self.max_size)

        memo = CappedMemo(memo_cap())
        best: list = [best_count, best_blocks]
        chosen: list[CycleBlock] = []
        # Frame layout: [used, remaining, W, odd, scored, cursor,
        # decremented] — ``decremented`` records the chord bits whose
        # residual count was reduced on *entering* this frame's node,
        # replayed backwards when the frame pops (and serialized, so a
        # resumed search restores ``residual_counts`` exactly).
        frames: list[list] = []
        demand_fingerprint = sorted(
            [a, b, m] for (a, b), m in instance.demand.items() if m > 0
        )

        def visit(used: int, remaining: int, W: int, odd: int):
            """Process one search node and return the scored candidate
            list to expand, or ``None`` when it is a leaf or pruned."""
            st.nodes += 1
            if remaining == 0:
                if used < best[0]:
                    best[0] = used
                    best[1] = list(chosen)
                return None
            bound = node_bound(
                frac_units=W,
                frac_denom=denom,
                residual_requests=remaining,
                max_cover=max_cover,
                min_cost=min_cost,
                odd_vertices=odd.bit_count(),
            )
            if used + (bound if bound > min_cost else min_cost) >= best[0]:
                return None
            key = tuple(residual_counts)
            prev = memo.get(key)
            if prev is not None and prev <= used:
                return None
            memo.store(key, used)
            target = -1
            for b in demand_bits:
                if residual_counts[b]:
                    target = b
                    break
            cands = per_bit[target]
            if used == 0 and root_cands is not None and target == root_bit:
                cands = root_cands
            if korder is not None:
                return korder.order(cands, residual_counts)
            return sorted(
                cands,
                key=lambda i: -sum(
                    dist_by_bit[b] for b in bit_lists[i] if residual_counts[b] > 0
                ),
            )

        def capture() -> SearchCheckpoint:
            return SearchCheckpoint(
                kind=KIND_INSTANCE,
                n=n,
                max_size=self.max_size,
                objective=obj.name,
                dominance=dominance,
                allowed_sizes=(
                    tuple(allowed_sizes) if allowed_sizes is not None else None
                ),
                nodes=st.nodes,
                best_value=best[0],
                best_blocks=(
                    tuple(blk.vertices for blk in best[1])
                    if best[1] is not None
                    else None
                ),
                frames=[
                    [fr[0], fr[1], fr[2], fr[3], list(fr[4]), fr[5], list(fr[6])]
                    for fr in frames
                ],
                memo=list(memo.items()),
                residual_counts=list(residual_counts),
                demand=demand_fingerprint,
                resumes=(checkpoint.resumes + 1) if checkpoint is not None else 0,
            )

        if checkpoint is not None:
            checkpoint.check_compatible(
                kind=KIND_INSTANCE,
                n=n,
                max_size=self.max_size,
                objective=obj.name,
                dominance=dominance,
                allowed_sizes=(
                    tuple(allowed_sizes) if allowed_sizes is not None else None
                ),
                demand=demand_fingerprint,
            )
            st.nodes = checkpoint.nodes
            best[0] = checkpoint.best_value
            best[1] = (
                [CycleBlock(tuple(vs)) for vs in checkpoint.best_blocks]
                if checkpoint.best_blocks is not None
                else None
            )
            for key, value in checkpoint.memo:
                memo.store(key, value)
            if checkpoint.residual_counts is not None:
                residual_counts[:] = checkpoint.residual_counts
            frames = [
                [used, remaining, W, odd, list(scored), cursor, list(dec)]
                for used, remaining, W, odd, scored, cursor, dec in checkpoint.frames
            ]
            for k in range(len(frames) - 1):
                fr = frames[k]
                chosen.append(blocks[fr[4][fr[5] - 1]])
        else:
            scored0 = visit(0, total_requests, W_root, odd_root)
            if scored0 is not None:
                frames.append([0, total_requests, W_root, odd_root, scored0, 0, []])

        poll_floor = st.nodes
        next_flush = (
            st.nodes + checkpoint_every
            if checkpoint_every and on_checkpoint is not None
            else None
        )

        while frames:
            if st.nodes > node_limit:
                raise SolverError(
                    f"instance solver exceeded node limit {node_limit}",
                    checkpoint=capture(),
                    best_blocks=list(best[1]) if best[1] is not None else None,
                    best_value=best[0],
                    stats=st,
                )
            if st.nodes & DEADLINE_POLL_MASK == 0 and st.nodes > poll_floor:
                if deadline is not None and time.time() > deadline:
                    raise SolverPreempted(
                        f"solver exceeded its time budget for n={n}",
                        checkpoint=capture(),
                        best_blocks=list(best[1]) if best[1] is not None else None,
                        best_value=best[0],
                        stats=st,
                    )
                if preempt is not None and preempt(st):
                    raise SolverPreempted(
                        f"solver preempted at {st.nodes} nodes for n={n}",
                        checkpoint=capture(),
                        best_blocks=list(best[1]) if best[1] is not None else None,
                        best_value=best[0],
                        stats=st,
                    )
            if next_flush is not None and st.nodes >= next_flush:
                on_checkpoint(capture())
                next_flush = st.nodes + checkpoint_every
            fr = frames[-1]
            scored = fr[4]
            cursor = fr[5]
            if cursor >= len(scored):
                frames.pop()
                for b in fr[6]:
                    residual_counts[b] += 1
                if frames:
                    chosen.pop()
                continue
            fr[5] = cursor + 1
            i = scored[cursor]
            decremented: list[int] = []
            dW = 0
            new_odd = fr[3]
            for b in bit_lists[i]:
                if residual_counts[b] > 0:
                    residual_counts[b] -= 1
                    decremented.append(b)
                    dW += weights[b]
                    if track_parity:
                        a, c = edges[b]
                        new_odd ^= (1 << a) | (1 << c)
            chosen.append(blocks[i])
            child_used = fr[0] + costs[i]
            child_remaining = fr[1] - len(decremented)
            child_W = fr[2] - dW
            child_scored = visit(child_used, child_remaining, child_W, new_odd)
            if child_scored is None:
                chosen.pop()
                for b in decremented:
                    residual_counts[b] += 1
            else:
                frames.append(
                    [child_used, child_remaining, child_W, new_odd,
                     child_scored, 0, decremented]
                )
        best_count, best_blocks = best
        if best_blocks is None:
            raise SolverError("no covering found (node limit too small?)")
        st.best_value = best_count
        st.proven_optimal = True
        return Covering(n, tuple(best_blocks))

    # -- exact decomposition ---------------------------------------------

    def decompose(
        self,
        edges: frozenset[tuple[int, int]],
        *,
        max_triangles: int | None = None,
        candidates: tuple[CycleBlock, ...] | None = None,
        node_limit: int = 5_000_000,
        strategy: str = "mrv",
        stats: SolverStats | None = None,
    ) -> list[CycleBlock] | None:
        """Partition ``edges`` into tight convex blocks, each edge exactly
        once; returns ``None`` when no partition exists.

        ``max_triangles`` bounds the number of C3 blocks (the pole
        completion needs exactly one — enforced by edge counts, bounding
        merely prunes).  Deterministic DFS over bitmasks, run on an
        explicit stack so deep partitions (about ``n²/8`` blocks) do not
        hit the interpreter's recursion limit; explored node counts are
        reported through ``stats`` (same contract as
        :meth:`min_covering`).  Dominance filtering is deliberately
        *not* applied here: replacing a block by a strict superset
        changes the partition, so dominated candidates can still be the
        only way to complete a decomposition.

        ``strategy`` selects the branching edge; each node tries that
        edge's live candidates (those disjoint from the chosen blocks)
        in pool order.  ``"mrv"`` (default) takes the uncovered edge
        with the fewest live candidates — the first with at most one,
        else the lowest-index minimum — which keeps the pole completions
        near backtrack-free.  Live counts are kept per edge: choosing a
        block decrements the edges of every candidate it kills and
        backtracking restores them, so a node costs one pass over the
        uncovered edges' counts, not over their candidate lists.
        ``"static"`` uses a one-shot scarcity order and can thrash (kept
        for the ablation benchmark, which quantifies the difference).
        """
        n = self.n
        if strategy not in ("mrv", "static"):
            raise SolverError(f"unknown branching strategy {strategy!r}")
        mrv = strategy == "mrv"
        edge_list = sorted(edges)
        index = {e: i for i, e in enumerate(edge_list)}
        full_mask = (1 << len(edge_list)) - 1
        st = stats if stats is not None else SolverStats()
        if full_mask == 0:
            st.best_value = 0
            st.proven_optimal = True
            return []

        pool = candidates if candidates is not None else enumerate_tight_blocks(n)
        blocks: list[CycleBlock] = []
        masks: list[int] = []
        bit_lists: list[tuple[int, ...]] = []
        for blk in pool:
            bes = blk.edges()
            if all(e in index for e in bes):
                bits = tuple(index[e] for e in bes)
                mask = 0
                for b in bits:
                    mask |= 1 << b
                blocks.append(blk)
                masks.append(mask)
                bit_lists.append(bits)

        per_edge: list[list[int]] = [[] for _ in edge_list]
        for ci, bits in enumerate(bit_lists):
            for b in bits:
                per_edge[b].append(ci)
        if any(not cands for cands in per_edge):
            # Some edge has no candidate block at all: non-existence is
            # certified without search, same stats contract as below.
            st.proven_optimal = True
            return None
        live = [len(cands) for cands in per_edge]  # mrv: live candidates per edge

        static_rank: list[int] = []
        if not mrv:
            order = sorted(range(len(edge_list)), key=lambda i: len(per_edge[i]))
            static_rank = [0] * len(edge_list)
            for pos, i in enumerate(order):
                static_rank[i] = pos

        def branch_edge(covered: int) -> int:
            best = -1
            best_key = 1 << 30
            m = (~covered) & full_mask
            while m:
                low = (m & -m).bit_length() - 1
                m &= m - 1
                key = live[low] if mrv else static_rank[low]
                if key < best_key:
                    best_key = key
                    best = low
                    if mrv and key <= 1:
                        break
            return best

        def open_node(covered: int) -> list[int] | None:
            """Count a node; its candidates to try, or None when solved."""
            st.nodes += 1
            if st.nodes > node_limit:
                raise SolverError(
                    f"exact_decomposition exceeded node limit {node_limit} for n={n}"
                )
            if covered == full_mask:
                return None
            return [ci for ci in per_edge[branch_edge(covered)] if not masks[ci] & covered]

        def kill(ci: int, covered: int) -> list[int]:
            """Take every live candidate sharing an edge with block ``ci``
            (itself included) off the live counts; returns them for
            :func:`revive`."""
            dead: list[int] = []
            for b in bit_lists[ci]:
                for c in per_edge[b]:
                    if not masks[c] & covered:
                        dead.append(c)
                        for b2 in bit_lists[c]:
                            live[b2] -= 1
                covered |= 1 << b  # later edges skip candidates already counted
            return dead

        def revive(dead: list[int]) -> None:
            for c in dead:
                for b in bit_lists[c]:
                    live[b] += 1

        chosen: list[int] = []  # block chosen at each frame below the top
        killed: list[list[int]] = []  # mrv: what each chosen block killed
        root = open_node(0)
        assert root is not None  # full_mask != 0
        # Frame: (untried candidates, covered mask, triangles used).
        stack: list[tuple[Iterator[int], int, int]] = [(iter(root), 0, 0)]
        while stack:
            untried, covered, triangles_used = stack[-1]
            for ci in untried:
                tri = 1 if blocks[ci].size == 3 else 0
                if max_triangles is None or triangles_used + tri <= max_triangles:
                    break
            else:
                stack.pop()
                if chosen:
                    chosen.pop()
                    if mrv:
                        revive(killed.pop())
                continue
            chosen.append(ci)
            if mrv:
                killed.append(kill(ci, covered))
            covered |= masks[ci]
            cands = open_node(covered)
            if cands is None:
                st.best_value = len(chosen)
                st.proven_optimal = True
                return [blocks[i] for i in chosen]
            stack.append((iter(cands), covered, triangles_used + tri))
        st.proven_optimal = True  # exhaustive: non-existence is certified
        return None


# ---------------------------------------------------------------------------
# Front doors (historical signatures; re-exported by repro.core.solver)
# ---------------------------------------------------------------------------


def exact_decomposition(
    n: int,
    edges: frozenset[tuple[int, int]],
    *,
    max_triangles: int | None = None,
    candidates: tuple[CycleBlock, ...] | None = None,
    node_limit: int = 5_000_000,
    strategy: str = "mrv",
    stats: SolverStats | None = None,
) -> list[CycleBlock] | None:
    """See :meth:`SolverEngine.decompose`."""
    return SolverEngine(n).decompose(
        edges,
        max_triangles=max_triangles,
        candidates=candidates,
        node_limit=node_limit,
        strategy=strategy,
        stats=stats,
    )


def solve_min_covering(
    n: int,
    *,
    upper_bound: int | None = None,
    max_size: int = 4,
    node_limit: int = DEFAULT_NODE_LIMIT,
    stats: SolverStats | None = None,
    branching: str = "lex",
    use_memo: bool = True,
) -> Covering:
    """See :meth:`SolverEngine.min_covering`.  ``upper_bound`` is
    inclusive: ``upper_bound=rho(n)`` still returns a certificate."""
    return SolverEngine(n, max_size=max_size).min_covering(
        upper_bound=upper_bound,
        node_limit=node_limit,
        stats=stats,
        branching=branching,
        use_memo=use_memo,
    )


def solve_min_covering_sharded(
    n: int,
    *,
    workers: int | None = None,
    upper_bound: int | None = None,
    max_size: int = 4,
    node_limit: int = DEFAULT_NODE_LIMIT,
    stats: SolverStats | None = None,
) -> Covering:
    """See :meth:`SolverEngine.min_covering_sharded`."""
    return SolverEngine(n, max_size=max_size).min_covering_sharded(
        workers=workers,
        upper_bound=upper_bound,
        node_limit=node_limit,
        stats=stats,
    )


def solve_min_covering_instance(
    instance,
    *,
    max_size: int = 4,
    node_limit: int = DEFAULT_NODE_LIMIT,
    stats: SolverStats | None = None,
    dominance: bool = True,
) -> Covering:
    """See :meth:`SolverEngine.min_covering_instance`."""
    from ..traffic.instances import Instance

    if not isinstance(instance, Instance):
        raise SolverError(f"expected an Instance, got {type(instance).__name__}")
    return SolverEngine(instance.n, max_size=max_size).min_covering_instance(
        instance, node_limit=node_limit, stats=stats, dominance=dominance
    )


def _sharded_root_worker(
    payload: tuple[
        int, int, tuple[int, ...], int, int, str, float | None,
        str, tuple[int, ...] | None, str,
    ],
) -> tuple[int | None, list[tuple[int, ...]] | None, int]:
    """One shard of a root-orbit-partitioned certification: search the
    given root candidates only, starting from the broadcast incumbent
    value (exclusive threshold, objective units).  The objective
    crosses the process boundary by registry name, the kernel by its
    resolved name (a worker without numpy falls back to the reference
    kernel — same proof either way).  Returns a strictly-better
    covering's vertex lists or ``None``, plus the shard's node count."""
    (
        n, max_size, root_cands, best_count, node_limit, branching, deadline,
        objective_name, allowed_sizes, kernel,
    ) = payload
    engine = SolverEngine(n, max_size=max_size, kernel=kernel)
    st = SolverStats()
    obj = resolve_objective(objective_name)
    table = engine._table("convex", allowed_sizes)
    order = engine._branch_order(table, branching)
    count, blocks = engine._covering_search(
        root_cands=list(root_cands),
        best_count=best_count,
        best_blocks=None,
        node_limit=node_limit,
        st=st,
        order=order,
        deadline=deadline,
        objective=obj,
        allowed_sizes=allowed_sizes,
    )
    if blocks is None:
        return None, None, st.nodes
    return count, [blk.vertices for blk in blocks], st.nodes


def _solve_many_worker(
    payload: tuple[int, int | None, int, int, str | None],
) -> tuple[Covering, SolverStats]:
    n, upper_bound, max_size, node_limit, kernel = payload
    st = SolverStats()
    cov = SolverEngine(n, max_size=max_size, kernel=kernel).min_covering(
        upper_bound=upper_bound, node_limit=node_limit, stats=st
    )
    return cov, st


def solve_many(
    ns,
    *,
    upper_bounds=None,
    max_size: int = 4,
    node_limit: int = DEFAULT_NODE_LIMIT,
    workers: int | None = None,
    shard_threshold: int | None = None,
    kernel: str | None = None,
) -> list[tuple[Covering, SolverStats]]:
    """Batched front door: certified min coverings for every ring size in
    ``ns``, fanned out over :func:`repro.util.parallel.parallel_map`.

    ``upper_bounds`` is an optional parallel sequence of inclusive
    bounds (``None`` entries mean unbounded).  Order of results matches
    ``ns``.  Block tables and edge spaces are memoized per process, so
    serial sweeps (and each pool worker) build them at most once per
    ``(n, max_size)``.

    The batch is chunked by estimated cost (exponential in n), so one
    large ring size cannot serialise the sweep behind round-robin
    chunks.  Ring sizes ≥ ``shard_threshold`` additionally scale *out*:
    each is certified on its own via
    :meth:`SolverEngine.min_covering_sharded`, partitioning its root
    orbits across all workers instead of occupying one.
    """
    ns = tuple(ns)
    kern = resolve_kernel(kernel)
    if upper_bounds is None:
        ubs: tuple[int | None, ...] = (None,) * len(ns)
    else:
        ubs = tuple(upper_bounds)
        if len(ubs) != len(ns):
            raise SolverError(
                f"upper_bounds has {len(ubs)} entries for {len(ns)} ring sizes"
            )
    results: dict[int, tuple[Covering, SolverStats]] = {}
    batched: list[tuple[int, tuple[int, int | None, int, int, str]]] = []
    for pos, (n, ub) in enumerate(zip(ns, ubs)):
        if shard_threshold is not None and n >= shard_threshold:
            st = SolverStats()
            cov = SolverEngine(
                n, max_size=max_size, kernel=kern
            ).min_covering_sharded(
                workers=workers, upper_bound=ub, node_limit=node_limit, stats=st
            )
            results[pos] = (cov, st)
        else:
            batched.append((pos, (n, ub, max_size, node_limit, kern)))
    if batched:
        payloads = [payload for _, payload in batched]
        weights = [4.0 ** payload[0] for payload in payloads]
        solved = parallel_map(
            _solve_many_worker, payloads, workers=workers, weights=weights
        )
        for (pos, _), result in zip(batched, solved):
            results[pos] = result
    return [results[pos] for pos in range(len(ns))]
