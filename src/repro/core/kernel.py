"""Vectorized search kernel: numpy structure-of-arrays block tables.

The engine's branch-and-bound (:meth:`SolverEngine.min_covering`,
:meth:`SolverEngine.min_covering_instance`) is pure Python; profiling
the n = 10 exhaustion proof shows ~85 % of its time in three per-child
computations — residual-mass candidate scoring, the ΔW/parity
expansion sums, and canonical-mask hashing under the 2n dihedral
symmetries.  This module moves exactly those computations onto numpy
structure-of-arrays tables while keeping the *proof* bit-for-bit the
same:

* :func:`resolve_kernel` — selection.  ``REPRO_KERNEL=python|numpy``
  (or the ``SolverEngine(kernel=...)`` argument) picks the kernel;
  unset means *auto* (numpy when installed).  Requesting ``numpy``
  without numpy installed silently falls back to ``python`` — the
  pure-Python path is always present and always the reference
  implementation.  Resolution only looks numpy up
  (:func:`importlib.util.find_spec`); the import itself waits until a
  search first builds its tables (:func:`load_numpy`), so processes
  that never search — closed forms, pole completions, SAT proofs —
  never pay for it.  A numpy that is found but fails to import lands
  the engine on the python kernel before its search starts.
* :class:`KnTables` — the SoA form of a :class:`BlockTable`: the
  block/chord incidence matrix, per-chord pre-gathered candidate rows
  (the branching tie-break order, preserved exactly), fused
  distance/weight/count columns for one-matmul frame evaluation, the
  chord-endpoint incidence used for parity toggles, and the dihedral
  power tables that compute all 2n canonical images of every child in
  one integer matmul.
* :func:`numpy_covering_search` — a drop-in replacement for the
  engine's ``_covering_search`` loop.  When a frame is created, one
  array pass scores and bounds *all* its children (masses → stable
  argsort, ΔW, residual counts, packing bounds); the expensive
  expansion data (child bit vectors, canonical masks, parity
  toggles) is computed only for the *hot* children that pass the
  bound — typically ~10 % of the frontier.  The loop then scans each
  frame's precomputed bound column to bulk-count bound-pruned
  children and only drops into Python for the children that pass the
  bound or complete a covering.
* :class:`InstanceOrder` — the vectorized candidate scoring used by
  ``min_covering_instance`` (the rest of the instance loop stays in
  Python: its mutable residual vector and ``decremented`` bookkeeping
  are already cheap and serialization-ordered).

Byte-identity is a design invariant, not an aspiration: candidate
order comes from ``argsort(kind="stable")`` over the same keys the
Python ``sorted`` uses, node counting attributes exactly one node to
every expanded child (bulk-pruned spans are counted in one addition),
the memo sees the same keys in the same insertion order (FIFO
eviction included), and every value entering a frame, the memo, or a
:class:`SearchCheckpoint` is converted back to a plain Python int.
Checkpoints therefore carry no kernel marker at all — a proof
preempted under one kernel resumes under the other (the per-frame
arrays are rebuilt from the serialized frames) and finishes with the
identical envelope.  ``tests/core/test_kernel_parity.py`` pins all of
this differentially.

The deliberate behavioural latitude: deadline/preempt polling and
periodic checkpoint flushes fire on *crossing* each boundary rather
than on exact multiples (bulk node accounting can jump over one), so
a preemption or flush may capture a checkpoint at a slightly
different node count than the Python kernel would — the resumed
final envelope is still identical, which is the guarantee every
caller relies on.  Node-*limit* raises get no such latitude: bulk
advances are clamped at the limit boundary, so the raise fires at
exactly ``node_limit + 1`` with the reference's mid-span cursor and a
bit-identical checkpoint.
"""

from __future__ import annotations

import os
from functools import lru_cache
from importlib.util import find_spec

from ..util.errors import SolverError, SolverPreempted
from .checkpoint import KIND_KN, CappedMemo, SearchCheckpoint, memo_cap

__all__ = [
    "KERNEL_ENV",
    "KERNELS",
    "NO_NUMPY_ENV",
    "available_kernels",
    "load_numpy",
    "numpy_available",
    "preload_kernel",
    "resolve_kernel",
    "numpy_covering_search",
    "InstanceOrder",
]

#: Environment variable selecting the kernel (``python``/``numpy``;
#: unset or ``auto`` picks numpy when installed).
KERNEL_ENV = "REPRO_KERNEL"

#: Kernels a :class:`SolverEngine` can resolve to.
KERNELS = ("python", "numpy")

#: Set (to any non-empty value) to make the probe report numpy as
#: absent, so the python kernel runs everywhere the numpy kernel would
#: have (CI's kernel-fallback job runs with it set, and again with
#: numpy uninstalled).
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

_UNRESOLVED = object()
_numpy_module = _UNRESOLVED


def load_numpy():
    """Import numpy on first use and return it, or ``None`` when it is
    absent or fails to import (cached); ``REPRO_NO_NUMPY`` forces
    ``None``."""
    if os.environ.get(NO_NUMPY_ENV):
        return None
    global _numpy_module
    if _numpy_module is _UNRESOLVED:
        try:
            import numpy

            _numpy_module = numpy
        except ImportError:
            _numpy_module = None
    return _numpy_module


def numpy_available() -> bool:
    """Whether numpy is installed, without importing it."""
    if os.environ.get(NO_NUMPY_ENV) or _numpy_module is None:
        return False
    return _numpy_module is not _UNRESOLVED or find_spec("numpy") is not None


def available_kernels() -> tuple[str, ...]:
    """The kernels runnable in this process (``python`` always is)."""
    return KERNELS if numpy_available() else ("python",)


def resolve_kernel(kernel: str | None = None) -> str:
    """Resolve a kernel request to a runnable kernel name.

    ``kernel`` wins over ``REPRO_KERNEL``; ``None``/``"auto"``/empty
    mean numpy-when-available.  An explicit ``"numpy"`` without numpy
    installed falls back to ``"python"`` (the reference path is the
    fallback by contract); anything else raises.
    """
    raw = kernel if kernel is not None else os.environ.get(KERNEL_ENV, "auto")
    name = str(raw).strip().lower() or "auto"
    if name not in KERNELS and name != "auto":
        raise SolverError(
            f"unknown kernel {raw!r} (expected one of {KERNELS + ('auto',)})"
        )
    if name == "python":
        return "python"
    return "numpy" if numpy_available() else "python"


def preload_kernel() -> None:
    """Import what the resolved kernel runs on, so the first search in
    a long-lived process does not pay the numpy import."""
    if resolve_kernel() == "numpy":
        load_numpy()


# ---------------------------------------------------------------------------
# Structure-of-arrays tables
# ---------------------------------------------------------------------------


class KnTables:
    """Numpy SoA image of one ``BlockTable`` over one edge space."""

    def __init__(self, n: int, table):
        from .engine import edge_space

        np = load_numpy()
        space = edge_space(n)
        nbits = len(space.edges)
        nblocks = len(table.blocks)
        self.np = np
        self.n = n
        self.nbits = nbits
        self.nbytes = (nbits + 7) // 8

        # Block/chord incidence, int64 for matmuls and uint8 for mask
        # algebra on bit vectors.
        inc = np.zeros((nblocks, nbits), dtype=np.int64)
        for i, bits in enumerate(table.bit_lists):
            inc[i, list(bits)] = 1
        self.inc = inc
        self.inc8 = inc.astype(np.uint8)
        self.ninc8 = self.inc8 ^ 1  # complement rows: child_u = u & ninc8[i]

        # Fused evaluation columns: for an uncovered-bit vector ``u``,
        # ``cand_inc @ (u[:, None] * dwo)`` yields each candidate's
        # [negated residual mass, ΔW, newly-covered count] in one
        # matmul.  The mass column is stored negated so a stable
        # *ascending* argsort of it reproduces the reference
        # ``sorted(key=-mass)`` order with no per-frame negation.
        dwo = np.empty((nbits, 3), dtype=np.int64)
        dwo[:, 0] = space.dist
        dwo[:, 0] *= -1
        dwo[:, 1] = table.chord_weights
        dwo[:, 2] = 1
        self.dwo = dwo

        # Per-chord candidate indices and their pre-gathered incidence
        # rows — per_edge order is the scoring tie-break, kept verbatim.
        self.cand_arr = [np.asarray(c, dtype=np.int64) for c in table.per_edge]
        self.cand_inc = [inc[a] for a in self.cand_arr]

        # Chord-endpoint incidence (parity toggles) and vertex powers
        # (packing a toggle row back into the frame's ``odd`` int).
        ep = np.zeros((nbits, n), dtype=np.int64)
        for b, (a, c) in enumerate(space.edges):
            ep[b, a] = 1
            ep[b, c] = 1
        self.ep = ep
        self.vpow = np.int64(1) << np.arange(n, dtype=np.int64)

    def bitvec(self, mask: int, nbits: int | None = None):
        """A mask as a little-endian 0/1 uint8 vector."""
        np = self.np
        bits = self.nbits if nbits is None else nbits
        nbytes = (bits + 7) // 8
        return np.unpackbits(
            np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8),
            bitorder="little",
            count=bits,
        )


@lru_cache(maxsize=32)
def _kn_tables(n: int, max_size: int, allowed_sizes: tuple[int, ...] | None) -> KnTables:
    from .engine import convex_block_table, restricted_block_table

    if allowed_sizes is not None:
        table = restricted_block_table(n, max_size, allowed_sizes, "convex")
    else:
        table = convex_block_table(n, max_size)
    return KnTables(n, table)


@lru_cache(maxsize=32)
def _canon_tables(n: int):
    """Dihedral power tables: ``pow_lo[b, p] = 2**perm_p(b)`` (uint64,
    split into two 64-bit lanes past 64 chord bits).  Because each
    permutation is a bijection on bits, a child's uncovered vector
    matmul'd against a lane sums *distinct* powers of two — i.e. it is
    the OR the Python :func:`_canonical_mask` computes, with no carry
    and no overflow — so one ``(children × nbits) @ (nbits × 2n)``
    product evaluates every dihedral image of every child at once.
    """
    from .engine import dihedral_bit_perms

    np = load_numpy()
    perms = dihedral_bit_perms(n)
    nbits = len(perms[0])
    nperms = len(perms)
    pow_lo = np.zeros((nbits, nperms), dtype=np.uint64)
    pow_hi = np.zeros((nbits, nperms), dtype=np.uint64) if nbits > 64 else None
    for p, perm in enumerate(perms):
        for b, tgt in enumerate(perm):
            if tgt < 64:
                pow_lo[b, p] = np.uint64(1) << np.uint64(tgt)
            else:
                pow_hi[b, p] = np.uint64(1) << np.uint64(tgt - 64)
    return pow_lo, pow_hi


def batch_canonical_masks(n: int, child_vecs) -> list[int]:
    """Canonical dihedral masks for a batch of uncovered-bit vectors
    (rows of ``child_vecs``), as plain Python ints — exactly
    ``_canonical_mask`` applied to each row's packed mask."""
    pow_lo, pow_hi = _canon_tables(n)
    cu = child_vecs.astype(pow_lo.dtype)
    imgs_lo = cu @ pow_lo
    if pow_hi is None:
        return imgs_lo.min(axis=1).tolist()
    imgs_hi = cu @ pow_hi
    los = imgs_lo.tolist()
    his = imgs_hi.tolist()
    return [
        min((h << 64) | l for h, l in zip(hrow, lrow))
        for hrow, lrow in zip(his, los)
    ]


# ---------------------------------------------------------------------------
# Instance-search candidate scoring
# ---------------------------------------------------------------------------


class InstanceOrder:
    """Vectorized residual-mass candidate ordering for the instance
    search: ``argsort(kind="stable")`` over the same key the Python
    ``sorted`` uses, so the returned list (plain ints — it is
    checkpoint-serialized verbatim) is identical."""

    def __init__(self, n: int, max_size: int):
        tables = _kn_tables(n, max_size, None)
        np = tables.np
        from .engine import edge_space

        self.np = np
        # (inc * dist) rows: a block's row dotted with the residual
        # positivity vector is its residual coverage mass.
        self.mass_rows = tables.inc * np.asarray(
            edge_space(n).dist, dtype=np.int64
        )
        # Candidate lists (per_bit entries, the root orbit slice) are
        # stable list objects for the lifetime of one search, so their
        # gathered rows are cached by identity.
        self._rows: dict[int, tuple] = {}

    def order(self, cands: list[int], residual_counts: list[int]) -> list[int]:
        np = self.np
        cached = self._rows.get(id(cands))
        if cached is None:
            arr = np.asarray(cands, dtype=np.int64)
            cached = (arr, self.mass_rows[arr])
            self._rows[id(cands)] = cached
        arr, rows = cached
        pos = (np.asarray(residual_counts, dtype=np.int64) > 0).astype(np.int64)
        masses = rows @ pos
        return arr[np.argsort(-masses, kind="stable")].tolist()


# ---------------------------------------------------------------------------
# The batched K_n search
# ---------------------------------------------------------------------------

# Per-frame cache record layout (a list, not a dict: the scan loop
# indexes these thousands of times per second).
C_R = 0  # sorted [−mass, ΔW, newly-covered] columns
C_USED = 1  # child cost-so-far: aligned array, or a plain int when uniform
C_HOT = 2  # {child index: (u_row, odd_row, canonical, toggle)} for hot children
C_BPU = 3  # bound-plus-used column
C_LEAF = 4  # completed-covering column
C_STOPS = 5  # sorted child indices where leaf | (bpu < best) — the scan list
C_BEST0 = 6  # the best value C_STOPS was computed against
C_SPTR = 7  # scan position in C_STOPS


def numpy_covering_search(
    engine,
    *,
    root_cands: list[int],
    best_count: int,
    best_blocks,
    node_limit: int,
    st,
    order: list[int],
    use_memo: bool = True,
    deadline: float | None = None,
    objective=None,
    allowed_sizes: tuple[int, ...] | None = None,
    branching: str = "lex",
    checkpoint: SearchCheckpoint | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
    preempt=None,
):
    """The numpy-kernel twin of ``SolverEngine._covering_search``.

    Same contract, same frames, same checkpoints, same node counts —
    see the module docstring for how the identity is maintained.
    """
    import time

    from .engine import (
        DEADLINE_POLL_MASK,
        _canonical_mask,
        dihedral_bit_perms,
        edge_space,
    )
    from .objective import resolve_objective

    np = load_numpy()
    n = engine.n
    obj = resolve_objective(objective)
    space = edge_space(n)
    table = engine._table("convex", allowed_sizes)
    tk = _kn_tables(
        n, engine.max_size, tuple(allowed_sizes) if allowed_sizes is not None else None
    )
    full_mask = space.full_mask
    masks = table.masks
    blocks = table.blocks
    max_cover = min(engine.max_size, max((blk.size for blk in blocks), default=1))
    costs = np.asarray([obj.block_cost(blk) for blk in blocks], dtype=np.int64)
    min_cost = int(costs.min()) if len(blocks) else 1
    # Uniform block cost (min_blocks): ``used + cost[child]`` collapses
    # to one Python int per frame instead of a gather-and-add.
    unit_cost = (
        int(costs[0]) if len(blocks) and bool((costs == costs[0]).all()) else None
    )
    denom = table.weight_denom
    track_parity = obj.track_parity
    perms = dihedral_bit_perms(n) if use_memo else ()
    memo = CappedMemo(memo_cap())
    lex = order == list(range(len(space.edges)))
    W_root = sum(table.chord_weights)
    odd_root = ((1 << n) - 1) if (track_parity and (n - 1) % 2) else 0

    best: list = [best_count, best_blocks]
    chosen: list = []
    frames: list[list] = []
    # One batch record per frame, parallel to ``frames`` — derived data
    # only, never serialized, rebuilt on resume.
    caches: list[dict] = []

    # ``min_blocks`` (the default objective, and the one every
    # exhaustion proof runs under) gets its bound fused in-place below;
    # the exact-type check keeps subclasses on their own hooks.
    from .objective import MinBlocksObjective

    fast_minblocks = type(obj) is MinBlocksObjective
    dwo = tk.dwo
    inc8 = tk.inc8
    ninc8 = tk.ninc8
    if use_memo:
        pow_lo, pow_hi = _canon_tables(n)
        uint64 = np.uint64

    def make_cache(unc: int, used: int, W: int, u, odd_vec, cand_arr, cand_inc):
        """Evaluate every child of a frame in one array pass.  Returns
        (scored_list, cache); ``cand_arr``/``cand_inc`` rows are in
        pre-sort (tie-break) order unless already scored."""
        X = u[:, None] * dwo
        R = cand_inc @ X  # columns: -residual mass, ΔW, newly covered
        sort = R[:, 0].argsort(kind="stable")
        sel = cand_arr[sort]
        R = R[sort]
        return sel.tolist(), finish_cache(unc, used, W, u, odd_vec, sel, R)

    def finish_cache(unc: int, used: int, W: int, u, odd_vec, sel, R):
        """Bound/leaf columns for every child; expansion data (child
        bit vector, canonical mask, parity toggle) only for the *hot*
        children — the ones that pass the bound at frame creation.
        ``best`` only ever decreases, so the hot set computed here is a
        superset of the children the loop will ever expand."""
        unc_count = unc.bit_count()
        leaf = R[:, 2] == unc_count
        if unit_cost is not None:
            child_used = used + unit_cost
        else:
            child_used = used + costs[sel]
        if track_parity:
            bsel = inc8[sel]
            toggles = ((u[None, :] & bsel).astype(np.int64) @ tk.ep) & 1
            child_odd_vec = odd_vec[None, :] ^ toggles
            odd_counts = child_odd_vec.sum(axis=1)
        else:
            odd_counts = 0
        if fast_minblocks:
            # max(⌈(W−ΔW)/denom⌉, ⌈resid/max_cover⌉), the ceil offsets
            # folded into scalar constants and the divisions in place.
            # The reference's max(bound, min_cost) clamp is a no-op
            # here: min_cost == 1 for min_blocks and every non-leaf row
            # has ⌈resid/max_cover⌉ ≥ 1, while leaf rows stop
            # regardless of their bpu entry.
            bpu = (W + denom - 1) - R[:, 1]
            bpu //= denom
            card = (unc_count + max_cover - 1) - R[:, 2]
            card //= max_cover
            np.maximum(bpu, card, out=bpu)
            if min_cost > 1:  # pragma: no cover - min_blocks costs are 1
                np.maximum(bpu, min_cost, out=bpu)
        else:
            bounds = obj.node_bound_batch(
                frac_units=W - R[:, 1],
                frac_denom=denom,
                residual_requests=unc_count - R[:, 2],
                max_cover=max_cover,
                min_cost=min_cost,
                odd_vertices=odd_counts,
            )
            if type(bounds) is not np.ndarray:
                bounds = np.asarray(bounds, dtype=np.int64)
            bpu = np.maximum(bounds, min_cost)
        bpu += child_used
        bound_ok = bpu < best[0]
        hot_idx = (bound_ok > leaf).nonzero()[0]  # bound-ok and not leaf
        hot: dict[int, tuple] = {}
        if hot_idx.size:
            u_hot = u[None, :] & ninc8[sel[hot_idx]]
            if not use_memo:
                canon = None
            elif pow_hi is None:
                # single-lane canonical hashing, tables pre-bound
                canon = (u_hot.astype(uint64) @ pow_lo).min(axis=1).tolist()
            else:
                canon = batch_canonical_masks(n, u_hot)
            if track_parity:
                odd_hot = child_odd_vec[hot_idx]
                tog_hot = (toggles[hot_idx] @ tk.vpow).tolist()
            for j, k in enumerate(hot_idx.tolist()):
                hot[k] = (
                    u_hot[j],
                    odd_hot[j] if track_parity else None,
                    canon[j] if use_memo else None,
                    tog_hot[j] if track_parity else 0,
                )
        bound_ok |= leaf  # bound_ok is dead; reuse it as the stops column
        stops = bound_ok.nonzero()[0].tolist()
        return [R, child_used, hot, bpu, leaf, stops, best[0], 0]

    def frame_context(covered: int):
        """(cand_arr, cand_inc) for the branching target of a frame's
        child — per-chord rows are pre-gathered in the tables."""
        unc = full_mask & ~covered
        if lex:
            target = (unc & -unc).bit_length() - 1
        else:
            target = next(e for e in order if (unc >> e) & 1)
        return tk.cand_arr[target], tk.cand_inc[target]

    def capture() -> SearchCheckpoint:
        return SearchCheckpoint(
            kind=KIND_KN,
            n=n,
            max_size=engine.max_size,
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
            max_size=engine.max_size,
            objective=obj.name,
            branching=branching,
            use_memo=use_memo,
            allowed_sizes=(
                tuple(allowed_sizes) if allowed_sizes is not None else None
            ),
        )
        st.nodes = checkpoint.nodes
        best[0] = checkpoint.best_value
        if checkpoint.best_blocks is not None:
            from .blocks import CycleBlock

            best[1] = [CycleBlock(tuple(vs)) for vs in checkpoint.best_blocks]
        else:
            best[1] = None
        for key, value in checkpoint.memo:
            memo.store(key, value)
        frames = [
            [covered, used, W, odd, list(scored), cursor]
            for covered, used, W, odd, scored, cursor in checkpoint.frames
        ]
        for k in range(len(frames) - 1):
            fr = frames[k]
            chosen.append(blocks[fr[4][fr[5] - 1]])
        # Rebuild the per-frame batch records from the serialized state
        # (a kernel-agnostic checkpoint: the arrays are derived data).
        for fr in frames:
            covered, used, W, odd = fr[0], fr[1], fr[2], fr[3]
            unc = full_mask & ~covered
            u = tk.bitvec(unc)
            odd_vec = tk.bitvec(odd, n) if track_parity else None
            sel = np.asarray(fr[4], dtype=np.int64)
            R = tk.inc[sel] @ (u[:, None] * tk.dwo)
            caches.append(finish_cache(unc, used, W, u, odd_vec, sel, R))
    else:
        # Root node, mirroring the reference ``visit(0, 0, W_root, ...)``.
        st.nodes += 1
        bound0 = obj.node_bound(
            frac_units=W_root,
            frac_denom=denom,
            residual_requests=full_mask.bit_count(),
            max_cover=max_cover,
            min_cost=min_cost,
            odd_vertices=odd_root.bit_count(),
        )
        expand_root = (bound0 if bound0 > min_cost else min_cost) < best[0]
        if expand_root and use_memo:
            key0 = _canonical_mask(full_mask, perms)
            prev = memo.get(key0)
            if prev is not None and prev <= 0:
                expand_root = False
            else:
                memo.store(key0, 0)
        if expand_root:
            u0 = tk.bitvec(full_mask)
            odd_vec0 = tk.bitvec(odd_root, n) if track_parity else None
            root_arr = np.asarray(root_cands, dtype=np.int64)
            scored0, cache0 = make_cache(
                full_mask, 0, W_root, u0, odd_vec0, root_arr, tk.inc[root_arr]
            )
            frames.append([0, 0, W_root, odd_root, scored0, 0])
            caches.append(cache0)

    # ``st.nodes`` lives in the local ``nodes`` inside the loop (synced
    # back on every slow-path entry and at exit); the three rare checks
    # (node limit, deadline/preempt poll, checkpoint flush) collapse
    # into one threshold comparison per iteration.  Polls fire on
    # *crossing* each DEADLINE_POLL_MASK+1 boundary (bulk node
    # accounting can step over an exact multiple).
    nodes = st.nodes
    next_poll = (nodes | DEADLINE_POLL_MASK) + 1
    next_flush = (
        nodes + checkpoint_every
        if checkpoint_every and on_checkpoint is not None
        else None
    )
    memo_get = memo.get
    memo_store = memo.store

    def slow_threshold() -> int:
        t = node_limit + 1 if node_limit + 1 < next_poll else next_poll
        if next_flush is not None and next_flush < t:
            t = next_flush
        return t

    slow_at = slow_threshold()

    while frames:
        if nodes >= slow_at:
            st.nodes = nodes
            if nodes > node_limit:
                raise SolverError(
                    f"solver exceeded node limit {node_limit} for n={n}",
                    checkpoint=capture(),
                    best_blocks=list(best[1]) if best[1] is not None else None,
                    best_value=best[0],
                    stats=st,
                )
            if nodes >= next_poll:
                next_poll = (nodes | DEADLINE_POLL_MASK) + 1
                if deadline is not None and time.time() > deadline:
                    raise SolverPreempted(
                        f"solver exceeded its time budget for n={n}",
                        checkpoint=capture(),
                        best_blocks=(
                            list(best[1]) if best[1] is not None else None
                        ),
                        best_value=best[0],
                        stats=st,
                    )
                if preempt is not None and preempt(st):
                    raise SolverPreempted(
                        f"solver preempted at {nodes} nodes for n={n}",
                        checkpoint=capture(),
                        best_blocks=(
                            list(best[1]) if best[1] is not None else None
                        ),
                        best_value=best[0],
                        stats=st,
                    )
            if next_flush is not None and nodes >= next_flush:
                on_checkpoint(capture())
                next_flush = nodes + checkpoint_every
            slow_at = slow_threshold()
        fr = frames[-1]
        cache = caches[-1]
        scored = fr[4]
        cursor = fr[5]
        m = len(scored)
        if cursor >= m:
            frames.pop()
            caches.pop()
            if frames:
                chosen.pop()
            continue
        if cache[C_BEST0] != best[0]:
            stops_arr = cache[C_LEAF] | (cache[C_BPU] < best[0])
            cache[C_STOPS] = stops_arr.nonzero()[0].tolist()
            cache[C_SPTR] = 0
            cache[C_BEST0] = best[0]
        stop_list = cache[C_STOPS]
        ptr = cache[C_SPTR]
        ns = len(stop_list)
        # ``cursor`` only moves forward and the stop set only shrinks
        # (``best`` only decreases), so the pointer walk is amortized
        # O(1); it only has catching up to do right after a refresh.
        while ptr < ns and stop_list[ptr] < cursor:
            ptr += 1
        if ptr == ns:
            # Every remaining child is bound-pruned: count each one —
            # clamped at the node limit so the limit raise happens at
            # exactly limit + 1 with the reference's mid-span cursor.
            cache[C_SPTR] = ptr
            span = m - cursor
            if nodes + span > node_limit:
                take = node_limit + 1 - nodes
                nodes += take
                fr[5] = cursor + take
                continue
            nodes += span
            fr[5] = m
            continue
        k = stop_list[ptr]
        span = k - cursor  # the bound-pruned children skipped over
        if nodes + span > node_limit:
            take = node_limit + 1 - nodes
            nodes += take
            fr[5] = cursor + take
            continue
        cache[C_SPTR] = ptr + 1
        nodes += span + 1  # the pruned span, plus the stop child itself
        fr[5] = k + 1
        i = scored[k]
        cu = cache[C_USED]
        child_used = cu if type(cu) is int else int(cu[k])
        if cache[C_LEAF][k]:
            if child_used < best[0]:
                best[0] = child_used
                best[1] = list(chosen) + [blocks[i]]
            continue
        hot = cache[C_HOT][k]
        if use_memo:
            key = hot[2]
            prev = memo_get(key)
            if prev is not None and prev <= child_used:
                continue
            memo_store(key, child_used)
        covered, used, W, odd = fr[0], fr[1], fr[2], fr[3]
        child_covered = covered | masks[i]
        child_W = W - int(cache[C_R][k, 1])
        child_odd = odd ^ hot[3] if track_parity else 0
        cand_arr, cand_inc = frame_context(child_covered)
        child_scored, child_cache = make_cache(
            full_mask & ~child_covered,
            child_used,
            child_W,
            hot[0],
            hot[1],
            cand_arr,
            cand_inc,
        )
        chosen.append(blocks[i])
        frames.append([child_covered, child_used, child_W, child_odd, child_scored, 0])
        caches.append(child_cache)
    st.nodes = nodes
    return best[0], best[1]
