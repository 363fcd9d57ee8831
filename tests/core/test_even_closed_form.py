"""Byte identity of the even-n closed form (Theorem 2) and its search.

The golden ``tests/goldens/even_closed_form.json`` was recorded before
the tight-block enumerator and the MRV branching of
:meth:`~repro.core.engine.SolverEngine.decompose` were rewritten for
speed; this file demands it back exactly:

* every even ``N`` in ``12..30`` prints the pinned ``solve --json``
  envelope bytes (``N = 58`` is pinned by CI's CLI smoke step);
* ``enumerate_tight_blocks(n, s)`` lists the pinned vertex tuples, in
  the pinned order, and agrees with the rotate-and-dedup loop it
  replaced (kept below as the reference);
* the pole completions keep their ``mrv`` and ``static`` node counts,
  and a node limit still stops the search at the pinned node.

It also checks that deep completions need no recursion and that only
solver errors are turned into "no pole completion found".  See
``tests/core/even_closed_form_cases.py`` for the cases and how to
regenerate the golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from even_closed_form_cases import (
    COMPLETION_NS,
    LIMIT_CASES,
    STRATEGIES,
    TIER1_ENVELOPE_NS,
    TIGHT_BLOCK_NS,
    TIGHT_BLOCK_SIZES,
    completion_edges,
    completion_nodes,
    completion_pole_ws,
    envelope_sha256,
    limit_key,
    tight_blocks_sha256,
)
from repro.core import pole
from repro.core.engine import _gap_compositions, enumerate_tight_blocks, exact_decomposition
from repro.util.circular import canonical_rotation
from repro.util.errors import ConstructionError, SolverError

_GOLDEN = Path(__file__).parent.parent / "goldens" / "even_closed_form.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(_GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def test_golden_covers_every_case(golden):
    assert set(map(str, TIER1_ENVELOPE_NS)) < set(golden["envelopes"])
    assert sorted(golden["tight_blocks"], key=int) == [str(n) for n in TIGHT_BLOCK_NS]
    assert sorted(golden["completions"], key=int) == [str(n) for n in COMPLETION_NS]
    assert sorted(golden["node_limits"]) == sorted(limit_key(*c) for c in LIMIT_CASES)


@pytest.mark.parametrize("n", TIER1_ENVELOPE_NS)
def test_envelope_bytes(n, golden):
    assert envelope_sha256(n) == golden["envelopes"][str(n)]


@pytest.mark.parametrize("n", TIGHT_BLOCK_NS)
def test_tight_block_sequence(n, golden):
    hashes = {str(s): tight_blocks_sha256(n, s) for s in TIGHT_BLOCK_SIZES}
    assert hashes == golden["tight_blocks"][str(n)]


@pytest.mark.parametrize("n_prime", COMPLETION_NS)
def test_completion_node_counts(n_prime, golden):
    counts = {}
    for w in completion_pole_ws(n_prime):
        counts[str(w)] = {}
        for strategy in STRATEGIES:
            solved, nodes = completion_nodes(n_prime, w, strategy)
            assert solved
            counts[str(w)][strategy] = nodes
    assert counts == golden["completions"][str(n_prime)]


@pytest.mark.parametrize("case", LIMIT_CASES, ids=lambda c: limit_key(*c))
def test_node_limit_stops_at_pinned_node(case, golden):
    solved, nodes = completion_nodes(*case)
    assert not solved
    assert nodes == golden["node_limits"][limit_key(*case)]


# ---------------------------------------------------------------------------
# Reference enumerator: the rotate-and-dedup loop enumerate_tight_blocks
# replaced.  Every (composition, start) pair is built and a block is kept
# the first time its canonical rotation is seen.
# ---------------------------------------------------------------------------


def reference_tight_blocks(n: int, max_size: int) -> list[tuple[int, ...]]:
    half = n // 2
    seen: set[tuple[int, ...]] = set()
    blocks: list[tuple[int, ...]] = []
    for size in range(3, max_size + 1):
        for gaps in _gap_compositions(n, size, half):
            for start in range(n):
                vs = [start]
                for g in gaps[:-1]:
                    vs.append((vs[-1] + g) % n)
                canonical = canonical_rotation(vs)  # = CycleBlock(vs).canonical
                if canonical not in seen:
                    seen.add(canonical)
                    blocks.append(tuple(vs))
    return blocks


def _vertex_tuples(n: int, max_size: int) -> list[tuple[int, ...]]:
    return [blk.vertices for blk in enumerate_tight_blocks.__wrapped__(n, max_size)]


@pytest.mark.parametrize("n", range(3, 19))
def test_matches_reference_up_to_size_6(n):
    # n < 6 also covers max_size > n.
    reference = reference_tight_blocks(n, 6)
    # The reference lists sizes in increasing order, so its output for
    # a smaller max_size is the prefix of blocks up to that size.
    for max_size in (3, 4, 5, 6):
        expected = [vs for vs in reference if len(vs) <= max_size]
        assert _vertex_tuples(n, max_size) == expected


@pytest.mark.parametrize("n", range(19, 33))
def test_matches_reference_at_size_4(n):
    # n ≤ 18 at max_size 4 is covered by the test above.
    assert _vertex_tuples(n, 4) == reference_tight_blocks(n, 4)


@pytest.mark.parametrize("gaps, blocks", [((3, 3, 3, 3), 3), ((2, 4, 2, 4), 6)])
def test_periodic_gap_cycle_listed_once_per_block(gaps, blocks):
    # A gap cycle repeating after ring distance s gives s distinct blocks.
    n = sum(gaps)
    listed = [
        blk.vertices
        for blk in enumerate_tight_blocks.__wrapped__(n, len(gaps))
        if canonical_rotation(blk.gaps(n)) == canonical_rotation(gaps)
    ]
    assert len(listed) == len(set(map(frozenset, listed))) == blocks


# ---------------------------------------------------------------------------
# Deep completions and error handling
# ---------------------------------------------------------------------------


def _stack_depth() -> int:
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_completion_needs_no_recursion():
    # The n' = 31 completion chooses about 100 blocks; with one frame per
    # block it could not run in 60 frames.
    n_prime, w = 31, 16
    edges = completion_edges(n_prime, w)
    candidates = enumerate_tight_blocks(n_prime)
    expected = pole.pole_decomposition(n_prime).blocks
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        completion = exact_decomposition(
            n_prime, edges, max_triangles=1, candidates=candidates
        )
    finally:
        sys.setrecursionlimit(limit)
    forced = pole.pole_forced_blocks(n_prime, w)
    assert completion is not None
    assert tuple(forced) + tuple(completion) == expected


def test_pole_decomposition_propagates_unexpected_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a search failure")

    monkeypatch.setattr(pole, "exact_decomposition", broken)
    with pytest.raises(TypeError, match="not a search failure"):
        pole.pole_decomposition.__wrapped__(11)


def test_pole_decomposition_reports_solver_errors(monkeypatch):
    def exhausted(*args, **kwargs):
        raise SolverError("node limit")

    monkeypatch.setattr(pole, "exact_decomposition", exhausted)
    with pytest.raises(ConstructionError, match="last error: node limit"):
        pole.pole_decomposition.__wrapped__(11)
