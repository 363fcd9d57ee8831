"""The cases behind ``tests/goldens/even_closed_form.json``.

The even-n closed form (Theorem 2) is built by pole deletion from an
exact-cover completion (:mod:`repro.core.pole`), so its output depends
on the exact order in which :func:`~repro.core.engine.enumerate_tight_blocks`
lists candidate blocks and on the branching of
:meth:`~repro.core.engine.SolverEngine.decompose`.  The golden pins all
three layers:

* ``envelopes`` — SHA-256 of the bytes ``python -m repro solve --n N
  --no-cache --json`` prints, for every even ``N`` in ``12..30`` and for
  ``N = 58``;
* ``tight_blocks`` — SHA-256 of the vertex-tuple sequence of
  ``enumerate_tight_blocks(n, s)`` for ``n = 3..31`` and ``s = 3..5``;
* ``completions`` — ``decompose`` node counts of the pole completions
  ``n' = 7..31`` (both pole-quad variants ``w``) under the ``mrv`` and
  ``static`` strategies;
* ``node_limits`` — runs cut by a small ``node_limit``: the node count
  at which the ``SolverError`` is raised.

Regenerate (only when a change of the construction is intended and
justified; ``N = 58`` takes about a minute)::

    PYTHONPATH=src python tests/core/even_closed_form_cases.py > tests/goldens/even_closed_form.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

ENVELOPE_NS = (*range(12, 31, 2), 58)

#: The envelopes a tier-1 run recomputes; N = 58 is checked by CI's CLI smoke.
TIER1_ENVELOPE_NS = tuple(n for n in ENVELOPE_NS if n <= 30)

TIGHT_BLOCK_NS = range(3, 32)
TIGHT_BLOCK_SIZES = (3, 4, 5)

COMPLETION_NS = range(7, 32, 4)
STRATEGIES = ("mrv", "static")

#: ``(n', w, strategy, node_limit)`` runs that stop at the node limit.
LIMIT_CASES = ((27, 13, "static", 5000), (31, 16, "mrv", 50))


def envelope_sha256(n: int) -> str:
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", "--n", str(n), "--no-cache", "--json"])
    assert code == 0, f"solve --n {n} exited with {code}"
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def tight_blocks_sha256(n: int, max_size: int) -> str:
    from repro.core.engine import enumerate_tight_blocks

    # Uncached: the size-5 pools at n ≈ 30 hold 10⁵ blocks.
    blocks = enumerate_tight_blocks.__wrapped__(n, max_size)
    tuples = [list(blk.vertices) for blk in blocks]
    return hashlib.sha256(json.dumps(tuples).encode("utf-8")).hexdigest()


def completion_edges(n_prime: int, w: int) -> frozenset[tuple[int, int]]:
    """The chords the exact-cover search must partition for pole quad
    interior vertex ``w``: everything off the pole and off the forced
    blocks."""
    from repro.core.pole import pole_forced_blocks
    from repro.util import circular

    covered = {e for blk in pole_forced_blocks(n_prime, w) for e in blk.edges()}
    return frozenset(
        e for e in circular.all_chords(n_prime) if 0 not in e and e not in covered
    )


def completion_pole_ws(n_prime: int) -> tuple[int, int]:
    q = (n_prime - 3) // 4
    return 2 * q + 2, 2 * q + 1


def completion_nodes(
    n_prime: int, w: int, strategy: str, node_limit: int = 5_000_000
) -> tuple[bool, int]:
    """``(solved, nodes)`` of one pole completion; ``solved`` is False
    when the node limit cut the search."""
    from repro.core.engine import SolverStats, enumerate_tight_blocks, exact_decomposition
    from repro.util.errors import SolverError

    stats = SolverStats()
    try:
        result = exact_decomposition(
            n_prime,
            completion_edges(n_prime, w),
            max_triangles=1,
            candidates=enumerate_tight_blocks(n_prime),
            node_limit=node_limit,
            strategy=strategy,
            stats=stats,
        )
    except SolverError:
        return False, stats.nodes
    assert result is not None, f"n'={n_prime}, w={w} has no completion"
    return True, stats.nodes


def limit_key(n_prime: int, w: int, strategy: str, node_limit: int) -> str:
    return f"{n_prime}/{w}/{strategy}/{node_limit}"


def golden() -> dict:
    completions: dict[str, dict[str, dict[str, int]]] = {}
    for n_prime in COMPLETION_NS:
        row = completions[str(n_prime)] = {}
        for w in completion_pole_ws(n_prime):
            row[str(w)] = {}
            for strategy in STRATEGIES:
                solved, nodes = completion_nodes(n_prime, w, strategy)
                assert solved
                row[str(w)][strategy] = nodes
    node_limits = {}
    for case in LIMIT_CASES:
        solved, nodes = completion_nodes(*case)
        assert not solved
        node_limits[limit_key(*case)] = nodes
    return {
        "envelopes": {str(n): envelope_sha256(n) for n in ENVELOPE_NS},
        "tight_blocks": {
            str(n): {str(s): tight_blocks_sha256(n, s) for s in TIGHT_BLOCK_SIZES}
            for n in TIGHT_BLOCK_NS
        },
        "completions": completions,
        "node_limits": node_limits,
    }


if __name__ == "__main__":
    print(json.dumps(golden(), indent=2, sort_keys=True))
