"""Pole decompositions of ``K_{n'}``, ``n' ≡ 3 (mod 4)`` — the odd-side
scaffold of the Theorem 2 construction for ``n ≡ 2 (mod 4)``.

For ``n = 4q+2`` we build an optimal decomposition of ``K_{n+1}``
(``n' = 4q+3``, ``p = 2q+1``) in which the *pole* vertex 0 lies in
``2q`` triangles and exactly one quad, arranged so that deleting the
pole leaves mergeable fragments:

* triangles, for ``k = 1..q``::

      inner_k = (0, 2k+1, 2k+2q)      outer_k = (0, 2k, 2k+2q+1)

  Each is tight, and the leftover chords ``{2k+1, 2k+2q}`` ⊂
  ``{2k, 2k+2q+1}`` are *nested*, so after deleting the pole each pair
  merges into the convex quad ``(2k, 2k+1, 2k+2q, 2k+2q+1)``.
* the pole quad ``(0, 1, w, n'-1)`` with ``w ∈ {2q+1, 2q+2}`` — its
  fragment is the 2-edge path ``1 – w – (n'-1)``, closed into one
  triangle.

These forced blocks cover the pole's star plus ``2q+2`` other chords;
the *completion* — partitioning the remaining chords into one tight
triangle and ``2q²+q−1`` tight quads — is found by the exact-cover
engine and cached per ``n'``.  The full pole decomposition is an
optimal ``K_{n'}`` decomposition (same count/mix as the ladder's), just
with a differently-structured neighbourhood of vertex 0.
"""

from __future__ import annotations

from functools import lru_cache

from ..util import circular
from ..util.errors import ConstructionError, SolverError
from ..util.validation import as_int
from .blocks import CycleBlock
from .covering import Covering
from .formulas import rho
from .engine import enumerate_tight_blocks, exact_decomposition

__all__ = ["pole_decomposition", "pole_forced_blocks", "POLE"]

POLE = 0  # The vertex deleted when deriving the even covering.


def pole_forced_blocks(n_prime: int, w: int) -> list[CycleBlock]:
    """The forced blocks through the pole for ``K_{n'}`` (see module
    docstring); ``w`` is the pole quad's interior vertex."""
    q = (n_prime - 3) // 4
    blocks: list[CycleBlock] = []
    for k in range(1, q + 1):
        blocks.append(CycleBlock((0, 2 * k + 1, 2 * k + 2 * q)))      # inner_k
        blocks.append(CycleBlock((0, 2 * k, 2 * k + 2 * q + 1)))      # outer_k
    blocks.append(CycleBlock((0, 1, w, n_prime - 1)))
    return blocks


@lru_cache(maxsize=128)
def pole_decomposition(n_prime: int) -> Covering:
    """Optimal decomposition of ``K_{n'}`` (``n' ≡ 3 mod 4``, ``n' ≥ 7``)
    with the pole structure at vertex 0.  Cached per ``n'``.
    """
    n_prime = as_int(n_prime, "n_prime")
    if n_prime < 7 or n_prime % 4 != 3:
        raise ConstructionError(
            f"pole decomposition needs n' ≡ 3 (mod 4), n' ≥ 7; got {n_prime}"
        )
    q = (n_prime - 3) // 4

    last_error: SolverError | None = None
    for w in (2 * q + 2, 2 * q + 1):
        forced = pole_forced_blocks(n_prime, w)
        covered: set[tuple[int, int]] = set()
        ok = True
        for blk in forced:
            for e in blk.edges():
                if e in covered:
                    ok = False  # forced blocks collide for this w
                    break
                covered.add(e)
            if not ok:
                break
        if not ok:
            continue

        remaining = frozenset(
            e
            for e in circular.all_chords(n_prime)
            if 0 not in e and e not in covered
        )
        try:
            completion = exact_decomposition(
                n_prime,
                remaining,
                max_triangles=1,
                candidates=enumerate_tight_blocks(n_prime),
            )
        except SolverError as exc:  # node-limit blowups fall through to next w
            last_error = exc
            completion = None
        if completion is None:
            continue

        covering = Covering(n_prime, tuple(forced) + tuple(completion))
        if covering.num_blocks != rho(n_prime):
            raise ConstructionError(
                f"pole decomposition of K_{n_prime} has {covering.num_blocks} "
                f"blocks, expected ρ = {rho(n_prime)}"
            )
        return covering

    raise ConstructionError(
        f"no pole completion found for n' = {n_prime}"
        + (f" (last error: {last_error})" if last_error else "")
    )
