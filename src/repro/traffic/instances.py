"""Traffic instances: the logical graph ``I`` of the paper.

An :class:`Instance` is a multiset of symmetric requests (chords) over
``n`` nodes.  The paper's headline case is All-to-All (``I = K_n``); the
future-work section motivates ``λK_n`` (every pair requested ``λ``
times) and arbitrary logical graphs — all are represented here
uniformly as a chord → multiplicity mapping.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from ..util import circular
from ..util.validation import check_positive, check_vertex

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Instance", "all_to_all", "lambda_all_to_all", "from_requests", "ring_instance"]


@dataclass(frozen=True)
class Instance:
    """A symmetric traffic instance on nodes ``0..n-1``.

    ``demand`` maps normalised chords to positive multiplicities.  The
    instance is immutable; construction normalises and validates.
    """

    n: int
    demand: Mapping[tuple[int, int], int] = field(default_factory=dict)
    name: str = "custom"

    def __post_init__(self) -> None:
        check_positive(self.n, "n")
        normalised: dict[tuple[int, int], int] = {}
        for (a, b), m in dict(self.demand).items():
            check_vertex(a, self.n)
            check_vertex(b, self.n)
            if m <= 0:
                raise ValueError(f"request multiplicity must be positive, got {m} for {(a, b)}")
            e = circular.chord(a, b)
            normalised[e] = normalised.get(e, 0) + int(m)
        object.__setattr__(self, "demand", normalised)

    # -- queries --------------------------------------------------------

    def requests(self) -> Iterable[tuple[int, int]]:
        """Distinct requested chords (ignoring multiplicity)."""
        return self.demand.keys()

    def required(self, e: tuple[int, int]) -> int:
        """Multiplicity required for chord ``e`` (0 when not requested)."""
        a, b = min(e), max(e)
        return self.demand.get((a, b), 0)

    @cached_property
    def total_requests(self) -> int:
        """Total request count, multiplicities included."""
        return sum(self.demand.values())

    @cached_property
    def max_multiplicity(self) -> int:
        return max(self.demand.values(), default=0)

    def degree(self, v: int) -> int:
        """Weighted degree of node ``v`` in the logical graph."""
        check_vertex(v, self.n)
        return sum(m for (a, b), m in self.demand.items() if v in (a, b))

    @cached_property
    def total_distance(self) -> int:
        """``Σ_e multiplicity(e)·dist(e)`` — numerator of the counting
        lower bound for this instance on the ring ``C_n``."""
        return sum(m * circular.chord_distance(self.n, e) for e, m in self.demand.items())

    def is_all_to_all(self) -> bool:
        lam = self.max_multiplicity
        return (
            lam >= 1
            and len(self.demand) == circular.n_chords(self.n)
            and all(m == lam for m in self.demand.values())
        )

    def as_graph(self) -> nx.MultiGraph:
        """The logical multigraph (one parallel edge per request unit)."""
        import networkx as nx

        g = nx.MultiGraph()
        g.add_nodes_from(range(self.n))
        for (a, b), m in self.demand.items():
            for _ in range(m):
                g.add_edge(a, b)
        return g

    def scaled(self, factor: int) -> "Instance":
        """The instance with every multiplicity multiplied by ``factor``."""
        check_positive(factor, "factor")
        return Instance(
            self.n,
            {e: m * factor for e, m in self.demand.items()},
            name=f"{self.name}×{factor}",
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Instance(n={self.n}, name={self.name!r}, requests={self.total_requests})"


def all_to_all(n: int) -> Instance:
    """The All-to-All (total exchange) instance: ``I = K_n``."""
    check_positive(n, "n")
    if n < 2:
        return Instance(n, {}, name="all-to-all")
    return Instance(n, {e: 1 for e in circular.all_chords(n)}, name="all-to-all")


def lambda_all_to_all(n: int, lam: int) -> Instance:
    """The ``λK_n`` instance from the paper's extensions section."""
    check_positive(lam, "lambda")
    return Instance(
        n, {e: lam for e in circular.all_chords(n)}, name=f"{lam}·all-to-all"
    )


def from_requests(n: int, requests: Iterable[tuple[int, int]], name: str = "custom") -> Instance:
    """An instance from an explicit request list (repeats accumulate)."""
    demand: dict[tuple[int, int], int] = {}
    for a, b in requests:
        e = circular.chord(a, b)
        demand[e] = demand.get(e, 0) + 1
    return Instance(n, demand, name=name)


def ring_instance(n: int) -> Instance:
    """Adjacent-neighbour traffic (a ring logical graph) — a degenerate
    instance useful in tests: one convex n-cycle covers it."""
    check_positive(n, "n")
    if n < 3:
        return Instance(n, {}, name="ring")
    return from_requests(n, [(i, (i + 1) % n) for i in range(n)], name="ring")
