"""Physical-layer topologies.

The paper models the optical network as a symmetric directed multigraph
whose underlying undirected graph is, in the headline case, the ring
``C_n``.  :class:`RingNetwork` is that case, with link identities,
capacities and failure state; :class:`PhysicalNetwork` is the general
undirected multigraph wrapper used by the extensions (trees of rings,
grids, tori — the paper's future-work topologies).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..util.errors import TopologyError
from ..util.validation import check_positive, check_vertex

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["RingLink", "RingNetwork", "PhysicalNetwork"]


@dataclass(frozen=True)
class RingLink:
    """A fiber link of the ring: joins ``index`` and ``index+1 (mod n)``.

    Links are identified by the index of their counterclockwise endpoint,
    so ring ``C_n`` has links ``0..n-1`` and link ``i`` = {i, i+1 mod n}.
    """

    n: int
    index: int

    def __post_init__(self) -> None:
        check_positive(self.n, "n")
        check_vertex(self.index, self.n)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.index, (self.index + 1) % self.n)

    def __repr__(self) -> str:  # pragma: no cover
        a, b = self.endpoints
        return f"RingLink({a}-{b})"


class RingNetwork:
    """The physical ring ``C_n``: optical switches 0..n-1 joined in a
    cycle, every link with the same (per-wavelength) capacity.

    The object is lightweight and immutable apart from failure state,
    which the survivability simulator toggles.
    """

    def __init__(self, n: int, *, link_capacity: int = 1) -> None:
        if n < 3:
            raise TopologyError(f"a ring needs at least 3 nodes, got {n}")
        self.n = int(n)
        self.link_capacity = check_positive(link_capacity, "link_capacity")
        self._failed: set[int] = set()

    # -- structure -------------------------------------------------------

    @property
    def num_links(self) -> int:
        return self.n

    def links(self) -> Iterator[RingLink]:
        for i in range(self.n):
            yield RingLink(self.n, i)

    def link(self, index: int) -> RingLink:
        return RingLink(self.n, index % self.n)

    def link_between(self, a: int, b: int) -> RingLink:
        """The link joining two *adjacent* ring nodes."""
        check_vertex(a, self.n)
        check_vertex(b, self.n)
        if (a + 1) % self.n == b:
            return RingLink(self.n, a)
        if (b + 1) % self.n == a:
            return RingLink(self.n, b)
        raise TopologyError(f"nodes {a} and {b} are not adjacent on C_{self.n}")

    def neighbors(self, v: int) -> tuple[int, int]:
        check_vertex(v, self.n)
        return ((v - 1) % self.n, (v + 1) % self.n)

    def as_graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.cycle_graph(self.n)
        for i in range(self.n):
            g.edges[i, (i + 1) % self.n]["capacity"] = self.link_capacity
        return g

    # -- failure state -----------------------------------------------------

    def fail_link(self, index: int) -> None:
        self._failed.add(index % self.n)

    def repair_link(self, index: int) -> None:
        self._failed.discard(index % self.n)

    def repair_all(self) -> None:
        self._failed.clear()

    @property
    def failed_links(self) -> frozenset[int]:
        return frozenset(self._failed)

    def is_link_up(self, index: int) -> bool:
        return index % self.n not in self._failed

    def __repr__(self) -> str:  # pragma: no cover
        return f"RingNetwork(n={self.n}, failed={sorted(self._failed)})"


class PhysicalNetwork:
    """General undirected physical topology (networkx-backed).

    Used by :mod:`repro.extensions.topologies` for trees of rings, grids
    and tori.  Nodes may be arbitrary hashables; edges carry capacities.
    """

    def __init__(self, graph: nx.Graph, *, name: str = "custom") -> None:
        import networkx as nx

        if graph.number_of_nodes() == 0:
            raise TopologyError("physical network must have at least one node")
        if any(u == v for u, v in graph.edges()):
            raise TopologyError("self-loops are not valid fiber links")
        self.graph = nx.Graph(graph)
        self.name = name

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        return self.graph.number_of_edges()

    def nodes(self) -> Iterable[Hashable]:
        return self.graph.nodes()

    def edges(self) -> Iterable[tuple[Hashable, Hashable]]:
        return self.graph.edges()

    def is_connected(self) -> bool:
        import networkx as nx

        return nx.is_connected(self.graph)

    def is_two_edge_connected(self) -> bool:
        """Survivable networks need 2-edge-connectivity (single link
        failures must leave all node pairs connected)."""
        import networkx as nx

        if not nx.is_connected(self.graph):
            return False
        return not list(nx.bridges(self.graph))

    def is_ring(self) -> bool:
        import networkx as nx

        return (
            self.num_nodes >= 3
            and self.num_nodes == self.num_links
            and all(d == 2 for _, d in self.graph.degree())
            and nx.is_connected(self.graph)
        )

    def ring_order(self) -> list[Hashable]:
        """The circular node order when the network is a ring."""
        import networkx as nx

        if not self.is_ring():
            raise TopologyError(f"{self.name!r} is not a ring")
        return list(nx.cycle_basis(self.graph)[0])

    def __repr__(self) -> str:  # pragma: no cover
        return f"PhysicalNetwork({self.name!r}, nodes={self.num_nodes}, links={self.num_links})"
