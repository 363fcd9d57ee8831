"""DRC on non-ring topologies — the paper's second extension direction.

"We also consider other network topologies, for example, trees of
rings, grids or tori."  This module supplies the machinery such a study
needs:

* generators for the named topologies (tree of rings, grid, torus) as
  :class:`~repro.rings.topology.PhysicalNetwork` objects;
* an exact DRC feasibility test for a cycle of requests on an arbitrary
  graph (backtracking over edge-disjoint path systems; exponential in
  the cycle length, which is ≤ 4 here — trees short-circuit to the
  unique-path check);
* a greedy DRC-covering heuristic for All-to-All over any
  2-edge-connected topology, so experiment E9 can compare cycle counts
  across topologies of equal order.

On a ring these reduce exactly to the closed-form machinery of
:mod:`repro.core` (checked by tests), anchoring the generalisation.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from itertools import islice

from ..core.blocks import CycleBlock
from ..rings.topology import PhysicalNetwork
from ..util.errors import ConstructionError, TopologyError

__all__ = [
    "tree_of_rings",
    "grid_network",
    "torus_network",
    "ring_network_graph",
    "drc_route_on_graph",
    "is_drc_routable_on_graph",
    "greedy_graph_covering",
]


# ---------------------------------------------------------------------------
# Topology generators
# ---------------------------------------------------------------------------


def ring_network_graph(n: int) -> PhysicalNetwork:
    """The paper's ring, as a general :class:`PhysicalNetwork`."""
    import networkx as nx

    if n < 3:
        raise TopologyError(f"ring needs n ≥ 3, got {n}")
    return PhysicalNetwork(nx.cycle_graph(n), name=f"ring-{n}")


def tree_of_rings(ring_sizes: Sequence[int]) -> PhysicalNetwork:
    """A chain-of-rings network: ring ``i+1`` shares exactly one node
    with ring ``i`` (the classic SDH/WDM metro "tree of rings" in its
    path-shaped form).  Nodes are integers, assigned consecutively."""
    import networkx as nx

    if not ring_sizes:
        raise TopologyError("tree of rings needs at least one ring")
    g = nx.Graph()
    next_node = 0
    attach = 0
    for idx, size in enumerate(ring_sizes):
        if size < 3:
            raise TopologyError(f"ring #{idx} must have ≥ 3 nodes, got {size}")
        if idx == 0:
            members = list(range(size))
            next_node = size
        else:
            members = [attach] + list(range(next_node, next_node + size - 1))
            next_node += size - 1
        for i, u in enumerate(members):
            g.add_edge(u, members[(i + 1) % size])
        attach = members[size // 2]
    return PhysicalNetwork(g, name=f"tree-of-rings{tuple(ring_sizes)}")


def grid_network(rows: int, cols: int) -> PhysicalNetwork:
    """A rows×cols mesh; nodes are relabelled to integers row-major."""
    import networkx as nx

    if rows < 2 or cols < 2:
        raise TopologyError(f"grid needs ≥ 2×2, got {rows}×{cols}")
    g = nx.grid_2d_graph(rows, cols)
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    return PhysicalNetwork(g, name=f"grid-{rows}x{cols}")


def torus_network(rows: int, cols: int) -> PhysicalNetwork:
    """A rows×cols torus (periodic grid)."""
    import networkx as nx

    if rows < 3 or cols < 3:
        raise TopologyError(f"torus needs ≥ 3×3, got {rows}×{cols}")
    g = nx.grid_2d_graph(rows, cols, periodic=True)
    g = nx.convert_node_labels_to_integers(g, ordering="sorted")
    return PhysicalNetwork(g, name=f"torus-{rows}x{cols}")


# ---------------------------------------------------------------------------
# DRC on general graphs
# ---------------------------------------------------------------------------


def _edge_key(u: Hashable, v: Hashable) -> tuple:
    return (u, v) if repr(u) <= repr(v) else (v, u)


def drc_route_on_graph(
    network: PhysicalNetwork,
    block: CycleBlock,
    *,
    max_paths_per_request: int = 40,
) -> dict[tuple[int, int], list] | None:
    """Edge-disjoint routing of a block's requests on an arbitrary
    graph, or ``None`` when none exists.

    Trees short-circuit (paths are unique); otherwise backtracking over
    the ``max_paths_per_request`` shortest simple paths per request.
    The cap is a completeness/efficiency dial: for the small cycles the
    paper uses (≤ C4) and metro-scale topologies, 40 paths per request
    is exhaustive in practice.
    """
    import networkx as nx

    g = network.graph
    requests = block.edges()
    for a, b in requests:
        if a not in g or b not in g:
            raise TopologyError(f"request ({a},{b}) has endpoints outside the network")

    if nx.is_tree(g):
        used: set[tuple] = set()
        routing: dict[tuple[int, int], list] = {}
        for a, b in requests:
            path = nx.shortest_path(g, a, b)
            edges = {_edge_key(u, v) for u, v in zip(path, path[1:])}
            if edges & used:
                return None
            used |= edges
            routing[(a, b)] = path
        return routing

    path_choices: list[list[list]] = []
    for a, b in requests:
        gen = nx.shortest_simple_paths(g, a, b)
        choices = list(islice(gen, max_paths_per_request))
        if not choices:
            return None
        path_choices.append(choices)

    # Route scarce requests first: fewer alternatives ⇒ earlier pruning.
    order = sorted(range(len(requests)), key=lambda i: len(path_choices[i]))
    routing_paths: dict[tuple[int, int], list] = {}

    def backtrack(pos: int, used: frozenset) -> bool:
        if pos == len(order):
            return True
        idx = order[pos]
        for path in path_choices[idx]:
            edges = frozenset(_edge_key(u, v) for u, v in zip(path, path[1:]))
            if edges & used:
                continue
            routing_paths[requests[idx]] = path
            if backtrack(pos + 1, used | edges):
                return True
            del routing_paths[requests[idx]]
        return False

    if backtrack(0, frozenset()):
        return routing_paths
    return None


def is_drc_routable_on_graph(network: PhysicalNetwork, block: CycleBlock) -> bool:
    """DRC feasibility of a cycle of requests on an arbitrary topology."""
    return drc_route_on_graph(network, block) is not None


def greedy_graph_covering(
    network: PhysicalNetwork,
    *,
    max_size: int = 4,
) -> list[CycleBlock]:
    """Greedy DRC-covering of All-to-All over an arbitrary
    2-edge-connected topology.

    Grows each block from the lexicographically first uncovered request
    by adding the companion that covers the most new requests while the
    block stays DRC-routable.  Exact on rings only by coincidence; this
    is the experimental baseline the paper's future work calls for, not
    a theorem.
    """
    if not network.is_two_edge_connected():
        raise ConstructionError(
            f"{network.name!r} is not 2-edge-connected: no survivable covering exists"
        )
    nodes = sorted(network.graph.nodes())
    uncovered: set[tuple] = {
        (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]
    }
    chosen: list[CycleBlock] = []
    while uncovered:
        a, b = min(uncovered)
        best_block: CycleBlock | None = None
        best_gain = -1
        for c in nodes:
            if c in (a, b):
                continue
            tri = CycleBlock((a, b, c))
            gain = sum(1 for e in tri.edges() if tuple(sorted(e)) in uncovered)
            if gain > best_gain and is_drc_routable_on_graph(network, tri):
                best_gain, best_block = gain, tri
        if max_size >= 4 and best_gain < 3:
            for c in nodes:
                for d in nodes:
                    if len({a, b, c, d}) < 4:
                        continue
                    quad = CycleBlock((a, b, c, d))
                    gain = sum(1 for e in quad.edges() if tuple(sorted(e)) in uncovered)
                    if gain > best_gain and is_drc_routable_on_graph(network, quad):
                        best_gain, best_block = gain, quad
        if best_block is None:
            raise ConstructionError(
                f"no routable block covers request ({a},{b}) on {network.name!r}"
            )
        chosen.append(best_block)
        uncovered.difference_update(
            tuple(sorted(e)) for e in best_block.edges()
        )
    return chosen
