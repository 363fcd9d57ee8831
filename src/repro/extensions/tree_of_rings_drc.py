"""Exact DRC characterisation on trees of rings.

The paper's ring lemma (a cycle of requests is DRC-routable on ``C_n``
iff its vertices appear in circular order) extends to the paper's first
future-work topology.  In a *tree of rings* every biconnected component
is a cycle and components meet at cut nodes, so:

* the fiber sets of different rings are disjoint — routing choices in
  different rings are independent;
* a request's route is forced except for one binary choice (which arc)
  inside each ring it traverses;
* projecting a logical cycle onto a ring ``R`` (mapping every vertex to
  its *gate* — the node of ``R`` through which paths from that vertex
  enter ``R``) turns the cycle's routing inside ``R`` into a closed walk
  on ``R``'s nodes.

**Lemma (tree-of-rings DRC).**  A logical cycle is DRC-routable on a
tree of rings iff for every ring ``R`` its gate projection, after
collapsing cyclically-consecutive duplicates, is either trivial (≤ 1
distinct gate) or visits distinct gates in ``R``'s circular order.
*Why:* within ``R`` the projected closed walk must use each fiber at
most once; the ring winding argument then forces winding ±1 with every
link used exactly once (circular order), or no links at all.  A
repeated gate in the collapsed projection forces winding ≥ 2, hence is
infeasible.

The test-suite validates this O(k·|rings|) predicate against the
exponential path-assignment router of :mod:`repro.extensions.topologies`.
"""

from __future__ import annotations

from functools import lru_cache

from ..core.blocks import CycleBlock
from ..rings.topology import PhysicalNetwork
from ..util import circular
from ..util.errors import TopologyError

__all__ = ["is_tree_of_rings", "rings_of", "gate_projection", "drc_on_tree_of_rings"]


def rings_of(network: PhysicalNetwork) -> list[list]:
    """The constituent rings (biconnected components that are cycles),
    each as a node list in cyclic order."""
    import networkx as nx

    g = network.graph
    rings = []
    for comp_edges in nx.biconnected_component_edges(g):
        comp_edges = list(comp_edges)
        sub = nx.Graph(comp_edges)
        if sub.number_of_edges() == 1:
            continue  # a bridge, not a ring
        if any(d != 2 for _, d in sub.degree()):
            raise TopologyError("biconnected component is not a simple cycle")
        rings.append(nx.cycle_basis(sub)[0])
    return rings


def is_tree_of_rings(network: PhysicalNetwork) -> bool:
    """True when every biconnected component is a cycle (no bridges)."""
    import networkx as nx

    g = network.graph
    if not nx.is_connected(g):
        return False
    if list(nx.bridges(g)):
        return False
    try:
        rings_of(network)
    except TopologyError:
        return False
    return True


def _gate_map(network: PhysicalNetwork, ring_nodes: tuple) -> dict:
    """Map every graph node to its gate in the given ring: remove the
    ring's fibers; each remaining component touches exactly one ring
    node, through which all its traffic enters the ring."""
    import networkx as nx

    g = network.graph.copy()
    ring_set = set(ring_nodes)
    k = len(ring_nodes)
    for i in range(k):
        g.remove_edge(ring_nodes[i], ring_nodes[(i + 1) % k])
    gates: dict = {}
    for comp in nx.connected_components(g):
        anchors = comp & ring_set
        if len(anchors) != 1:
            raise TopologyError(
                "network is not a tree of rings (ring attaches a component "
                f"at {len(anchors)} nodes)"
            )
        gate = next(iter(anchors))
        for node in comp:
            gates[node] = gate
    return gates


def gate_projection(
    network: PhysicalNetwork, ring_nodes: tuple, block: CycleBlock
) -> list:
    """The block's gate sequence on one ring, with cyclically-consecutive
    duplicates collapsed.  Empty/singleton projections use no fiber of
    the ring."""
    gates = _gate_map(network, ring_nodes)
    seq = [gates[v] for v in block.vertices]
    collapsed: list = []
    for gate in seq:
        if not collapsed or collapsed[-1] != gate:
            collapsed.append(gate)
    if len(collapsed) > 1 and collapsed[0] == collapsed[-1]:
        collapsed.pop()
    return collapsed


def drc_on_tree_of_rings(network: PhysicalNetwork, block: CycleBlock) -> bool:
    """O(k·|rings|) DRC feasibility on a tree of rings (see module
    docstring for the lemma this implements)."""
    if not is_tree_of_rings(network):
        raise TopologyError(f"{network.name!r} is not a tree of rings")
    for v in block.vertices:
        if v not in network.graph:
            raise TopologyError(f"block vertex {v} is not in the network")

    for ring_nodes in rings_of(network):
        ring_tuple = tuple(ring_nodes)
        projection = gate_projection(network, ring_tuple, block)
        if len(projection) <= 1:
            continue
        if len(set(projection)) != len(projection):
            return False  # repeated gate ⇒ winding ≥ 2 inside this ring
        # Translate ring positions to 0..k-1 and test circular order.
        position = {node: i for i, node in enumerate(ring_tuple)}
        k = len(ring_tuple)
        seq = [position[g] for g in projection]
        if len(seq) == 2:
            continue  # a there-and-back pair uses the two arcs disjointly
        if not circular.is_circular_order(k, seq):
            return False
    return True
