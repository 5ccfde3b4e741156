"""Power graphs on the nontrivial elements of a finite group, and their
cyclic-subgroup form.

Vertex v (0-based) stands for group element v + 1; the identity is excluded.
Two vertices are adjacent exactly when one element is a positive power of the
other, equivalently when one of the two cyclic subgroups contains the other.
A power graph is a unit-weight `WeightedGraph` (one int bitmask row per
vertex) that also carries its group, so the oracle and the quotient recursion
read it directly. Graphs are immutable after construction.

It is the containment graph of the nontrivial cyclic subgroups with each one
blown up to a clique of its generators; `cyclic_subgroup_graph` skips the blow-up.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .groups import FiniteGroup
from .oracle import WeightedGraph
from .quotient import QuotientGraph


class PowerGraph(WeightedGraph):
    __slots__ = ("group",)

    def __init__(self, group: FiniteGroup, edges: Iterable[tuple[int, int]]) -> None:
        super().__init__(group.size - 1, edges)
        object.__setattr__(self, "group", group)

    def __repr__(self) -> str:
        return (
            f"PowerGraph({self.group.description!r}, vertices={self.n}, "
            f"edges={self.edge_count})"
        )

    @property
    def n_vertices(self) -> int:
        return self.n

    @property
    def vertices(self) -> range:
        """The element indices carried by the vertices (identity excluded)."""
        return range(1, self.group.size)

    def element_of(self, v: int) -> int:
        return v + 1

    def vertex_of(self, element: int) -> int:
        if element < 1 or element >= self.group.size:
            raise ValueError(f"element {element} is not a vertex")
        return element - 1

    def to_weighted_graph(self) -> WeightedGraph:
        return self


def _require_nontrivial(g: FiniteGroup) -> None:
    if g.size < 2:
        raise ValueError("the power graph is defined on nontrivial elements; the trivial group has none")


def build_power_graph(g: FiniteGroup) -> PowerGraph:
    """Adjacency from cyclic-subgroup membership; rejects the trivial group."""
    _require_nontrivial(g)
    n = g.size
    member = np.zeros((n, n), dtype=bool)  # member[x, y]: y lies in <x>
    member[np.arange(n), g.powers] = True
    upper = np.triu(member | member.T, k=1)[1:, 1:]
    # edges are streamed one row at a time: a list of all of them would hold
    # hundreds of thousands of tuples at once (443,817 edges for Z(1000))
    return PowerGraph(
        g, ((u, v) for u in range(n - 1) for v in np.flatnonzero(upper[u]).tolist())
    )


def cyclic_subgroup_graph(g: FiniteGroup) -> QuotientGraph:
    """One node per nontrivial cyclic subgroup, ordered by least generator and
    weighted by phi(order); two nodes are adjacent when one subgroup contains
    the other. A node's members are its generators as power-graph vertices."""
    _require_nontrivial(g)
    powers, orders = g.powers, g.orders
    # least[x]: the least generator of <x>; a power of x generates <x> if it has x's order
    least = powers[1].copy()
    for row in powers[2:-1]:
        np.minimum(least, row, out=least, where=orders[row] == orders)
    reps = np.flatnonzero(least == np.arange(g.size))[1:]
    node_of, node_orders = np.searchsorted(reps, least), orders[reps]
    # <r> is r**k for 1 <= k < order(r): the nodes of one order take one gather
    pairs = []
    for o in sorted(set(node_orders.tolist())):
        block = np.flatnonzero(node_orders == o)
        inner = node_of[powers[1:o, reps[block]]]
        outer = np.broadcast_to(block, inner.shape)
        pairs.append(np.stack([outer, inner])[:, inner != outer])
    edges = zip(*np.concatenate(pairs, axis=1).tolist())
    vertices = np.argsort(node_of[1:], kind="stable")  # grouped by node, ascending
    members = np.split(vertices, np.cumsum(np.bincount(node_of[1:]))[:-1])
    return QuotientGraph(tuple(tuple(m.tolist()) for m in members), edges, list(map(len, members)))
