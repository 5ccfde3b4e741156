"""Power graphs on the nontrivial elements of a finite group.

Vertex v (0-based) stands for group element v + 1; the identity is excluded.
Two vertices are adjacent exactly when one element is a positive power of the
other, equivalently when one of the two cyclic subgroups contains the other.
A power graph is a unit-weight `WeightedGraph` (one int bitmask row per
vertex) that also carries its group, so the oracle and the quotient recursion
read it directly. Graphs are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .groups import FiniteGroup
from .oracle import WeightedGraph


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


def build_power_graph(g: FiniteGroup) -> PowerGraph:
    """Adjacency from cyclic-subgroup membership; rejects the trivial group."""
    if g.size < 2:
        raise ValueError("the power graph is defined on nontrivial elements; the trivial group has none")
    n = g.size
    member = np.zeros((n, n), dtype=bool)  # member[x, y]: y lies in <x>
    for x in range(n):
        member[x, list(g.cyclic_subgroup(x))] = True
    upper = np.triu(member | member.T, k=1)[1:, 1:]
    # edges are streamed one row at a time: a list of all of them would hold
    # hundreds of thousands of tuples at once (443,817 edges for Z(1000))
    return PowerGraph(
        g, ((u, v) for u in range(n - 1) for v in np.flatnonzero(upper[u]).tolist())
    )
