"""MEN partitions and weighted quotient graphs.

A MEN class ("maximal equal neighborhood") is a maximal set of nodes that all
share one closed neighborhood. Collapsing each class to a single node weighted
by its total weight yields the weighted quotient graph; automorphisms of the
power graph are exactly quotient automorphisms combined with free permutations
inside the classes, which is what the engine module exploits. Both functions
work on any `WeightedGraph`: the pipeline runs them on the cyclic-subgroup
graph (members stay power-graph vertices) and, as the reference, on the power graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalCheckError
from .oracle import WeightedGraph


@dataclass(frozen=True)
class MenPartition:
    """Disjoint classes covering all nodes, each a maximal equal-N[.] set."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    weights: tuple[int, ...]

    @classmethod
    def of(cls, classes: tuple[tuple[int, ...], ...], weights: Iterable[int]) -> "MenPartition":
        class_of = [0] * sum(map(len, classes))
        for cid, members in enumerate(classes):
            for v in members:
                class_of[v] = cid
        return cls(classes, tuple(class_of), tuple(weights))


class QuotientGraph(WeightedGraph):
    """One node per class, weighted by the class's total weight and ordered
    by smallest member vertex."""

    __slots__ = ("members",)

    def __init__(
        self, members: tuple[tuple[int, ...], ...], edges: Iterable[tuple[int, int]],
        weights: Sequence[int],
    ) -> None:
        super().__init__(len(members), edges, weights)
        object.__setattr__(self, "members", members)

    @property
    def n_nodes(self) -> int:
        return self.n

    def to_weighted_graph(self) -> WeightedGraph:
        return self


def men_partition(wg: WeightedGraph) -> MenPartition:
    """Group nodes by their closed neighborhoods (as bitmask rows)."""
    # closed twins are adjacent, so an isolated node is alone in its class:
    # its key ~v is unique, and cheaper to hash than a long row
    first: dict[int, int] = {}
    least = [first.setdefault(row | 1 << v if row else ~v, v) for v, row in enumerate(wg.adj)]
    n = wg.n
    if len(first) == n:  # every class is a single node
        return MenPartition(tuple(zip(range(n))), tuple(range(n)), wg.weights)
    # dict preserves first-seen order, so classes come out sorted by least member
    groups: dict[int, list[int]] = {}
    for v, u in enumerate(least):
        if u in groups:
            groups[u].append(v)
        else:
            groups[u] = [v]
    classes = tuple(map(tuple, groups.values()))
    weight = wg.weights.__getitem__
    return MenPartition.of(classes, [sum(map(weight, c)) for c in classes])


def build_quotient(wg: WeightedGraph, mp: MenPartition) -> QuotientGraph:
    """Collapse classes to weighted nodes; adjacency must be cross-pair uniform.

    Node i's row is its class's first member's row, projected through
    `class_of`. Every member must have that member's row outside its own
    class; checked for every class, this makes each pair of classes all
    adjacent or all apart (a in class i and u in class j see each other
    exactly when the two first members do), so the projection is exact.

    A `QuotientGraph` whose partition is all singletons (one class per node,
    so node i alone in class i) with their own weights is returned as it is:
    the projection is then the identity and no class has a second member to
    check.
    """
    if (
        isinstance(wg, QuotientGraph)
        and len(mp.classes) == wg.n
        and mp.weights == wg.weights
        and mp.class_of == tuple(range(wg.n))
    ):
        return wg
    edges: list[tuple[int, int]] = []
    for i, members in enumerate(mp.classes):
        outside = ~sum(1 << v for v in members)
        row = wg.adj[members[0]] & outside
        for v in members[1:]:
            diff = (wg.adj[v] & outside) ^ row
            if diff:
                j = mp.class_of[diff.bit_length() - 1]
                raise InternalCheckError(
                    f"classes {min(i, j)} and {max(i, j)} have mixed cross adjacency; "
                    "the partition is not a MEN partition"
                )
        touched = {mp.class_of[u] for u in wg.neighbors(members[0])}
        edges.extend((i, j) for j in touched if j > i)
    classes = mp.classes
    if isinstance(wg, QuotientGraph):
        classes = tuple(tuple(sorted(v for i in c for v in wg.members[i])) for c in classes)
    return QuotientGraph(classes, edges, mp.weights)
