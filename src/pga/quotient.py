"""MEN partitions and weighted quotient graphs.

A MEN class ("maximal equal neighborhood") is a maximal set of nodes that all
share one closed neighborhood. Collapsing each class to a single node weighted
by its total weight yields the weighted quotient graph; automorphisms of the
power graph are exactly quotient automorphisms combined with free permutations
inside the classes, which is what the engine module exploits. Both functions
work on any `WeightedGraph`: the pipeline runs them on the cyclic-subgroup
graph (members stay power-graph vertices) and, as the reference, on the power graph.

Classes travel as one integer array, each node's class (`MenPartition.class_of`)
or each member vertex's quotient node (`QuotientGraph.node_of`), numbered by
least member. It is the only form either constructor takes, and each checks it
(a 1-D integer array whose values are exactly range(k), k the number of
weights). The tuples of members (`MenPartition.classes`,
`QuotientGraph.members`) are built from it on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalCheckError
from .oracle import WeightedGraph, _iter_bits


def _check_classes(index: np.ndarray, k: int, name: str) -> None:
    """A ValueError unless `index` is a 1-D integer array whose values are exactly range(k)."""
    if not (isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu"):
        raise ValueError(f"{name} must be a 1-D integer array")
    # the range first, as bincount sizes its output by the largest value
    in_range = not index.size or 0 <= index.min() <= index.max() < k
    if not in_range or np.count_nonzero(np.bincount(index.astype(np.intp, copy=False), minlength=k)) != k:
        raise ValueError(f"{name}'s values are not exactly range({k})")


def _groups(index: np.ndarray, k: int) -> tuple[tuple[int, ...], ...]:
    """The k groups of an index array, each its members ascending."""
    members = tuple(np.argsort(index, kind="stable").tolist())
    ends = list(accumulate(np.bincount(index, minlength=k).tolist()))
    return tuple(map(members.__getitem__, map(slice, [0, *ends[:-1]], ends)))


@dataclass(frozen=True, eq=False)
class MenPartition:
    """Disjoint classes covering all nodes, each a maximal equal-N[.] set.

    `class_of` is a 1-D integer array, each node's class, its values exactly
    range(k) for the k weights (a ValueError otherwise); `classes`, each
    class's nodes ascending, is built from it on first read."""

    class_of: np.ndarray
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_classes(self.class_of, len(self.weights), "class_of")

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return _groups(self.class_of, len(self.weights))


class QuotientGraph(WeightedGraph):
    """One node per class, weighted by the class's total weight and ordered
    by smallest member vertex.

    `node_of` is a 1-D integer array, each member vertex's node, its values
    exactly range(n) for the n weights (a ValueError otherwise); `members`,
    each node's vertices, is built from it on first read."""

    __slots__ = ("node_of", "__dict__")

    def __init__(
        self, node_of: np.ndarray, edges: Iterable[tuple[int, int]], weights: Sequence[int]
    ) -> None:
        _check_classes(node_of, len(weights), "node_of")
        super().__init__(len(weights), edges, weights)
        object.__setattr__(self, "node_of", node_of)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        return _groups(self.node_of, self.n)

    @property
    def n_nodes(self) -> int:
        return self.n

    def to_weighted_graph(self) -> WeightedGraph:
        return self


def men_partition(wg: WeightedGraph) -> MenPartition:
    """Group nodes by their closed neighborhoods (as bitmask rows), the
    classes numbered by least member."""
    # closed twins are adjacent, so a node with no neighbour is alone in its class
    adj = wg.adj
    linked = list(compress(range(wg.n), adj))
    first: dict[int, int] = {}
    least = [first.setdefault(adj[v] | 1 << v, v) for v in linked]
    if len(first) == len(linked):  # every class is a single node
        return MenPartition(np.arange(wg.n), wg.weights)
    leader = list(range(wg.n))
    for v, u in zip(linked, least):
        leader[v] = u
    # a class's number counts the classes whose least member comes first
    number: dict[int, int] = {}
    class_of = [number.setdefault(u, len(number)) for u in leader]
    weights = [0] * len(number)
    for c, w in zip(class_of, wg.weights):
        weights[c] += w
    return MenPartition(np.array(class_of), tuple(weights))


def build_quotient(wg: WeightedGraph, mp: MenPartition) -> QuotientGraph:
    """Collapse classes to weighted nodes; adjacency must be cross-pair uniform.

    Node i's row is its class's first member's row, projected through
    `class_of`. Every member must have that member's row outside its own
    class; checked for every class, this makes each pair of classes all
    adjacent or all apart (a in class i and u in class j see each other
    exactly when the two first members do), so the projection is exact.
    A quotient of a quotient maps each member vertex through both arrays.
    """
    class_of = mp.class_of.tolist()
    edges: list[tuple[int, int]] = []
    for i, members in enumerate(_groups(mp.class_of, len(mp.weights))):
        outside = ~sum(1 << v for v in members)
        row = wg.adj[members[0]] & outside
        for v in members[1:]:
            diff = (wg.adj[v] & outside) ^ row
            if diff:
                j = class_of[diff.bit_length() - 1]
                raise InternalCheckError(
                    f"classes {min(i, j)} and {max(i, j)} have mixed cross adjacency; "
                    "the partition is not a MEN partition"
                )
        touched = {class_of[u] for u in _iter_bits(row)}
        edges.extend((i, j) for j in touched if j > i)
    node_of = mp.class_of[wg.node_of] if isinstance(wg, QuotientGraph) else mp.class_of
    return QuotientGraph(node_of, edges, mp.weights)
