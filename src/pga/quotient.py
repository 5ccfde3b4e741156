"""MEN partitions and weighted quotient graphs.

A MEN class ("maximal equal neighborhood") is a maximal set of power-graph
vertices that all share one closed neighborhood. Collapsing each class to a
single node weighted by the class size yields the weighted quotient graph;
automorphisms of the original graph are exactly quotient automorphisms
combined with free permutations inside the classes, which is what the engine
module exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError
from .groups import FiniteGroup, is_prime_power
from .oracle import WeightedGraph
from .powergraph import PowerGraph

GENERATOR_CLASS = "generator-class"
CYCLIC_INTERVAL = "cyclic-interval"
BOTH = "both"


@dataclass(frozen=True)
class MenPartition:
    """Disjoint classes covering all vertices, each a maximal equal-N[.] set."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True, eq=False)
class QuotientGraph:
    """One weighted node per MEN class, ordered by smallest member vertex."""

    weights: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    adj: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    def closed_neighborhood(self, i: int) -> frozenset[int]:
        return frozenset(int(j) for j in np.flatnonzero(self.adj[i])) | {i}

    def edges(self) -> list[tuple[int, int]]:
        return [
            (int(i), int(j))
            for i in range(self.n_nodes)
            for j in np.flatnonzero(self.adj[i])
            if j > i
        ]

    def to_weighted_graph(self) -> WeightedGraph:
        return WeightedGraph(self.n_nodes, self.edges(), self.weights)


def men_partition(pg: PowerGraph) -> MenPartition:
    """Group vertices by their closed neighborhoods (as bitset rows)."""
    closed = pg.adj.copy()
    np.fill_diagonal(closed, True)
    groups: dict[bytes, list[int]] = {}
    for v in range(pg.n_vertices):
        groups.setdefault(closed[v].tobytes(), []).append(v)
    # dict preserves first-seen order, so classes come out sorted by least member
    classes = tuple(tuple(vs) for vs in groups.values())
    class_of = [0] * pg.n_vertices
    for cid, members in enumerate(classes):
        for v in members:
            class_of[v] = cid
    weights = tuple(len(members) for members in classes)
    return MenPartition(classes, tuple(class_of), weights)


def build_quotient(pg: PowerGraph, mp: MenPartition) -> QuotientGraph:
    """Collapse classes to weighted nodes; adjacency must be cross-pair uniform."""
    k = mp.n_classes
    adj = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            block = pg.adj[np.ix_(mp.classes[i], mp.classes[j])]
            some, every = bool(block.any()), bool(block.all())
            if some != every:
                raise InternalCheckError(
                    f"classes {i} and {j} have mixed cross adjacency; the partition is not a MEN partition"
                )
            adj[i, j] = adj[j, i] = every
    return QuotientGraph(mp.weights, mp.classes, adj)


@dataclass(frozen=True)
class MenClassRecord:
    """How a class arises: as the generator set of a cyclic subgroup, as the
    complement of a proper subchain inside a cyclic group of prime-power order
    (an interval of the subgroup chain), or both."""

    kind: str
    generator: int | None = None  # element id witnessing the generator-set form
    interval: tuple[int, int, int, int] | None = None  # (a, p, t, n): class = <a> minus <a**(p**t)>, order(a) = p**n


def classify_men_class(
    g: FiniteGroup, pg: PowerGraph, members: tuple[int, ...]
) -> MenClassRecord:
    """Classify one MEN class; every class must fit at least one form."""
    elements = sorted(pg.element_of(v) for v in members)
    class_set = frozenset(elements)
    orders = {e: g.element_order(e) for e in elements}
    max_order = max(orders.values())

    generator: int | None = None
    interval: tuple[int, int, int, int] | None = None
    for a in elements:
        if orders[a] != max_order:
            continue
        if generator is None and g.gen_set(a) == class_set:
            generator = a
        if interval is None:
            pp = is_prime_power(orders[a])
            if pp is not None:
                p, n_exp = pp
                sub = g.cyclic_subgroup(a)
                sub_vertices = frozenset(pg.vertex_of(x) for x in sub if x != 0)
                for t in range(2, n_exp + 1):
                    low = g.power(a, p**t)
                    if class_set != frozenset(sub - g.cyclic_subgroup(low)):
                        continue
                    mid = g.power(a, p ** (t - 1))
                    if pg.closed_neighborhood(pg.vertex_of(mid)) != sub_vertices:
                        continue
                    if low != 0 and pg.closed_neighborhood(pg.vertex_of(low)) == sub_vertices:
                        continue
                    interval = (a, p, t, n_exp)
                    break
        if generator is not None and interval is not None:
            break

    if generator is not None and interval is not None:
        return MenClassRecord(BOTH, generator=generator, interval=interval)
    if generator is not None:
        return MenClassRecord(GENERATOR_CLASS, generator=generator)
    if interval is not None:
        return MenClassRecord(CYCLIC_INTERVAL, interval=interval)
    raise InternalCheckError(
        f"MEN class {sorted(members)} fits neither classification form; "
        "this falsifies a structural assumption the engine relies on"
    )


def reconstruct_order(g: FiniteGroup, mp: MenPartition, class_id: int) -> int:
    """Order of a maximum-order class element, rebuilt from class weights.

    The nontrivial part of that element's cyclic subgroup must be a disjoint
    union of whole MEN classes; summing their weights and adding one for the
    identity recovers the element order.
    """
    members = mp.classes[class_id]
    elements = [v + 1 for v in members]
    orders = [g.element_order(e) for e in elements]
    x_m = elements[orders.index(max(orders))]
    inside = {x - 1 for x in g.cyclic_subgroup(x_m) if x != 0}
    total = 0
    for cls, weight in zip(mp.classes, mp.weights):
        hit = len(set(cls) & inside)
        if hit == 0:
            continue
        if hit != len(cls):
            raise InternalCheckError(
                f"class {cls} straddles the cyclic subgroup of element {x_m}"
            )
        total += weight
    value = 1 + total
    if value != g.element_order(x_m):
        raise InternalCheckError(
            f"reconstructed order {value} != element order {g.element_order(x_m)} "
            f"for class {class_id}"
        )
    return value

