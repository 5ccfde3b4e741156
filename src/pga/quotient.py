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

import numpy as np

from .errors import InternalCheckError
from .groups import FiniteGroup, is_prime_power
from .oracle import WeightedGraph

GENERATOR_CLASS = "generator-class"
CYCLIC_INTERVAL = "cyclic-interval"


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


@dataclass(frozen=True)
class MenClassRecord:
    """How a class arises: as the generator set of one cyclic subgroup, or as an
    interval of the subgroup chain of a cyclic group of prime-power order."""

    kind: str
    generator: int | None = None  # least generator of the class's one subgroup
    interval: tuple[int, int, int, int] | None = None  # (a, p, t, n): class = <a> minus <a**(p**t)>, order(a) = p**n


def classify_men_class(g: FiniteGroup, members: tuple[int, ...]) -> MenClassRecord:
    """Classify one MEN class of power-graph vertices by the cyclic subgroups
    whose generator sets it merges; every class must fit one of the forms.

    Generator sets are peeled off the class one at a time, least member
    first, and the least generator of each is kept."""
    rest, generators = {v + 1 for v in members}, []
    while rest and (gens := g.gen_set(min(rest))) <= rest:
        generators.append(min(gens))
        rest -= gens
    if rest:  # not a union of generator sets
        generators = []
    chain = sorted(generators, key=g.element_order, reverse=True)
    if len(chain) == 1:
        return MenClassRecord(GENERATOR_CLASS, generator=chain[0])
    interval = _intervals(g, [chain])[0] if chain else None
    if interval is None:
        raise _unclassifiable(members)
    return MenClassRecord(CYCLIC_INTERVAL, interval=interval)


def _intervals(
    g: FiniteGroup, chains: Sequence[Sequence[int]]
) -> list[tuple[int, int, int, int] | None]:
    """Each chain's cyclic interval (a, p, t, n), or None where it is none.

    A chain lists the least generators of t >= 2 subgroups by decreasing
    order; it is an interval when the orders are p**n, ..., p**(n-t+1), each
    of index p in the one before, and every member is a power of the head
    a. Subgroups of the cyclic p-group <a> form a chain, so each member is
    then a power of the one before. One table of the powers of all heads
    decides every containment."""
    if not chains:
        return []
    heads = np.array([c[0] for c in chains], dtype=np.int32)
    rows = g.power_rows(heads, int(g.orders[heads].max()))
    owner = np.repeat(np.arange(len(chains)), list(map(len, chains)))
    inside = (rows[:, owner] == np.concatenate(chains)).any(axis=0).tolist()
    out: list[tuple[int, int, int, int] | None] = []
    end = 0
    for c in chains:
        start, end = end, end + len(c)
        orders = list(map(g.element_order, c))
        pp = is_prime_power(orders[0])
        ok = pp is not None and all(inside[start:end]) and all(
            a == pp[0] * b for a, b in zip(orders, orders[1:])
        )
        out.append((c[0], pp[0], len(c), pp[1]) if ok else None)
    return out


def _unclassifiable(members: Iterable[int]) -> InternalCheckError:
    return InternalCheckError(
        f"MEN class {sorted(members)} fits neither classification form; "
        "this falsifies a structural assumption the engine relies on"
    )


def reconstruct_order(g: FiniteGroup, mp: MenPartition, class_id: int) -> int:
    """Order of a maximum-order class element, rebuilt from class weights.

    The nontrivial part of that element's cyclic subgroup must be a disjoint
    union of whole MEN classes; summing their weights and adding one for the
    identity recovers the element order.
    """
    x_m = max((v + 1 for v in mp.classes[class_id]), key=g.element_order)
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

