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
        class_of = {v: cid for cid, members in enumerate(classes) for v in members}
        return cls(classes, tuple(class_of[v] for v in range(len(class_of))), tuple(weights))


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
    groups: dict[int, list[int]] = {}
    for v in range(wg.n):
        groups.setdefault(wg.closed_mask(v), []).append(v)
    # dict preserves first-seen order, so classes come out sorted by least member
    classes = tuple(tuple(vs) for vs in groups.values())
    return MenPartition.of(classes, (sum(wg.weights[v] for v in c) for c in classes))


def build_quotient(wg: WeightedGraph, mp: MenPartition) -> QuotientGraph:
    """Collapse classes to weighted nodes; adjacency must be cross-pair uniform.

    Node i's row is its class's first member's row, projected through
    `class_of`. Every member must have that member's row outside its own
    class; checked for every class, this makes each pair of classes all
    adjacent or all apart (a in class i and u in class j see each other
    exactly when the two first members do), so the projection is exact.

    A `QuotientGraph` whose partition is all singletons, node i alone in class
    i with its own weight, is returned as it is: the projection is then the
    identity and no class has a second member to check.
    """
    if (
        isinstance(wg, QuotientGraph)
        and mp.weights == wg.weights
        and mp.classes == tuple((v,) for v in range(wg.n))
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


def classify_men_class(
    g: FiniteGroup, members: tuple[int, ...], generators: Sequence[int] | None = None
) -> MenClassRecord:
    """Classify one MEN class of power-graph vertices by the cyclic subgroups
    whose generator sets it merges; every class must fit one of the forms.

    `generators`, the least generator of each merged subgroup, may be given
    where they are known (a class of the cyclic-subgroup graph's quotient);
    otherwise generator sets are peeled off the class one at a time."""
    if generators is None:
        rest, generators = {v + 1 for v in members}, []
        while rest and (gens := g.gen_set(min(rest))) <= rest:
            generators.append(min(gens))
            rest -= gens
        if rest:  # not a union of generator sets
            generators = []
    chain = sorted(generators, key=g.element_order, reverse=True)
    if len(chain) == 1:
        return MenClassRecord(GENERATOR_CLASS, generator=chain[0])
    # t >= 2 subgroups of orders p**n, ..., p**(n-t+1), each of index p in the one before
    pp = is_prime_power(g.element_order(chain[0])) if chain else None
    if pp is not None and all(
        g.element_order(a) == pp[0] * g.element_order(b) and b in g.cyclic_subgroup(a)
        for a, b in zip(chain, chain[1:])
    ):
        return MenClassRecord(CYCLIC_INTERVAL, interval=(chain[0], pp[0], len(chain), pp[1]))
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

