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

import math
from itertools import accumulate, chain, starmap
from typing import Iterable, Iterator

import numpy as np

from .groups import FiniteGroup, divisors, unit_generators
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

    def element_of(self, v: int) -> int:
        return v + 1

    def to_weighted_graph(self) -> WeightedGraph:
        return self


def _require_nontrivial(g: FiniteGroup) -> None:
    if g.size < 2:
        raise ValueError("the power graph is defined on nontrivial elements; the trivial group has none")


def build_power_graph(g: FiniteGroup) -> PowerGraph:
    """Adjacency from cyclic-subgroup membership; rejects the trivial group."""
    _require_nontrivial(g)
    return PowerGraph(g, chain.from_iterable(starmap(zip, _power_edge_blocks(g))))


def _power_edge_blocks(g: FiniteGroup) -> Iterator[tuple[list[int], list[int]]]:
    """Every edge once, in blocks of their two vertex lists: x with each power
    y = x**k other than x and the identity (2 <= k < order(x)). y is in <x>,
    and x is in <y> only when y has x's order, so such a pair is kept from
    its lesser end only.

    The elements are taken by increasing order, as many at once as give
    about 2**12 powers, and the edges are streamed: a list of all of them
    would hold hundreds of thousands of tuples at once (443,817 edges for
    Z(1000))."""
    orders = g.orders
    by_order = np.argsort(orders, kind="stable").astype(np.int32)
    sorted_orders = orders[by_order]
    lo = int(np.searchsorted(sorted_orders, 3))  # orders 1 and 2 have no such powers
    while lo < g.size:
        # the powers of by_order[lo:hi] up to the largest order among them
        cost = sorted_orders[lo:] * np.arange(1, g.size - lo + 1)
        hi = lo + max(1, int(np.searchsorted(cost, 2**12, side="right")))
        x, o, m = by_order[lo:hi], sorted_orders[lo:hi], int(sorted_orders[hi - 1])
        y = g.power_rows(x, m - 1)[2:]
        keep = (np.arange(2, m)[:, None] < o) & ((orders[y] < o) | (y > x))
        yield (np.broadcast_to(x, y.shape)[keep] - 1).tolist(), (y[keep] - 1).tolist()
        lo = hi


def cyclic_subgroup_graph(g: FiniteGroup) -> QuotientGraph:
    """One node per nontrivial cyclic subgroup, ordered by least generator and
    weighted by phi(order); two nodes are adjacent when one subgroup contains
    the other. A node's members are its generators as power-graph vertices."""
    _require_nontrivial(g)
    n, orders = g.size, g.orders
    # least[x]: the least generator of <x>. The generators of <x> are its
    # images under the maps y -> y**k for the units k modulo the exponent
    # (the lcm of the element orders), and those maps are generated by the
    # ones for unit_generators, so least is the minimum over an orbit: one
    # cycle minimum per generator, by pointer doubling, as a cycle is shorter
    # than the exponent. A round that lowers nothing leaves least[x] <=
    # least[f(x)] for the round's map f, and so for every later round's map,
    # a power of f: no later round changes anything, and the doubling stops.
    exponent = math.lcm(*set(orders.tolist()))
    least = np.arange(n, dtype=np.int32)
    for u in unit_generators(exponent):
        step = g.power(np.arange(n, dtype=np.int32), u)
        for _ in range(exponent.bit_length()):
            lower = least[step]
            if not (lower < least).any():
                break
            np.minimum(least, lower, out=least)
            step = step[step]
    reps = np.flatnonzero(least == np.arange(n))[1:].astype(np.int32)
    node_of, node_orders = np.searchsorted(reps, least), orders[reps]
    # the nontrivial subgroups of <r> other than itself are the <r**d> for the
    # divisors 1 < d < order(r), read off one table of powers of the nodes
    # that have such a divisor
    divs = sorted({d for o in set(node_orders.tolist()) for d in divisors(o)[1:-1]})
    edges: Iterable[tuple[int, int]] = ()
    if divs:
        d = np.array(divs, dtype=np.intp)[:, None]
        has = (node_orders % d == 0) & (node_orders > d)  # has[i, r]: divs[i] is such a d for r
        inner = np.flatnonzero(has.any(axis=0))
        i, at = np.nonzero(has[:, inner])
        powers = g.power_rows(reps[inner], divs[-1])
        edges = zip(inner[at].tolist(), node_of[powers[d[i, 0], at]].tolist())
    vertices = tuple(np.argsort(node_of[1:], kind="stable").tolist())  # grouped by node, ascending
    sizes = np.bincount(node_of[1:]).tolist()
    ends = list(accumulate(sizes))
    members = tuple(map(vertices.__getitem__, map(slice, [0, *ends], ends)))
    return QuotientGraph(members, edges, sizes)
