"""Power graphs on the nontrivial elements of a finite group, and their
cyclic-subgroup form.

Vertex v (0-based) stands for group element v + 1; the identity is excluded.
Two vertices are adjacent exactly when one element is a positive power of the
other, equivalently when one of the two cyclic subgroups contains the other.
A power graph is a unit-weight `WeightedGraph` (one int bitmask row per
vertex) that also carries its group, so the oracle and the quotient recursion
read it directly. Graphs are immutable after construction.

It is the containment graph of the nontrivial cyclic subgroups with each one
blown up to a clique of its generators; `cyclic_subgroup_graph` skips the
blow-up. It names each subgroup by its least generator and finds every
containment with one `power` call, on the (subgroup, divisor) pairs drawn
from the divisors of the group's exponent; only `build_power_graph` reads
rows of every power.
"""

from __future__ import annotations

from itertools import chain, starmap
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
        k = np.arange(2, m)[:, None]
        y = g.power(x, k)
        keep = (k < o) & ((orders[y] < o) | (y > x))
        yield (np.broadcast_to(x, y.shape)[keep] - 1).tolist(), (y[keep] - 1).tolist()
        lo = hi


def cyclic_subgroup_graph(g: FiniteGroup) -> QuotientGraph:
    """One node per nontrivial cyclic subgroup, ordered by least generator and
    weighted by phi(order); two nodes are adjacent when one subgroup contains
    the other. A node's members are its generators as power-graph vertices,
    passed on as the array `node_of` of each vertex's node.

    Every containment edge comes from one `power` call over all (subgroup,
    divisor) pairs: the subgroups inside <r> other than itself are the
    <r**d> for the divisors 1 < d < order(r), and every order divides the
    group's exponent, so the divisors of the exponent serve every node."""
    _require_nontrivial(g)
    n, orders, exponent = g.size, g.orders, g.exponent
    # least[x]: the least generator of <x>. The generators of <x> are its
    # images under the maps y -> y**k for the units k modulo the exponent,
    # and those maps are generated by the ones for unit_generators, so least
    # is the minimum over an orbit: one cycle minimum per generator, by
    # pointer doubling, as a cycle is shorter than the exponent. A round that
    # lowers nothing leaves least[x] <= least[f(x)] for the round's map f,
    # and so for every later round's map, a power of f: no later round
    # changes anything, and the doubling stops.
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
    # the pairs (r, d) with d such a divisor, divisor by divisor, each one's
    # r**d the lower end of one edge; a prime exponent leaves no such d
    edges: Iterable[tuple[int, int]] = ()
    if divs := divisors(exponent)[1:-1]:
        d = np.array(divs, dtype=np.int32)[:, None]
        i, at = np.nonzero((node_orders % d == 0) & (node_orders > d))
        edges = zip(at.tolist(), node_of[g.power(reps[at], d[i, 0])].tolist())
    return QuotientGraph(node_of[1:], edges, np.bincount(node_of[1:]).tolist())
