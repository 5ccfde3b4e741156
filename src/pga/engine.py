"""Structural computation of power-graph automorphism groups.

The full automorphism group of a power graph splits over the MEN quotient: a
quotient automorphism part times one symmetric group per class (elements of a
class are interchangeable). The quotient part is computed by one recursion on
node sets of the quotient, under its one stable colouring:

  * the connected components of a node set are grouped by the certificate
    the recursion computes for each; each group of m copies contributes the
    wreath product of one copy's group by Sym(m);
  * inside a component, every node alone in its colour cell is fixed by
    every automorphism (equitable-partition cells are Aut-invariant), and
    the recursion goes on with the node set of the rest;
  * only a component with no singleton cell, a leaf, is built as a graph,
    weighted by colour, and brute-forced by the oracle once per isomorphism
    class, for a factor known by its order alone (`Opaque`).

An isolated node's certificate is its colour, a leaf's its sorted colours
with the index of its isomorphism class among the leaves of those colours
met so far (the only graphs `find_isomorphism` compares), and any other
component's the sorted colours of its singleton cells with the certificate
of its rest: the multiset of the rest's components' certificates. Two
components of one node set with equal certificates are isomorphic under
the colours. Each singleton colour occurs once in a component and the
colouring is equitable, so colours fix every edge at a singleton; and the
rest's edges lie in its components, which match by induction. Every step is
isomorphism-invariant, so the converse holds. This is the canonical-form
test for trees (Aho, Hopcroft and Ullman, 1974), with colour refinement in
place of rooting.

Only the top level refines. The colouring restricted to a component is the
component's own stable colouring, because a node's stable colour depends
only on the weights and degrees met on walks from it, and walks stay inside
its component. A component's rest is equitable under the same colours (each
of its cells meets each other cell as it did before the singletons went), so
they are its stable colouring as they stand, and they carry what was
stripped: a colour fixes a node's weight and its adjacency to each singleton
cell, so under them the rest has the component's automorphisms. At the top,
a leaf's colours give it the automorphisms and isomorphisms its weights
give: those extend to automorphisms of the quotient, which keep the colours.

`analyze` classifies the spec once. A coprime direct product, of at least
two nontrivial factors, each cyclic or of prime-power order, whose order has
two or more primes, takes a closed form for the quotient part; every other
spec, a cyclic or homocyclic one included, takes the recursion. The closed
form is checked in `analyze` itself: its quotient order must be the generic
recursion's (a recursion that meets a cap skips this comparison and says so
in a note). On both routes, `_make_report` checks that normalizing keeps the
order, against the quotient order `analyze` evaluated. A coprime product's
quotient part multiplies over the prime powers p**e exactly dividing |G|: the
quotient's classes whose order divides p**e span the Sylow p-subgroup's own
cyclic-subgroup graph, some closed twins already merged, so each factor is
the recursion on that subgraph's MEN quotient (the subgraph itself when it
has no closed twins). `verify` compares against the brute-force oracle.

Each spec realizes one group, and its pipeline, the group and its weighted
MEN quotient, is built once, by `pipeline`, and passed to every route; the
report carries it, so `verify` and the CLI export reuse it. The quotient is
the graph of cyclic subgroups, its closed twins merged when it has any; the
power graph is built on first use of `Pipeline.pg`, and the quotient must
be its MEN quotient, edges included. The classes travel as one integer
array, each power-graph vertex's quotient node (`QuotientGraph.node_of`),
numbered by least member, and every reader here takes them from it:
`analyze` and `verify` build no tuple of members (`QuotientGraph.members` is
built on first read, by the class table or a library caller).

Every report says how each MEN class arises: as the generator set of one
cyclic subgroup, or as an interval of the subgroup chain of a cyclic
p-group. `analyze` classifies every class (`_classify_classes`, from one
stable sort of the vertex-to-node array, and one `lexsort` that gives every
mixed class's subgroup chain), and a class of neither form fails it with an
InternalCheckError. The table of classes,
`AutReport.classes`, is built from those kinds on its first read
(`_class_table`), and so are a direct product's element labels: a caller
that reads only the expression and the order builds neither.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InternalCheckError
from .expr import (
    GroupExpr,
    Opaque,
    Product,
    Sym,
    Trivial,
    Wreath,
    decimal,
    expr_normalize,
    expr_order,
    render_expr,
)
from .groups import (
    AbelianSpec,
    CyclicSpec,
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupSpec,
    HomocyclicSpec,
    ProductSpec,
    factorize,
    is_prime_power,
    parse_group_spec,
    realize,
    spec_order,
)
from .oracle import (
    CapExceeded,
    OracleCaps,
    WeightedGraph,
    _induced,
    _iter_bits,
    connected_components,
    count_automorphisms,
    find_isomorphism,
    stable_colors,
)
from .powergraph import PowerGraph, build_power_graph, cyclic_subgroup_graph
from .quotient import QuotientGraph, build_quotient, men_partition

METHOD_COPRIME = "coprime-factors"
METHOD_GENERIC = "quotient-recursion"


@dataclass(frozen=True)
class Pipeline:
    """One group and everything derived from it that the engine reads."""

    g: FiniteGroup
    q: QuotientGraph  # one node per MEN class, its members power-graph vertices

    @cached_property
    def pg(self) -> PowerGraph:
        """The power graph, built on first use; `q` must be its MEN quotient."""
        pg = build_power_graph(self.g)
        _check_men_quotient(pg, self.q)
        return pg


def _check_men_quotient(pg: PowerGraph, q: QuotientGraph) -> None:
    """An InternalCheckError unless q is pg's MEN quotient, edges included: each node
    weighs its member count, nodes are numbered by least member, no two are closed twins,
    and every vertex's closed row in pg is its node's in q, each node replaced by its members."""
    node_of = q.node_of.tolist()
    masks = [0] * q.n  # each node's members
    for v, i in enumerate(node_of):
        masks[i] |= 1 << v
    # each node's closed row, blown up (the masks are disjoint: their sum is their union)
    closed = [m + sum(map(masks.__getitem__, _iter_bits(r))) if r else m for m, r in zip(masks, q.adj)]
    linked = [row | 1 << i for i, row in enumerate(q.adj) if row]  # closed twins are adjacent
    if [m.bit_count() for m in masks] != list(q.weights):
        problem = "a node's weight is not its member count"
    elif list(dict.fromkeys(node_of)) != list(range(q.n)):
        problem = "its nodes are not numbered by least member"
    elif len(set(linked)) != len(linked):
        problem = "two of its nodes are closed twins"
    elif any(row | 1 << v != closed[i] for v, (row, i) in enumerate(zip(pg.adj, node_of))):
        problem = "the power graph is not its blow-up"
    else:
        return
    raise InternalCheckError(f"the quotient is not the power graph's MEN quotient: {problem}")


def pipeline(g: FiniteGroup) -> Pipeline:
    """A group and its weighted MEN quotient, from its cyclic subgroups."""
    return Pipeline(g, _men_quotient(cyclic_subgroup_graph(g)))


def _men_quotient(wg: WeightedGraph) -> WeightedGraph:
    """wg's MEN quotient: wg itself when no two of its nodes are closed twins."""
    mp = men_partition(wg)
    return wg if len(mp.weights) == wg.n else build_quotient(wg, mp)


class ClassSummary(NamedTuple):
    """How one MEN class arises: its members, weight, largest element order
    and kind (`GENERATOR_CLASS` or `CYCLIC_INTERVAL`). `analyze` decides
    every class's kind; a report builds its summaries on the first read of
    `AutReport.classes`."""

    members: tuple[str, ...]  # element labels, ascending element id
    weight: int
    element_order: int  # largest order over the class
    kind: str


@dataclass(frozen=True)
class Verification:
    status: str  # "full-verified" | "quotient-verified" | "mismatch" | "skipped"
    structural_order: int
    oracle_order: int | None
    detail: str


@dataclass(frozen=True)
class AutReport:
    """The automorphism group of a spec's power graph, as `expression` and
    `order`, with the quotient it came from and the pipeline that built it.

    `analyze` classifies every MEN class, so a class of neither form fails
    the call itself; only the kinds are kept. The class table, `classes`,
    is built from `pipeline` on its first read, and so are the element
    labels of a direct product; a caller that reads neither never builds
    them."""

    spec: str
    group_order: int
    vertex_count: int
    quotient_nodes: int
    quotient_edges: int
    quotient_expr: GroupExpr
    expression: GroupExpr
    expression_str: str
    order: int
    method: str
    notes: tuple[str, ...]
    verification: Verification
    pipeline: Pipeline = field(repr=False, compare=False)
    _kinds: tuple[str, ...] = field(repr=False, compare=False)  # each class's kind

    @cached_property
    def classes(self) -> tuple[ClassSummary, ...]:
        """One summary per MEN class, in the quotient's node order."""
        return _class_table(self.pipeline, self._kinds)


# ---------------------------------------------------------------------------
# generic quotient recursion


def quotient_aut(wg: WeightedGraph, caps: OracleCaps | None = None) -> GroupExpr:
    """Automorphism group of a weighted graph, as an expression.

    Components are grouped by their certificates; each group of m copies
    contributes the wreath product of one copy's group by Sym(m), and
    distinct groups multiply directly. The graph is colour-refined once,
    here; every deeper level is a node set of it, under the same colours.
    """
    return _quotient_aut(wg, None, stable_colors(wg), caps or OracleCaps(), {})[1]


def _quotient_aut(
    wg: WeightedGraph, nodes: list[int] | None, colors: Sequence[int], caps: OracleCaps, leaves: dict
) -> tuple[object, GroupExpr]:
    """(certificate, group) of the node set `nodes` of wg, ascending (None
    for all of wg), under wg's stable colouring `colors`; `leaves` maps
    sorted colours to the (leaf, group) classes met so far."""
    groups: dict[object, list] = {}  # certificate -> [one copy's group, copies]
    trivial = Trivial()
    for comp in connected_components(wg, nodes):
        if len(comp) == 1:  # an isolated node (most of Z(2)^10's quotient): its colour
            cert, group = colors[comp[0]], trivial
        else:
            cert, group = _component_aut(wg, comp, colors, caps, leaves)
        if cert in groups:
            groups[cert][1] += 1
        else:
            groups[cert] = [group, 1]
    factors = tuple(Wreath(group, Sym(copies)) for group, copies in groups.values())
    cert = frozenset((c, copies) for c, (_, copies) in groups.items())
    return cert, expr_normalize(Product(factors))


def _component_aut(
    wg: WeightedGraph, comp: list[int], colors: Sequence[int], caps: OracleCaps, leaves: dict
) -> tuple[object, GroupExpr]:
    """(certificate, group) of a connected node set of wg, the ascending
    `comp` of two or more nodes; its rest is a smaller node set."""
    cs = [colors[v] for v in comp]
    cell_size = Counter(cs)
    fixed = tuple(sorted(c for c in cs if cell_size[c] == 1))
    if not fixed:  # a leaf: nothing is known to be fixed
        key = tuple(sorted(cs))
        seen = leaves.setdefault(key, [])
        cg = _induced(wg, comp, [c + 1 for c in cs])
        for i, (other, group) in enumerate(seen):
            if find_isomorphism(other, cg, caps) is not None:
                return (key, i), group
        try:
            seen.append((cg, Opaque(count_automorphisms(cg, caps))))
        except CapExceeded as exc:
            raise CapExceeded(
                f"order-only unavailable: a {cg.n}-node component needs brute force ({exc})"
            ) from exc
        return (key, len(seen) - 1), seen[-1][1]
    rest = [v for v, c in zip(comp, cs) if cell_size[c] > 1]  # cells of two or more
    if not rest:  # every node is fixed (each component of Sym(5)'s quotient)
        return (fixed, frozenset()), Trivial()
    rest_cert, group = _quotient_aut(wg, rest, colors, caps, leaves)
    return (fixed, rest_cert), group


# ---------------------------------------------------------------------------
# report assembly

# how a MEN class arises: as the generator set of one cyclic subgroup, or as
# an interval of the subgroup chain of a cyclic group of prime-power order
GENERATOR_CLASS = "generator-class"
CYCLIC_INTERVAL = "cyclic-interval"


def _intervals(
    g: FiniteGroup, members: np.ndarray, orders: np.ndarray, head: np.ndarray
) -> np.ndarray:
    """Whether each chain is a cyclic interval.

    `members` lists the chains one after another, head[i] marking the first
    member of each; a chain holds the least generators of t >= 2 subgroups
    by decreasing order, and `orders` holds their element orders. A chain
    is an interval when the orders are p**n, ..., p**(n-t+1), each of index
    p in the one before, and every member is a power of the head a, the
    class then being <a> minus <a**(p**t)>. Subgroups of the cyclic p-group
    <a> form a chain, so each member is then a power of the one before. One
    table of the powers of all heads decides every containment."""
    starts = np.flatnonzero(head)
    owner = np.cumsum(head) - 1
    rows = g.power_rows(members[starts], int(orders[starts].max()))
    ok = (rows[:, owner] == members).any(axis=0)
    # each member's order is p times the next one's in its chain, p the prime
    # of the head's order (0 when that is no prime power, which fails them all)
    prime = np.array([(pp or (0,))[0] for pp in map(is_prime_power, orders[starts].tolist())])
    ok[:-1] &= head[1:] | (orders[:-1] == prime[owner[:-1]] * orders[1:])
    return np.logical_and.reduceat(ok, starts)


def _classify_classes(p: Pipeline) -> tuple[str, ...]:
    """Each MEN class's kind; a class of neither form is an InternalCheckError."""
    g, node_of = p.g, p.q.node_of
    # a class is pairwise adjacent, and two elements of one order are adjacent
    # only when they generate one subgroup: so a class is a union of generator
    # sets of pairwise distinct orders. A class of one order is a generator
    # set; a mixed class's least member of each order is that subgroup's least
    # generator, and those classify it. The vertices by node, ascending within
    # a class, come from one stable sort
    sizes = np.bincount(node_of, minlength=p.q.n)
    starts = np.cumsum(sizes) - sizes
    vertices = np.argsort(node_of, kind="stable")
    orders = g.orders[vertices + 1]
    kinds = [GENERATOR_CLASS] * p.q.n
    is_mixed = np.minimum.reduceat(orders, starts) != np.maximum.reduceat(orders, starts)
    if not is_mixed.any():
        return tuple(kinds)
    # the mixed classes' members by class, then by decreasing order, each
    # order's least member first (lexsort is stable): the first of each
    # (class, order) run is that subgroup's least generator
    at = np.flatnonzero(np.repeat(is_mixed, sizes))
    cls, o = node_of[vertices[at]], orders[at]
    by = np.lexsort((-o, cls))
    at, cls, o = at[by], cls[by], o[by]
    head, first = np.ones((2, len(at)), dtype=bool)
    head[1:] = cls[1:] != cls[:-1]
    first[1:] = head[1:] | (o[1:] != o[:-1])
    members = vertices[at[first]] + 1
    for c, interval in zip(cls[head].tolist(), _intervals(g, members, o[first], head[first]).tolist()):
        if not interval:
            raise InternalCheckError(
                f"MEN class {np.flatnonzero(node_of == c).tolist()} fits neither classification form; "
                "this falsifies a structural assumption the engine relies on"
            )
        kinds[c] = CYCLIC_INTERVAL
    return tuple(kinds)


def _class_table(p: Pipeline, kinds: Sequence[str]) -> tuple[ClassSummary, ...]:
    """One summary per MEN class, of the kinds `_classify_classes` gave, read
    straight from its members: vertex v is element v + 1."""
    order, label = p.g.orders[1:].tolist().__getitem__, p.g.labels[1:].__getitem__
    return tuple(
        ClassSummary(tuple(map(label, c)), len(c), max(map(order, c)), kind)
        for c, kind in zip(p.q.members, kinds)
    )


def _make_report(
    p: Pipeline, quotient_expr: GroupExpr, quotient_order: int, method: str,
    notes: Sequence[str],
) -> AutReport:
    """The quotient part, of order `quotient_order`, times one symmetric group
    per class, checked, with every class classified."""
    qe = expr_normalize(quotient_expr)
    weights = [w for w in p.q.weights if w > 1]  # Sym(1) is trivial
    expression = expr_normalize(Product((qe, *map(Sym, weights))))
    order = expr_order(expression)
    if order != quotient_order * math.prod(map(math.factorial, weights)):
        raise InternalCheckError("normalization changed the expression order")
    return AutReport(
        spec=p.g.description,
        group_order=p.g.size,
        vertex_count=p.g.size - 1,
        quotient_nodes=p.q.n_nodes,
        quotient_edges=p.q.edge_count,
        quotient_expr=qe,
        expression=expression,
        expression_str=render_expr(expression),
        order=order,
        method=method,
        notes=tuple(notes),
        verification=Verification(
            status="skipped", structural_order=order, oracle_order=None,
            detail="verification not requested",
        ),
        pipeline=p,
        _kinds=_classify_classes(p),
    )


# ---------------------------------------------------------------------------
# spec-driven dispatch


def _leaf_specs(spec: GroupSpec) -> list[GroupSpec]:
    if isinstance(spec, ProductSpec):
        return _leaf_specs(spec.left) + _leaf_specs(spec.right)
    if isinstance(spec, AbelianSpec):
        return [CyclicSpec(d) for d in spec.orders]
    if isinstance(spec, HomocyclicSpec):
        return [CyclicSpec(spec.q)] * spec.copies
    return [spec]


def _coprime_part(gspec: GroupSpec, p: Pipeline, caps: OracleCaps) -> GroupExpr | None:
    """The coprime route's quotient part, or None when the spec is not a
    direct product of at least two nontrivial factors, each cyclic or of
    prime-power order, whose order has two or more primes. Such a group is
    the direct product of its Sylow subgroups, one per prime power p**e
    exactly dividing |G|."""
    leaves = _leaf_specs(gspec)
    prime_powers = [prime**e for prime, e in factorize(p.g.size).items()]
    if len(prime_powers) < 2 or sum(spec_order(leaf) > 1 for leaf in leaves) < 2 or not all(
        isinstance(leaf, CyclicSpec) or is_prime_power(spec_order(leaf)) for leaf in leaves
    ):
        return None
    # a class's orders are powers of one prime or a single order, so any of
    # its members' orders divides p**e just when the class lies in the Sylow
    # p-subgroup, and each node may take whichever member's order lands on
    # it. Those classes span that subgroup's own cyclic-subgroup graph
    # with some closed twins merged; twins stay twins in an induced subgraph,
    # so the MEN quotient is the Sylow subgroup's. The quotient part
    # multiplies over the primes
    node_orders = np.empty(p.q.n, dtype=p.g.orders.dtype)
    node_orders[p.q.node_of] = p.g.orders[1:]
    subs = [p.q.subgraph(np.flatnonzero(pe % node_orders == 0).tolist()) for pe in prime_powers]
    return Product(tuple(quotient_aut(_men_quotient(s), caps) for s in subs))


def analyze(
    spec: GroupSpec | str,
    caps: OracleCaps | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> AutReport:
    """Full structural analysis of the power graph of the group a spec names.

    A coprime product takes the coprime route: it recurses, for each prime
    power p**e exactly dividing |G|, on the quotient's classes whose order
    divides p**e, and its quotient order must be the generic recursion's,
    unless the recursion meets a cap, which skips the comparison with a note.
    Every other spec gets the generic recursion. Either way the quotient
    order is evaluated once, and `_make_report` checks the normalized
    expression against it."""
    gspec = parse_group_spec(spec) if isinstance(spec, str) else spec
    caps = caps or OracleCaps()
    p = pipeline(realize(gspec, max_order=max_order))
    coprime = _coprime_part(gspec, p, caps)
    if coprime is None:
        generic = quotient_aut(p.q, caps)
        return _make_report(p, generic, expr_order(generic), METHOD_GENERIC, ())
    order = expr_order(coprime)
    try:
        generic_order = expr_order(quotient_aut(p.q, caps))
    except CapExceeded as exc:
        note = f"cross-check skipped: {exc}"
    else:
        if generic_order != order:
            raise InternalCheckError(
                f"closed form gives quotient order {decimal(order)} but the "
                f"recursive decomposition gives {decimal(generic_order)}"
            )
        note = f"cross-check: recursive quotient decomposition agrees (order {decimal(order)})"
    return _make_report(p, coprime, order, METHOD_COPRIME, (note,))


def verify(
    spec: GroupSpec | str,
    caps: OracleCaps | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> AutReport:
    """Analyze, then check the structural order against the oracle.

    The oracle runs on the pipeline the analysis built (`report.pipeline`).

    The full power graph is compared when it fits the node cap, and otherwise
    the quotient (the per-class factorial part is definitional). If neither
    fits, the verdict is unavailable and CapExceeded propagates.
    """
    caps = caps or OracleCaps()
    report = analyze(spec, caps, max_order)
    n, q, cap = report.vertex_count, report.pipeline.q, caps.max_nodes
    if n <= cap:
        graph, expected, kind = report.pipeline.pg, report.order, "full"
        detail = f"full power graph on {n} vertices"
    else:
        reason = f"full graph infeasible ({n} vertices, structural order {decimal(report.order)})"
        expected = expr_order(report.quotient_expr)
        if q.n_nodes > cap:
            raise CapExceeded(f"{reason}; quotient has {q.n_nodes} nodes, above the cap of {cap}")
        graph, kind = q, "quotient"
        detail = f"{reason}; quotient on {q.n_nodes} nodes compared instead"
    oracle_order = count_automorphisms(graph, caps)
    status = f"{kind}-verified" if oracle_order == expected else "mismatch"
    return dataclasses.replace(
        report, verification=Verification(status, expected, oracle_order, detail)
    )
