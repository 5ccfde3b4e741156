"""Structural computation of power-graph automorphism groups.

The full automorphism group of a power graph splits over the MEN quotient: a
quotient automorphism part times one symmetric group per class (elements of a
class are interchangeable). The quotient part is computed recursively —
connected components are grouped by weighted-graph isomorphism, each class
contributes a wreath product by the symmetric group permuting its copies, and
a component with a unique dominating node loses that node and recurses —
with closed forms for cyclic, homocyclic and coprime-product groups
dispatched from the spec structure. Every closed form is cross-checked
against the generic recursion, and `verify` compares against the brute-force
oracle.

Each spec's pipeline (group, power graph, MEN partition and quotient) is
built once, by `pipeline`, and passed to every route; the report carries it,
so `verify` and the CLI export reuse it instead of rebuilding it. The power
graph and the quotient are both `WeightedGraph`s, so the recursion and the
oracle read them as they are.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InternalCheckError
from .expr import (
    DIRECT,
    UNSPECIFIED_EXTENSION,
    GroupExpr,
    Opaque,
    Product,
    Sym,
    Trivial,
    Wreath,
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
    divisors,
    factorize,
    is_prime_power,
    parse_group_spec,
    realize,
    spec_order,
    totient,
)
from .oracle import (
    CapExceeded,
    OracleCaps,
    WeightedGraph,
    connected_components,
    count_automorphisms,
    find_isomorphism,
)
from .powergraph import PowerGraph, build_power_graph
from .quotient import (
    MenPartition,
    QuotientGraph,
    build_quotient,
    classify_men_class,
    men_partition,
)

METHOD_COMPLETE = "complete-graph"
METHOD_CYCLIC = "cyclic-divisors"
METHOD_HOMOCYCLIC = "homocyclic-wreath"
METHOD_COPRIME = "coprime-factors"
METHOD_GENERIC = "quotient-recursion"


@dataclass(frozen=True)
class Pipeline:
    """One group and everything derived from it that the engine reads."""

    g: FiniteGroup
    pg: PowerGraph
    mp: MenPartition
    q: QuotientGraph


def pipeline(g: FiniteGroup) -> Pipeline:
    """Power graph, MEN partition and weighted quotient of a group, built once."""
    pg = build_power_graph(g)
    mp = men_partition(pg)
    return Pipeline(g, pg, mp, build_quotient(pg, mp))


@dataclass(frozen=True)
class ClassSummary:
    members: tuple[str, ...]  # element labels, ascending element id
    member_elements: tuple[int, ...]
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
    spec: str
    group_order: int
    vertex_count: int
    classes: tuple[ClassSummary, ...]
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


# ---------------------------------------------------------------------------
# closed forms


def aut_cyclic_formula(n: int) -> GroupExpr:
    """Product of symmetric groups over totients of the divisors > 1 of n.

    Valid for cyclic groups whose order has at least two distinct prime
    factors (otherwise the power graph is complete and the automorphism group
    is a single symmetric group)."""
    if len(factorize(n)) < 2:
        raise ValueError(
            f"{n} is a prime power; the power graph is complete, use aut_prime_power_cyclic"
        )
    return Product(tuple(Sym(totient(d)) for d in divisors(n) if d > 1), DIRECT)


def aut_prime_power_cyclic(p: int, m: int) -> GroupExpr:
    """Complete power graph on p**m - 1 vertices: one symmetric group."""
    if is_prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("exponent must be positive")
    return Sym(p**m - 1)


def _homocyclic_parts(
    p: int, m: int, copies: int
) -> tuple[GroupExpr, list[GroupExpr]]:
    n = copies
    r: list[int] = []
    for t in range(1, m + 1):
        num = p ** (t * n) - p ** ((t - 1) * n)
        den = p**t - p ** (t - 1)
        if num % den:
            raise InternalCheckError(f"class count r_{t} is not integral for ({p},{m},{n})")
        r.append(num // den)
    k = [r[0]]
    for i in range(1, m):
        if r[i] % r[i - 1]:
            raise InternalCheckError(f"branching k_{i + 1} is not integral for ({p},{m},{n})")
        k.append(r[i] // r[i - 1])
    nested: GroupExpr = Sym(k[m - 1])
    for i in range(m - 2, -1, -1):
        nested = Wreath(nested, Sym(k[i]))
    factorial_part: list[GroupExpr] = []
    for t in range(1, m + 1):
        factorial_part.extend([Sym(p**t - p ** (t - 1))] * r[t - 1])
    return nested, factorial_part


def aut_homocyclic_formula(p: int, m: int, copies: int) -> GroupExpr:
    """Nested wreath tower times per-class symmetric groups for Z(p**m)^copies."""
    if is_prime_power(p) != (p, 1):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("exponent must be positive")
    if copies < 2:
        raise ValueError("a homocyclic group has at least two factors")
    nested, factorial_part = _homocyclic_parts(p, m, copies)
    return Product((nested, *factorial_part), UNSPECIFIED_EXTENSION)


# ---------------------------------------------------------------------------
# generic quotient recursion


def quotient_aut(wg: WeightedGraph, caps: OracleCaps | None = None) -> GroupExpr:
    """Automorphism group of a weighted graph, as an expression.

    Components are grouped by isomorphism (certified by the oracle); each
    group of m isomorphic components contributes the wreath product of one
    component's group by Sym(m), and distinct groups multiply directly.
    """
    caps = caps or OracleCaps()
    groups: list[tuple[WeightedGraph, int]] = []
    for comp in connected_components(wg):
        sub = wg.subgraph(comp)
        for i, (rep, count) in enumerate(groups):
            if find_isomorphism(rep, sub, caps) is not None:
                groups[i] = (rep, count + 1)
                break
        else:
            groups.append((sub, 1))
    factors = tuple(
        Wreath(_component_aut(rep, caps), Sym(count)) for rep, count in groups
    )
    return expr_normalize(Product(factors, DIRECT))


def _component_aut(cg: WeightedGraph, caps: OracleCaps) -> GroupExpr:
    if cg.n == 1:
        return Trivial()
    full = (1 << cg.n) - 1
    dominating = [v for v in range(cg.n) if cg.closed_mask(v) == full]
    if len(dominating) == 1:
        # the unique dominating node is fixed by every automorphism
        return quotient_aut(cg.without(dominating[0]), caps)
    try:
        return Opaque(count_automorphisms(cg, caps))
    except CapExceeded as exc:
        raise CapExceeded(
            f"order-only unavailable: a {cg.n}-node component needs brute force ({exc})"
        ) from exc


# ---------------------------------------------------------------------------
# report assembly


def _summarize_classes(p: Pipeline) -> tuple[ClassSummary, ...]:
    g = p.g
    out = []
    for members in p.mp.classes:
        elements = tuple(v + 1 for v in members)
        record = classify_men_class(g, p.pg, members)
        out.append(
            ClassSummary(
                members=tuple(g.labels[e] for e in elements),
                member_elements=elements,
                weight=len(members),
                element_order=max(g.element_order(e) for e in elements),
                kind=record.kind,
            )
        )
    return tuple(out)


def _make_report(
    p: Pipeline,
    full_expr: GroupExpr,
    quotient_expr: GroupExpr,
    method: str,
    notes: Sequence[str],
) -> AutReport:
    expression = expr_normalize(full_expr)
    order = expr_order(expression)
    if order != expr_order(full_expr):
        raise InternalCheckError("normalization changed the expression order")
    factorial_part = math.prod(math.factorial(w) for w in p.mp.weights)
    if order != expr_order(quotient_expr) * factorial_part:
        raise InternalCheckError(
            f"order {order} does not factor as quotient part "
            f"{expr_order(quotient_expr)} times class factorials {factorial_part}"
        )
    return AutReport(
        spec=p.g.description,
        group_order=p.g.size,
        vertex_count=p.pg.n_vertices,
        classes=_summarize_classes(p),
        quotient_nodes=p.q.n_nodes,
        quotient_edges=p.q.edge_count,
        quotient_expr=expr_normalize(quotient_expr),
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
    )


def _cross_check(
    p: Pipeline, caps: OracleCaps, expected_quotient_order: int, notes: list[str]
) -> None:
    """Every closed form must agree with the generic quotient recursion."""
    try:
        generic = quotient_aut(p.q, caps)
    except CapExceeded as exc:
        notes.append(f"cross-check skipped: {exc}")
        return
    if expr_order(generic) != expected_quotient_order:
        raise InternalCheckError(
            f"closed form gives quotient order {expected_quotient_order} but the "
            f"recursive decomposition gives {expr_order(generic)}"
        )
    notes.append(
        f"cross-check: recursive quotient decomposition agrees (order {expected_quotient_order})"
    )


def aut_full(
    p: Pipeline,
    caps: OracleCaps | None = None,
    *,
    method: str = METHOD_GENERIC,
    quotient_expr: GroupExpr | None = None,
    notes: Sequence[str] = (),
) -> AutReport:
    """Quotient automorphisms times one symmetric group per class."""
    caps = caps or OracleCaps()
    qe = quotient_expr if quotient_expr is not None else quotient_aut(p.q, caps)
    full = Product((qe, *(Sym(w) for w in p.mp.weights)), UNSPECIFIED_EXTENSION)
    return _make_report(p, full, qe, method, notes)


# ---------------------------------------------------------------------------
# dispatched analyses


def aut_abelian(
    p: Pipeline, invariants: Sequence[int], caps: OracleCaps | None = None
) -> AutReport:
    """Dispatch an abelian group given as a product of cyclic factors."""
    caps = caps or OracleCaps()
    g, mp = p.g, p.mp
    if not g.is_abelian:
        raise ValueError("group is not abelian")
    invariants = [int(d) for d in invariants if int(d) > 1]
    if math.prod(invariants, start=1) != g.size:
        raise ValueError("invariant factors do not multiply to the group order")
    notes: list[str] = []

    if len(invariants) == 1:
        n = invariants[0]
        pp = is_prime_power(n)
        if pp is not None:
            full: GroupExpr = aut_prime_power_cyclic(*pp)
            method = METHOD_COMPLETE
            expected_weights = [n - 1]
        else:
            full = aut_cyclic_formula(n)
            method = METHOD_CYCLIC
            expected_weights = [totient(d) for d in divisors(n) if d > 1]
        if sorted(mp.weights) != sorted(expected_weights):
            raise InternalCheckError(
                f"class weights {sorted(mp.weights)} do not match the cyclic "
                f"closed form {sorted(expected_weights)}"
            )
        _cross_check(p, caps, 1, notes)
        return _make_report(p, full, Trivial(), method, notes)

    common = set(invariants)
    primes = {prime for d in invariants for prime in factorize(d)}
    if len(common) == 1 and is_prime_power(invariants[0]) is not None:
        prime, m = is_prime_power(invariants[0])  # type: ignore[misc]
        nested, factorial_part = _homocyclic_parts(prime, m, len(invariants))
        expected = sorted(s.n for s in factorial_part if isinstance(s, Sym))
        if sorted(mp.weights) != expected:
            raise InternalCheckError(
                f"class weights {sorted(mp.weights)} do not match the homocyclic "
                f"closed form {expected}"
            )
        _cross_check(p, caps, expr_order(nested), notes)
        full = Product((nested, *factorial_part), UNSPECIFIED_EXTENSION)
        return _make_report(p, full, expr_normalize(nested), METHOD_HOMOCYCLIC, notes)
    if len(primes) == 1:
        # non-cyclic, non-homocyclic p-group: recursive decomposition
        return aut_full(p, caps)
    # two or more primes, so the coprime split always exists
    sylows = _sylow_leaf_specs(AbelianSpec(tuple(invariants))) or []
    return aut_nilpotent(p, [realize(spec) for spec in sylows], caps)


def aut_nilpotent(
    p: Pipeline,
    sylow_decomposition: Sequence[FiniteGroup],
    caps: OracleCaps | None = None,
) -> AutReport:
    """Coprime direct product: the quotient part multiplies over the factors.

    Each factor contributes the quotient automorphisms of its own power graph,
    from a pipeline built for that factor; the symmetric factorial part still
    comes from the whole group's classes.
    """
    caps = caps or OracleCaps()
    factors = [f for f in sylow_decomposition if f.size > 1]
    if len(factors) < 2:
        raise ValueError("need at least two nontrivial coprime factors")
    for i, a in enumerate(factors):
        for b in factors[i + 1 :]:
            if math.gcd(a.size, b.size) != 1:
                raise ValueError(
                    f"factor orders {a.size} and {b.size} are not coprime"
                )
    if math.prod(f.size for f in factors) != p.g.size:
        raise ValueError("factor orders do not multiply to the group order")
    parts = tuple(quotient_aut(pipeline(f).q, caps) for f in factors)
    qe = expr_normalize(Product(parts, DIRECT))
    notes: list[str] = []
    _cross_check(p, caps, expr_order(qe), notes)
    return aut_full(p, caps, method=METHOD_COPRIME, quotient_expr=qe, notes=notes)


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


def _cyclic_leaf_orders(spec: GroupSpec) -> list[int] | None:
    leaves = _leaf_specs(spec)
    if all(isinstance(leaf, CyclicSpec) for leaf in leaves):
        return [leaf.n for leaf in leaves]  # type: ignore[union-attr]
    return None


def _sylow_leaf_specs(spec: GroupSpec) -> list[GroupSpec] | None:
    """Split the spec into coprime prime-power factors, or None if impossible."""
    buckets: dict[int, list[GroupSpec]] = {}
    for leaf in _leaf_specs(spec):
        if isinstance(leaf, CyclicSpec):
            if leaf.n == 1:
                continue
            for p, e in sorted(factorize(leaf.n).items()):
                buckets.setdefault(p, []).append(CyclicSpec(p**e))
        else:
            pp = is_prime_power(spec_order(leaf))
            if pp is None:
                return None
            buckets.setdefault(pp[0], []).append(leaf)
    if len(buckets) < 2:
        return None
    out: list[GroupSpec] = []
    for p in sorted(buckets):
        parts = buckets[p]
        if all(isinstance(s, CyclicSpec) for s in parts):
            qs = sorted(s.n for s in parts)  # type: ignore[union-attr]
            out.append(CyclicSpec(qs[0]) if len(qs) == 1 else AbelianSpec(tuple(qs)))
        else:
            combined = parts[0]
            for s in parts[1:]:
                combined = ProductSpec(combined, s)
            out.append(combined)
    return out


def analyze(
    spec: GroupSpec | str,
    caps: OracleCaps | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> AutReport:
    """Full structural analysis of the power graph of the group a spec names."""
    gspec = parse_group_spec(spec) if isinstance(spec, str) else spec
    caps = caps or OracleCaps()
    p = pipeline(realize(gspec, max_order=max_order))
    cyclic_orders = _cyclic_leaf_orders(gspec)
    if cyclic_orders is not None:
        return aut_abelian(p, cyclic_orders, caps)
    sylows = _sylow_leaf_specs(gspec)
    if sylows is not None:
        return aut_nilpotent(
            p, [realize(s, max_order=max_order) for s in sylows], caps
        )
    return aut_full(p, caps)


def verify(
    spec: GroupSpec | str,
    caps: OracleCaps | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> AutReport:
    """Analyze, then check the structural order against the oracle.

    The oracle runs on the pipeline the analysis built (`report.pipeline`).

    Full-graph comparison runs when the power graph fits the node cap and the
    structural order fits the count cap; otherwise the quotient is compared
    (the per-class factorial part is definitional). If neither fits, the
    verdict is unavailable and CapExceeded propagates.
    """
    caps = caps or OracleCaps()
    report = analyze(spec, caps, max_order)
    pg, q = report.pipeline.pg, report.pipeline.q
    if pg.n_vertices <= caps.max_nodes and report.order <= caps.max_count:
        oracle_order = count_automorphisms(pg, caps)
        status = "full-verified" if oracle_order == report.order else "mismatch"
        detail = f"full power graph on {pg.n_vertices} vertices"
        return dataclasses.replace(
            report,
            verification=Verification(status, report.order, oracle_order, detail),
        )
    reason = (
        f"full graph infeasible ({pg.n_vertices} vertices, structural order {report.order})"
    )
    quotient_order = expr_order(report.quotient_expr)
    if q.n_nodes <= caps.max_nodes and quotient_order <= caps.max_count:
        oracle_order = count_automorphisms(q, caps)
        status = "quotient-verified" if oracle_order == quotient_order else "mismatch"
        detail = f"{reason}; quotient on {q.n_nodes} nodes compared instead"
        return dataclasses.replace(
            report,
            verification=Verification(status, quotient_order, oracle_order, detail),
        )
    raise CapExceeded(f"{reason}; quotient also exceeds the caps")
