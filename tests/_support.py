"""Shared fixtures: the test corpus, cached pipelines, and naive reference oracles."""

from __future__ import annotations

import ast
import math
import tracemalloc
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import numpy as np
from hypothesis import assume, strategies as st

from pga import (
    CYCLIC_INTERVAL,
    GENERATOR_CLASS,
    AutReport,
    FiniteGroup,
    GroupExpr,
    Pipeline,
    Sym,
    Trivial,
    WeightedGraph,
    Wreath,
    analyze,
    divisors,
    is_prime_power,
    parse_group_spec,
    pipeline,
    realize,
    spec_order,
    totient,
)
from pga.groups import (
    AbelianSpec, CyclicSpec, DihedralSpec, HomocyclicSpec, ProductSpec, unit_generators,
)
from pga.quotient import QuotientGraph

CORPUS = (
    "Z(6)", "Z(10)", "Z(12)", "Z(15)", "Z(18)", "Z(20)",
    "Z(4)", "Z(8)", "Z(9)",
    "Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2",
    "Sym(3)", "Dih(4)", "Q8", "Ab[2,4]", "Ab[2,2,3]", "P(Q8,Z(3))",
)

# structural orders, frozen and confirmed by the oracle
EXPECTED_ORDER = {
    "Z(6)": 4,
    "Z(10)": 576,
    "Z(12)": 192,
    "Z(15)": 1_935_360,
    "Z(18)": 2_073_600,
    "Z(20)": 46_448_640,
    "Z(4)": 6,
    "Z(8)": 5040,
    "Z(9)": 40320,
    "Z(2)^2": 6,
    "Z(3)^2": 384,
    "Z(2)^3": 5040,
    "Z(4)^2": 3072,
    "Sym(3)": 12,
    "Dih(4)": 144,
    "Q8": 48,
    "Ab[2,4]": 16,
    "Ab[2,2,3]": 96,
    "P(Q8,Z(3))": 2_654_208,
}

def _small_group_specs() -> tuple[str, ...]:
    """Every expressible group on up to 28 nontrivial elements."""
    specs = [f"Z({n})" for n in range(2, 29)]
    specs += [f"Dih({n})" for n in range(1, 15)]
    specs += ["Sym(2)", "Sym(3)", "Sym(4)", "Q8", "Z(2)^2", "Z(2)^3", "Z(3)^2",
              "Z(4)^2", "Z(5)^2", "P(Q8,Z(3))", "P(Dih(4),Z(3))", "P(Q8,Z(2))",
              "P(Dih(3),Z(4))", "P(Sym(3),Z(4))"]
    for size in range(2, 29):
        for k in (2, 3):
            for combo in combinations_with_replacement(range(2, 29), k):
                if math.prod(combo) == size:
                    specs.append("Ab[" + ",".join(map(str, combo)) + "]")
    return tuple(specs)


SMALL_GROUP_SPECS = _small_group_specs()

# coprime products whose Sylow factors are not all abelian
COPRIME_NONABELIAN_SPECS = ("P(Q8,Z(3))", "P(Dih(4),Z(3))", "P(Q8,Z(9))", "P(Dih(4),Z(5))", "Ab[4,6,9]")

# large groups, the benchmark's analyze-large specs: their groups take the
# product, table-power and edgeless-graph paths at full size
LARGE_SPECS = (
    "Z(1000)", "Dih(500)", "Z(2)^10", "Z(3)^5", "Sym(5)", "P(Sym(4),Sym(3))", "P(Sym(5),Z(7))",
)

# the specs whose reports tests/golden_reports.json freezes
GOLDEN_SPECS = tuple(
    dict.fromkeys(CORPUS + SMALL_GROUP_SPECS + COPRIME_NONABELIAN_SPECS + LARGE_SPECS)
)


# the product sweep, frozen by tests/golden_sweep.json: every P(A,B) of order
# <= 2000 over these 21 small groups, 438 specs
SWEEP_GROUPS = (
    "Z(2)", "Z(3)", "Z(4)", "Z(5)", "Z(6)", "Z(7)", "Z(8)", "Z(9)", "Z(12)",
    "Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2", "Sym(3)", "Sym(4)", "Sym(5)",
    "Dih(4)", "Dih(5)", "Dih(6)", "Q8", "Ab[2,4]",
)
PRODUCT_SPECS = tuple(
    f"P({a},{b})"
    for a in SWEEP_GROUPS
    for b in SWEEP_GROUPS
    if spec_order(parse_group_spec(f"P({a},{b})")) <= 2000
)


def _workload_specs() -> tuple[str, ...]:
    """The specs of the benchmark's three workloads, read from its source."""
    tree = ast.parse(Path(__file__).parent.parent.joinpath("perfbench", "worker.py").read_text())
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("ANALYZE_LARGE", "VERIFY_ORACLE", "CLI_BATCH")
    }
    return tuple(dict.fromkeys(lists["ANALYZE_LARGE"] + lists["VERIFY_ORACLE"] + lists["CLI_BATCH"]))


WORKLOAD_SPECS = _workload_specs()

P_GROUP_SPECS = ("Z(4)", "Z(8)", "Z(9)", "Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2", "Q8", "Dih(4)")


@lru_cache(maxsize=None)
def bundle(spec: str) -> Pipeline:
    return pipeline(realize(spec))


@lru_cache(maxsize=None)
def report(spec: str) -> AutReport:
    return analyze(spec)


# the paper's closed forms for cyclic and homocyclic groups, the references
# the quotient recursion is checked against: each gives the quotient part of
# the automorphism group and the weights of the MEN classes


def complete_graph_form(n: int) -> tuple[GroupExpr, list[int]]:
    """Z(n) for a prime power n: the power graph is complete, one class of
    all n - 1 vertices, and the quotient part is trivial."""
    assert is_prime_power(n) is not None, f"{n} is not a prime power"
    return Trivial(), [n - 1]


def cyclic_divisor_form(n: int) -> tuple[GroupExpr, list[int]]:
    """Z(n) for any other n: one class per divisor d > 1, the phi(d)
    generators of the subgroup of order d, and a trivial quotient part."""
    assert is_prime_power(n) is None, f"{n} is a prime power"
    return Trivial(), [totient(d) for d in divisors(n) if d > 1]


def homocyclic_tower(p: int, m: int, copies: int) -> tuple[GroupExpr, list[int]]:
    """Z(p**m)^copies: r_t = (p**(t*copies) - p**((t-1)*copies)) / phi(p**t)
    classes of weight phi(p**t), one per cyclic subgroup of order p**t, and
    a quotient part that is the wreath tower
    (...(S_k_m wr S_k_(m-1)) ... ) wr S_k_1 with k_1 = r_1, k_t = r_t / r_(t-1)."""
    phi = [p**t - p ** (t - 1) for t in range(1, m + 1)]
    r = []
    for t in range(1, m + 1):
        count, rest = divmod(p ** (t * copies) - p ** ((t - 1) * copies), phi[t - 1])
        assert rest == 0, f"class count r_{t} is not integral for Z({p ** m})^{copies}"
        r.append(count)
    k = [r[0]]
    for t in range(1, m):
        branching, rest = divmod(r[t], r[t - 1])
        assert rest == 0, f"branching k_{t + 1} is not integral for Z({p ** m})^{copies}"
        k.append(branching)
    tower: GroupExpr = Sym(k[-1])
    for branching in reversed(k[:-1]):
        tower = Wreath(tower, Sym(branching))
    return tower, [w for w, count in zip(phi, r) for _ in range(count)]


@st.composite
def weighted_graphs(draw, max_nodes: int) -> WeightedGraph:
    """Random graphs of 1..max_nodes nodes with weights in {1, 2, 3}."""
    n = draw(st.integers(1, max_nodes))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((i, j))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return WeightedGraph(n, edges, weights)


@st.composite
def planted_twins(draw):
    """A random weighted graph of up to 9 nodes with classes of open twins
    (independent) and closed twins (a clique) planted in it, the nodes
    shuffled. Each class has its own weight and is joined to a random set
    of the earlier nodes, taking each earlier class whole so that it stays
    a twin class."""
    base = draw(weighted_graphs(4))
    edges, weights = base.edges(), list(base.weights)
    blocks = [[v] for v in range(base.n)]
    for _ in range(draw(st.integers(1, 3))):
        if len(weights) > 7:
            break
        size = draw(st.integers(2, min(4, 9 - len(weights))))
        closed = draw(st.booleans())
        joined = [v for block in blocks if draw(st.booleans()) for v in block]
        new = list(range(len(weights), len(weights) + size))
        weights += [draw(st.integers(1, 3))] * size
        edges += [(v, w) for v in new for w in joined]
        if closed:
            edges += [(v, w) for v in new for w in new if v < w]
        blocks.append(new)
    perm = draw(st.permutations(range(len(weights))))
    return relabel(WeightedGraph(len(weights), edges, weights), perm)


def _ring_classes(t: int, runs) -> list[tuple[int, bool]]:
    """(size, closed) of each class of twin_ring(t, runs), in ring order."""
    classes = []
    for r in runs:
        classes += [(t, False)] * r + [(t, True), (1, False), (t, True)]
    return classes


def twin_ring(t: int, runs, hub: bool = False) -> WeightedGraph:
    """Twin classes around a ring, each joined whole to the two beside it.
    Per run r: r open classes (independent) of t nodes, then a closed class
    (a clique) of t nodes, one node and another closed class of t nodes.
    Every node has degree 2t, so refinement keeps one cell, but an open and
    a closed class of t nodes lie in different orbits. With `hub`, one more
    node is joined to every other. twin_ring(2, [2]) is the ring A C B E D
    of open pairs A and C, closed pairs B and D and one node E."""
    kinds, classes, start = _ring_classes(t, runs), [], 0
    for size, _ in kinds:
        classes.append(range(start, start + size))
        start += size
    edges = []
    for (_, closed), here, there in zip(kinds, classes, classes[1:] + classes[:1]):
        edges += [(u, v) for u in here for v in there]
        if closed:
            edges += [(u, v) for u in here for v in here if u < v]
    if hub:
        edges += [(v, start) for v in range(start)]
    return WeightedGraph(start + hub, edges)


def twin_ring_order(t: int, runs) -> int:
    """The automorphism count of twin_ring(t, runs), with or without its hub,
    for a ring of five or more classes. Those classes are then its twin
    classes, which every automorphism permutes as the ring's rotations and
    reflections do: the count is the product of the class sizes' factorials
    times the number of rotations and reflections that keep each class's
    size and kind."""
    classes = _ring_classes(t, runs)
    k = len(classes)
    assert k >= 5, "in a ring of four classes, opposite classes can be twins"
    symmetries = sum(
        all(classes[(sign * i + shift) % k] == classes[i] for i in range(k))
        for shift in range(k)
        for sign in (1, -1)
    )
    return symmetries * math.prod(math.factorial(size) for size, _ in classes)


@st.composite
def twin_rings(draw):
    """(t, runs) of a twin_ring of five or more classes with an open class:
    classes of two or three nodes, one to three runs of up to two open
    classes, at most 39 nodes."""
    t = draw(st.integers(2, 3))
    runs = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    assume(sum(runs) >= 1 and 3 * len(runs) + sum(runs) >= 5)
    return t, runs


def relabel(wg: WeightedGraph, perm) -> WeightedGraph:
    """The graph with node i renamed to perm[i]."""
    assert sorted(perm) == list(range(wg.n)), "relabeling must be a permutation of the nodes"
    weights = [0] * wg.n
    for i, w in enumerate(wg.weights):
        weights[perm[i]] = w
    return WeightedGraph(wg.n, [(perm[u], perm[v]) for u, v in wg.edges()], weights)


def naive_count(wg: WeightedGraph) -> int:
    """Reference count by filtering all node permutations; only for tiny graphs."""
    total = 0
    for perm in permutations(range(wg.n)):
        if any(wg.weights[perm[v]] != wg.weights[v] for v in range(wg.n)):
            continue
        if all(
            (wg.adj[u] >> v & 1) == (wg.adj[perm[u]] >> perm[v] & 1)
            for u in range(wg.n)
            for v in range(u + 1, wg.n)
        ):
            total += 1
    return total


def reference_search(src, dst, allowed, found=None):
    """Per-node backtracking, independent of the oracle's search: branch on
    the least node among those with the fewest candidates, try them in
    ascending order, and forward-check every unmapped node. The first
    bijection, or with `found` every bijection passed to it in order and
    None."""
    mapping = [-1] * src.n

    def dfs(masks, free):
        if not free:
            if found is None:
                return True
            found(tuple(mapping))
            return False
        best = min(free, key=lambda v: (bin(masks[v]).count("1"), v))
        rest = [w for w in free if w != best]
        for u in (u for u in range(dst.n) if masks[best] >> u & 1):
            mapping[best] = u
            nxt = list(masks)
            for w in rest:
                near = src.adj[best] >> w & 1
                nxt[w] &= dst.adj[u] if near else ~(dst.adj[u] | 1 << u)
            if all(nxt[w] for w in rest) and dfs(nxt, rest):
                return True
        mapping[best] = -1
        return False

    return tuple(mapping) if dfs(list(allowed), list(range(src.n))) else None


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def reference_split(adj, cells, cell_of, queue, log=None) -> None:
    """Reference for the oracle's refinement step (_split), written node by
    node: the touched cells are read off every touched node's cell_of entry.
    It refines (cells, cell_of) in place to an equitable partition, extends
    queue with every cell it queues and records in log the first previous
    mask of every cell that splits."""
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
    for s in queue:
        queued[s] = False
        splitter = cells[s]
        single = not splitter & (splitter - 1)
        if single:
            touched = adj[splitter.bit_length() - 1]
        else:
            touched = 0
            for x in _bits(splitter):
                touched |= adj[x]
        for i in sorted({cell_of[v] for v in _bits(touched)}):
            cell = cells[i]
            if not cell & (cell - 1) or single and not cell & ~touched:
                continue
            if single:
                parts = [cell & ~touched, cell & touched]
            else:
                by_count = {0: cell & ~touched} if cell & ~touched else {}
                for v in _bits(cell & touched):
                    k = (adj[v] & splitter).bit_count()
                    by_count[k] = by_count.get(k, 0) | 1 << v
                if len(by_count) == 1:
                    continue
                parts = [by_count[k] for k in sorted(by_count)]
            indices = [i]
            if log is not None:
                log.setdefault(i, cell)
            cells[i] = parts[0]
            for part in parts[1:]:
                indices.append(len(cells))
                for v in _bits(part):
                    cell_of[v] = len(cells)
                cells.append(part)
                queued.append(False)
            if not queued[i]:
                sizes = [part.bit_count() for part in parts]
                del indices[sizes.index(max(sizes))]
            for j in indices:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)


def table_of(g: FiniteGroup) -> np.ndarray:
    """The reference multiplication table: g's product on the full n x n grid."""
    idx = np.arange(g.size, dtype=np.int32)
    return g.mul(idx[:, None], idx)


def reference_group(spec: str) -> FiniteGroup:
    """The reference for the arithmetic groups: the spec's group as a table
    group, its table built by addition mod n for Z(n), the (rotation, flip)
    rule for Dih(n) and factor tables composed in lexicographic order for a
    direct product, with the spec's labels and generators. Sym(n) and Q8 are
    table groups already."""
    table, labels, generators = _reference_parts(parse_group_spec(spec))
    return FiniteGroup(table, labels, spec, generators=generators)


def _reference_parts(spec) -> tuple[np.ndarray, tuple[str, ...], tuple[int, ...]]:
    if isinstance(spec, CyclicSpec):
        a = np.arange(spec.n)
        return (a[:, None] + a) % spec.n, tuple(str(i) for i in a), (1,) if spec.n > 1 else ()
    if isinstance(spec, HomocyclicSpec):
        return _reference_product([_reference_parts(CyclicSpec(spec.q))] * spec.copies)
    if isinstance(spec, AbelianSpec):
        return _reference_product([_reference_parts(CyclicSpec(d)) for d in spec.orders])
    if isinstance(spec, ProductSpec):
        return _reference_product([_reference_parts(spec.left), _reference_parts(spec.right)])
    if isinstance(spec, DihedralSpec):
        # s^f1 r^a1 * s^f2 r^a2 = s^(f1^f2) r^(a2 +- a1), at index f*n + a
        n, a = spec.n, np.arange(spec.n)
        plus, minus = (a[:, None] + a) % n, (a - a[:, None]) % n
        rotations = ["e", "r"][:n] + [f"r^{i}" for i in range(2, n)]
        labels = (*rotations, "s", *("s" + r for r in rotations[1:]))
        return np.block([[plus, minus + n], [plus + n, minus]]), labels, (1, n)
    g = realize(spec)
    return g.table, g.labels, g.generators


def _reference_product(parts):
    if len(parts) == 1:
        return parts[0]
    table = parts[0][0]
    for t, _, _ in parts[1:]:
        table = (table[:, None, :, None] * len(t) + t[None, :, None, :]).reshape(
            len(table) * len(t), -1
        )
    labels = tuple("(" + ",".join(p) + ")" for p in product(*(labels for _, labels, _ in parts)))
    generators, stride = [], 1
    for t, _, own in reversed(parts):
        generators += [x * stride for x in own]
        stride *= len(t)
    return table, labels, tuple(generators)


def traced_peak(f) -> int:
    """The peak of the memory traced by tracemalloc while f() runs, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def is_group_table(table) -> bool:
    """Reference check of the group axioms on a square table, element 0 the
    identity: entries in range, two-sided identity and inverses, and
    (ab)c == a(bc) for every triple."""
    n = len(table)
    if table.min() < 0 or table.max() >= n:
        return False
    t = table.tolist()
    if t[0] != list(range(n)) or [row[0] for row in t] != list(range(n)):
        return False
    if not all(any(t[a][b] == 0 == t[b][a] for b in range(n)) for a in range(n)):
        return False
    return bool((table[table] == table[:, table]).all())  # [a,b,c]: (ab)c, a(bc)


# naive references for the group-theoretic lemmas, built from g.mul alone:
# repeated products, one at a time, never the group's own rows of powers


def naive_powers(g: FiniteGroup, x: int) -> list[int]:
    """[x**1, x**2, ..., the identity], one product at a time."""
    out = [x]
    while out[-1] != 0:
        out.append(int(g.mul(out[-1], x)))
    return out


def cyclic_subgroup(g: FiniteGroup, x: int) -> frozenset[int]:
    """All powers of x, identity included."""
    return frozenset(naive_powers(g, x))


def gen_set(g: FiniteGroup, x: int) -> frozenset[int]:
    """The generators of <x>: the x**k with k coprime to order(x)."""
    powers = naive_powers(g, x)
    return frozenset(y for k, y in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1)


def centralizer_size(g: FiniteGroup, x: int) -> int:
    return sum(g.mul(x, y) == g.mul(y, x) for y in range(g.size))


def maximal_cyclic_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    subs = {cyclic_subgroup(g, x) for x in range(g.size)}
    return [s for s in subs if not any(s < t for t in subs)]


def peel_class(g: FiniteGroup, members) -> str | None:
    """How a class of power-graph vertices arises, found by peeling generator
    sets off it, least member first: GENERATOR_CLASS when it is one generator
    set, CYCLIC_INTERVAL when it is those of a chain of cyclic subgroups of
    prime-power orders, each of index p in the one before, and None when it
    is neither."""
    rest, subgroups = {v + 1 for v in members}, []
    while rest:
        x = min(rest)
        gens = gen_set(g, x)
        if not gens <= rest:
            return None
        subgroups.append(cyclic_subgroup(g, x))
        rest -= gens
    if len(subgroups) == 1:
        return GENERATOR_CLASS
    chain = sorted(subgroups, key=len, reverse=True)
    pp = is_prime_power(len(chain[0]))
    if pp is not None and all(b < a and len(a) == pp[0] * len(b) for a, b in zip(chain, chain[1:])):
        return CYCLIC_INTERVAL
    return None


def reconstructed_order(g: FiniteGroup, mp, x: int) -> int:
    """1 plus the weights of the MEN classes of power-graph vertices inside
    <x>, which must be a union of whole classes once the identity is taken
    out (it is for an element of largest order in its class)."""
    inside = {y - 1 for y in cyclic_subgroup(g, x) if y != 0}
    total = 0
    for members, weight in zip(mp.classes, mp.weights):
        hit = inside.intersection(members)
        assert len(hit) in (0, len(members)), f"class {members} straddles the cyclic subgroup of {x}"
        total += weight if hit else 0
    return 1 + total


def power_table_subgroup_graph(g: FiniteGroup) -> QuotientGraph:
    """The cyclic-subgroup graph by the earlier containment route, kept as a
    reference: the exponent from the set of element orders, and the
    neighbours inside <r> read off one table of the powers of every node
    with a divisor 1 < d < order(r), up to the largest such d over the
    divisors of every distinct order. The least generators come from the
    same doubling as `cyclic_subgroup_graph`."""
    n, orders = g.size, g.orders
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
    divs = sorted({d for o in set(node_orders.tolist()) for d in divisors(o)[1:-1]})
    edges = []
    if divs:
        d = np.array(divs, dtype=np.intp)[:, None]
        has = (node_orders % d == 0) & (node_orders > d)
        inner = np.flatnonzero(has.any(axis=0))
        i, at = np.nonzero(has[:, inner])
        powers = g.power(reps[inner], np.arange(divs[-1] + 1)[:, None])
        edges = list(zip(inner[at].tolist(), node_of[powers[d[i, 0], at]].tolist()))
    return QuotientGraph(node_of[1:], edges, np.bincount(node_of[1:]).tolist())
