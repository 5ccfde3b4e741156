"""Exhaustive automorphism search for small vertex-weighted graphs.

This module is the ground-truth instrument for the rest of the package, and it
is deliberately self-contained: a graph arrives as plain adjacency plus
positive node weights, and every answer comes from explicit search. It knows
nothing about groups or neighborhood partitions.

The machinery is classic individualization-refinement:

  * vertices are colored by (weight, degree) and the coloring is refined with
    sorted neighbor-color signatures until stable; automorphisms can never map
    across stable colors;
  * a backtracking search with bitmask forward-checking decides whether a
    color-respecting bijection with prescribed constraints exists;
  * the group order is the product, down an individualization chain (each
    level fixing one pivot vertex and re-refining), of the size of each
    pivot's orbit under the maps that fix the earlier pivots, so huge
    symmetric groups are counted without listing their elements. Levels are
    handled from the deepest up, and a union-find over the automorphisms
    found so far prunes the searches: a candidate image gets an explicit
    search only when it lies outside the pivot's known orbit and outside
    every orbit already shown to hold no image (orbit pruning, after McKay
    and Piperno, "Practical Graph Isomorphism II", 2014);
  * components are grouped by isomorphism after one refinement of the whole
    graph, comparing only components with equal colour multisets.

Every witness bijection is re-verified edge by edge and weight by weight
before it is trusted. Caps produce an explicit CapExceeded, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class OracleCaps:
    """Hard limits for the search; exceeding one raises CapExceeded."""

    max_nodes: int = 40
    max_count: int = 10_000_000

    def __post_init__(self) -> None:
        # a cap below 1 would silently turn every check into "skipped"
        for name, value in (("max_nodes", self.max_nodes), ("max_count", self.max_count)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


_DEFAULT_CAPS = OracleCaps()


class CapExceeded(RuntimeError):
    """The requested computation exceeds the configured oracle limits."""


class WeightedGraph:
    """Simple undirected graph with a positive integer weight per node.

    Adjacency is stored as one int bitmask per node; loops are rejected and
    edges are symmetrized. Instances are immutable.
    """

    __slots__ = ("n", "weights", "adj", "edge_count")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Sequence[int] | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("a weighted graph needs at least one node")
        if weights is None:
            weights = (1,) * n
        weights = tuple(int(w) for w in weights)
        if len(weights) != n:
            raise ValueError("one weight per node is required")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"loop at node {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "edge_count", sum(m.bit_count() for m in adj) // 2)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WeightedGraph is immutable")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count}, weights={self.weights})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self.adj[v])

    def closed_mask(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _iter_bits(self.adj[u]) if v > u]

    def subgraph(self, nodes: Sequence[int]) -> "WeightedGraph":
        nodes = sorted(nodes)
        index = {old: new for new, old in enumerate(nodes)}
        edges = [
            (index[u], index[v])
            for u in nodes
            for v in _iter_bits(self.adj[u])
            if v in index and v > u
        ]
        return WeightedGraph(len(nodes), edges, [self.weights[v] for v in nodes])

    def relabel(self, perm: Sequence[int]) -> "WeightedGraph":
        """New graph with node i renamed to perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("relabeling must be a permutation of the nodes")
        weights = [0] * self.n
        for i, w in enumerate(self.weights):
            weights[perm[i]] = w
        edges = [(perm[u], perm[v]) for u, v in self.edges()]
        return WeightedGraph(self.n, edges, weights)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def connected_components(wg: WeightedGraph) -> list[list[int]]:
    """Connected node sets, each sorted, ordered by smallest node."""
    seen = 0
    out: list[list[int]] = []
    for start in range(wg.n):
        if seen >> start & 1:
            continue
        frontier = 1 << start
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for v in _iter_bits(frontier):
                nxt |= wg.adj[v]
            frontier = nxt & ~comp
        seen |= comp
        out.append(list(_iter_bits(comp)))
    return out


# ---------------------------------------------------------------------------
# coloring


def _initial_colors(wg: WeightedGraph) -> list[int]:
    keys = [(wg.weights[v], wg.degree(v)) for v in range(wg.n)]
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _refine(wg: WeightedGraph, colors: list[int]) -> list[int]:
    """Refine with sorted neighbor-color signatures until the partition is stable."""
    count = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in wg.neighbors(v))))
            for v in range(wg.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == count:
            return colors
        count = len(rank)


def stable_colors(wg: WeightedGraph) -> list[int]:
    """Colour refinement from (weight, degree) to a stable partition.

    Every automorphism maps each colour cell onto itself, so a node alone in
    its cell is fixed by all of them."""
    return _refine(wg, _initial_colors(wg))


def _color_masks(colors: Sequence[int]) -> dict[int, int]:
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return masks


# ---------------------------------------------------------------------------
# core search


def _search_mapping(
    src: WeightedGraph,
    dst: WeightedGraph,
    allowed: list[int],
    found: Callable[[tuple[int, ...]], None] | None = None,
) -> tuple[int, ...] | None:
    """Find one bijection src -> dst respecting adjacency and the allowed masks.

    allowed[v] is a bitmask of permitted images for src node v (already
    restricted to compatible colors). The search picks the most constrained
    unmapped vertex, tries its candidates in ascending order, and forward-checks
    by shrinking the masks of the still-unmapped vertices.

    With `found`, every bijection is passed to it and the search goes on to
    the next one; the return value is then None.
    """
    n = src.n
    src_adj, dst_adj = src.adj, dst.adj
    mapping = [-1] * n

    def dfs(masks: list[int], free: list[int]) -> bool:
        if not free:
            if found is None:
                return True
            found(tuple(mapping))
            return False
        best, best_count = -1, n + 1
        for v in free:
            c = masks[v].bit_count()
            if c < best_count:
                best, best_count = v, c
                if c <= 1:
                    break
        rest = [w for w in free if w != best]
        row = src_adj[best]
        for u in _iter_bits(masks[best]):
            mapping[best] = u
            # src neighbours of best must go to dst neighbours of u, the rest
            # to non-neighbours other than u
            near, far = dst_adj[u], ~(dst_adj[u] | 1 << u)
            nxt = list(masks)
            for w in rest:
                m = nxt[w] & (near if row >> w & 1 else far)
                if not m:
                    break
                nxt[w] = m
            else:
                if dfs(nxt, rest):
                    return True
        mapping[best] = -1
        return False

    if dfs(list(allowed), list(range(n))):
        return tuple(mapping)
    return None


def _preserves(a: WeightedGraph, b: WeightedGraph, pairs: dict[int, int]) -> bool:
    """True when the node map `pairs` from a to b is injective, keeps weights,
    and carries each key's neighbourhood onto its image's neighbourhood, which
    makes it an isomorphism between the unions of components it covers."""
    if len(set(pairs.values())) != len(pairs):
        return False
    for u, w in pairs.items():
        if a.weights[u] != b.weights[w]:
            return False
        image = 0
        for v in _iter_bits(a.adj[u]):
            if v not in pairs:
                return False
            image |= 1 << pairs[v]
        if image != b.adj[w]:
            return False
    return True


def _is_isomorphism(a: WeightedGraph, b: WeightedGraph, perm: Sequence[int]) -> bool:
    if len(perm) != a.n or sorted(perm) != list(range(b.n)):
        return False
    return _preserves(a, b, dict(enumerate(perm)))


def _checked(wg: WeightedGraph, perm: tuple[int, ...]) -> tuple[int, ...]:
    # independent re-check of anything the search produces
    if not _is_isomorphism(wg, wg, perm):
        raise RuntimeError(f"search produced an invalid automorphism: {perm}")
    return perm


class _Orbits:
    """Union-find over the nodes whose classes are the orbits of the group
    generated by the maps joined so far; a class's root is its least node."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(self, perm: Sequence[int]) -> None:
        for v, w in enumerate(perm):
            ra, rb = self.find(v), self.find(w)
            if ra != rb:
                self.parent[max(ra, rb)] = min(ra, rb)


def _aut_order(wg: WeightedGraph, colors: list[int]) -> tuple[int, _Orbits]:
    """Order of the color-preserving automorphism group, by orbit-stabilizer,
    and its orbits.

    The individualization chain fixes, level by level, the first vertex (the
    pivot) of the first non-singleton cell and re-refines, until every cell
    is a singleton. Level i's group G_i fixes the earlier pivots, and |G_i| is
    the size of the pivot's G_i-orbit times |G_(i+1)|. Levels are handled
    from the deepest up, with one union-find over the automorphisms found so
    far: all of them fix the current level's earlier pivots, so they lie in
    G_i. A cell member gets a search only when it lies outside the pivot's
    known orbit and outside every orbit already shown to hold no image of
    the pivot (an image there would put the whole orbit in the pivot's). At
    the end of a level the pivot's known orbit is its full G_i-orbit, so the
    maps found generate the group and the union-find ends with its orbits.
    """
    chain: list[tuple[list[int], list[int]]] = []  # (cell, colors) per level
    while True:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            break
        chain.append((target, colors))
        refined = list(colors)
        refined[target[0]] = len(cells)
        colors = _refine(wg, refined)

    orbits = _Orbits(wg.n)
    order = 1
    for cell, level_colors in reversed(chain):
        masks = _color_masks(level_colors)
        base = [masks[c] for c in level_colors]
        pivot = cell[0]
        dead: list[int] = []  # one member of each orbit known to hold no image
        for u in cell[1:]:
            root = orbits.find(u)
            if root == orbits.find(pivot) or any(orbits.find(d) == root for d in dead):
                continue
            allowed = list(base)
            allowed[pivot] = 1 << u
            perm = _search_mapping(wg, wg, allowed)
            if perm is None:
                dead.append(u)
            else:
                orbits.join(_checked(wg, perm))
        root = orbits.find(pivot)
        order *= sum(1 for u in cell if orbits.find(u) == root)
    return order, orbits


# ---------------------------------------------------------------------------
# public operations


def count_automorphisms(wg: WeightedGraph, caps: OracleCaps | None = None) -> int:
    """Exact number of weight- and adjacency-preserving node bijections."""
    caps = caps or _DEFAULT_CAPS
    if wg.n > caps.max_nodes:
        raise CapExceeded(f"graph has {wg.n} nodes, above the cap of {caps.max_nodes}")
    return _aut_order(wg, stable_colors(wg))[0]


def enumerate_automorphisms(
    wg: WeightedGraph, caps: OracleCaps | None = None
) -> list[tuple[int, ...]]:
    """All automorphisms in lexicographic order, each independently re-verified."""
    caps = caps or _DEFAULT_CAPS
    total = count_automorphisms(wg, caps)
    if total > caps.max_count:
        raise CapExceeded(
            f"{total} automorphisms exceed the enumeration cap of {caps.max_count}"
        )
    colors = stable_colors(wg)
    masks = _color_masks(colors)
    out: list[tuple[int, ...]] = []
    _search_mapping(
        wg, wg, [masks[c] for c in colors], lambda perm: out.append(_checked(wg, perm))
    )
    out.sort()
    if len(out) != total:
        raise RuntimeError(
            f"enumeration found {len(out)} automorphisms but counting found {total}"
        )
    return out


def find_isomorphism(
    a: WeightedGraph, b: WeightedGraph, caps: OracleCaps | None = None
) -> tuple[int, ...] | None:
    """A weight- and adjacency-preserving bijection a -> b, or None."""
    caps = caps or _DEFAULT_CAPS
    if a.n > caps.max_nodes or b.n > caps.max_nodes:
        raise CapExceeded(f"graph above the node cap of {caps.max_nodes}")
    if a.n != b.n or a.edge_count != b.edge_count:
        return None
    if sorted(a.weights) != sorted(b.weights):
        return None
    # refine both graphs jointly so colors are comparable across them
    union = WeightedGraph(
        a.n + b.n,
        a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()],
        a.weights + b.weights,
    )
    colors = stable_colors(union)
    b_masks: dict[int, int] = {}
    counts: dict[int, int] = {}
    for v in range(a.n):
        counts[colors[v]] = counts.get(colors[v], 0) + 1
    for v in range(a.n, union.n):
        c = colors[v]
        counts[c] = counts.get(c, 0) - 1
        b_masks[c] = b_masks.get(c, 0) | (1 << (v - a.n))
    if any(counts.values()):
        return None
    allowed = [b_masks.get(colors[v], 0) for v in range(a.n)]
    if any(m == 0 for m in allowed):
        return None
    perm = _search_mapping(a, b, allowed)
    if perm is None:
        return None
    if not _is_isomorphism(a, b, perm):
        raise RuntimeError(f"search produced an invalid isomorphism: {perm}")
    return perm


class _ComponentClass:
    """Isomorphic components: the first one's nodes, its node of each stable
    colour, its subgraph once built, and how many there are."""

    __slots__ = ("nodes", "at", "sub", "count")

    def __init__(self, nodes: list[int], at: dict[int, int], sub: WeightedGraph | None) -> None:
        self.nodes, self.at, self.sub, self.count = nodes, at, sub, 1


def component_classes(
    wg: WeightedGraph, caps: OracleCaps | None = None
) -> list[tuple[WeightedGraph, int]]:
    """Connected components grouped by isomorphism: one (representative, count)
    per class, in order of first appearance; the representative is the class's
    first component as a subgraph.

    The whole graph is colour-refined once. Isomorphic components have equal
    multisets of stable colours, which also fix their sizes, weights and edge
    counts (colours refine weight and degree), so a component is compared
    only with the representatives of its multiset. When its colours are
    pairwise distinct, the colour-matching bijection is the only candidate
    and is checked directly; otherwise find_isomorphism decides. With two or
    more components every one must fit the node cap, as each is comparable
    with the first.
    """
    caps = caps or _DEFAULT_CAPS
    comps = connected_components(wg)
    if len(comps) > 1 and max(map(len, comps)) > caps.max_nodes:
        raise CapExceeded(f"graph above the node cap of {caps.max_nodes}")
    colors = stable_colors(wg)
    classes: list[_ComponentClass] = []
    buckets: dict[tuple[int, ...], list[_ComponentClass]] = {}
    for comp in comps:
        cs = [colors[v] for v in comp]
        forced = len(set(cs)) == len(cs)
        sub = None
        bucket = buckets.setdefault(tuple(sorted(cs)), [])
        for cls in bucket:
            if forced:
                same = _preserves(wg, wg, {v: cls.at[c] for v, c in zip(comp, cs)})
            else:
                cls.sub = cls.sub or wg.subgraph(cls.nodes)
                sub = sub or wg.subgraph(comp)
                same = find_isomorphism(cls.sub, sub, caps) is not None
            if same:
                cls.count += 1
                break
        else:
            bucket.append(_ComponentClass(comp, dict(zip(cs, comp)), sub))
            classes.append(bucket[-1])
    return [(cls.sub or wg.subgraph(cls.nodes), cls.count) for cls in classes]


def are_isomorphic(
    a: WeightedGraph, b: WeightedGraph, caps: OracleCaps | None = None
) -> bool:
    return find_isomorphism(a, b, caps) is not None


def vertex_orbits(wg: WeightedGraph, caps: OracleCaps | None = None) -> list[list[int]]:
    """Orbits of the full automorphism group on nodes.

    The automorphisms the count finds are a generating set (every orbit of a
    pivot at its level is reached), so closing the nodes under them yields
    the exact orbit partition without enumerating the group.
    """
    caps = caps or _DEFAULT_CAPS
    if wg.n > caps.max_nodes:
        raise CapExceeded(f"graph has {wg.n} nodes, above the cap of {caps.max_nodes}")
    orbits = _aut_order(wg, stable_colors(wg))[1]
    groups: dict[int, list[int]] = {}
    for v in range(wg.n):
        groups.setdefault(orbits.find(v), []).append(v)
    return [sorted(vs) for _, vs in sorted(groups.items())]
