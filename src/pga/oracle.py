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
  * the group order is the product, down an individualization chain, of the
    number of valid images of one pivot vertex per level (each image validated
    by an explicit search, each level fixing the pivot and re-refining), so
    huge symmetric groups are counted without listing their elements.

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
    mapping = [-1] * n

    def dfs(masks: list[int]) -> bool:
        best = -1
        best_count = n + 1
        for v in range(n):
            if mapping[v] >= 0:
                continue
            c = masks[v].bit_count()
            if c < best_count:
                best, best_count = v, c
                if c <= 1:
                    break
        if best < 0:
            if found is None:
                return True
            found(tuple(mapping))
            return False
        for u in _iter_bits(masks[best]):
            mapping[best] = u
            nxt = list(masks)
            ok = True
            for w in range(n):
                if mapping[w] >= 0 or w == best:
                    continue
                m = nxt[w] & ~(1 << u)
                if src.has_edge(best, w):
                    m &= dst.adj[u]
                else:
                    m &= ~dst.adj[u]
                if m == 0:
                    ok = False
                    break
                nxt[w] = m
            if ok and dfs(nxt):
                return True
            mapping[best] = -1
        return False

    if dfs(list(allowed)):
        return tuple(mapping)
    return None


def _is_isomorphism(a: WeightedGraph, b: WeightedGraph, perm: Sequence[int]) -> bool:
    if sorted(perm) != list(range(b.n)):
        return False
    if any(b.weights[perm[v]] != a.weights[v] for v in range(a.n)):
        return False
    for u in range(a.n):
        for v in range(u + 1, a.n):
            if a.has_edge(u, v) != b.has_edge(perm[u], perm[v]):
                return False
    return True


def _checked(wg: WeightedGraph, perm: tuple[int, ...]) -> tuple[int, ...]:
    # independent re-check of anything the search produces
    if not _is_isomorphism(wg, wg, perm):
        raise RuntimeError(f"search produced an invalid automorphism: {perm}")
    return perm


def _aut_order(
    wg: WeightedGraph, colors: list[int], witnesses: list[tuple[int, ...]] | None
) -> int:
    """Order of the color-preserving automorphism group.

    Per level: count the images the first pivot vertex can take inside its
    color class (each certified by an explicit search), then fix the pivot,
    re-refine, and recurse; the products of the per-level counts multiply out
    to the group order. Maps found along the way form a generating set.
    """
    target: list[int] | None = None
    for c in sorted(set(colors)):
        cell = [v for v in range(wg.n) if colors[v] == c]
        if len(cell) > 1:
            target = cell
            break
    if target is None:
        return 1
    masks = _color_masks(colors)
    base = [masks[colors[v]] for v in range(wg.n)]
    v0 = target[0]
    images = 1  # v0 -> v0 via the identity
    for u in target[1:]:
        allowed = list(base)
        allowed[v0] = 1 << u
        perm = _search_mapping(wg, wg, allowed)
        if perm is not None:
            images += 1
            if witnesses is not None:
                witnesses.append(_checked(wg, perm))
    refined = list(colors)
    refined[v0] = max(colors) + 1
    refined = _refine(wg, refined)
    return images * _aut_order(wg, refined, witnesses)


# ---------------------------------------------------------------------------
# public operations


def count_automorphisms(wg: WeightedGraph, caps: OracleCaps | None = None) -> int:
    """Exact number of weight- and adjacency-preserving node bijections."""
    caps = caps or _DEFAULT_CAPS
    if wg.n > caps.max_nodes:
        raise CapExceeded(f"graph has {wg.n} nodes, above the cap of {caps.max_nodes}")
    return _aut_order(wg, stable_colors(wg), None)


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


def are_isomorphic(
    a: WeightedGraph, b: WeightedGraph, caps: OracleCaps | None = None
) -> bool:
    return find_isomorphism(a, b, caps) is not None


def vertex_orbits(wg: WeightedGraph, caps: OracleCaps | None = None) -> list[list[int]]:
    """Orbits of the full automorphism group on nodes.

    The witnesses collected by the counting recursion are a generating set
    (one coset representative per image per level), so closing the nodes under
    them yields the exact orbit partition without enumerating the group.
    """
    caps = caps or _DEFAULT_CAPS
    if wg.n > caps.max_nodes:
        raise CapExceeded(f"graph has {wg.n} nodes, above the cap of {caps.max_nodes}")
    witnesses: list[tuple[int, ...]] = []
    _aut_order(wg, stable_colors(wg), witnesses)
    parent = list(range(wg.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in witnesses:
        for v in range(wg.n):
            ra, rb = find(v), find(perm[v])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for v in range(wg.n):
        groups.setdefault(find(v), []).append(v)
    return [sorted(vs) for _, vs in sorted(groups.items())]
