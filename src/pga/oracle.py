"""Exhaustive automorphism search for small vertex-weighted graphs.

This module is the ground-truth instrument for the rest of the package, and it
is deliberately self-contained: a graph arrives as plain adjacency plus
positive node weights, and every answer comes from explicit search. It knows
nothing about groups or neighborhood partitions.

The machinery is classic individualization-refinement:

  * one bitmask refinement (_split) splits each cell by the number of
    neighbours its nodes have in a splitter cell until the partition is
    equitable, starting from cells of equal weight; automorphisms can never
    map across its cells, and its cell order does not depend on how the
    nodes are numbered. It finds the cells a splitter touches one cell per
    step, clearing the whole cell from the touched mask, so its cost follows
    the touched cells, not the touched nodes. A splitter of one node splits
    each cell it touches with one AND, into the nodes outside its row and
    those inside;
  * the group order is the product, down an individualization chain (each
    level fixing one pivot vertex and refining with it as the only
    splitter), of the size of each pivot's orbit under the maps that fix the
    earlier pivots, so huge symmetric groups are counted without listing
    their elements. Levels are handled from the deepest up, and a union-find
    over the automorphisms found so far prunes the work. Each of its classes
    keeps its node bitmask, so a level reads its candidates as one mask,
    the cell minus the pivot's known orbit and minus every orbit already
    shown to hold no image (orbit pruning, after McKay and Piperno,
    "Practical Graph Isomorphism II", 2014), and its orbit size as one
    popcount;
  * a level whose cell consists of twins of the pivot (nodes of equal weight
    and equal open, or equal closed, neighbourhoods; computed once per
    count, enumeration or isomorphism test) needs no refinement: every
    other node is adjacent to all of the cell or to none, and the partition
    is equitable, so each cell is adjacent to the pivot as a whole or not at
    all and refining would split nothing. The pivot only moves to a cell of
    its own, in the count and on both sides of the search. The count takes
    such a cell in one step, a twin run: it detaches every node of the cell
    but the last, and going up checks each level's transposition of its
    pivot and the next node from two rows, which puts that level's cell in
    its pivot's orbit; then it joins the whole run at once and multiplies
    the order by k!, the product of the run's level orbits k, k-1, ..., 2;
  * a witness attempt tries, in order, the transposition of the pivot and
    the candidate, an automorphism exactly when their weights and their
    rows outside the two of them are equal, so two rows decide it; the swap
    of the pivot's twin class with the candidate's, inside the level's
    cell; the candidate's own refinement of the level (cell sizes unequal
    to the pivot's rule it out) and one guess read off the two refinements,
    fixing every node its cell allows, as most symmetries move few nodes
    (Darga, Sakallah and Markov, "Faster Symmetry Discovery using Sparsity
    of Symmetries", 2008), and pairing the rest twin class by twin class,
    so that twins which move together stay together; and only then the one
    search (_search), which also finds isomorphisms and lists
    automorphisms: depth first down the individualization-refinement tree,
    each node's own image tried first and every leaf's map checked. When it
    looks for one map it tries one image per twin class of a cell, as the
    transposition of two twins carries one's subtree onto the other's;
    listing tries every image. A witness hands back only its moved pairs.

Every twin-class swap, every guess and every search leaf is checked by one
function (_carries) before it is trusted. A map is a dict of (node, image)
pairs that fixes every other node; it passes when no two keys share an image
and each key's weight and row are carried onto its image's. An automorphism
must also be a permutation, its values being its keys, and is handed over as
the pairs it moves: an edge between two fixed nodes is its own image, so
comparing the moved rows is complete. Only a refinement mismatch or an
exhausted search rules a candidate out, so a bad swap or guess never lowers
a count. No level is counted unchecked: each orbit it joins comes from
one checked map, and a twin run's k! from its k - 1 checked
transpositions, one per level. Caps produce an explicit CapExceeded, never
a guess.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class OracleCaps:
    """Hard limits for the search; exceeding one raises CapExceeded.

    max_nodes bounds every graph the oracle searches, and max_count only the
    list enumerate_automorphisms returns (counting never lists the maps)."""

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


def _check_nodes(caps: OracleCaps | None, *graphs: WeightedGraph) -> None:
    """Raise CapExceeded, naming the largest graph, when it is above the node cap."""
    n, cap = max(wg.n for wg in graphs), (caps or _DEFAULT_CAPS).max_nodes
    if n > cap:
        raise CapExceeded(f"graph has {n} nodes, above the cap of {cap}")


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
        weights = (1,) * n if weights is None else tuple(weights)
        try:  # Python and numpy integers only: int() would read 1.5 or "2"
            weights = tuple(map(operator.index, weights))
        except TypeError:
            bad = next(w for w in weights if not hasattr(type(w), "__index__"))
            raise ValueError(f"weight {bad!r} is not an integer") from None
        if len(weights) != n:
            raise ValueError("one weight per node is required")
        if min(weights) < 1:
            raise ValueError("weights must be positive")
        adj = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                if u == v and 0 <= u < n:
                    raise ValueError(f"loop at node {u} is not allowed")
                raise ValueError(f"edge ({u}, {v}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "edge_count", sum(map(int.bit_count, adj)) // 2)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WeightedGraph is immutable")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, edges={self.edge_count}, weights={self.weights})"

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _iter_bits(self.adj[u]) if v > u]

    def subgraph(self, nodes: Sequence[int]) -> "WeightedGraph":
        """The subgraph induced on `nodes`, distinct nodes of this graph,
        renumbered in ascending order."""
        nodes = sorted(nodes)
        for u, v in zip(nodes, nodes[1:] + [None]):
            if not 0 <= u < self.n:
                raise ValueError(f"node {u} out of range")
            if u == v:
                raise ValueError(f"node {u} is given twice")
        return _induced(self, nodes, [self.weights[v] for v in nodes])


def _induced(wg: WeightedGraph, nodes: Sequence[int], weights: Sequence[int]) -> WeightedGraph:
    """The subgraph on the ascending `nodes`, node i standing for nodes[i],
    with the given weights. Each row is masked to the later nodes first, so
    only the subgraph's own edges are looked up."""
    index = {old: new for new, old in enumerate(nodes)}
    inside = 0
    for v in nodes:
        inside |= 1 << v
    edges = []
    for i, u in enumerate(nodes):
        inside ^= 1 << u  # now the nodes after u
        rest = wg.adj[u] & inside
        while rest:
            low = rest & -rest
            edges.append((i, index[low.bit_length() - 1]))
            rest ^= low
    return WeightedGraph(len(nodes), edges, weights)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(nodes: Sequence[int]) -> int:
    """The bitmask of `nodes`, set in a byte buffer: or-ing one bit at a time
    into an int would copy the whole mask per node."""
    buf = bytearray(max(nodes, default=0) // 8 + 1)
    for v in nodes:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def connected_components(wg: WeightedGraph, nodes: Sequence[int] | None = None) -> list[list[int]]:
    """Connected node sets, each sorted, ordered by smallest node: those of
    the whole graph, or of its subgraph induced on the ascending `nodes`."""
    adj = wg.adj
    if nodes is None:
        nodes, inside = range(wg.n), -1  # -1 has every bit set
    else:
        inside = _mask(nodes)
    seen = bytearray(wg.n)
    out: list[list[int]] = []
    for start in nodes:
        if not adj[start] & inside:  # an isolated node; no other start reaches it
            out.append([start])
        elif not seen[start]:
            comp = frontier = 1 << start
            members = []
            while frontier:
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    v = low.bit_length() - 1
                    members.append(v)
                    seen[v] = 1
                    nxt |= adj[v]
                    frontier ^= low
                frontier = nxt & inside & ~comp
                comp |= frontier
            members.sort()
            out.append(members)
    return out


# ---------------------------------------------------------------------------
# refinement


def _split(
    adj: Sequence[int],
    cells: list[int],
    cell_of: list[int],
    queue: list[int],
    log: dict[int, int] | None = None,
) -> None:
    """Refine an ordered partition in place until it is equitable.

    cells holds one node bitmask per cell and cell_of the index of each
    node's cell. Each queued cell S in turn splits every cell it touches, in
    index order, by the number of neighbours in S,
    `(adj[v] & S).bit_count()`. The fragment with the fewest keeps the
    cell's index and the others are appended by increasing count. Nothing
    here reads node numbers, so an automorphism that maps one partition onto
    another maps their refinements onto each other cell by cell. As in
    Hopcroft's algorithm, a cell split while not queued queues all its
    fragments but the first largest one. With `log`, the first previous mask
    of every cell that splits is recorded under its index.

    The touched cells are found one per step: the least touched node names
    a cell, and the whole cell leaves the touched mask. A cell that cannot
    split (a singleton, or for a one-node splitter a cell inside its row) is
    passed over there. A splitter of one node gives counts of 0 and 1 only,
    so a cell it touches splits into `cell & ~row` and `cell & row` with no
    count per node.
    """
    queued = [False] * len(cells)
    for s in queue:
        queued[s] = True
    for s in queue:  # the loop sees what is appended to the queue
        queued[s] = False
        splitter = cells[s]
        single = not splitter & (splitter - 1)
        if single:
            touched = adj[splitter.bit_length() - 1]
        else:
            touched = 0
            rest = splitter
            while rest:
                low = rest & -rest
                touched |= adj[low.bit_length() - 1]
                rest ^= low
        hit = []
        rest = touched
        while rest:
            i = cell_of[(rest & -rest).bit_length() - 1]
            cell = cells[i]
            rest &= ~cell
            if cell & ~touched if single else cell & (cell - 1):
                hit.append(i)
        hit.sort()
        for i in hit:
            cell = cells[i]
            if single:  # counts are 0 or 1: one AND per fragment
                parts = [cell & ~touched, cell & touched]
            else:
                by_count = {0: cell & ~touched} if cell & ~touched else {}
                rest = cell & touched
                while rest:
                    low = rest & -rest
                    k = (adj[low.bit_length() - 1] & splitter).bit_count()
                    by_count[k] = by_count.get(k, 0) | low
                    rest ^= low
                if len(by_count) == 1:
                    continue
                parts = [by_count[k] for k in sorted(by_count)]
            indices = [i]
            if log is not None:
                log.setdefault(i, cell)
            cells[i] = parts[0]
            for part in parts[1:]:
                j = len(cells)
                indices.append(j)
                rest = part
                while rest:
                    low = rest & -rest
                    cell_of[low.bit_length() - 1] = j
                    rest ^= low
                cells.append(part)
                queued.append(False)
            if not queued[i]:
                sizes = [part.bit_count() for part in parts]
                del indices[sizes.index(max(sizes))]
            for j in indices:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)


def _equitable(adj: Sequence[int], weights: Sequence[int]) -> tuple[list[int], list[int]]:
    """The coarsest equitable partition with cells of equal weight, as
    (cells, cell_of); cells start in increasing weight order. With no edge
    every neighbour count is 0, so the weight cells are equitable already.
    One weight (every full power graph, and the quotients of elementary
    abelian groups) is one cell of all the nodes, built in one step."""
    rank = {w: i for i, w in enumerate(sorted(set(weights)))}
    if len(rank) == 1:
        cells, cell_of = [(1 << len(weights)) - 1], [0] * len(weights)
    else:
        cells = [0] * len(rank)
        cell_of = [rank[w] for w in weights]
        for v, i in enumerate(cell_of):
            cells[i] |= 1 << v
    if any(adj):
        _split(adj, cells, cell_of, list(range(len(cells))))
    return cells, cell_of


def _individualize(
    adj: Sequence[int], cells: list[int], cell_of: list[int], v: int, log: dict[int, int] | None = None
) -> None:
    """Move v, in place, from an equitable partition's cell to a new last cell
    of its own, and refine with that cell as the only splitter. With `log`,
    the first previous mask of every cell it changes is recorded under the
    cell's index.

    Cells only shrink or are appended, and a node only moves into an
    appended cell, so the log undoes it (_undo)."""
    _detach(cells, cell_of, v, log)
    _split(adj, cells, cell_of, [len(cells) - 1], log)


def _detach(
    cells: list[int], cell_of: list[int], v: int, log: dict[int, int] | None = None
) -> None:
    """Move v, in place, to a new last cell of its own, logged as
    _individualize logs it, with no refinement.

    This is the whole of _individualize when v's cell lies inside v's twin
    mask (_twins) and the partition is equitable: a node outside the cell's
    twins is adjacent to all of the cell or to none, and equitability gives
    every node of its own cell the same count, so each cell is adjacent to v
    as a whole or not at all and _split would split nothing."""
    if log is not None:
        log.setdefault(cell_of[v], cells[cell_of[v]])
    cells[cell_of[v]] ^= 1 << v
    cell_of[v] = len(cells)
    cells.append(1 << v)


def _twins(adj: Sequence[int], weights: Sequence[int]) -> list[int]:
    """Each node's twin mask: itself and the nodes of its weight with an
    equal open row, or with an equal closed row.

    One dict holds both kinds of row, as no open row equals a closed one:
    if a's open row were b's closed row, it would hold b, so b's row would
    hold a and a's open row would hold a."""
    classes: dict[tuple[int, int], int] = {}
    for v, w in enumerate(weights):
        for key in ((w, adj[v]), (w, adj[v] | 1 << v)):
            classes[key] = classes.get(key, 0) | 1 << v
    return [classes[w, adj[v]] | classes[w, adj[v] | 1 << v] for v, w in enumerate(weights)]


def _undo(cells: list[int], cell_of: list[int], base: int, log: dict[int, int]) -> None:
    """Return, in place, a partition to its state before the changes logged
    from a length of `base` cells: the nodes of the appended cells go back to
    the logged cells that held them."""
    moved = 0
    for c in cells[base:]:
        moved |= c
    del cells[base:]
    for i, mask in log.items():
        if i < base:
            cells[i] = mask
            for v in _iter_bits(mask & moved):
                cell_of[v] = i


def stable_colors(wg: WeightedGraph) -> list[int]:
    """Colour refinement from the weights to the coarsest equitable partition;
    a node's colour is its cell's index.

    Every automorphism maps each colour cell onto itself, so a node alone in
    its cell is fixed by all of them."""
    return _equitable(wg.adj, wg.weights)[1]


# ---------------------------------------------------------------------------
# core search


def _search(
    src: WeightedGraph,
    dst: WeightedGraph,
    pside: tuple[list[int], list[int]],
    uside: tuple[list[int], list[int]],
    twins: tuple[Sequence[int], Sequence[int]],
    found: Callable[[tuple[int, ...]], None] | None = None,
) -> tuple[int, ...] | None:
    """The first checked bijection src -> dst that maps each cell of pside,
    an equitable partition of src, onto uside's cell of the same index, or
    None. pside and uside have equal cell sizes, as every caller checks.
    twins holds src's and dst's twin masks (_twins).

    Depth first down the individualization-refinement tree: each level
    individualizes x, the least node of pside's first non-singleton cell,
    and tries the nodes y of uside's cell of that index, x itself first (most
    symmetries move few nodes), then the rest in ascending order. On either
    side, a node whose cell lies inside its twin mask is detached with no
    refinement (_detach). A map sending x to y sends x's refinement onto y's
    cell by cell, so y is cut when a cell that either step changed or
    appended differs in size. When pside is discrete, the map is checked
    (_carries): the whole map between two graphs, or only its moved pairs
    when src is dst, and in both cases its values must be its keys, which
    makes it a permutation. The stack is explicit, so the depth is not
    bounded by Python's recursion limit. With `found`, every map that
    passes goes to it and the search goes on, returning None.

    Without `found`, once y is tried its twins are not: the transposition of
    y and a twin is an automorphism of dst that fixes every node individualized
    so far, so it carries y's subtree, leaf by leaf, onto the twin's, and one
    holds a map exactly when the other does. The first map found is the one
    the full search would find. pside is left as it came in; uside is consumed.
    """
    pcells, pcell_of = pside
    ucells, ucell_of = uside
    ptwins, utwins = twins
    # per level: [first, cells before it, x, x's log, untried ys, y's log]
    stack: list[list] = []
    first = 0  # cells before it are singletons, and stay so deeper down
    while True:
        while first < len(pcells) and not pcells[first] & (pcells[first] - 1):
            first += 1
        if first < len(pcells):
            cell = pcells[first]
            x = (cell & -cell).bit_length() - 1
            plog: dict[int, int] = {}
            stack.append([first, len(pcells), x, plog, ucells[first], {}])
            if cell & ~ptwins[x]:
                _individualize(src.adj, pcells, pcell_of, x, plog)
            else:
                _detach(pcells, pcell_of, x, plog)
        else:
            perm = tuple(ucells[i].bit_length() - 1 for i in pcell_of)
            pairs = _moved(perm) if src is dst else dict(enumerate(perm))
            if pairs.keys() == set(pairs.values()) and _carries(src, dst, pairs):
                if found is None:
                    for _, base, _, plog, _, _ in reversed(stack):
                        _undo(pcells, pcell_of, base, plog)
                    return perm
                found(perm)
        while True:  # to the next y that survives the cut, backtracking
            if not stack:
                return None
            frame = stack[-1]
            first, base, x, plog, untried, ulog = frame
            _undo(ucells, ucell_of, base, ulog)
            if not untried:
                _undo(pcells, pcell_of, base, plog)
                stack.pop()
                continue
            y = x if untried >> x & 1 else (untried & -untried).bit_length() - 1
            # a search for one map tries no twin of y (see above)
            untried &= ~utwins[y] if found is None else ~(1 << y)
            ulog = {}
            frame[4:] = untried, ulog
            if ucells[first] & ~utwins[y]:
                _individualize(dst.adj, ucells, ucell_of, y, ulog)
            else:
                _detach(ucells, ucell_of, y, ulog)
            if len(ucells) == len(pcells) and all(
                pcells[i].bit_count() == ucells[i].bit_count()
                for i in (*plog, *ulog, *range(base, len(pcells)))
            ):
                break


def _carries(a: WeightedGraph, b: WeightedGraph, pairs: dict[int, int]) -> bool:
    """True when the node map that sends each key of `pairs` to its value, and
    every other node of a to itself, gives no two keys one image and carries
    each key's weight and row onto its image's in b.

    Only the keys' rows are compared. For an automorphism, whose keys are the
    nodes it moves and whose values are those keys again, that is complete:
    an edge between two fixed nodes is its own image, and every other edge or
    non-edge lies in a key's row. For a total map it is the whole check."""
    support = images = 0
    for v, w in pairs.items():
        support |= 1 << v
        images |= 1 << w
    if images.bit_count() != len(pairs):
        return False
    adj, weights = a.adj, a.weights
    for v, w in pairs.items():
        if weights[v] != b.weights[w]:
            return False
        row = adj[v]
        image = row & ~support
        for x in _iter_bits(row & support):
            image |= 1 << pairs[x]
        if image != b.adj[w]:
            return False
    return True


class _Orbits:
    """Union-find over the nodes whose classes are the orbits of the group
    generated by the maps joined so far; a class's root is its least node,
    and holds the class's node bitmask."""

    __slots__ = ("parent", "mask")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.mask = [1 << v for v in range(n)]

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def orbit(self, x: int) -> int:
        return self.mask[self.find(x)]

    def join(self, pairs: dict[int, int]) -> None:
        """Merge the classes of each moved node v and its image w."""
        for v, w in pairs.items():
            ra, rb = self.find(v), self.find(w)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                self.parent[rb] = ra
                self.mask[ra] |= self.mask[rb]


def _guess(pcells: list[int], ucells: list[int], twins: Sequence[int]) -> dict[int, int]:
    """The moved (node, image) pairs of the map that sends each pivot-side
    cell onto the u-side cell of the same index, fixing every node both cells
    share and pairing the rest in twin block order; a singleton cell's node
    is forced. Every key leaves its cell, so none is its own image.

    Twin block order lists a mask's least node, then the rest of its twin
    class (_twins) inside the mask, and repeats. Pairing block with block
    keeps twins together: a twin class that must move as a whole, such as
    the pair {x, x^-1} of Z(4)^3, lands on one class rather than on the
    halves of two, where increasing order would split it."""
    pairs: dict[int, int] = {}
    for a, b in zip(pcells, ucells):
        if a != b:
            common = a & b
            pairs.update(zip(_twin_blocks(a ^ common, twins), _twin_blocks(b ^ common, twins)))
    return pairs


def _twin_blocks(mask: int, twins: Sequence[int]) -> Iterator[int]:
    """The nodes of mask in twin block order (_guess)."""
    while mask:
        block = twins[(mask & -mask).bit_length() - 1] & mask
        mask ^= block
        while block:
            low = block & -block
            yield low.bit_length() - 1
            block ^= low


def _transposes(wg: WeightedGraph, p: int, u: int) -> bool:
    """True when the transposition (p u) is an automorphism: p and u have
    equal weights and equal rows outside the two of them (the edge between
    them, if any, is its own image)."""
    adj = wg.adj
    return wg.weights[p] == wg.weights[u] and not (adj[p] ^ adj[u]) & ~(1 << p | 1 << u)


def _moved(perm: Sequence[int]) -> dict[int, int]:
    return {v: w for v, w in enumerate(perm) if v != w}


def _witness(
    wg: WeightedGraph,
    level: tuple[list[int], list[int]],
    pivot_side: tuple[list[int], list[int]],
    p: int,
    u: int,
    twins: Sequence[int],
) -> dict[int, int] | None:
    """The moved (node, image) pairs of a checked automorphism that preserves
    the level's partition and maps p to u, or None when there is none.

    The steps run in order and stop at the first map that passes its check:
    the transposition (p u), which two rows decide (_transposes); the swap
    of p's twin class with u's, both restricted to the level's cell and of
    equal size, pairing p with u and the rest in ascending order, its moved
    pairs checked by _carries; u's refinement of the level, whose cell sizes
    must equal those of p's (pivot_side) or u is ruled out, and one guess
    from the two, its nodes paired in the twin block order of `twins`, each
    node's twin mask (_twins, _guess), whose moved pairs must permute their
    keys and pass _carries, so no fixed node's row is read; the search from
    p's refinement onto u's (_search), each node's own image first. Every
    step moves only nodes of the level's non-singleton cells, so a map that
    passes fixes the earlier pivots. An automorphism that maps p to u maps
    p's refinement onto u's cell by cell, so only a size mismatch or an
    exhausted search rules u out.
    """
    if _transposes(wg, p, u):
        return {p: u, u: p}
    cell = level[0][level[1][p]]
    pclass, uclass = twins[p] & cell, twins[u] & cell
    if pclass & (pclass - 1) and pclass.bit_count() == uclass.bit_count():
        # twin classes are disjoint, so the swap is an involution
        pairs = {p: u, u: p}
        for a, b in zip(_iter_bits(pclass ^ 1 << p), _iter_bits(uclass ^ 1 << u)):
            pairs[a], pairs[b] = b, a
        if _carries(wg, wg, pairs):
            return pairs
    pcells = pivot_side[0]
    ucells, ucell_of = list(level[0]), list(level[1])
    _individualize(wg.adj, ucells, ucell_of, u)
    if [c.bit_count() for c in ucells] != [c.bit_count() for c in pcells]:
        return None
    pairs = _guess(pcells, ucells, twins)
    if pairs.keys() == set(pairs.values()) and _carries(wg, wg, pairs):
        return pairs
    perm = _search(wg, wg, pivot_side, (ucells, ucell_of), (twins, twins))
    return None if perm is None else _moved(perm)


def _aut_order(wg: WeightedGraph, cells: list[int], cell_of: list[int]) -> tuple[int, _Orbits]:
    """Order of the automorphism group that preserves the equitable partition
    (cells, cell_of), by orbit-stabilizer, and its orbits.

    The individualization chain fixes, level by level, the least node (the
    pivot) of the first non-singleton cell and refines, until every cell is a
    singleton. A cell that lies inside its pivot's twin mask is one chain
    entry, a twin run: its levels detach, with no refinement (_detach), every
    node of the cell but the last, in ascending order. Level i's group G_i
    fixes the earlier pivots, and
    |G_i| is the size of the pivot's G_i-orbit times |G_(i+1)|. Levels are
    handled from the deepest up, with one union-find over the automorphisms
    found so far: all of them fix the current level's earlier pivots, so
    they lie in G_i. A cell member gets a witness attempt (_witness) only
    when it lies outside the pivot's known orbit and outside every orbit
    already shown to hold no image of the pivot (an image there would put
    the whole orbit in the pivot's); both are read off the orbit masks. At
    the end of a level the pivot's known orbit is its full G_i-orbit, so
    the maps found generate the group and the union-find ends with its
    orbits. A twin run's level of pivot p has the run's nodes from p on as
    its cell; going up, the transposition of p and the run's next node is
    checked (_transposes), which puts that whole cell in p's orbit, as no
    map found deeper moves a node of the run. With every level of a run of
    k nodes checked, the run joins as one orbit and its levels' orbit sizes
    k, k-1, ..., 2 multiply to k!.

    The chain refines (cells, cell_of) in place and keeps, per entry, only
    an undo log of the cells it changed; going up, each entry's partition is
    the one below with that entry's log undone, so at most two levels'
    partitions are alive at a time. A twin run is undone in place and once,
    as its witnesses are transpositions and never read the partition below.
    """
    twins = _twins(wg.adj, wg.weights)
    chain: list[tuple[int, dict[int, int], int, int]] = []  # per level
    first = 0  # cells before it are singletons, and stay so
    while True:
        while first < len(cells) and not cells[first] & (cells[first] - 1):
            first += 1
        if first == len(cells):
            break
        target = cells[first]
        pivot = (target & -target).bit_length() - 1
        log: dict[int, int] = {}
        chain.append((len(cells), log, target, pivot))
        if target & ~twins[pivot]:
            _individualize(wg.adj, cells, cell_of, pivot, log)
        else:  # a twin run: every node of the cell but the last, in ascending order
            rest = target
            while rest & (rest - 1):
                low = rest & -rest
                _detach(cells, cell_of, low.bit_length() - 1, log)
                rest ^= low

    orbits = _Orbits(wg.n)
    order = 1
    pivot_side = (cells, cell_of)
    for base, log, target, pivot in reversed(chain):
        twin_run = not target & ~twins[pivot]
        if not twin_run:
            cells, cell_of = list(cells), list(cell_of)
        _undo(cells, cell_of, base, log)
        if twin_run:
            # the run's levels from the deepest up: level p's cell is the
            # nodes from p on, and (p u), u the next node, puts that cell in
            # p's orbit. Once every transposition is checked, the run joins as
            # one class, and its k levels' orbits multiply to k!
            u = target.bit_length() - 1
            rest = target ^ 1 << u
            while rest:
                p = rest.bit_length() - 1
                if not _transposes(wg, p, u):
                    raise RuntimeError(f"twins {p} and {u} do not transpose")
                rest ^= 1 << p
                u = p
            orbits.join(dict.fromkeys(_iter_bits(target), pivot))
            order *= math.factorial(target.bit_count())
        else:
            dead = 0  # the orbits known to hold no image
            while candidates := target & ~(orbits.orbit(pivot) | dead):
                u = (candidates & -candidates).bit_length() - 1
                orbit = orbits.orbit(u)
                if orbit & dead:  # joined to a dead orbit since it was ruled out
                    dead |= orbit
                    continue
                pairs = _witness(wg, (cells, cell_of), pivot_side, pivot, u, twins)
                if pairs is None:
                    dead |= orbit
                else:
                    orbits.join(pairs)
            order *= (orbits.orbit(pivot) & target).bit_count()
        pivot_side = (cells, cell_of)
    return order, orbits


# ---------------------------------------------------------------------------
# public operations


def count_automorphisms(wg: WeightedGraph, caps: OracleCaps | None = None) -> int:
    """Exact number of weight- and adjacency-preserving node bijections."""
    _check_nodes(caps, wg)
    return _aut_order(wg, *_equitable(wg.adj, wg.weights))[0]


def _magnitude(n: int) -> str:
    """n in decimal, or its leading power of two where str() could refuse it
    (above 4300 digits by default; 2000 bits are at most 603 digits)."""
    return str(n) if n.bit_length() <= 2000 else f"about 2**{n.bit_length() - 1}"


def enumerate_automorphisms(
    wg: WeightedGraph, caps: OracleCaps | None = None
) -> list[tuple[int, ...]]:
    """All automorphisms in lexicographic order, each independently re-verified."""
    caps = caps or _DEFAULT_CAPS
    total = count_automorphisms(wg, caps)
    if total > caps.max_count:
        raise CapExceeded(
            f"{_magnitude(total)} automorphisms exceed the enumeration cap of "
            f"{_magnitude(caps.max_count)}"
        )
    cells, cell_of = _equitable(wg.adj, wg.weights)
    twins = _twins(wg.adj, wg.weights)
    out: list[tuple[int, ...]] = []
    _search(wg, wg, (cells, cell_of), (list(cells), list(cell_of)), (twins, twins), out.append)
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
    _check_nodes(caps, a, b)
    if a.n != b.n or a.edge_count != b.edge_count:
        return None
    if sorted(a.weights) != sorted(b.weights):
        return None
    # refine both graphs jointly, as one disjoint union with b's nodes
    # shifted by a.n, so that cells are comparable across them
    adj, weights = a.adj + tuple(m << a.n for m in b.adj), a.weights + b.weights
    cells, cell_of = _equitable(adj, weights)
    a_side = (1 << a.n) - 1
    if any(2 * (c & a_side).bit_count() != c.bit_count() for c in cells):
        return None
    a_cells = [c & a_side for c in cells], cell_of[: a.n]
    b_cells = [c >> a.n for c in cells], cell_of[a.n :]
    # the union's twin masks, each cut to its own side (two isolated nodes
    # of one weight are twins across the sides)
    twins = _twins(adj, weights)
    a_twins, b_twins = [t & a_side for t in twins[: a.n]], [t >> a.n for t in twins[a.n :]]
    return _search(a, b, a_cells, b_cells, (a_twins, b_twins))


def vertex_orbits(wg: WeightedGraph, caps: OracleCaps | None = None) -> list[list[int]]:
    """Orbits of the full automorphism group on nodes.

    The automorphisms the count finds are a generating set (every orbit of a
    pivot at its level is reached), so closing the nodes under them yields
    the exact orbit partition without enumerating the group.
    """
    _check_nodes(caps, wg)
    orbits = _aut_order(wg, *_equitable(wg.adj, wg.weights))[1]
    return [list(_iter_bits(orbits.mask[v])) for v in range(wg.n) if orbits.parent[v] == v]
