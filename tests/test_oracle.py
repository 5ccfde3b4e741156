import ast
import math
from collections import Counter
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pga import (
    CapExceeded,
    Opaque,
    OracleCaps,
    Product,
    Sym,
    WeightedGraph,
    Wreath,
    connected_components,
    count_automorphisms,
    enumerate_automorphisms,
    expr_normalize,
    find_isomorphism,
    quotient_aut,
    stable_colors,
    verify,
    vertex_orbits,
)
from pga import engine, oracle

from _support import (
    GOLDEN_SPECS, bundle, naive_count, planted_twins, reference_search, reference_split, relabel, report,
    traced_peak, twin_ring, twin_ring_order, twin_rings, weighted_graphs,
)


def K(n, weights=None):
    return WeightedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], weights)


def empty(n, weights=None):
    return WeightedGraph(n, [], weights)


def test_triangle_has_six_automorphisms():
    assert count_automorphisms(K(3)) == 6


def test_empty_seven_has_factorial_count():
    assert count_automorphisms(empty(7)) == 5040


def test_power_graph_z4_squared_count():
    wg = bundle("Z(4)^2").pg
    assert count_automorphisms(wg) == 3072


def test_weights_block_automorphisms():
    assert count_automorphisms(K(2, (1, 2))) == 1
    assert enumerate_automorphisms(K(2, (1, 2))) == [(0, 1)]


def test_enumerate_single_node():
    assert enumerate_automorphisms(WeightedGraph(1)) == [(0,)]


def test_enumerate_power_graph_sym3():
    wg = bundle("Sym(3)").pg
    maps = enumerate_automorphisms(wg)
    assert len(maps) == 12


def test_enumerate_deterministic_and_sorted():
    wg = K(3)
    first = enumerate_automorphisms(wg)
    assert first == enumerate_automorphisms(wg)
    assert first == sorted(first)


def test_isomorphism_examples():
    assert find_isomorphism(K(2, (2, 2)), K(2, (2, 2))) is not None
    assert find_isomorphism(K(2), empty(2)) is None
    assert find_isomorphism(K(2, (1, 2)), K(2, (1, 1))) is None


def test_isomorphism_witness_is_valid():
    a = WeightedGraph(4, [(0, 1), (1, 2)], (1, 2, 1, 3))
    b = WeightedGraph(4, [(3, 2), (2, 1)], (3, 1, 2, 1))
    witness = find_isomorphism(a, b)
    assert witness is not None
    for u in range(4):
        assert b.weights[witness[u]] == a.weights[u]
        for v in range(u + 1, 4):
            assert (a.adj[u] >> v & 1) == (b.adj[witness[u]] >> witness[v] & 1)


def test_quotient_components_of_z4_squared_pairwise_isomorphic():
    wg = bundle("Z(4)^2").q
    comps = [wg.subgraph(c) for c in connected_components(wg)]
    assert len(comps) == 3
    for a in comps:
        for b in comps:
            assert find_isomorphism(a, b) is not None


def test_vertex_orbits_examples():
    assert vertex_orbits(empty(4)) == [[0, 1, 2, 3]]
    assert vertex_orbits(K(2, (1, 2))) == [[0], [1]]
    q = bundle("Z(4)^2").q
    orbits = vertex_orbits(q)
    by_weight = {1: [], 2: []}
    for i, w in enumerate(q.weights):
        by_weight[w].append(i)
    assert sorted(orbits) == sorted([by_weight[1], by_weight[2]])


def test_node_cap():
    caps = OracleCaps(max_nodes=4)
    message = "graph has 5 nodes, above the cap of 4"
    for call in (count_automorphisms, vertex_orbits):
        with pytest.raises(CapExceeded, match=message):
            call(empty(5), caps)
    # find_isomorphism names the larger graph, whichever side it is on
    for a, b in ((K(3), empty(5)), (empty(5), K(3))):
        with pytest.raises(CapExceeded, match=message):
            find_isomorphism(a, b, caps)


@pytest.mark.parametrize(
    "caps", [{"max_nodes": 0}, {"max_count": 0}, {"max_nodes": -5, "max_count": -1}]
)
def test_caps_below_one_rejected(caps):
    # a cap below 1 would make every count and cross-check a silent skip
    with pytest.raises(ValueError, match="at least 1"):
        OracleCaps(**caps)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_automorphisms(K(3), OracleCaps(max_count=5))


def test_enumeration_cap_message_survives_huge_counts(monkeypatch):
    # str() refuses integers above 4300 digits; the message must not need it
    monkeypatch.setattr(oracle, "count_automorphisms", lambda wg, caps: 10**5000)
    with pytest.raises(CapExceeded, match=r"about 2\*\*16609 .* cap of about 2\*\*16606"):
        enumerate_automorphisms(K(3), OracleCaps(max_count=10**4999))


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 5)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [], (1, 0))
    with pytest.raises(ValueError):
        WeightedGraph(0)
    with pytest.raises(ValueError, match="one weight per node"):
        WeightedGraph(2, [], (1,))
    wg = WeightedGraph(2, [(0, 1)])
    with pytest.raises(AttributeError, match="immutable"):
        wg.weights = (1, 2)
    assert wg.weights == (1, 1)


def test_weights_must_be_integers():
    # int() would read 1.5 as 1, and the two nodes could then be swapped
    for weights, bad in (([1.5, 1], "1.5"), (["2", 2], "'2'"), ([1, np.float64(3.0)], "3.0")):
        with pytest.raises(ValueError, match=f"weight .*{bad}.* is not an integer"):
            WeightedGraph(2, [], weights)
    assert WeightedGraph(2, [], (np.int64(2), np.uint8(1))).weights == (2, 1)


def test_connected_components_order():
    wg = WeightedGraph(5, [(3, 4), (1, 2)])
    assert connected_components(wg) == [[0], [1, 2], [3, 4]]


@given(weighted_graphs(6))
@settings(max_examples=60, deadline=None)
def test_count_matches_naive_and_enumeration(wg):
    count = count_automorphisms(wg)
    assert count == naive_count(wg)
    assert count == len(enumerate_automorphisms(wg))


@given(weighted_graphs(6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_count_invariant_under_relabeling(wg, rng):
    perm = list(range(wg.n))
    rng.shuffle(perm)
    assert count_automorphisms(relabel(wg, perm)) == count_automorphisms(wg)


@given(weighted_graphs(6))
@settings(max_examples=40, deadline=None)
def test_refinement_soundness(wg):
    # no verified automorphism maps across stable color classes
    colors = stable_colors(wg)
    for perm in enumerate_automorphisms(wg):
        assert all(colors[perm[v]] == colors[v] for v in range(wg.n))


@given(st.one_of(weighted_graphs(12), planted_twins()), st.data())
@settings(max_examples=80, deadline=None)
def test_split_matches_reference(wg, data):
    # from the weight partition with every cell queued, then after moving a
    # random node to a cell of its own with a log, as _individualize does
    rank = {w: i for i, w in enumerate(sorted(set(wg.weights)))}
    cell_of = [rank[w] for w in wg.weights]
    cells = [sum(1 << v for v, i in enumerate(cell_of) if i == c) for c in range(len(rank))]
    runs = []
    for split in (oracle._split, reference_split):
        state, log = (list(cells), list(cell_of), list(range(len(cells)))), {}
        split(wg.adj, *state, log)
        runs.append((state, log))
    assert runs[0] == runs[1]
    equitable = runs[0][0][:2]
    v = data.draw(st.integers(0, wg.n - 1))
    runs = []
    for split in (oracle._split, reference_split):
        state, log = (list(equitable[0]), list(equitable[1])), {}
        oracle._detach(*state, v, log)
        queue = [len(state[0]) - 1]
        split(wg.adj, *state, queue, log)
        runs.append((state, log, queue))
    assert runs[0] == runs[1]


@given(weighted_graphs(6))
@settings(max_examples=40, deadline=None)
def test_orbits_agree_with_enumeration(wg):
    maps = enumerate_automorphisms(wg)
    parent = list(range(wg.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in maps:
        for v in range(wg.n):
            a, b = find(v), find(perm[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    expected = {}
    for v in range(wg.n):
        expected.setdefault(find(v), []).append(v)
    assert sorted(vertex_orbits(wg)) == sorted(sorted(vs) for vs in expected.values())


def test_subgraph_and_relabel():
    wg = WeightedGraph(4, [(0, 1), (2, 3)], (1, 2, 3, 4))
    sub = wg.subgraph([2, 3])
    assert sub.n == 2 and sub.weights == (3, 4) and sub.adj[0] >> 1 & 1
    back = relabel(wg, [3, 2, 1, 0])
    assert back.weights == (4, 3, 2, 1)
    assert back.adj[3] >> 2 & 1 and back.adj[0] >> 1 & 1


def test_subgraph_rejects_repeated_and_out_of_range_nodes():
    # as the constructor names a bad edge, subgraph names a bad node
    wg = WeightedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="node 0 is given twice"):
        wg.subgraph([0, 0, 1])
    for bad in (5, 3, -1):
        with pytest.raises(ValueError, match=f"node {bad} out of range"):
            wg.subgraph([1, bad])
    assert wg.subgraph([2, 0]).weights == (1, 1) and wg.subgraph([2, 0]).edge_count == 0


def _count_calls(monkeypatch, name, module=oracle):
    """The list of results of every call of module.<name> from now on."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, counted)
    return calls


def _is_automorphism(wg, pairs):
    """The oracle's automorphism check: (node, image) pairs that permute
    their keys and pass the one map check."""
    return pairs.keys() == set(pairs.values()) and oracle._carries(wg, wg, pairs)


def _is_isomorphism(a, b, perm):
    """The oracle's isomorphism check: a bijection that passes the one map
    check as a total map."""
    return sorted(perm) == list(range(b.n)) and oracle._carries(a, b, dict(enumerate(perm)))


@pytest.mark.parametrize(
    "build", [lambda: empty(63), lambda: bundle("Z(2)^6").pg], ids=["empty(63)", "Z(2)^6"]
)
def test_orbit_pruning_bounds_the_searches(build, monkeypatch):
    # each checked map joins two orbits, and on these graphs every level is
    # in a twin run, whose orbits join through transpositions: at most n - 1
    # are checked and none needs a guess or an exhaustive search
    _assert_twin_runs_only(build(), math.factorial(63), monkeypatch)


def _assert_twin_runs_only(wg, order, monkeypatch):
    """Count wg, whose levels all lie in twin runs: at most n - 1 checked
    transpositions, none failing, no guess, no search, and no refinement
    beyond the first partition's."""
    transpositions = _count_calls(monkeypatch, "_transposes")
    splits = _count_calls(monkeypatch, "_split")
    guesses = _count_calls(monkeypatch, "_guess")
    searches = _count_calls(monkeypatch, "_search")
    assert count_automorphisms(wg, OracleCaps(max_nodes=wg.n)) == order
    assert 0 < len(transpositions) <= wg.n - 1
    assert all(transpositions)
    assert guesses == [] and searches == []
    assert len(splits) <= 2


def test_counting_memory_is_linear_in_the_chain():
    # each level keeps an undo log of the cells it changed; a copy of the
    # partition per level took 4.5 MB on 600 nodes
    wg, expected = empty(600), math.factorial(600)
    counts = []
    assert traced_peak(lambda: counts.append(count_automorphisms(wg, OracleCaps(max_nodes=600)))) < 2**20
    assert counts == [expected]


def test_one_failed_search_rules_out_a_whole_orbit(monkeypatch):
    # a triangle and a 4-cycle: one colour cell but two orbits. At the top
    # level the square's nodes already form one orbit of the maps found
    # deeper down, so ruling out one of them rules out all four. The pivot's
    # refinement and the square node's differ in cell sizes, so that one
    # candidate is ruled out with no search
    wg = WeightedGraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    witnesses = _count_calls(monkeypatch, "_witness")
    guesses = _count_calls(monkeypatch, "_guess")
    searches = _count_calls(monkeypatch, "_search")
    assert count_automorphisms(wg) == 6 * 8 == naive_count(wg)
    assert witnesses.count(None) == 1
    assert searches == []
    # every guess made was a witness, so the refinement ruled the candidate out
    assert all(_is_automorphism(wg, pairs) for pairs in guesses)


@pytest.mark.parametrize("spec", ["Sym(5)", "Dih(50)", "Z(2)^6", "Z(4)^3"])
def test_full_power_graphs_count_without_exhaustive_search(spec, monkeypatch):
    # Z(4)^3's elements of order 4 form closed-twin pairs {x, x^-1}; a guess
    # that pairs nodes in increasing order splits such pairs and fails, so
    # the guess pairs them twin class by twin class
    wg, order = bundle(spec).pg, report(spec).order
    searches = _count_calls(monkeypatch, "_search")
    assert count_automorphisms(wg, OracleCaps(max_nodes=wg.n)) == order
    assert searches == []


@given(weighted_graphs(6), st.data())
@settings(max_examples=80, deadline=None)
def test_moved_rows_check_equals_full_check(wg, data):
    # random permutations, and automorphisms so that both answers occur
    autos = enumerate_automorphisms(wg)
    perm = data.draw(st.one_of(st.permutations(range(wg.n)), st.sampled_from(autos)))
    full = all(wg.weights[perm[v]] == wg.weights[v] for v in range(wg.n)) and all(
        (wg.adj[u] >> v & 1) == (wg.adj[perm[u]] >> perm[v] & 1)
        for u in range(wg.n)
        for v in range(wg.n)
        if u != v
    )
    assert _is_automorphism(wg, {v: w for v, w in enumerate(perm) if v != w}) == full


@pytest.mark.parametrize("spec, count", [("Sym(5)", 9), ("Z(4)^3", 6)])
def test_guesses_hand_back_only_moved_pairs(spec, count, monkeypatch):
    # a guess, and a swap of two twin classes, names only the nodes it moves,
    # so checking it reads no row of a fixed node and builds no map of every
    # node; most candidates here are met by a swap, before any refinement
    wg = bundle(spec).pg
    guesses = _count_calls(monkeypatch, "_guess")
    witnesses = _count_calls(monkeypatch, "_witness")
    assert count_automorphisms(wg, OracleCaps(max_nodes=wg.n)) == report(spec).order
    assert len(guesses) == count
    assert all(v != w for pairs in guesses for v, w in pairs.items())
    # a swap is a witness of more than two pairs that no guess handed over
    swaps = [pairs for pairs in witnesses if pairs and len(pairs) > 2 and pairs not in guesses]
    assert swaps
    assert all(_is_automorphism(wg, pairs) for pairs in swaps)
    assert all(v != w for pairs in swaps for v, w in pairs.items())


def _carries_by_definition(a, b, pairs):
    """The one map check from its definition: the map sends each key to its
    value and every other node of a to itself; no two keys share an image,
    and each key's weight and neighbour set go onto its image's in b."""
    return len(set(pairs.values())) == len(pairs) and all(
        a.weights[v] == b.weights[w]
        and {pairs.get(x, x) for x in a.neighbors(v)} == set(b.neighbors(w))
        for v, w in pairs.items()
    )


def _maps_onto(a, b, nodes, image):
    """Brute force: image, on `nodes`, keeps every weight and every edge and
    non-edge between two of them."""
    return all(a.weights[v] == b.weights[image[v]] for v in nodes) and all(
        (a.adj[u] >> v & 1) == (b.adj[image[u]] >> image[v] & 1) for u in nodes for v in nodes if u != v
    )


@given(weighted_graphs(6), st.permutations(range(6)), st.data())
@settings(max_examples=100, deadline=None)
def test_one_map_check_matches_its_definition(wg, perm, data):
    n = wg.n
    # the moved pairs of a permutation, as a guess or a self-search leaf
    # hands them over; automorphisms are drawn too, so both answers occur
    autos = enumerate_automorphisms(wg)
    auto = data.draw(st.one_of(st.permutations(range(n)), st.sampled_from(autos)))
    moved = {v: w for v, w in enumerate(auto) if v != w}
    full = _maps_onto(wg, wg, range(n), auto)
    assert oracle._carries(wg, wg, moved) == _carries_by_definition(wg, wg, moved) == full
    # any partial map, where two keys may share an image
    nodes = st.integers(0, n - 1)
    partial = data.draw(st.dictionaries(nodes, nodes, max_size=n))
    assert oracle._carries(wg, wg, partial) == _carries_by_definition(wg, wg, partial)
    # the total map onto a relabelled copy with up to two node pairs toggled,
    # as an isomorphism leaf hands it over
    image = [v for v in perm if v < n]
    shuffled = relabel(wg, image)
    edges = set(shuffled.edges())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else ():
        edges ^= {pair}
    other = WeightedGraph(n, edges, shuffled.weights)
    total = data.draw(st.one_of(st.just(image), st.permutations(range(n))))
    full = _maps_onto(wg, other, range(n), total)
    total = dict(enumerate(total))
    assert oracle._carries(wg, other, total) == _carries_by_definition(wg, other, total) == full
    # one component onto another inside the disjoint union of the two, by
    # stable colour: the colour-forced map where the colours are distinct
    union = WeightedGraph(
        2 * n, wg.edges() + [(u + n, v + n) for u, v in other.edges()], wg.weights + other.weights
    )
    colors = stable_colors(union)
    comps = connected_components(union)
    matches = [
        (c, d)
        for c in comps
        for d in comps
        if c != d and sorted(map(colors.__getitem__, c)) == sorted(map(colors.__getitem__, d))
    ]
    if matches:
        c, d = data.draw(st.sampled_from(matches))
        forced = dict(zip(sorted(c, key=colors.__getitem__), sorted(d, key=colors.__getitem__)))
        full = _maps_onto(union, union, c, forced)
        assert (
            oracle._carries(union, union, forced)
            == _carries_by_definition(union, union, forced)
            == full
        )


def test_one_map_check_gives_no_two_keys_one_image():
    # every row and weight agrees here, so only the image count rules it out
    wg = WeightedGraph(4, [(0, 3), (1, 3), (2, 3)])
    assert not oracle._carries(wg, wg, {0: 2, 1: 2})
    assert oracle._carries(wg, wg, {0: 1, 1: 0})
    assert _carries_by_definition(wg, wg, {0: 1, 1: 0})
    assert not _carries_by_definition(wg, wg, {0: 2, 1: 2})


@given(weighted_graphs(6))
@settings(max_examples=60, deadline=None)
def test_two_row_transposition_check_equals_full_check(wg):
    for p in range(wg.n):
        for u in range(wg.n):
            assert oracle._transposes(wg, p, u) == _is_automorphism(wg, {p: u, u: p})


@st.composite
def graphs_with_twins(draw):
    """A random graph with some nodes cloned: each clone has its original's
    weight and neighbours, and is joined to the original or not."""
    base = draw(weighted_graphs(4))
    edges, weights = base.edges(), list(base.weights)
    for v in draw(st.lists(st.integers(0, base.n - 1), min_size=1, max_size=4)):
        clone = len(weights)
        weights.append(weights[v])
        edges += [(clone, w) for w in range(base.n) if base.adj[v] >> w & 1]
        if draw(st.booleans()):
            edges.append((v, clone))
    return WeightedGraph(len(weights), edges, weights)


@given(graphs_with_twins())
@settings(max_examples=60, deadline=None)
def test_count_matches_enumeration_with_twins(wg):
    count = count_automorphisms(wg)
    assert count == len(enumerate_automorphisms(wg))
    if wg.n <= 7:
        assert count == naive_count(wg)


def _same_weight(a, b):
    """Per node of a, the mask of b's nodes of its weight."""
    return [sum(1 << w for w in range(b.n) if b.weights[w] == a.weights[v]) for v in range(a.n)]


@given(weighted_graphs(6), st.permutations(range(6)))
@settings(max_examples=60, deadline=None)
def test_search_matches_reference_on_shuffled_copies(wg, perm):
    # a shuffled copy is isomorphic, and the automorphisms listed are those
    # of a per-node search
    other = relabel(wg, [v for v in perm if v < wg.n])
    assert _is_isomorphism(wg, other, find_isomorphism(wg, other))
    expected = []
    reference_search(wg, wg, _same_weight(wg, wg), expected.append)
    assert enumerate_automorphisms(wg) == sorted(expected)


@given(weighted_graphs(6), st.permutations(range(6)), st.data())
@settings(max_examples=100, deadline=None)
def test_search_decides_isomorphism_as_the_reference(wg, perm, data):
    # a shuffled copy with up to two node pairs toggled may or may not be
    # isomorphic; both searches must agree on which
    shuffled = relabel(wg, [v for v in perm if v < wg.n])
    edges = set(shuffled.edges())
    pairs = [(i, j) for i in range(wg.n) for j in range(i + 1, wg.n)]
    for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else ():
        edges ^= {pair}
    other = WeightedGraph(wg.n, edges, shuffled.weights)
    found = find_isomorphism(wg, other)
    assert (found is None) == (reference_search(wg, other, _same_weight(wg, other)) is None)
    assert found is None or _is_isomorphism(wg, other, found)


def test_search_leaves_the_pivot_side_as_it_came(monkeypatch):
    # Z(8)^2's count falls back to the search after a guess that fails;
    # every witness reuses pivot_side for the next level up
    wg, order, calls = bundle("Z(8)^2").pg, report("Z(8)^2").order, []
    real = oracle._search

    def checked(src, dst, pside, uside, twins, found=None):
        before = list(pside[0]), list(pside[1])
        calls.append(real(src, dst, pside, uside, twins, found))
        assert (pside[0], pside[1]) == before
        return calls[-1]

    monkeypatch.setattr(oracle, "_search", checked)
    assert count_automorphisms(wg, OracleCaps(max_nodes=wg.n)) == order
    assert len(calls) >= 1 and None not in calls


def test_exhausted_search_leaves_the_pivot_side_as_it_came():
    # K(3,3) and the prism: 3-regular on 6 nodes, one joint colour cell, and
    # not isomorphic, so the search is exhausted
    a = _complete_bipartite(3, 3)
    b = WeightedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    cells, cell_of = oracle._equitable(a.adj + tuple(m << 6 for m in b.adj), a.weights + b.weights)
    pside = [c & 63 for c in cells], cell_of[:6]
    before = list(pside[0]), list(pside[1])
    twins = oracle._twins(a.adj, a.weights), oracle._twins(b.adj, b.weights)
    assert oracle._search(a, b, pside, ([c >> 6 for c in cells], cell_of[6:]), twins) is None
    assert pside == before


def test_search_tries_each_node_itself_first(monkeypatch):
    # the path and its reversal: mapping every node to itself is the first
    # leaf, so one map is checked on 1,100 nodes
    path = WeightedGraph(1100, [(i, i + 1) for i in range(1099)])
    leaves = _count_calls(monkeypatch, "_carries")
    reversal = relabel(path, range(1099, -1, -1))
    assert find_isomorphism(path, reversal, OracleCaps(max_nodes=1100)) == tuple(range(1100))
    assert leaves == [True]
    # with nodes 0 and 2 swapped, each other node is its own first image, so
    # the swap itself is found; ascending order alone would move three nodes
    swapped = (2, 1, 0, 3, 4, 5)
    edgeless = WeightedGraph(6, [], (2, 1, 1, 1, 1, 1))
    assert find_isomorphism(edgeless, relabel(edgeless, swapped)) == swapped


def _sizes_checked_search(calls):
    """A patch of oracle._search that asserts, on entry, that its two sides
    have equal cell sizes (the search does not compare them: its callers do),
    and counts its calls in the list `calls`."""
    real = oracle._search

    def checked(src, dst, pside, uside, twins, found=None):
        assert [c.bit_count() for c in pside[0]] == [c.bit_count() for c in uside[0]]
        calls.append(1)
        return real(src, dst, pside, uside, twins, found)

    return mock.patch.object(oracle, "_search", checked)


@given(st.one_of(weighted_graphs(6), planted_twins()), st.randoms(use_true_random=False), st.data())
@settings(max_examples=100, deadline=None)
def test_search_is_entered_with_equal_cell_sizes(wg, rng, data):
    # a shuffled copy is isomorphic; with one edge moved to a non-adjacent
    # pair it may not be, and it keeps the edge count and weights, so the
    # isomorphism test goes on to compare refinements
    shuffled = relabel(wg, rng.sample(range(wg.n), wg.n))
    edges = set(shuffled.edges())
    apart = set(combinations(range(wg.n), 2)) - edges
    if edges and apart:
        edges ^= {data.draw(st.sampled_from(sorted(edges))), data.draw(st.sampled_from(sorted(apart)))}
    toggled = WeightedGraph(wg.n, edges, shuffled.weights)
    calls = []
    with _sizes_checked_search(calls):
        count = count_automorphisms(wg)
        assert _is_isomorphism(wg, shuffled, find_isomorphism(wg, shuffled))
        found = find_isomorphism(wg, toggled)
        assert found is None or _is_isomorphism(wg, toggled, found)
        assert len(enumerate_automorphisms(wg)) == count
    assert calls  # the enumeration is one search


def test_search_is_entered_with_equal_cell_sizes_on_golden_specs():
    # every full power graph of the golden specs, counted with the search
    # wrapped, and the triangle beside the 4-cycle, whose square node's
    # refinement differs from the pivot's in cell sizes
    calls = []
    with _sizes_checked_search(calls):
        wg = WeightedGraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert count_automorphisms(wg) == 6 * 8
        for spec in GOLDEN_SPECS:
            assert verify(spec, OracleCaps(max_nodes=2000)).verification.status == "full-verified", spec
    assert calls


def test_deep_search_has_no_recursion_limit():
    # the search is a loop, so 1,100 mapped nodes need no 1,100 stack frames
    caps = OracleCaps(max_nodes=1100)
    assert find_isomorphism(WeightedGraph(1100), WeightedGraph(1100), caps) == tuple(range(1100))
    path = WeightedGraph(1100, [(i, i + 1) for i in range(1099)])
    assert find_isomorphism(path, relabel(path, range(1099, -1, -1)), caps) == tuple(range(1100))


def _disjoint_copies(wg, copies):
    edges = [(u + i * wg.n, v + i * wg.n) for i in range(copies) for u, v in wg.edges()]
    return WeightedGraph(wg.n * copies, edges, wg.weights * copies)


def _complete_bipartite(a, b, subdivided=False):
    if not subdivided:
        return WeightedGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    # node a + b + i*b + j sits on the edge between i and a + j
    mid = a + b
    edges = [(i, mid + i * b + j) for i in range(a) for j in range(b)]
    edges += [(a + j, mid + i * b + j) for i in range(a) for j in range(b)]
    return WeightedGraph(mid + a * b, edges)


# at most 4!**2 * 2 or 3!**3 * 3! automorphisms each, so enumeration stays quick
symmetric_graphs = st.one_of(
    weighted_graphs(4).map(lambda wg: _disjoint_copies(wg, 2)),
    weighted_graphs(3).map(lambda wg: _disjoint_copies(wg, 3)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda t: _complete_bipartite(*t)),
    st.just(_complete_bipartite(3, 4, subdivided=True)),
)


@given(symmetric_graphs)
@settings(max_examples=40, deadline=None)
def test_count_matches_enumeration_on_symmetric_graphs(wg):
    assert count_automorphisms(wg) == len(enumerate_automorphisms(wg))


def _certificates(wg, caps=None):
    """The engine's certificate of each component of wg, in component order.
    Each comes from the engine's recursion on the component's node set, under
    the whole graph's stable colours and one leaf registry for all, as the
    recursion on the whole graph meets them; their multiset is that
    recursion's certificate."""
    colors, leaves = stable_colors(wg), {}
    certs = []
    for comp in connected_components(wg):
        ((cert, _),) = engine._quotient_aut(wg, comp, colors, caps, leaves)[0]
        certs.append(cert)
    assert engine._quotient_aut(wg, None, colors, caps, {})[0] == frozenset(Counter(certs).items())
    return certs


def _shuffled_union(parts, isolated, rng):
    """The disjoint union of the parts, some repeated, and of isolated nodes
    of the weights in `isolated`, with the nodes shuffled."""
    parts = parts + [rng.choice(parts) for _ in range(rng.randrange(4))]
    parts += [WeightedGraph(1, [], [w]) for w in isolated]
    edges, weights = [], []
    for part in parts:
        edges += [(u + len(weights), v + len(weights)) for u, v in part.edges()]
        weights += part.weights
    perm = list(range(len(weights)))
    rng.shuffle(perm)
    return relabel(WeightedGraph(len(weights), edges, weights), perm)


def _cells(colors):
    """The partition a colouring makes of its indices, free of colour numbers."""
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, set()).add(v)
    return sorted(map(sorted, cells.values()))


@given(
    st.lists(weighted_graphs(6), min_size=1, max_size=5),
    st.lists(st.integers(1, 3), max_size=10),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_stable_colours_restrict_to_each_component(parts, isolated, rng):
    # a node's stable colour is decided inside its component, so refining the
    # whole graph once gives every component its own stable colouring
    wg = _shuffled_union(parts, isolated, rng)
    colors = stable_colors(wg)
    for comp in connected_components(wg):
        sub = wg.subgraph(comp)
        restricted = [colors[v] for v in comp]
        assert _cells(restricted) == _cells(stable_colors(sub))
        # the rest, the cells of two or more nodes, is equitable under the
        # same colours: weighted by them, its stable colouring is those colours
        size = Counter(restricted)
        rest = [i for i, c in enumerate(restricted) if size[c] > 1]
        if rest:
            reweighted = [restricted[i] + 1 for i in rest]
            stripped = WeightedGraph(len(rest), sub.subgraph(rest).edges(), reweighted)
            assert _cells(stable_colors(stripped)) == _cells(reweighted)


def _moved_open_class(runs, data):
    """The runs of a twin ring with one open class moved to another run."""
    runs = list(runs)
    if len(runs) > 1 and any(runs):
        source = data.draw(st.sampled_from([i for i, r in enumerate(runs) if r]))
        runs[source] -= 1
        runs[data.draw(st.sampled_from([i for i in range(len(runs)) if i != source]))] += 1
    return runs


@given(
    st.lists(st.one_of(weighted_graphs(6), planted_twins()), min_size=1, max_size=4),
    st.lists(twin_rings(), max_size=2),
    st.lists(st.integers(1, 3), max_size=10),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_component_classes_match_pairwise_grouping(graphs, rings, isolated, data):
    # copies, relabelled copies and near-copies (a weight or an edge moved)
    # of random graphs, and twin rings with a hub joined to every node, next
    # to the same ring with an open class moved: a ring's nodes share one
    # colour, so two such components differ only below their one singleton
    # cell, the hub. Two components share a certificate exactly when
    # find_isomorphism maps one onto the other
    parts = list(graphs)
    for wg in graphs:
        parts += [_near_copy(wg, data)[0] for _ in range(data.draw(st.integers(0, 2)))]
    for t, runs in rings:
        moved = _moved_open_class(runs, data)
        parts += [twin_ring(t, runs, hub=True), twin_ring(t, moved, hub=True)]
    wg = _shuffled_union(parts, isolated, data.draw(st.randoms(use_true_random=False)))
    unbounded = OracleCaps(max_nodes=wg.n)
    with mock.patch.object(engine, "count_automorphisms", wraps=count_automorphisms) as counts:
        certs = _certificates(wg, unbounded)
    subs = [wg.subgraph(comp) for comp in connected_components(wg)]
    for i, j in combinations(range(len(subs)), 2):
        same = find_isomorphism(subs[i], subs[j], unbounded) is not None
        assert (certs[i] == certs[j]) == same, (i, j)
    # only a brute-forced component meets the cap
    largest = max((call.args[0].n for call in counts.call_args_list), default=0)
    for caps in (OracleCaps(), OracleCaps(max_nodes=2)):
        if largest > caps.max_nodes:
            with pytest.raises(CapExceeded, match="component needs brute force"):
                _certificates(wg, caps)
        else:
            assert _certificates(wg, caps) == certs


def test_component_classes_cap_only_compared_components(monkeypatch):
    # a 45-cycle is above the default cap, and its nodes share one colour:
    # it has no singleton cell, so it is brute-forced, and only then capped
    cycle = [(v, (v + 1) % 45) for v in range(45)]
    wg = WeightedGraph(48, cycle, [1] * 45 + [2, 2, 3])
    expected = expr_normalize(Product((Opaque(90), Sym(2))))
    assert quotient_aut(wg, OracleCaps(max_nodes=45)) == expected
    two = WeightedGraph(90, cycle + [(u + 45, v + 45) for u, v in cycle])
    message = r"a 45-node component needs brute force \(graph has 45 nodes, above the cap of 40\)"
    for graph in (wg, two):
        with pytest.raises(CapExceeded, match=message):
            quotient_aut(graph)
    # two 45-node paths: the middle node is a singleton cell, and each half
    # left by it has pairwise distinct colours, so nothing is compared or counted
    path = [(v, v + 1) for v in range(44)]
    paths = WeightedGraph(90, path + [(u + 45, v + 45) for u, v in path])
    counts = _count_calls(monkeypatch, "count_automorphisms", engine)
    searches = _count_calls(monkeypatch, "find_isomorphism", engine)
    assert quotient_aut(paths) == expr_normalize(Wreath(Sym(2), Sym(2)))
    assert counts == searches == []


def test_component_classes_check_forced_maps_without_search(monkeypatch):
    # 20 isolated nodes of two weights, and six paths whose colours are
    # pairwise distinct: three classes, and no search at all
    wg = WeightedGraph(20, [], [1 + v % 2 for v in range(20)])
    calls = _count_calls(monkeypatch, "_search")
    assert _certificates(wg) == [0, 1] * 10
    assert quotient_aut(wg) == expr_normalize(Product((Sym(10), Sym(10))))
    edges = [(v, v + 1) for v in range(20, 38) if v % 3 != 1]
    paths = WeightedGraph(38, edges, wg.weights + (1, 2, 3) * 6)
    assert len(set(_certificates(paths))) == 3
    assert quotient_aut(paths) == expr_normalize(Product((Sym(10), Sym(10), Sym(6))))
    assert calls == []


def _isolated_nodes():
    # 1,023 isolated nodes of two weights, as in the quotient of Z(2)^10
    return WeightedGraph(1023, [], [2 if v % 3 == 0 else 5 for v in range(1023)])


def test_edgeless_graph_needs_no_split(monkeypatch):
    wg = _isolated_nodes()
    calls = _count_calls(monkeypatch, "_split")
    cells, cell_of = oracle._equitable(wg.adj, wg.weights)
    assert calls == []
    light, heavy = [v for v in range(1023) if v % 3 == 0], [v for v in range(1023) if v % 3]
    assert cells == [sum(1 << v for v in light), sum(1 << v for v in heavy)]
    assert cell_of == [0 if v % 3 == 0 else 1 for v in range(1023)]
    # the colours are the weight ranks, and the components one class per weight
    assert stable_colors(wg) == cell_of
    # the whole graph, and the same nodes as a node set
    for nodes in (None, list(range(1023))):
        cert = engine._quotient_aut(wg, nodes, cell_of, OracleCaps(), {})[0]
        assert cert == frozenset({(0, 341), (1, 682)})
    assert quotient_aut(wg) == expr_normalize(Product((Sym(682), Sym(341))))
    assert calls == []


def test_isolated_nodes_and_one_edge_components():
    wg = _isolated_nodes()
    edged = WeightedGraph(wg.n, [(700, 5)], wg.weights)
    expected = [[v] for v in range(5)] + [[5, 700]]
    expected += [[v] for v in range(6, 1023) if v != 700]
    assert connected_components(wg) == [[v] for v in range(1023)]
    assert connected_components(edged) == expected


@given(
    st.lists(st.one_of(weighted_graphs(6), planted_twins()), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), max_size=6),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_node_set_components_are_the_induced_subgraphs(parts, isolated, data):
    # the components of a node set, read on the whole graph, are those of the
    # subgraph it induces, mapped back; the full node set gives the whole
    # graph's components, and the empty one none
    wg = _shuffled_union(parts, isolated, data.draw(st.randoms(use_true_random=False)))
    nodes = sorted(data.draw(st.sets(st.integers(0, wg.n - 1))))
    expected = []
    if nodes:
        expected = [[nodes[i] for i in comp] for comp in connected_components(wg.subgraph(nodes))]
    assert connected_components(wg, nodes) == expected
    assert connected_components(wg, range(wg.n)) == connected_components(wg)
    assert connected_components(wg, []) == []


@given(planted_twins())
@settings(max_examples=30, deadline=None)
def test_count_matches_naive_with_planted_twins(wg):
    assert count_automorphisms(wg) == naive_count(wg)


def _twin_levels(wg):
    """Walk the counting chain with _individualize; at each level whose cell
    lies inside the pivot's twin mask, check that _detach gives the same
    partition and undo log. The number of such levels."""
    twins = oracle._twins(wg.adj, wg.weights)
    for v in range(wg.n):
        assert twins[v] == sum(
            1 << w
            for w in range(wg.n)
            if wg.weights[w] == wg.weights[v]
            and (wg.adj[w] == wg.adj[v] or (wg.adj[w] | 1 << w) == (wg.adj[v] | 1 << v))
        )
    cells, cell_of = oracle._equitable(wg.adj, wg.weights)
    levels = 0
    while target := next((c for c in cells if c & (c - 1)), 0):
        pivot = (target & -target).bit_length() - 1
        refined, log = (list(cells), list(cell_of)), {}
        oracle._individualize(wg.adj, *refined, pivot, log)
        if not target & ~twins[pivot]:
            detached, detached_log = (list(cells), list(cell_of)), {}
            oracle._detach(*detached, pivot, detached_log)
            assert (detached, detached_log) == (refined, log)
            levels += 1
        cells, cell_of = refined
    return levels


@given(planted_twins())
@settings(max_examples=60, deadline=None)
def test_twin_step_equals_individualize(wg):
    _twin_levels(wg)


@pytest.mark.parametrize("spec", ["Z(12)", "Q8", "Sym(4)"])
def test_twin_step_equals_individualize_on_power_graphs(spec):
    assert _twin_levels(bundle(spec).pg) > 0


@pytest.mark.parametrize(
    "build", [lambda: bundle("Z(1999)").pg, lambda: empty(600)], ids=["Z(1999)", "empty(600)"]
)
def test_twin_levels_need_no_refinement(build, monkeypatch):
    # the complete graph on 1,998 nodes and the empty one on 600: every
    # level's cell is a twin class, so only the first partition is refined,
    # and each level joins its orbit with one checked transposition
    wg = build()
    _assert_twin_runs_only(wg, math.factorial(wg.n), monkeypatch)


def test_a_twin_run_checks_every_transposition(monkeypatch):
    # the path 0 - 1 - 2 - 3: its colour cells {0, 3} and {1, 2} hold no
    # twins. A twin mask that puts 0 and 3 together makes {0, 3} a twin run,
    # whose k! must not be taken before its transposition is checked
    path = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert count_automorphisms(path) == 2
    real = oracle._twins

    def lying(adj, weights):
        twins = real(adj, weights)
        twins[0] |= 1 << 3
        twins[3] |= 1 << 0
        return twins

    monkeypatch.setattr(oracle, "_twins", lying)
    with pytest.raises(RuntimeError, match="do not transpose"):
        count_automorphisms(path)


def test_twin_class_swap_that_fails_rules_nothing_out(monkeypatch):
    # twin classes around a 5-cycle A C B E D: open pairs A = {0, 1} and
    # C = {2, 3}, closed pairs B = {4, 5} and D = {7, 8}, and E = {6}. Node
    # 0's open pair and node 4's closed pair are equal twin classes of one
    # cell, and their swap is not an automorphism; accepting it would put
    # the two orbits in one and double the count
    wg = twin_ring(2, [2])
    witnesses = _count_calls(monkeypatch, "_witness")
    assert count_automorphisms(wg) == naive_count(wg) == 32
    assert sorted(vertex_orbits(wg)) == [[0, 1, 2, 3], [4, 5, 7, 8], [6]]
    assert all(_is_automorphism(wg, pairs) for pairs in witnesses if pairs is not None)


@given(twin_rings(), st.permutations(range(39)))
@settings(max_examples=60, deadline=None)
def test_twin_class_swaps_across_orbits_are_refused(ring, perm):
    # the pinned ring, grown: open and closed classes of equal size share the
    # one refinement cell but not an orbit, on rings of five to fifteen
    # classes of one to three nodes, numbered at random
    t, runs = ring
    wg = twin_ring(t, runs)
    wg = relabel(wg, [v for v in perm if v < wg.n])
    assert len(set(stable_colors(wg))) == 1
    assert count_automorphisms(wg, OracleCaps(max_nodes=wg.n)) == twin_ring_order(t, runs)


def test_twin_class_swap_is_a_witness(monkeypatch):
    # a hub with two closed-twin pairs and a pendant node: the pairs' swap is
    # an automorphism, though the transposition of one node from each is not,
    # so the swap is the witness and no guess is made
    wg = WeightedGraph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5)])
    witnesses = _count_calls(monkeypatch, "_witness")
    guesses = _count_calls(monkeypatch, "_guess")
    assert count_automorphisms(wg) == naive_count(wg) == 8
    assert {1: 3, 3: 1, 2: 4, 4: 2} in witnesses
    assert guesses == []


def _near_copy(wg, data):
    """wg with its nodes shuffled, and maybe one edge moved to a non-edge or
    the weights of two nodes swapped, so that it may or may not be
    isomorphic to wg."""
    other = relabel(wg, data.draw(st.permutations(range(wg.n))))
    edges, weights = sorted(other.edges()), list(other.weights)
    non_edges = [(u, v) for u in range(wg.n) for v in range(u + 1, wg.n) if (u, v) not in edges]
    change = data.draw(st.sampled_from(["none", "edge", "weight"]))
    if change == "edge" and edges and non_edges:
        edges.remove(data.draw(st.sampled_from(edges)))
        edges.append(data.draw(st.sampled_from(non_edges)))
    elif change == "weight":
        i, j = data.draw(st.integers(0, wg.n - 1)), data.draw(st.integers(0, wg.n - 1))
        weights[i], weights[j] = weights[j], weights[i]
    return WeightedGraph(wg.n, edges, weights), change == "none"


@given(planted_twins(), st.data())
@settings(max_examples=100, deadline=None)
def test_one_image_per_twin_class_loses_no_isomorphism(wg, data):
    # the search for one map tries one image per twin class of a cell; it
    # must find a map exactly when the per-node reference does
    other, relabelled = _near_copy(wg, data)
    found = find_isomorphism(wg, other)
    assert (found is None) == (reference_search(wg, other, _same_weight(wg, other)) is None)
    assert found is not None or not relabelled
    assert found is None or _is_isomorphism(wg, other, found)


@given(planted_twins())
@settings(max_examples=40, deadline=None)
def test_enumeration_lists_every_map_with_planted_twins(wg):
    # enumeration tries every image, twins included: it lists exactly the
    # maps the per-node reference accepts
    assume(count_automorphisms(wg) <= 5000)
    expected = []
    reference_search(wg, wg, _same_weight(wg, wg), expected.append)
    assert enumerate_automorphisms(wg) == sorted(expected)


@pytest.mark.parametrize("wg", [empty(7), K(6)], ids=["empty(7)", "K(6)"])
def test_enumerating_twin_cells_refines_once_at_most(wg, monkeypatch):
    # every level of the count and of both sides of the search lies in a
    # twin cell and is detached, so only the first partition of a graph with
    # edges is refined, once for the count and once for the enumeration
    splits = _count_calls(monkeypatch, "_split")
    assert len(enumerate_automorphisms(wg)) == math.factorial(wg.n)
    assert len(splits) == (2 if wg.edge_count else 0)


def test_oracle_imports_nothing_from_pga():
    # the oracle is the second route to every order the engine computes, so
    # it must not lean on the first: no relative import and no pga module
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "pga"
        elif isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "pga" for alias in node.names)
