import pytest
from hypothesis import given, settings, strategies as st

from pga import (
    CapExceeded,
    OracleCaps,
    WeightedGraph,
    are_isomorphic,
    connected_components,
    count_automorphisms,
    enumerate_automorphisms,
    find_isomorphism,
    stable_colors,
    vertex_orbits,
)

from _support import bundle, naive_count, weighted_graphs


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
    assert are_isomorphic(K(2, (2, 2)), K(2, (2, 2)))
    assert not are_isomorphic(K(2), empty(2))
    assert not are_isomorphic(K(2, (1, 2)), K(2, (1, 1)))


def test_isomorphism_witness_is_valid():
    a = WeightedGraph(4, [(0, 1), (1, 2)], (1, 2, 1, 3))
    b = WeightedGraph(4, [(3, 2), (2, 1)], (3, 1, 2, 1))
    witness = find_isomorphism(a, b)
    assert witness is not None
    for u in range(4):
        assert b.weights[witness[u]] == a.weights[u]
        for v in range(u + 1, 4):
            assert a.has_edge(u, v) == b.has_edge(witness[u], witness[v])


def test_quotient_components_of_z4_squared_pairwise_isomorphic():
    wg = bundle("Z(4)^2").q
    comps = [wg.subgraph(c) for c in connected_components(wg)]
    assert len(comps) == 3
    for a in comps:
        for b in comps:
            assert are_isomorphic(a, b)


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
    with pytest.raises(CapExceeded):
        count_automorphisms(empty(5), OracleCaps(max_nodes=4))


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


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 5)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [], (1, 0))
    with pytest.raises(ValueError):
        WeightedGraph(0)


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
    assert count_automorphisms(wg.relabel(perm)) == count_automorphisms(wg)


@given(weighted_graphs(6))
@settings(max_examples=40, deadline=None)
def test_refinement_soundness(wg):
    # no verified automorphism maps across stable color classes
    colors = stable_colors(wg)
    for perm in enumerate_automorphisms(wg):
        assert all(colors[perm[v]] == colors[v] for v in range(wg.n))


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
    assert sub.n == 2 and sub.weights == (3, 4) and sub.has_edge(0, 1)
    back = wg.relabel([3, 2, 1, 0])
    assert back.weights == (4, 3, 2, 1)
    assert back.has_edge(3, 2) and back.has_edge(0, 1)
