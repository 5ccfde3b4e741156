import pytest

from pga import build_power_graph, connected_components, realize

from _support import CORPUS, P_GROUP_SPECS, bundle, cyclic_subgroup


def test_cyclic_prime_power_is_complete():
    pg = bundle("Z(4)").pg
    assert pg.n_vertices == 3
    assert pg.edge_count == 3  # K3


def test_klein_four_is_empty():
    pg = bundle("Z(2)^2").pg
    assert pg.n_vertices == 3
    assert pg.edge_count == 0


def test_sym3_is_one_edge_plus_isolated():
    b = bundle("Sym(3)")
    three_cycles = [v for v in range(5) if b.g.element_order(v + 1) == 3]
    assert b.pg.edges() == [tuple(sorted(three_cycles))]


def test_trivial_group_rejected():
    with pytest.raises(ValueError, match="trivial"):
        build_power_graph(realize("Z(1)"))


def test_closed_neighborhood_examples():
    z6 = bundle("Z(6)").pg
    assert z6.adj[0] | 1 == (1 << 5) - 1  # generator sees everything
    klein = bundle("Z(2)^2").pg
    assert all((klein.adj[v] | 1 << v) == 1 << v for v in range(3))
    q8 = bundle("Q8")
    minus_one = q8.g.labels.index("-1") - 1  # its vertex
    assert q8.pg.adj[minus_one] | 1 << minus_one == (1 << 7) - 1


def test_connected_components_examples():
    assert connected_components(bundle("Z(2)^2").pg) == [[0], [1], [2]]
    comps = connected_components(bundle("Z(4)^2").pg)
    assert len(comps) == 3
    assert all(len(c) == 5 for c in comps)
    assert connected_components(bundle("Z(6)").pg) == [list(range(5))]


def test_vertex_count_is_group_order_minus_one():
    for spec in CORPUS:
        b = bundle(spec)
        assert b.pg.n_vertices == b.g.size - 1
        assert [b.pg.element_of(v) for v in range(b.pg.n_vertices)] == list(range(1, b.g.size))


def test_adjacency_iff_subgroup_containment():
    for spec in CORPUS:
        b = bundle(spec)
        subs = [cyclic_subgroup(b.g, x) for x in range(b.g.size)]
        for v in range(b.pg.n_vertices):
            for u in range(v + 1, b.pg.n_vertices):
                x, y = v + 1, u + 1
                expected = subs[x] <= subs[y] or subs[y] <= subs[x]
                assert (b.pg.adj[v] >> u & 1) == expected


def test_no_loops_and_symmetry():
    for spec in CORPUS:
        pg = bundle(spec).pg
        for v in range(pg.n_vertices):
            assert not (pg.adj[v] >> v & 1)
            for u in range(pg.n_vertices):
                assert (pg.adj[u] >> v & 1) == (pg.adj[v] >> u & 1)


def test_degree_sum_even_and_neighborhood_size():
    for spec in CORPUS:
        pg = bundle(spec).pg
        degrees = [row.bit_count() for row in pg.adj]
        assert sum(degrees) % 2 == 0
        for v in range(pg.n_vertices):
            assert (pg.adj[v] | 1 << v).bit_count() == degrees[v] + 1


def test_p_group_components_match_subgroup_intersections():
    # same component exactly when the cyclic subgroups intersect nontrivially
    for spec in P_GROUP_SPECS:
        b = bundle(spec)
        comp_of = {}
        for i, comp in enumerate(connected_components(b.pg)):
            for v in comp:
                comp_of[v] = i
        subs = [cyclic_subgroup(b.g, x) for x in range(b.g.size)]
        for v in range(b.pg.n_vertices):
            for u in range(b.pg.n_vertices):
                meet = (subs[v + 1] & subs[u + 1]) - {0}
                assert (comp_of[v] == comp_of[u]) == bool(meet) or v == u


def test_cyclic_non_prime_power_connected_with_dominating_generators():
    for n in (6, 10, 12, 15, 18, 20):
        b = bundle(f"Z({n})")
        assert len(connected_components(b.pg)) == 1
        for v in range(b.pg.n_vertices):
            if b.g.element_order(v + 1) == n:
                assert b.pg.adj[v].bit_count() == b.pg.n_vertices - 1


def test_cyclic_prime_power_complete():
    for spec, m in (("Z(4)", 3), ("Z(8)", 7), ("Z(9)", 8)):
        pg = bundle(spec).pg
        assert pg.edge_count == m * (m - 1) // 2


def test_to_weighted_graph_round_trip():
    """`to_weighted_graph()` returns the graph itself; it stays, with this test,
    only because the benchmark's reference generator (`perfbench/freeze.py`)
    still calls it."""
    pg = bundle("Q8").pg
    wg = pg.to_weighted_graph()
    assert wg.n == pg.n_vertices
    assert wg.edges() == pg.edges()
    assert set(wg.weights) == {1}
