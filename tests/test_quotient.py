import pytest

from pga import (
    CYCLIC_INTERVAL,
    GENERATOR_CLASS,
    FiniteGroup,
    InternalCheckError,
    MenPartition,
    Pipeline,
    analyze,
    build_power_graph,
    build_quotient,
    classify_men_class,
    men_partition,
    pipeline,
    realize,
    reconstruct_order,
)
from pga.powergraph import cyclic_subgroup_graph

from _support import CORPUS, GOLDEN_SPECS, bundle


def _class_sets(mp):
    return [frozenset(c) for c in mp.classes]


def test_men_partition_z6():
    b = bundle("Z(6)")
    # vertices are elements 1..5; generators {1,5}, order-3 {2,4}, involution {3}
    assert _class_sets(b.mp) == [frozenset({0, 4}), frozenset({1, 3}), frozenset({2})]
    assert b.mp.weights == (2, 2, 1)


def test_men_partition_klein_is_singletons():
    mp = bundle("Z(2)^2").mp
    assert mp.weights == (1, 1, 1)


def test_men_partition_complete_graph_is_single_class():
    mp = bundle("Z(4)").mp
    assert mp.classes == ((0, 1, 2),)


def test_quotient_z6_shape():
    b = bundle("Z(6)")
    assert b.q.n_nodes == 3
    assert b.q.weights == (2, 2, 1)
    gen_node = 0  # class of the generators
    assert b.q.closed_mask(gen_node) == 0b111
    assert not b.q.has_edge(1, 2)


def _partition(classes):
    class_of = {v: cid for cid, members in enumerate(classes) for v in members}
    return MenPartition(
        classes, tuple(class_of[v] for v in sorted(class_of)), tuple(map(len, classes))
    )


def test_quotient_rows_are_representative_rows_and_checked():
    for spec in CORPUS:
        b = bundle(spec)
        for i, ci in enumerate(b.mp.classes):
            for j, cj in enumerate(b.mp.classes):
                if i != j:
                    assert b.q.has_edge(i, j) == b.pg.has_edge(ci[0], cj[0]), spec
    # Z(6): vertices 0, 4 are generators, 1, 3 have order 3, 2 is the involution
    pg = bundle("Z(6)").pg
    for classes in (
        ((0, 1), (2, 3, 4)),  # 0 sees vertex 2, 1 does not
        ((0, 3), (1, 2), (4,)),  # 1 sees vertex 3, 2 does not
    ):
        with pytest.raises(InternalCheckError, match="mixed cross adjacency"):
            build_quotient(pg, _partition(classes))
    # the same check on Z(6)'s subgroup graph: <1> contains <3>, <2> does not
    sg = cyclic_subgroup_graph(bundle("Z(6)").g)
    with pytest.raises(InternalCheckError, match="mixed cross adjacency"):
        build_quotient(sg, _partition(((0, 1), (2,))))


def test_cyclic_subgroup_route_matches_power_graph_route():
    # the power graph is no QuotientGraph, so its route always projects
    for spec in GOLDEN_SPECS:
        p = pipeline(realize(spec))
        assert "pg" not in vars(p), spec  # not built yet
        pg = build_power_graph(p.g)
        mp = men_partition(pg)
        q = build_quotient(pg, mp)
        assert (p.mp.classes, p.mp.class_of, p.mp.weights) == (mp.classes, mp.class_of, mp.weights), spec
        assert (p.q.members, p.q.weights, p.q.edges()) == (q.members, q.weights, q.edges()), spec
        assert p.pg.adj == pg.adj, spec
        # an all-singleton partition of the subgroup graph returns that graph
        assert (p.q is p.sg) == (p.q.n == p.sg.n), spec
    b = bundle("Z(6)")
    with pytest.raises(InternalCheckError, match="MEN partitions differ"):
        Pipeline(b.g, b.sg, _partition(((0, 4), (1, 2, 3))), b.q).pg


def test_all_singleton_partition_returns_its_quotient_graph():
    sg = bundle("Sym(3)").sg
    mp = men_partition(sg)
    assert all(len(c) == 1 for c in mp.classes)
    assert build_quotient(sg, mp) is sg
    # other discrete partitions are projected: doubled weights, reversed classes
    reverse = tuple(reversed(range(sg.n)))
    for classes, weights in (
        (mp.classes, tuple(2 * w for w in sg.weights)),
        (tuple((v,) for v in reverse), tuple(sg.weights[v] for v in reverse)),
    ):
        q = build_quotient(sg, MenPartition.of(classes, weights))
        assert q is not sg and q.weights == weights
        assert q.members == tuple(sg.members[v] for (v,) in classes)


def test_quotient_single_node_for_complete_graph():
    q = bundle("Z(4)").q
    assert q.n_nodes == 1 and q.edge_count == 0 and q.weights == (3,)


def test_quotient_q8_apex_pattern():
    b = bundle("Q8")
    assert sorted(b.q.weights) == [1, 2, 2, 2]
    apex = b.q.weights.index(1)
    assert b.q.closed_mask(apex) == 0b1111
    others = [i for i in range(4) if i != apex]
    for i in others:
        for j in others:
            if i != j:
                assert not b.q.has_edge(i, j)


def test_classify_generator_class_z6():
    b = bundle("Z(6)")
    rec = classify_men_class(b.g, b.mp.classes[0])
    assert rec.kind == GENERATOR_CLASS
    assert rec.generator == 1


def test_classify_interval_z4():
    b = bundle("Z(4)")
    rec = classify_men_class(b.g, b.mp.classes[0])
    assert rec.kind == CYCLIC_INTERVAL
    assert rec.interval == (1, 2, 2, 2)  # whole chain <g> minus the identity


def test_classify_interval_z8():
    b = bundle("Z(8)")
    rec = classify_men_class(b.g, b.mp.classes[0])
    assert rec.kind == CYCLIC_INTERVAL
    assert rec.interval == (1, 2, 3, 3)


def test_classify_gen_class_q8():
    b = bundle("Q8")
    i_class = next(c for c in b.mp.classes if b.g.labels[c[0] + 1] == "i")
    rec = classify_men_class(b.g, i_class)
    assert rec.kind == GENERATOR_CLASS
    assert b.g.labels[rec.generator] == "i"


def test_classify_rejects_other_unions():
    z6, z8 = bundle("Z(6)").g, bundle("Z(8)").g
    for g, members in (
        (z6, (0, 1)),  # elements 1, 2: part of the generator set {1, 5}
        (z6, (1, 2, 3)),  # <2> and <3>: neither contains the other
        (z8, (0, 2, 3, 4, 6)),  # <1> and <4>: index 4, not 2
    ):
        with pytest.raises(InternalCheckError, match="fits neither"):
            classify_men_class(g, members)


def test_classes_classify_from_subgroup_nodes(monkeypatch):
    # the least generators of a class's cyclic-subgroup nodes give the same
    # record as peeling generator sets off its members
    for spec in CORPUS + ("Dih(6)", "Sym(4)"):
        b = bundle(spec)
        gens = {c: [] for c in range(len(b.mp.classes))}
        for members in b.sg.members:
            gens[b.mp.class_of[members[0]]].append(members[0] + 1)
        for cid, members in enumerate(b.mp.classes):
            assert classify_men_class(b.g, members, gens[cid]) == classify_men_class(b.g, members)
    # and the report's summaries take that route, with no generator-set reads
    monkeypatch.setattr(FiniteGroup, "gen_set", lambda self, x: pytest.fail("gen_set called"))
    assert [c.kind for c in analyze("Z(8)").classes] == [CYCLIC_INTERVAL]


def test_every_corpus_class_classifies():
    for spec in CORPUS:
        b = bundle(spec)
        for members in b.mp.classes:
            rec = classify_men_class(b.g, members)
            assert rec.kind in (GENERATOR_CLASS, CYCLIC_INTERVAL)


def test_mixed_order_classes_are_intervals():
    for spec in CORPUS:
        b = bundle(spec)
        for members in b.mp.classes:
            orders = {b.g.element_order(v + 1) for v in members}
            if len(orders) > 1:
                rec = classify_men_class(b.g, members)
                assert rec.kind == CYCLIC_INTERVAL


def test_reconstruct_order_examples():
    b = bundle("Z(6)")
    assert reconstruct_order(b.g, b.mp, 0) == 6
    assert reconstruct_order(bundle("Z(4)").g, bundle("Z(4)").mp, 0) == 4
    q8 = bundle("Q8")
    minus_one_class = next(
        i for i, c in enumerate(q8.mp.classes) if q8.g.labels[c[0] + 1] == "-1"
    )
    assert reconstruct_order(q8.g, q8.mp, minus_one_class) == 2


def test_reconstruct_order_equals_max_order_everywhere():
    for spec in CORPUS:
        b = bundle(spec)
        for cid, members in enumerate(b.mp.classes):
            expected = max(b.g.element_order(v + 1) for v in members)
            assert reconstruct_order(b.g, b.mp, cid) == expected


def test_closed_neighborhoods_equal_within_classes():
    for spec in CORPUS:
        b = bundle(spec)
        for members in b.mp.classes:
            hoods = {b.pg.closed_mask(v) for v in members}
            assert len(hoods) == 1


def test_classes_are_maximal():
    # vertices in different classes have different closed neighborhoods
    for spec in CORPUS:
        b = bundle(spec)
        reps = [b.pg.closed_mask(c[0]) for c in b.mp.classes]
        assert len(set(reps)) == len(reps)


def test_weights_cover_all_vertices():
    for spec in CORPUS:
        b = bundle(spec)
        assert sum(b.mp.weights) == b.g.size - 1


def test_quotient_nodes_have_distinct_closed_neighborhoods():
    # re-partitioning the quotient by closed neighborhoods yields singletons
    for spec in CORPUS:
        q = bundle(spec).q
        hoods = {q.closed_mask(i) for i in range(q.n_nodes)}
        assert len(hoods) == q.n_nodes


def test_quotient_wellformedness():
    for spec in CORPUS:
        q = bundle(spec).q
        for i in range(q.n_nodes):
            assert not q.has_edge(i, i)
            for j in range(q.n_nodes):
                assert q.has_edge(i, j) == q.has_edge(j, i)
        assert all(w >= 1 for w in q.weights)
