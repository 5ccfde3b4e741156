from pga import (
    BOTH,
    CYCLIC_INTERVAL,
    GENERATOR_CLASS,
    classify_men_class,
    reconstruct_order,
)

from _support import CORPUS, bundle


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
    assert b.q.closed_neighborhood(gen_node) == {0, 1, 2}
    assert not b.q.adj[1, 2]


def test_quotient_single_node_for_complete_graph():
    q = bundle("Z(4)").q
    assert q.n_nodes == 1 and q.edge_count == 0 and q.weights == (3,)


def test_quotient_q8_apex_pattern():
    b = bundle("Q8")
    assert sorted(b.q.weights) == [1, 2, 2, 2]
    apex = b.q.weights.index(1)
    assert b.q.closed_neighborhood(apex) == set(range(4))
    others = [i for i in range(4) if i != apex]
    for i in others:
        for j in others:
            if i != j:
                assert not b.q.adj[i, j]


def test_classify_generator_class_z6():
    b = bundle("Z(6)")
    rec = classify_men_class(b.g, b.pg, b.mp.classes[0])
    assert rec.kind == GENERATOR_CLASS
    assert rec.generator == 1


def test_classify_interval_z4():
    b = bundle("Z(4)")
    rec = classify_men_class(b.g, b.pg, b.mp.classes[0])
    assert rec.kind == CYCLIC_INTERVAL
    assert rec.interval == (1, 2, 2, 2)  # whole chain <g> minus the identity


def test_classify_interval_z8():
    b = bundle("Z(8)")
    rec = classify_men_class(b.g, b.pg, b.mp.classes[0])
    assert rec.kind == CYCLIC_INTERVAL
    assert rec.interval == (1, 2, 3, 3)


def test_classify_gen_class_q8():
    b = bundle("Q8")
    i_class = next(c for c in b.mp.classes if b.g.labels[c[0] + 1] == "i")
    rec = classify_men_class(b.g, b.pg, i_class)
    assert rec.kind == GENERATOR_CLASS
    assert b.g.labels[rec.generator] == "i"


def test_every_corpus_class_classifies():
    for spec in CORPUS:
        b = bundle(spec)
        for members in b.mp.classes:
            rec = classify_men_class(b.g, b.pg, members)
            assert rec.kind in (GENERATOR_CLASS, CYCLIC_INTERVAL, BOTH)


def test_mixed_order_classes_are_intervals():
    for spec in CORPUS:
        b = bundle(spec)
        for members in b.mp.classes:
            orders = {b.g.element_order(v + 1) for v in members}
            if len(orders) > 1:
                rec = classify_men_class(b.g, b.pg, members)
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
            hoods = {b.pg.closed_neighborhood(v) for v in members}
            assert len(hoods) == 1


def test_classes_are_maximal():
    # vertices in different classes have different closed neighborhoods
    for spec in CORPUS:
        b = bundle(spec)
        reps = [b.pg.closed_neighborhood(c[0]) for c in b.mp.classes]
        assert len(set(reps)) == len(reps)


def test_weights_cover_all_vertices():
    for spec in CORPUS:
        b = bundle(spec)
        assert sum(b.mp.weights) == b.g.size - 1


def test_quotient_nodes_have_distinct_closed_neighborhoods():
    # re-partitioning the quotient by closed neighborhoods yields singletons
    for spec in CORPUS:
        q = bundle(spec).q
        hoods = {q.closed_neighborhood(i) for i in range(q.n_nodes)}
        assert len(hoods) == q.n_nodes


def test_quotient_wellformedness():
    for spec in CORPUS:
        q = bundle(spec).q
        assert not q.adj.diagonal().any()
        assert (q.adj == q.adj.T).all()
        assert all(w >= 1 for w in q.weights)
