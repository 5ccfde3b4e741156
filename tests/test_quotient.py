import pytest

from pga import (
    CYCLIC_INTERVAL,
    GENERATOR_CLASS,
    InternalCheckError,
    MenPartition,
    Pipeline,
    QuotientGraph,
    analyze,
    build_power_graph,
    build_quotient,
    men_partition,
    pipeline,
    realize,
)
from pga.engine import _summarize_classes
from pga.powergraph import cyclic_subgroup_graph

from _support import (
    CORPUS, GOLDEN_SPECS, bundle, cyclic_subgroup, gen_set, peel_class, reconstructed_order, report,
)


def _power_partition(spec):
    # the power graph's own MEN partition, independent of the pipeline's quotient
    return men_partition(bundle(spec).pg)


def _class_sets(mp):
    return [frozenset(c) for c in mp.classes]


def test_men_partition_z6():
    mp = _power_partition("Z(6)")
    # vertices are elements 1..5; generators {1,5}, order-3 {2,4}, involution {3}
    assert _class_sets(mp) == [frozenset({0, 4}), frozenset({1, 3}), frozenset({2})]
    assert mp.weights == (2, 2, 1)


def test_men_partition_klein_is_singletons():
    mp = _power_partition("Z(2)^2")
    assert mp.weights == (1, 1, 1)


def test_men_partition_complete_graph_is_single_class():
    mp = _power_partition("Z(4)")
    assert mp.classes == ((0, 1, 2),)


def test_quotient_z6_shape():
    b = bundle("Z(6)")
    assert b.q.n_nodes == 3
    assert b.q.weights == (2, 2, 1)
    gen_node = 0  # class of the generators
    assert (b.q.adj[gen_node] | 1 << gen_node) == 0b111
    assert not (b.q.adj[1] >> 2 & 1)


def _partition(classes):
    class_of = {v: cid for cid, members in enumerate(classes) for v in members}
    return MenPartition(
        classes, tuple(class_of[v] for v in sorted(class_of)), tuple(map(len, classes))
    )


def test_quotient_rows_are_representative_rows_and_checked():
    for spec in CORPUS:
        b, classes = bundle(spec), _power_partition(spec).classes
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                if i != j:
                    assert (b.q.adj[i] >> j & 1) == (b.pg.adj[ci[0]] >> cj[0] & 1), spec
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
    # the power graph is no QuotientGraph, so its route always projects. The
    # subgroup graph's pointer doubling stops after a round that lowers
    # nothing: the last six groups need several rounds, Z(343) and Dih(251)
    # all but the last (their generators form orbits of 294 and 250 under one
    # power map)
    long_orbits = ("Z(720)", "Ab[2,4,60]", "Dih(360)", "P(Sym(5),Z(7))", "Z(343)", "Dih(251)")
    for spec in GOLDEN_SPECS + long_orbits:
        p = pipeline(realize(spec))
        assert "pg" not in vars(p), spec  # not built yet
        pg = build_power_graph(p.g)
        mp = men_partition(pg)
        q = build_quotient(pg, mp)
        assert (p.q.members, p.q.weights, p.q.edges()) == (q.members, q.weights, q.edges()), spec
        assert p.pg.adj == pg.adj, spec
        # an all-singleton partition of the subgroup graph returns that graph
        sg = cyclic_subgroup_graph(p.g)
        sq = build_quotient(sg, men_partition(sg))
        assert (sq is sg) == (sq.n == sg.n), spec
    # a quotient whose members are not the MEN classes, or whose weights are
    # not theirs, fails the power graph's check
    g = bundle("Z(6)").g
    for q in (
        QuotientGraph(((0, 4), (1, 2, 3)), [(0, 1)], (2, 3)),
        QuotientGraph(((0, 4), (1, 3), (2,)), [(0, 1), (0, 2)], (2, 1, 2)),
    ):
        with pytest.raises(InternalCheckError, match="MEN partitions differ"):
            Pipeline(g, q).pg


def test_all_singleton_partition_returns_its_quotient_graph():
    sg = cyclic_subgroup_graph(bundle("Sym(3)").g)
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
    assert (b.q.adj[apex] | 1 << apex) == 0b1111
    others = [i for i in range(4) if i != apex]
    for i in others:
        for j in others:
            if i != j:
                assert not (b.q.adj[i] >> j & 1)


def test_classify_generator_class_z6():
    b = bundle("Z(6)")
    members = _power_partition("Z(6)").classes[0]
    assert report("Z(6)").classes[0].kind == peel_class(b.g, members) == GENERATOR_CLASS
    assert {v + 1 for v in members} == gen_set(b.g, 1)


def test_classify_interval_z4():
    b = bundle("Z(4)")
    members = _power_partition("Z(4)").classes[0]
    assert report("Z(4)").classes[0].kind == peel_class(b.g, members) == CYCLIC_INTERVAL
    assert {v + 1 for v in members} == cyclic_subgroup(b.g, 1) - {0}  # whole chain <g> minus the identity


def test_classify_interval_z8():
    b = bundle("Z(8)")
    members = _power_partition("Z(8)").classes[0]
    assert report("Z(8)").classes[0].kind == peel_class(b.g, members) == CYCLIC_INTERVAL
    assert {v + 1 for v in members} == cyclic_subgroup(b.g, 1) - {0}


def test_classify_gen_class_q8():
    b = bundle("Q8")
    i = b.g.labels.index("i")
    cid, members = next((k, c) for k, c in enumerate(_power_partition("Q8").classes) if i - 1 in c)
    assert report("Q8").classes[cid].kind == peel_class(b.g, members) == GENERATOR_CLASS
    assert {v + 1 for v in members} == gen_set(b.g, i)


def _summarize_union(g, members):
    """The report's summaries of a quotient whose first class is `members`."""
    rest = tuple(v for v in range(g.size - 1) if v not in members)
    return _summarize_classes(Pipeline(g, QuotientGraph((members, rest), [], (len(members), len(rest)))))


def test_classify_rejects_other_unions():
    z6, z8 = bundle("Z(6)").g, bundle("Z(8)").g
    for g, members in (
        (z6, (0, 1)),  # elements 1, 2: part of the generator set {1, 5}
        (z6, (1, 2, 3)),  # <2> and <3>: neither contains the other
        (z8, (0, 2, 3, 4, 6)),  # <1> and <4>: index 4, not 2
    ):
        assert peel_class(g, members) is None
        with pytest.raises(InternalCheckError, match="fits neither"):
            _summarize_union(g, members)


def test_report_rejects_the_unions_classify_rejects():
    # a report decides all its classes' chains from one table of powers; a
    # union that fits neither form fails there too. Ab[2,4]'s orders fit an
    # interval, but (1, 0) is no power of (0, 1)
    for spec, members in (("Z(6)", (1, 2, 3)), ("Z(8)", (0, 2, 3, 4, 6)), ("Ab[2,4]", (0, 2, 3))):
        g = bundle(spec).g
        assert peel_class(g, members) is None
        with pytest.raises(InternalCheckError, match=rf"MEN class \[{', '.join(map(str, members))}\] fits neither"):
            _summarize_union(g, members)


def test_class_summaries_match_peeling():
    # each summary's kind is the one peeling generator sets off its members
    # gives, and its order is the largest among them
    for spec in GOLDEN_SPECS:
        b, classes = bundle(spec), _power_partition(spec).classes
        summaries = report(spec).classes
        assert [c.members for c in summaries] == [
            tuple(b.g.labels[v + 1] for v in members) for members in classes
        ], spec
        for summary, members in zip(summaries, classes):
            assert summary.kind == peel_class(b.g, members), spec
            assert summary.element_order == max(b.g.element_order(v + 1) for v in members), spec
    assert [c.kind for c in analyze("Z(8)").classes] == [CYCLIC_INTERVAL]
    assert [c.kind for c in analyze("Dih(4)").classes] == [CYCLIC_INTERVAL] + [GENERATOR_CLASS] * 4


def test_every_corpus_class_classifies():
    for spec in CORPUS:
        b = bundle(spec)
        for members in _power_partition(spec).classes:
            assert peel_class(b.g, members) in (GENERATOR_CLASS, CYCLIC_INTERVAL)


def test_mixed_order_classes_are_intervals():
    for spec in CORPUS:
        b = bundle(spec)
        for members in _power_partition(spec).classes:
            orders = {b.g.element_order(v + 1) for v in members}
            if len(orders) > 1:
                assert peel_class(b.g, members) == CYCLIC_INTERVAL


def test_reconstruct_order_examples():
    # an element's order is 1 plus the weights of the classes inside its
    # cyclic subgroup
    assert reconstructed_order(bundle("Z(6)").g, _power_partition("Z(6)"), 1) == 6
    assert reconstructed_order(bundle("Z(4)").g, _power_partition("Z(4)"), 1) == 4
    q8 = bundle("Q8").g
    assert reconstructed_order(q8, _power_partition("Q8"), q8.labels.index("-1")) == 2


def test_reconstruct_order_equals_max_order_everywhere():
    # for an element of largest order in its class, the nontrivial part of
    # its cyclic subgroup is a union of whole classes whose weights sum to
    # its order minus 1 (not so for every element: Z(4)'s <2> is part of a class)
    for spec in CORPUS:
        b, mp = bundle(spec), _power_partition(spec)
        for members in mp.classes:
            x = max((v + 1 for v in members), key=b.g.element_order)
            assert reconstructed_order(b.g, mp, x) == b.g.element_order(x), (spec, x)


def test_closed_neighborhoods_equal_within_classes():
    for spec in CORPUS:
        b = bundle(spec)
        for members in _power_partition(spec).classes:
            hoods = {b.pg.adj[v] | 1 << v for v in members}
            assert len(hoods) == 1


def test_classes_are_maximal():
    # vertices in different classes have different closed neighborhoods
    for spec in CORPUS:
        b = bundle(spec)
        reps = [b.pg.adj[c[0]] | 1 << c[0] for c in _power_partition(spec).classes]
        assert len(set(reps)) == len(reps)


def test_weights_cover_all_vertices():
    for spec in CORPUS:
        assert sum(_power_partition(spec).weights) == bundle(spec).g.size - 1


def test_quotient_nodes_have_distinct_closed_neighborhoods():
    # re-partitioning the quotient by closed neighborhoods yields singletons
    for spec in CORPUS:
        q = bundle(spec).q
        hoods = {q.adj[i] | 1 << i for i in range(q.n_nodes)}
        assert len(hoods) == q.n_nodes


def test_quotient_wellformedness():
    for spec in CORPUS:
        q = bundle(spec).q
        for i in range(q.n_nodes):
            assert not (q.adj[i] >> i & 1)
            for j in range(q.n_nodes):
                assert (q.adj[i] >> j & 1) == (q.adj[j] >> i & 1)
        assert all(w >= 1 for w in q.weights)
