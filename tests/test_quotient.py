import numpy as np
import pytest

import pga.engine
from pga import (
    CYCLIC_INTERVAL,
    GENERATOR_CLASS,
    InternalCheckError,
    MenPartition,
    OracleCaps,
    Pipeline,
    QuotientGraph,
    analyze,
    build_power_graph,
    build_quotient,
    men_partition,
    pipeline,
    realize,
    verify,
)
from pga.engine import METHOD_COPRIME, _classify_classes
from pga.powergraph import cyclic_subgroup_graph

from _support import (
    CORPUS, GOLDEN_SPECS, PRODUCT_SPECS, bundle, cyclic_subgroup, gen_set, peel_class, reconstructed_order,
    report,
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


def _node_of(classes):
    """The vertex-to-node array of classes given by their members."""
    node_of = np.empty(sum(map(len, classes)), dtype=np.intp)
    for i, members in enumerate(classes):
        node_of[list(members)] = i
    return node_of


def _partition(classes):
    return MenPartition(_node_of(classes), tuple(map(len, classes)))


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


def test_cyclic_subgroup_route_matches_power_graph_route(monkeypatch):
    # the subgroup graph's pointer doubling stops after a round that lowers
    # nothing: the last six groups need several rounds, Z(343) and Dih(251)
    # all but the last (their generators form orbits of 294 and 250 under one
    # power map)
    built = []  # the pipeline's subgroup graphs, as it builds them
    monkeypatch.setattr(
        pga.engine, "cyclic_subgroup_graph", lambda g: built.append(cyclic_subgroup_graph(g)) or built[-1]
    )
    long_orbits = ("Z(720)", "Ab[2,4,60]", "Dih(360)", "P(Sym(5),Z(7))", "Z(343)", "Dih(251)")
    for spec in GOLDEN_SPECS + long_orbits:
        p = pipeline(realize(spec))
        assert "pg" not in vars(p), spec  # not built yet
        pg = build_power_graph(p.g)
        mp = men_partition(pg)
        q = build_quotient(pg, mp)
        assert (p.q.members, p.q.weights, p.q.edges()) == (q.members, q.weights, q.edges()), spec
        assert p.pg.adj == pg.adj, spec
        # the pipeline keeps the subgroup graph when no two subgroups are closed twins
        sg = built.pop()
        assert (p.q is sg) == (p.q.n == sg.n), spec
    # a quotient whose members are not the MEN classes, or whose weights are
    # not theirs, fails the power graph's check that q is its MEN quotient:
    # the right classes in another node order fail it although their weights
    # match, and so do the right classes with one unit of weight moved
    g = bundle("Z(6)").g
    for q in (
        QuotientGraph(_node_of(((0, 4), (1, 2, 3))), [(0, 1)], (2, 3)),
        QuotientGraph(_node_of(((0, 4), (1, 3), (2,))), [(0, 1), (0, 2)], (2, 1, 2)),
        QuotientGraph(_node_of(((1, 3), (0, 4), (2,))), [(0, 1), (1, 2)], (2, 2, 1)),
        QuotientGraph(_node_of(((0, 4), (1, 3), (2,))), [(0, 1), (0, 2)], (1, 2, 2)),
    ):
        with pytest.raises(InternalCheckError, match="not the power graph's MEN quotient"):
            Pipeline(g, q).pg


@pytest.mark.parametrize("spec", ["Z(6)", "Z(12)"])
def test_a_quotient_edge_dropped_or_added_fails_the_power_graph_check(spec, monkeypatch):
    # either keeps the classes and weights, and verify's full-graph count
    # would still match the quotient's order for these specs
    q = pipeline(realize(spec)).q
    edges = q.edges()
    apart = next((i, j) for i in range(q.n) for j in range(i + 1, q.n) if not q.adj[i] >> j & 1)
    assert verify(spec).verification.status == "full-verified"
    for planted in (edges[1:], [*edges, apart]):
        planted_q = QuotientGraph(q.node_of, planted, q.weights)
        monkeypatch.setattr(pga.engine, "_men_quotient", lambda wg, planted_q=planted_q: planted_q)
        with pytest.raises(InternalCheckError, match="not the power graph's MEN quotient"):
            verify(spec)


def test_closed_twins_in_the_quotient_fail_the_power_graph_check():
    # Z(6)'s generators 1 and 5 (vertices 0 and 4) as two nodes: every
    # vertex's row is still the blow-up of its node's, but the two nodes are
    # closed twins, so the quotient is not the MEN quotient
    g = bundle("Z(6)").g
    edges = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    q = QuotientGraph(_node_of(((0,), (1, 3), (2,), (4,))), edges, (1, 2, 1, 1))
    with pytest.raises(InternalCheckError, match="closed twins"):
        Pipeline(g, q).pg


@pytest.mark.parametrize(
    "index, message",
    [
        (((0, 4), (1, 3), (2,)), "1-D integer array"),  # the members themselves
        (np.array([[0, 1, 2, 1, 0]]), "1-D integer array"),
        (np.array([0.0, 1.0, 2.0, 1.0, 0.0]), "1-D integer array"),
        (np.array([0, 1, 3, 1, 0]), r"not exactly range\(3\)"),
        (np.array([0, -1, 2, 1, 0]), r"not exactly range\(3\)"),
        (np.array([0, 2, 2, 2, 0]), r"not exactly range\(3\)"),  # a node with no member
        (np.array([0, 1, 2**40, 1, 0]), r"not exactly range\(3\)"),  # no 8 TiB of counts
    ],
    ids=["members", "2-D", "float", "too-large", "negative", "no-member", "huge"],
)
def test_classes_must_be_one_index_array(index, message):
    with pytest.raises(ValueError, match=message):
        MenPartition(index, (2, 2, 1))
    with pytest.raises(ValueError, match=message):
        QuotientGraph(index, [(0, 1), (0, 2)], (2, 2, 1))
    assert MenPartition(np.array([0, 1, 2, 1, 0]), (2, 2, 1)).classes == ((0, 4), (1, 3), (2,))
    assert QuotientGraph(np.array([0, 1, 2, 1, 0], np.uint8), [], (2, 2, 1)).members[2] == (2,)


def test_all_singleton_partition_returns_its_quotient_graph(monkeypatch):
    # the pipeline projects only a subgroup graph that has closed twins
    calls = []
    monkeypatch.setattr(pga.engine, "build_quotient", lambda *a: calls.append(a) or build_quotient(*a))
    for spec, projected in (("Sym(3)", 0), ("Z(2)^10", 0), ("Z(4)", 1), ("Sym(5)", 1)):
        calls.clear()
        pipeline(realize(spec))
        assert len(calls) == projected, spec
    # an identity partition projects onto an equal graph
    sg = cyclic_subgroup_graph(bundle("Sym(3)").g)
    mp = men_partition(sg)
    assert all(len(c) == 1 for c in mp.classes)
    q = build_quotient(sg, mp)
    assert (q.members, q.adj, q.weights) == (sg.members, sg.adj, sg.weights)
    # other discrete partitions are projected: doubled weights, reversed classes
    reverse = tuple(reversed(range(sg.n)))
    for classes, weights in (
        (mp.classes, tuple(2 * w for w in sg.weights)),
        (tuple((v,) for v in reverse), tuple(sg.weights[v] for v in reverse)),
    ):
        q = build_quotient(sg, MenPartition(_node_of(classes), weights))
        assert q is not sg and q.weights == weights
        assert q.members == tuple(sg.members[v] for (v,) in classes)


def test_only_closed_twins_are_projected(monkeypatch):
    # the pipeline and the coprime route's Sylow subgraphs both go through
    # build_quotient only when two nodes are closed twins: over the golden
    # specs that is 11 subgroup graphs and 8 Sylow subgraphs
    calls = []
    monkeypatch.setattr(
        pga.engine, "build_quotient", lambda wg, mp: calls.append((wg, mp)) or build_quotient(wg, mp)
    )
    coprime = 0
    for spec in GOLDEN_SPECS:
        start = len(calls)
        if analyze(spec).method == METHOD_COPRIME:
            coprime += len(calls) - start
    assert all(len(mp.weights) < wg.n for wg, mp in calls)
    assert (len(calls), coprime) == (19, 8)


def _closed_twin_classes(pg):
    """The power graph's vertices grouped by closed neighbourhood, read off
    its rows alone: classes by least member, each ascending."""
    groups = {}
    for v, row in enumerate(pg.adj):
        groups.setdefault(row | 1 << v, []).append(v)
    return tuple(map(tuple, groups.values()))


def test_analyze_and_verify_build_no_member_tuples(monkeypatch):
    # classes travel as the vertex-to-node array: analyze and verify build no
    # quotient's member tuples and no partition's class tuples, for the kept
    # subgroup graph (Z(2)^10, Dih(500)), a projected one (Sym(5)), a Sylow
    # subgraph (P(Dih(4),Z(5))) and a full verify; a first read builds them,
    # equal to the power graph's closed-twin classes
    quotients, partitions = [], []

    def recorded(made, build):
        return lambda *a: made.append(build(*a)) or made[-1]

    monkeypatch.setattr(pga.engine, "cyclic_subgroup_graph", recorded(quotients, cyclic_subgroup_graph))
    monkeypatch.setattr(pga.engine, "build_quotient", recorded(quotients, build_quotient))
    monkeypatch.setattr(pga.engine, "men_partition", recorded(partitions, men_partition))
    for run in (
        lambda: analyze("Z(2)^10"), lambda: analyze("Dih(500)"), lambda: analyze("Sym(5)"),
        lambda: analyze("P(Dih(4),Z(5))"), lambda: verify("Z(2)^5", OracleCaps(max_nodes=128)),
    ):
        quotients.clear()
        partitions.clear()
        r = run()
        assert r.pipeline.q in quotients and partitions, r.spec
        assert not any("members" in vars(q) for q in quotients), r.spec
        assert not any("classes" in vars(mp) for mp in partitions), r.spec
        classes = _closed_twin_classes(build_power_graph(r.pipeline.g))
        assert r.pipeline.q.members == classes == men_partition(r.pipeline.pg).classes, r.spec
        assert "members" in vars(r.pipeline.q), r.spec
    # the full verify's check of the power graph partitions nothing: the one
    # partition is the subgroup graph's
    assert len(partitions) == 1 and partitions[0].classes == classes


def test_array_classification_matches_peeling():
    # _classify_classes reads each class's orders off one stable sort of the
    # vertex-to-node array; its kinds are those peeling generator sets off
    # the member tuples gives, on the golden specs (against the power graph's
    # classes) and on the product sweep (against the quotient's)
    for spec in GOLDEN_SPECS:
        b = bundle(spec)
        kinds = tuple(peel_class(b.g, c) for c in _closed_twin_classes(b.pg))
        assert _classify_classes(b) == kinds, spec
    for spec in PRODUCT_SPECS:
        p = pipeline(realize(spec))
        assert _classify_classes(p) == tuple(peel_class(p.g, c) for c in p.q.members), spec


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


def _planted(g, members):
    """A pipeline of g whose quotient's first class is `members`."""
    rest = tuple(v for v in range(g.size - 1) if v not in members)
    return Pipeline(g, QuotientGraph(_node_of((members, rest)), [], (len(members), len(rest))))


def test_classify_rejects_other_unions():
    z6, z8 = bundle("Z(6)").g, bundle("Z(8)").g
    for g, members in (
        (z6, (0, 1)),  # elements 1, 2: part of the generator set {1, 5}
        (z6, (1, 2, 3)),  # <2> and <3>: neither contains the other
        (z8, (0, 2, 3, 4, 6)),  # <1> and <4>: index 4, not 2
    ):
        assert peel_class(g, members) is None
        with pytest.raises(InternalCheckError, match="fits neither"):
            _classify_classes(_planted(g, members))


def test_report_rejects_the_unions_classify_rejects(monkeypatch):
    # a report decides all its classes' chains from one table of powers; a
    # union that fits neither form fails there too, and so does analyze
    # itself, which classifies before any class table is read. Ab[2,4]'s
    # orders fit an interval, but (1, 0) is no power of (0, 1)
    for spec, members in (("Z(6)", (1, 2, 3)), ("Z(8)", (0, 2, 3, 4, 6)), ("Ab[2,4]", (0, 2, 3))):
        g = bundle(spec).g
        assert peel_class(g, members) is None
        fits_neither = rf"MEN class \[{', '.join(map(str, members))}\] fits neither"
        with pytest.raises(InternalCheckError, match=fits_neither):
            _classify_classes(_planted(g, members))
        monkeypatch.setattr("pga.engine.pipeline", lambda _, planted=_planted(g, members): planted)
        with pytest.raises(InternalCheckError, match=fits_neither):
            analyze(spec)


def _reference_summaries(spec):
    """Each power-graph MEN class's member labels, weight, largest order, and
    the kind peeling generator sets off its members gives."""
    g = bundle(spec).g
    return tuple(
        (tuple(g.labels[v + 1] for v in members), len(members),
         max(g.element_order(v + 1) for v in members), peel_class(g, members))
        for members in _power_partition(spec).classes
    )


def test_class_summaries_match_peeling():
    # each summary's kind is the one peeling generator sets off its members
    # gives, and its order is the largest among them
    for spec in GOLDEN_SPECS:
        assert report(spec).classes == _reference_summaries(spec), spec
    assert [c.kind for c in analyze("Z(8)").classes] == [CYCLIC_INTERVAL]
    assert [c.kind for c in analyze("Dih(4)").classes] == [CYCLIC_INTERVAL] + [GENERATOR_CLASS] * 4


def test_class_table_and_product_labels_are_built_on_first_read():
    # analyze and verify classify every class but build neither the class
    # table nor a direct product's labels; a first read builds both
    for r in (analyze("Z(2)^10"), verify("Z(2)^5", OracleCaps(max_nodes=128))):
        g = r.pipeline.g
        assert "classes" not in vars(r) and "labels" not in vars(g), r.spec
        assert r.classes == _reference_summaries(r.spec), r.spec
        assert "classes" in vars(r) and "labels" in vars(g), r.spec


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
