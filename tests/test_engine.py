import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from pga import (
    CapExceeded,
    InternalCheckError,
    Opaque,
    OracleCaps,
    Product,
    Sym,
    Trivial,
    Wreath,
    WeightedGraph,
    analyze,
    build_power_graph,
    count_automorphisms,
    expr_normalize,
    expr_order,
    is_prime_power,
    men_partition,
    pipeline,
    quotient_aut,
    realize,
    stable_colors,
    verify,
)
from pga.cli import run

from _support import (
    CORPUS,
    EXPECTED_ORDER,
    GOLDEN_SPECS,
    SMALL_GROUP_SPECS,
    bundle,
    complete_graph_form,
    cyclic_divisor_form,
    homocyclic_tower,
    planted_twins,
    report,
    weighted_graphs,
)


def _class_weights(spec: str) -> list[int]:
    return sorted(men_partition(report(spec).pipeline.pg).weights)


def test_cyclic_formula_values():
    # one class per divisor d > 1, of weight phi(d), and a trivial quotient part
    assert report("Z(6)").order == 4
    assert report("Z(10)").order == 576
    assert report("Z(12)").order == 192
    assert _class_weights("Z(6)") == [1, 2, 2]
    assert report("Z(6)").quotient_expr == Trivial()


def test_prime_power_cyclic():
    assert report("Z(4)").expression == Sym(3)
    assert report("Z(3)").expression == Sym(2)
    assert report("Z(8)").order == 5040
    assert report("Z(8)").method == "quotient-recursion"


def test_homocyclic_formula_values():
    assert report("Z(2)^2").order == 6
    assert report("Z(3)^2").order == 384
    assert report("Z(4)^2").order == 3072


def test_homocyclic_formula_structure():
    r = report("Z(4)^2")
    assert r.method == "quotient-recursion"
    assert r.quotient_expr == Wreath(Sym(2), Sym(3))
    assert _class_weights("Z(4)^2") == [1] * 3 + [2] * 6


def test_quotient_aut_z4_squared_is_wreath():
    q = bundle("Z(4)^2").q
    e = quotient_aut(q)
    assert e == Wreath(Sym(2), Sym(3))
    assert expr_order(e) == 48


def test_quotient_aut_single_node_trivial():
    assert quotient_aut(bundle("Z(4)").q) == Trivial()


def test_quotient_aut_q8_is_sym3():
    assert quotient_aut(bundle("Q8").q) == Sym(3)


@given(weighted_graphs(9))
@settings(max_examples=400, deadline=None)
def test_quotient_aut_order_matches_oracle_count(wg):
    assert expr_order(quotient_aut(wg)) == count_automorphisms(wg)


@given(st.one_of(planted_twins(), weighted_graphs(9)))
@settings(max_examples=200, deadline=None)
def test_quotient_aut_is_unchanged_by_stable_colour_weights(wg):
    # the recursion re-weights a stripped component by stable colour; the
    # same re-weighting of a whole graph keeps its group and its expression
    recoloured = WeightedGraph(wg.n, wg.edges(), [c + 1 for c in stable_colors(wg)])
    assert quotient_aut(recoloured) == quotient_aut(wg)


@pytest.mark.parametrize(
    "spec, refinements",
    [("P(Sym(5),Z(7))", 1), ("Dih(500)", 1), ("Sym(5)", 1), ("Z(2)^10", 1), ("P(Sym(4),Sym(3))", 4)],
)
def test_quotient_recursion_refines_each_graph_once(spec, refinements, monkeypatch):
    # the top level refines; every deeper level restricts its colouring.
    # P(Sym(4),Sym(3)) also makes two isomorphism tests and one brute-force
    # count, and each of those refines its own graph
    from pga import oracle

    calls = []
    real = oracle._equitable

    def counted(*args):
        calls.append(None)
        return real(*args)

    q = bundle(spec).q
    monkeypatch.setattr(oracle, "_equitable", counted)
    quotient_aut(q)
    assert 1 <= len(calls) <= refinements


def test_generic_route_examples():
    # the recursion's quotient part, and the report analyze builds on it
    assert quotient_aut(bundle("Z(6)").q) == Trivial()
    r = analyze("Z(6)")
    assert r.order == 4 and r.quotient_expr == Trivial()
    assert quotient_aut(bundle("Z(2)^2").q) == Sym(3)
    r = analyze("Z(2)^2")
    assert r.order == 6 and r.expression == Sym(3)
    assert quotient_aut(bundle("Dih(4)").q) == Sym(4)  # four isolated reflections
    r = analyze("Dih(4)")
    assert r.method == "quotient-recursion"
    assert r.order == 144 and r.expression == Product((Sym(4), Sym(3)))


def test_aut_nilpotent_z12_agrees_with_cyclic_formula():
    r = report("P(Z(4),Z(3))")
    assert r.order == 192 == report("Z(12)").order
    assert r.method == "coprime-factors"


def test_aut_nilpotent_q8_z3():
    r = report("P(Q8,Z(3))")
    assert r.order == 2_654_208
    assert expr_order(r.quotient_expr) == 6
    assert r.method == "coprime-factors"


def test_aut_abelian_dispatch():
    assert report("Ab[2,4]").order == 16
    assert report("Ab[2,4]").method == "quotient-recursion"
    homo = report("Ab[3,3]")
    assert homo.order == 384
    assert homo.method == "quotient-recursion"
    assert report("Ab[2,3]").order == 4
    assert report("Ab[2,3]").method == "coprime-factors"


def test_analyze_method_dispatch():
    # one cyclic factor, as in Z(12) and Ab[12], takes the recursion
    recursion = ("Z(6)", "Z(8)", "Z(4)^2", "Ab[12]", "P(Z(12),Z(1))")
    for spec in recursion + ("Sym(3)", "Dih(4)", "Q8", "Ab[2,4]"):
        assert report(spec).method == "quotient-recursion", spec
    for spec in ("P(Q8,Z(3))", "Ab[2,2,3]", "P(Z(4),Z(3))"):
        assert report(spec).method == "coprime-factors", spec


def _no_oracle(monkeypatch):
    import pga.engine

    def no_count(*args):
        raise AssertionError("the recursion called the oracle")

    monkeypatch.setattr(pga.engine, "count_automorphisms", no_count)


def _matches_form(spec: str, form) -> None:
    q = pipeline(realize(spec)).q
    tower, weights = form
    assert quotient_aut(q) == expr_normalize(tower), spec
    assert sorted(q.weights) == sorted(weights), spec


def test_recursion_matches_the_cyclic_closed_forms(monkeypatch):
    # Z(p^m) is a complete graph, and any other Z(n) has one class of weight
    # phi(d) per divisor d > 1; the quotient part is trivial in both
    _no_oracle(monkeypatch)
    for n in range(2, 2001):
        form = complete_graph_form(n) if is_prime_power(n) else cyclic_divisor_form(n)
        _matches_form(f"Z({n})", form)


def test_recursion_matches_the_homocyclic_tower(monkeypatch):
    # every Z(q)^k of order <= 2000, q = p^m and k >= 2: q <= 44 and k <= 10
    _no_oracle(monkeypatch)
    checked = 0
    for q in range(2, 45):
        pp = is_prime_power(q)
        for k in range(2, 11):
            if pp is not None and q**k <= 2000:
                _matches_form(f"Z({q})^{k}", homocyclic_tower(*pp, k))
                checked += 1
    assert checked == 42


def test_analyze_orders_match_frozen_values():
    for spec in CORPUS:
        assert report(spec).order == EXPECTED_ORDER[spec], spec


def test_closed_forms_agree_with_generic_recursion():
    # the engine cross-checks the coprime route's order; here the expressions must agree too
    for spec in CORPUS:
        b = bundle(spec)
        r = report(spec)
        generic = quotient_aut(b.q)
        factorial_part = math.prod(math.factorial(w) for w in men_partition(b.pg).weights)
        assert expr_order(generic) * factorial_part == r.order, spec
        assert generic == r.quotient_expr, spec


@pytest.mark.parametrize(
    "spec, expression, opaque",
    [
        # a 133-node quotient component without a unique dominating node
        ("P(Sym(5),Z(7))", None, []),
        ("P(Sym(3),Sym(3))", "(S3 wr S2) x S9 x S2^11", []),
        # one component has no singleton cell, so it stays brute-forced
        ("P(Sym(4),Sym(3))", None, [Opaque(144)]),
    ],
)
def test_fixed_node_splitting_answers_products(spec, expression, opaque):
    r = analyze(spec)
    assert r.method == "quotient-recursion"
    if expression is not None:
        assert r.expression_str == expression
    assert [f for f in r.expression.factors if isinstance(f, Opaque)] == opaque
    q = r.pipeline.q
    assert expr_order(r.quotient_expr) == count_automorphisms(q, OracleCaps(max_nodes=q.n_nodes))


def test_cross_check_note_present_for_closed_forms():
    # every golden spec takes one of two routes; the coprime route, the one
    # closed form left, notes its cross-check, and the recursion has no note
    for spec in GOLDEN_SPECS:
        r = report(spec)
        assert r.method in ("quotient-recursion", "coprime-factors"), spec
        if r.method == "coprime-factors":
            assert len(r.notes) == 1 and r.notes[0].startswith("cross-check"), spec
        else:
            assert r.notes == (), spec


def test_closed_form_order_is_cross_checked(monkeypatch):
    # a wrong Sylow 2-part for P(Q8,Z(3)) (S4 instead of S3): the coprime
    # route recurses on its Sylow parts first, the 2-part first of all, and
    # the whole quotient's recursion then disagrees
    import pga.engine

    real = pga.engine.quotient_aut
    calls = []

    def planted(wg, caps=None):
        calls.append(wg)
        return Sym(4) if len(calls) == 1 else real(wg, caps)

    monkeypatch.setattr(pga.engine, "quotient_aut", planted)
    with pytest.raises(
        InternalCheckError,
        match="closed form gives quotient order 24 but the recursive decomposition gives 6",
    ):
        analyze("P(Q8,Z(3))")


def test_capped_cross_check_is_skipped_with_a_note():
    # the coprime route answers Ab[12,18]; the generic recursion meets a
    # 44-node component with no fixed node, above the default cap of 40
    r = analyze("Ab[12,18]")
    assert r.method == "coprime-factors"
    assert r.quotient_expr == expr_normalize(Product((Sym(3), Sym(3), Sym(2), Sym(2))))
    assert r.notes == (
        "cross-check skipped: order-only unavailable: a 44-node component needs brute "
        "force (graph has 44 nodes, above the cap of 40)",
    )


def test_normalization_is_checked(monkeypatch):
    # a normal form that loses a factor of the final product changes the order
    import pga.engine

    real = pga.engine.expr_normalize

    def lossy(e):
        e = real(e)
        return Product(e.factors[1:]) if isinstance(e, Product) else e

    monkeypatch.setattr(pga.engine, "expr_normalize", lossy)
    with pytest.raises(InternalCheckError, match="normalization changed the expression order"):
        analyze("Z(6)")


def test_homocyclic_z2_10_evaluates_its_largest_factorial_twice(monkeypatch):
    # S1023 is the recursion's quotient part and the whole expression; each
    # of those orders is evaluated once
    real = math.factorial
    calls = []

    def counted(n):
        if n == 1023:
            calls.append(n)
        return real(n)

    monkeypatch.setattr(math, "factorial", counted)
    analyze("Z(2)^10")
    assert len(calls) <= 2


def test_expression_strings():
    assert report("Z(6)").expression_str == "S2^2"
    assert report("Z(4)^2").expression_str == "(S2 wr S3) x S2^6"
    assert report("Dih(4)").expression_str == "S4 x S3"
    assert report("Z(2)^2").expression_str == "S3"


def test_report_order_consistency():
    for spec in CORPUS:
        r = report(spec)
        assert expr_order(r.expression) == r.order
        assert sum(c.weight for c in r.classes) == r.vertex_count


def test_verify_full_and_quotient_modes():
    r = verify("Z(12)")
    assert r.verification.status == "full-verified"
    assert r.verification.oracle_order == 192
    r = verify("Z(2)^3")
    assert r.verification.status == "full-verified"
    assert r.verification.oracle_order == 5040
    # Z(30)'s 29 vertices are above a cap of 10, and its quotient has 7 nodes
    r = verify("Z(30)", OracleCaps(max_nodes=10))
    assert r.verification.status == "quotient-verified"
    assert r.verification.structural_order == 1  # trivial quotient group
    assert r.order == 3_745_618_329_600
    v = verify("Z(30)").verification
    assert v.status == "full-verified"
    assert v.oracle_order == v.structural_order == 3_745_618_329_600


def test_verify_counts_the_full_graph_of_z1999():
    # a complete graph on 1,998 nodes: every chain level is a twin level
    v = verify("Z(1999)", OracleCaps(max_nodes=2000)).verification
    assert v.status == "full-verified"
    assert v.oracle_order == v.structural_order == math.factorial(1998)


@pytest.mark.parametrize("spec", ["Dih(13)", "Z(2)^5", "Sym(5)"])
def test_full_graph_counts_match_analyze(spec):
    # the oracle counts their whole power graphs, 25-119 nodes, directly, and
    # verify does too at default caps for those within the node cap of 40
    r = analyze(spec)
    pg = r.pipeline.pg
    assert count_automorphisms(pg, OracleCaps(max_nodes=pg.n)) == r.order
    if pg.n <= OracleCaps().max_nodes:
        v = verify(spec).verification
        assert (v.status, v.oracle_order) == ("full-verified", r.order)


@pytest.mark.parametrize(
    "spec", ["P(Sym(4),Dih(4))", "P(Sym(5),Z(2))", "P(Z(4)^2,Dih(5))", "Ab[2,2,4,16]"]
)
def test_lone_large_components_answer_at_default_caps(spec):
    # each has a quotient component above the node cap that no other
    # component is compared with, so no search needs the cap
    r = analyze(spec)
    pg = r.pipeline.pg
    assert count_automorphisms(pg, OracleCaps(max_nodes=pg.n)) == r.order


def test_verify_raises_when_both_routes_capped():
    with pytest.raises(CapExceeded):
        verify("Z(12)", OracleCaps(max_nodes=2))


def test_verify_extra_groups_against_oracle():
    # every power graph here fits the default node cap, whatever its order
    extra = ("P(Dih(4),Z(3))", "P(Z(2),Z(9))", "Ab[2,2,2,3]", "Dih(6)", "Sym(4)")
    for spec in dict.fromkeys(CORPUS + SMALL_GROUP_SPECS + extra):
        v = verify(spec).verification
        assert v.status == "full-verified", spec
        assert v.oracle_order == v.structural_order == EXPECTED_ORDER.get(spec, v.oracle_order), spec


@pytest.mark.parametrize("spec", ["Z(12)", "Ab[2,3]", "P(Q8,Z(3))", "Sym(3)"])
def test_one_whole_group_build_per_operation(spec, monkeypatch, tmp_path):
    # the spec's group is the only one realized, so every power graph built is its own
    import pga.cli
    import pga.engine

    original = pga.engine.build_power_graph
    sizes: list[int] = []

    def counting(g):
        sizes.append(g.size)
        return original(g)

    for module in (pga.engine, pga.cli):
        if getattr(module, "build_power_graph", None) is original:
            monkeypatch.setattr(module, "build_power_graph", counting)
    order = report(spec).group_order

    def whole_group_builds(operation) -> int:
        sizes.clear()
        operation()
        assert set(sizes) <= {order}
        return len(sizes)

    # analyze never builds the power graph; verify's full count and export's DOT need it once
    assert whole_group_builds(lambda: analyze(spec)) == 0
    assert whole_group_builds(lambda: verify(spec)) == 1
    export = ["export", "--group", spec, "--out", str(tmp_path)]
    assert whole_group_builds(lambda: run(export)) == 1


@pytest.mark.parametrize("spec", ["Ab[2,3]", "P(Q8,Z(3))", "Ab[2,2,3]"])
def test_coprime_route_realizes_only_the_spec(spec, monkeypatch):
    # the Sylow quotients come from the spec's own cyclic-subgroup graph
    import pga.engine

    calls = {"realize": 0, "pipeline": 0, "cyclic_subgroup_graph": 0}

    def counted(name):
        original = getattr(pga.engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pga.engine, name, wrapper)

    for name in calls:
        counted(name)
    assert analyze(spec).method == "coprime-factors"
    assert calls == {"realize": 1, "pipeline": 1, "cyclic_subgroup_graph": 1}


@pytest.mark.parametrize(
    "spec, sylows",
    [
        ("P(Q8,Z(3))", ["Q8", "Z(3)"]),
        ("P(Dih(4),Z(3))", ["Dih(4)", "Z(3)"]),
        ("P(Q8,Z(9))", ["Q8", "Z(9)"]),
        ("P(Dih(4),Z(5))", ["Dih(4)", "Z(5)"]),
        ("Ab[4,6,9]", ["Ab[2,4]", "Ab[3,9]"]),
        ("Ab[2,3,5,7]", ["Z(2)", "Z(3)", "Z(5)", "Z(7)"]),  # four primes
        ("P(Q8,Z(15))", ["Q8", "Z(3)", "Z(5)"]),  # a cyclic leaf of two primes
        ("Ab[12,18]", ["Ab[2,4]", "Ab[3,9]"]),  # its cross-check is skipped
    ],
)
def test_coprime_route_matches_realized_sylow_subgroups(spec, sylows):
    # reference: realize each Sylow subgroup and recurse on its own quotient
    r = report(spec)
    assert r.method == "coprime-factors"
    parts = tuple(quotient_aut(pipeline(realize(s)).q) for s in sylows)
    assert r.quotient_expr == expr_normalize(Product(parts))


def _forbid_power_graph(monkeypatch):
    import pga.engine

    def no_power_graph(g):
        raise AssertionError(f"power graph of {g.description} built")

    monkeypatch.setattr(pga.engine, "build_power_graph", no_power_graph)


@pytest.mark.parametrize("spec", ["Z(1)", "Ab[1,1]", "P(Z(1),Sym(1))"])
def test_trivial_group_rejected_without_power_graph(spec, monkeypatch, tmp_path, capsys):
    _forbid_power_graph(monkeypatch)
    for operation in (analyze, verify):
        with pytest.raises(ValueError, match="defined on nontrivial elements"):
            operation(spec)
    for mode in ("analyze", "verify", "export"):
        assert run([mode, "--group", spec, "--out", str(tmp_path / mode)]) == 1, mode
        assert "defined on nontrivial elements" in capsys.readouterr().err, mode


def test_verify_above_node_cap_builds_no_power_graph(monkeypatch):
    # 119 vertices: only the quotient (51 nodes, also above the cap) is tried
    _forbid_power_graph(monkeypatch)
    with pytest.raises(CapExceeded, match="119 vertices"):
        verify("Sym(5)")


def test_homocyclic_tower_quotient_against_oracle():
    # three levels deep: Z(8)^2 has a 21-node quotient the oracle can still count
    r = analyze("Z(8)^2")
    assert expr_order(r.quotient_expr) == expr_order(
        expr_normalize(Wreath(Wreath(Sym(2), Sym(2)), Sym(3)))
    )
    b = bundle("Z(8)^2")
    assert count_automorphisms(b.q) == expr_order(r.quotient_expr)


def test_analyze_accepts_parsed_specs():
    from pga import parse_group_spec

    assert analyze(parse_group_spec("Z(6)")).order == 4


@given(
    st.lists(st.sampled_from([2, 2, 2, 3, 3, 4, 5, 7, 8, 9]), min_size=1, max_size=3)
)
@settings(max_examples=30, deadline=None)
def test_random_abelian_groups_match_oracle(invariants):
    order = math.prod(invariants)
    assume(2 <= order <= 36)
    spec = f"Ab[{','.join(map(str, invariants))}]"
    r = analyze(spec)
    if r.order <= 200_000:
        pg = build_power_graph(realize(spec))
        assert count_automorphisms(pg) == r.order


def test_sweep_small_groups_against_oracle():
    # every expressible group on up to 28 nontrivial elements, full oracle
    for spec in SMALL_GROUP_SPECS:
        r = analyze(spec)
        pg = build_power_graph(realize(spec))
        assert count_automorphisms(pg) == r.order, spec
