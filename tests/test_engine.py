import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from pga import (
    CapExceeded,
    OracleCaps,
    Product,
    Sym,
    Trivial,
    Wreath,
    analyze,
    aut_abelian,
    aut_cyclic_formula,
    aut_full,
    aut_homocyclic_formula,
    aut_nilpotent,
    aut_prime_power_cyclic,
    build_power_graph,
    count_automorphisms,
    expr_normalize,
    expr_order,
    quotient_aut,
    realize,
    verify,
)
from pga.cli import run

from _support import CORPUS, EXPECTED_ORDER, bundle, report


def test_cyclic_formula_values():
    assert expr_order(aut_cyclic_formula(6)) == 4
    assert expr_order(aut_cyclic_formula(10)) == 576
    assert expr_order(aut_cyclic_formula(12)) == 192
    assert aut_cyclic_formula(6).factors == (Sym(1), Sym(2), Sym(2))


def test_cyclic_formula_rejects_prime_powers():
    with pytest.raises(ValueError, match="complete"):
        aut_cyclic_formula(8)


def test_prime_power_cyclic():
    assert aut_prime_power_cyclic(2, 2) == Sym(3)
    assert aut_prime_power_cyclic(3, 1) == Sym(2)
    assert expr_order(aut_prime_power_cyclic(2, 3)) == 5040
    with pytest.raises(ValueError):
        aut_prime_power_cyclic(6, 1)


def test_homocyclic_formula_values():
    assert expr_order(aut_homocyclic_formula(2, 1, 2)) == 6
    assert expr_order(aut_homocyclic_formula(3, 1, 2)) == 384
    assert expr_order(aut_homocyclic_formula(2, 2, 2)) == 3072
    with pytest.raises(ValueError):
        aut_homocyclic_formula(2, 1, 1)


def test_homocyclic_formula_structure():
    e = aut_homocyclic_formula(2, 2, 2)
    assert isinstance(e, Product)
    factors = list(e.factors)
    assert factors.count(Wreath(Sym(2), Sym(3))) == 1
    assert factors.count(Sym(1)) == 3
    assert factors.count(Sym(2)) == 6
    assert len(factors) == 10


def test_quotient_aut_z4_squared_is_wreath():
    q = bundle("Z(4)^2").q
    e = quotient_aut(q.to_weighted_graph())
    assert e == Wreath(Sym(2), Sym(3))
    assert expr_order(e) == 48


def test_quotient_aut_single_node_trivial():
    assert quotient_aut(bundle("Z(4)").q.to_weighted_graph()) == Trivial()


def test_quotient_aut_q8_is_sym3():
    assert quotient_aut(bundle("Q8").q.to_weighted_graph()) == Sym(3)


def test_aut_full_examples():
    r = aut_full(bundle("Z(6)"))
    assert r.order == 4 and r.quotient_expr == Trivial()
    r = aut_full(bundle("Z(2)^2"))
    assert r.order == 6 and r.expression == Sym(3)
    r = aut_full(bundle("Dih(4)"))
    assert r.order == 144 and r.expression == Product((Sym(4), Sym(3)))


def test_aut_nilpotent_z12_agrees_with_cyclic_formula():
    r = aut_nilpotent(bundle("P(Z(4),Z(3))"), [realize("Z(4)"), realize("Z(3)")])
    assert r.order == 192
    assert r.method == "coprime-factors"


def test_aut_nilpotent_q8_z3():
    r = report("P(Q8,Z(3))")
    assert r.order == 2_654_208
    assert expr_order(r.quotient_expr) == 6
    assert r.method == "coprime-factors"


def test_aut_nilpotent_guards():
    with pytest.raises(ValueError, match="two nontrivial"):
        aut_nilpotent(bundle("Ab[2,2]"), [realize("Ab[2,2]")])
    with pytest.raises(ValueError, match="coprime"):
        aut_nilpotent(bundle("Ab[2,4]"), [realize("Z(2)"), realize("Z(4)")])
    with pytest.raises(ValueError, match="multiply"):
        aut_nilpotent(bundle("Q8"), [realize("Z(2)"), realize("Z(3)")])


def test_aut_abelian_dispatch():
    assert aut_abelian(bundle("Ab[2,4]"), [2, 4]).order == 16
    homo = aut_abelian(bundle("Ab[3,3]"), [3, 3])
    assert homo.order == 384
    assert homo.order == expr_order(aut_homocyclic_formula(3, 1, 2))
    assert aut_abelian(bundle("Ab[2,3]"), [2, 3]).order == 4


def test_aut_abelian_guards():
    with pytest.raises(ValueError, match="abelian"):
        aut_abelian(bundle("Q8"), [8])
    with pytest.raises(ValueError, match="multiply"):
        aut_abelian(bundle("Ab[2,2]"), [2])


def test_analyze_method_dispatch():
    assert report("Z(6)").method == "cyclic-divisors"
    assert report("Z(8)").method == "complete-graph"
    assert report("Z(4)^2").method == "homocyclic-wreath"
    assert report("P(Q8,Z(3))").method == "coprime-factors"
    for spec in ("Sym(3)", "Dih(4)", "Q8", "Ab[2,4]"):
        assert report(spec).method == "quotient-recursion"
    assert report("Ab[2,2,3]").method == "coprime-factors"


def test_analyze_orders_match_frozen_values():
    for spec in CORPUS:
        assert report(spec).order == EXPECTED_ORDER[spec], spec


def test_closed_forms_agree_with_generic_recursion():
    # the engine cross-checks internally; re-check explicitly here
    for spec in CORPUS:
        b = bundle(spec)
        r = report(spec)
        generic = quotient_aut(b.q.to_weighted_graph())
        factorial_part = math.prod(math.factorial(w) for w in b.mp.weights)
        assert expr_order(generic) * factorial_part == r.order, spec
        assert expr_order(generic) == expr_order(r.quotient_expr), spec


def test_cross_check_note_present_for_closed_forms():
    for spec in ("Z(6)", "Z(4)", "Z(4)^2", "Ab[2,2,3]", "P(Q8,Z(3))"):
        assert any("cross-check" in note for note in report(spec).notes), spec


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
    r = verify("Z(30)")
    assert r.verification.status == "quotient-verified"
    assert r.verification.structural_order == 1  # trivial quotient group
    assert r.order == 3_745_618_329_600


def test_verify_raises_when_both_routes_capped():
    with pytest.raises(CapExceeded):
        verify("Z(12)", OracleCaps(max_nodes=2))


def test_verify_extra_groups_against_oracle():
    for spec in ("P(Dih(4),Z(3))", "P(Z(2),Z(9))", "Ab[2,2,2,3]", "Dih(6)", "Sym(4)"):
        r = verify(spec)
        assert r.verification.status in ("full-verified", "quotient-verified"), spec


@pytest.mark.parametrize("spec", ["Z(12)", "Ab[2,3]", "P(Q8,Z(3))", "Sym(3)"])
def test_one_whole_group_build_per_operation(spec, monkeypatch, tmp_path):
    # coprime factors get their own pipelines; only the spec's own group counts
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
        return sizes.count(order)

    assert whole_group_builds(lambda: analyze(spec)) == 1
    assert whole_group_builds(lambda: verify(spec)) == 1
    export = ["export", "--group", spec, "--out", str(tmp_path)]
    assert whole_group_builds(lambda: run(export)) == 1


def test_homocyclic_tower_quotient_against_oracle():
    # three levels deep: Z(8)^2 has a 21-node quotient the oracle can still count
    r = analyze("Z(8)^2")
    assert expr_order(r.quotient_expr) == expr_order(
        expr_normalize(Wreath(Wreath(Sym(2), Sym(2)), Sym(3)))
    )
    b = bundle("Z(8)^2")
    assert count_automorphisms(b.q.to_weighted_graph()) == expr_order(r.quotient_expr)


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
        assert count_automorphisms(pg.to_weighted_graph()) == r.order


def test_sweep_small_groups_against_oracle():
    # every expressible group on up to 28 nontrivial elements, full oracle
    import itertools

    specs = [f"Z({n})" for n in range(2, 29)]
    specs += [f"Dih({n})" for n in range(1, 15)]
    specs += ["Sym(2)", "Sym(3)", "Sym(4)", "Q8", "Z(2)^2", "Z(2)^3", "Z(3)^2",
              "Z(4)^2", "Z(5)^2", "P(Q8,Z(3))", "P(Dih(4),Z(3))", "P(Q8,Z(2))",
              "P(Dih(3),Z(4))", "P(Sym(3),Z(4))"]
    for size in range(2, 29):
        for k in (2, 3):
            for combo in itertools.combinations_with_replacement(range(2, 29), k):
                if math.prod(combo) == size:
                    specs.append("Ab[" + ",".join(map(str, combo)) + "]")
    for spec in specs:
        r = analyze(spec)
        pg = build_power_graph(realize(spec))
        assert count_automorphisms(pg.to_weighted_graph()) == r.order, spec
