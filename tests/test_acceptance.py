"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is exact (no tolerances anywhere) and the stated
wall-clock budgets are asserted.
"""

import math
import random
import time

from pga import (
    Product,
    Sym,
    Wreath,
    count_automorphisms,
    enumerate_automorphisms,
    expr_normalize,
    expr_order,
    men_partition,
    vertex_orbits,
)

from _support import (
    CORPUS,
    EXPECTED_ORDER,
    bundle,
    centralizer_size,
    cyclic_subgroup,
    gen_set,
    homocyclic_tower,
    maximal_cyclic_subgroups,
    peel_class,
    reconstructed_order,
    relabel,
    report,
)

FULL_ORACLE_NODE_CAP = 40
FULL_ORACLE_COUNT_CAP = 10_000_000


def _report_line(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_cyclic_non_prime_power_oracle_equality():
    start = time.perf_counter()
    checked = []
    for n in (6, 10, 12, 15, 18, 20):
        spec = f"Z({n})"
        structural = report(spec).order
        oracle = count_automorphisms(bundle(spec).pg)
        assert structural == oracle == EXPECTED_ORDER[spec], spec
        checked.append(f"{spec}={structural}")
    elapsed = time.perf_counter() - start
    _report_line(1, elapsed < 5.0, f"{', '.join(checked)} ({elapsed:.2f}s < 5s)")


def test_criterion_02_cyclic_prime_powers_complete_graphs():
    start = time.perf_counter()
    for spec, n in (("Z(4)", 4), ("Z(8)", 8), ("Z(9)", 9)):
        r = report(spec)
        assert r.expression == Sym(n - 1)
        assert r.order == math.factorial(n - 1) == EXPECTED_ORDER[spec]
        oracle = count_automorphisms(bundle(spec).pg)
        assert oracle == r.order, spec
    elapsed = time.perf_counter() - start
    _report_line(2, elapsed < 5.0, f"Z(4)=6 Z(8)=5040 Z(9)=40320 ({elapsed:.2f}s < 5s)")


def test_criterion_03_homocyclic_formula_oracle_equality_and_shape():
    start = time.perf_counter()
    for spec in ("Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2"):
        structural = report(spec).order
        oracle = count_automorphisms(bundle(spec).pg)
        assert structural == oracle == EXPECTED_ORDER[spec], spec
    # the template for Z(4)^2 must instantiate with r_1 = 3, r_2 = 6, k_2 = 2:
    # the wreath tower plus classes of weight 1 (three) and 2 (six)
    tower, weights = homocyclic_tower(2, 2, 2)
    assert tower == Wreath(Sym(2), Sym(3))
    assert weights == [1] * 3 + [2] * 6
    emitted = Product((tower, *(Sym(w) for w in weights)))
    normalized = expr_normalize(emitted)
    assert normalized == Product((Wreath(Sym(2), Sym(3)),) + (Sym(2),) * 6)
    assert report("Z(4)^2").expression == normalized
    elapsed = time.perf_counter() - start
    _report_line(
        3,
        elapsed < 30.0,
        f"orders 6/384/5040/3072; Z(4)^2 = (S2 wr S3) x S1^3 x S2^6 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_04_quotient_times_factorials_for_all_corpus_groups():
    start = time.perf_counter()
    full_checked = 0
    for spec in CORPUS:
        b = bundle(spec)
        r = report(spec)
        quotient_oracle = count_automorphisms(b.q)
        factorial_part = math.prod(math.factorial(w) for w in men_partition(b.pg).weights)
        assert r.order == quotient_oracle * factorial_part, spec
        feasible = (
            b.pg.n_vertices <= FULL_ORACLE_NODE_CAP and r.order <= FULL_ORACLE_COUNT_CAP
        )
        if feasible:
            assert r.order == count_automorphisms(b.pg), spec
            full_checked += 1
    elapsed = time.perf_counter() - start
    _report_line(
        4,
        elapsed < 60.0,
        f"{len(CORPUS)} groups, quotient x factorial exact; {full_checked} full-graph checks "
        f"({elapsed:.2f}s < 60s)",
    )


def test_criterion_05_nonabelian_sanity():
    for spec, want in (("Sym(3)", 12), ("Dih(4)", 144), ("Q8", 48)):
        r = report(spec)
        oracle = count_automorphisms(bundle(spec).pg)
        assert r.order == oracle == want, spec
    _report_line(5, True, "Sym(3)=12 Dih(4)=144 Q8=48, all oracle-confirmed")


def test_criterion_06_coprime_product_route():
    r = report("P(Q8,Z(3))")
    quotient_structural = expr_order(r.quotient_expr)
    quotient_oracle = count_automorphisms(bundle("P(Q8,Z(3))").q)
    assert r.method == "coprime-factors"
    assert quotient_structural == quotient_oracle == 6
    via_product = report("P(Z(4),Z(3))")
    assert via_product.method == "coprime-factors"
    assert via_product.order == 192 == report("Z(12)").order
    _report_line(
        6,
        True,
        "P(Q8,Z(3)) quotient order 6 = oracle; P(Z(4),Z(3)) = 192 = Z(12)",
    )


def test_criterion_07_every_class_classifies():
    total = 0
    for spec in CORPUS:
        b = bundle(spec)
        # the report's kinds, against peeling generator sets off each class
        kinds = [c.kind for c in report(spec).classes]
        for members, kind in zip(men_partition(b.pg).classes, kinds, strict=True):
            total += 1
            assert peel_class(b.g, members) == kind, (spec, members)
    _report_line(7, True, f"{total} classes over {len(CORPUS)} groups, zero unclassified")


def test_criterion_08_generator_class_properties():
    violations = []
    for spec in CORPUS:
        b = bundle(spec)
        class_sets = {frozenset(v + 1 for v in c) for c in men_partition(b.pg).classes}
        # non-prime-power centralizer order forces the generator set to be a class
        for x in range(1, b.g.size):
            size = centralizer_size(b.g, x)
            if len({p for p in _prime_factors(size)}) >= 2:
                if gen_set(b.g, x) not in class_sets:
                    violations.append((spec, "centralizer", x))
        # maximal cyclic subgroup with a larger centralizer: every nontrivial
        # member's generator set is a class
        for sub in maximal_cyclic_subgroups(b.g):
            if len(sub) < 2:
                continue
            a = next(x for x in sorted(sub) if cyclic_subgroup(b.g, x) == sub)
            if centralizer_size(b.g, a) != len(sub):
                for x in sorted(sub - {0}):
                    if gen_set(b.g, x) not in class_sets:
                        violations.append((spec, "maximal-cyclic", x))
    _report_line(8, not violations, f"violations: {violations or 'none'}")


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_criterion_09_order_reconstruction():
    checked = 0
    for spec in CORPUS:
        b = bundle(spec)
        mp = men_partition(b.pg)
        for members in mp.classes:
            # the cyclic subgroup of a class's element of largest order
            x = max((v + 1 for v in members), key=b.g.element_order)
            assert reconstructed_order(b.g, mp, x) == b.g.element_order(x), (spec, members)
            checked += 1
    _report_line(9, True, f"{checked} classes reconstructed exactly")


def test_criterion_10_quotient_orbits_transitive_on_equal_orders():
    for spec in ("Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2"):
        b = bundle(spec)
        orbits = vertex_orbits(b.q)
        by_order = {}
        for node, members in enumerate(b.q.members):
            order = max(b.g.element_order(v + 1) for v in members)
            by_order.setdefault(order, []).append(node)
        assert sorted(orbits) == sorted(sorted(v) for v in by_order.values()), spec
    _report_line(10, True, "quotient orbits = equal-element-order node sets")


def test_criterion_11_oracle_self_consistency():
    rng = random.Random(20240811)
    for spec in CORPUS:
        b = bundle(spec)
        for wg in (b.pg, b.q):
            base = count_automorphisms(wg)
            for _ in range(3):
                perm = list(range(wg.n))
                rng.shuffle(perm)
                assert count_automorphisms(relabel(wg, perm)) == base, spec
            if base <= 50_000:
                assert len(enumerate_automorphisms(wg)) == base, spec
    _report_line(11, True, "counts relabeling-invariant; enumerations match counts")
