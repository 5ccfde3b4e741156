import math
import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pga import (
    FiniteGroup,
    SpecError,
    WeightedGraph,
    analyze,
    build_power_graph,
    direct_product,
    divisors,
    factorize,
    is_prime_power,
    parse_group_spec,
    realize,
    render_group_spec,
    spec_order,
    totient,
)
from pga.groups import (
    AbelianSpec,
    CyclicSpec,
    HomocyclicSpec,
    ProductSpec,
    QuaternionSpec,
    _CyclicGroup,
    _leaf,
    _ProductGroup,
    unit_generators,
)
from pga.powergraph import cyclic_subgroup_graph

from _support import (
    CORPUS,
    GOLDEN_SPECS,
    SMALL_GROUP_SPECS,
    WORKLOAD_SPECS,
    bundle,
    centralizer_size,
    cyclic_subgroup,
    gen_set,
    is_group_table,
    naive_powers,
    reference_group,
    table_of,
    traced_peak,
)


def test_parse_cyclic():
    assert parse_group_spec("Z(12)") == CyclicSpec(12)


def test_parse_homocyclic():
    spec = parse_group_spec("Z(4)^2")
    assert spec == HomocyclicSpec(4, 2)
    assert is_prime_power(spec.q) == (2, 2)


def test_parse_rejects_non_prime_power_base():
    with pytest.raises(SpecError, match="not a prime power"):
        parse_group_spec("Z(6)^2")


def test_parse_power_one_normalizes_to_cyclic():
    assert parse_group_spec("Z(4)^1") == CyclicSpec(4)


def test_parse_nested_product():
    spec = parse_group_spec("P(P(Z(2),Z(3)),Q8)")
    assert spec == ProductSpec(ProductSpec(CyclicSpec(2), CyclicSpec(3)), QuaternionSpec())


def test_parse_whitespace_tolerated():
    assert parse_group_spec(" P( Q8 , Z(3) ) ") == ProductSpec(QuaternionSpec(), CyclicSpec(3))


# what the CLI prints after "error: " for each malformed spec
SPEC_ERRORS = {
    "": "expected a group spec (Z, Ab, Sym, Dih, Q8 or P) (at position 0)",
    "Z(": "expected a positive integer (at position 2)",
    "Z()": "expected a positive integer (at position 2)",
    "Z(0)": "parameters must be positive (at position 2)",
    "Foo": "expected a group spec (Z, Ab, Sym, Dih, Q8 or P) (at position 0)",
    "Z(6)x": "unexpected trailing input (at position 4)",
    "Ab[]": "expected a positive integer (at position 3)",
    "Sym(6)": "Sym(6) is unsupported (n must be <= 5) (at position 0)",
    "P(Z(2))": "expected ',' (at position 6)",
    "Q8Q8": "unexpected trailing input (at position 2)",
    "Z(²)": "expected a positive integer (at position 2)",  # a digit, but not a decimal one
}


@pytest.mark.parametrize("text", list(SPEC_ERRORS))
def test_parse_errors_carry_position(text):
    with pytest.raises(SpecError) as err:
        parse_group_spec(text)
    assert err.value.position is not None
    assert str(err.value) == SPEC_ERRORS[text]


def test_parse_long_integer_is_a_positioned_error():
    # int() refuses more than 4,300 digits; the error names where the run starts
    for text, position in (("Z(" + "1" * 5000 + ")", 2), ("Ab[2, " + "1" * 5000 + "]", 6)):
        with pytest.raises(SpecError) as err:
            parse_group_spec(text)
        assert err.value.position == position
        assert str(err.value) == f"integer of 5000 digits is too long (at position {position})"


@pytest.mark.parametrize("text", list(CORPUS) + ["Ab[2,2]", "P(P(Z(2),Z(3)),Q8)", "Dih(7)", "Sym(5)"])
def test_spec_round_trip(text):
    spec = parse_group_spec(text)
    assert parse_group_spec(render_group_spec(spec)) == spec


def _spec_strategy():
    leaf = st.one_of(
        st.integers(1, 30).map(CyclicSpec),
        st.tuples(st.sampled_from([2, 3, 4, 5, 8, 9]), st.integers(2, 3)).map(
            lambda t: HomocyclicSpec(*t)
        ),
        st.lists(st.integers(1, 12), min_size=1, max_size=3).map(
            lambda ds: AbelianSpec(tuple(ds))
        ),
        st.just(QuaternionSpec()),
    )
    return st.recursive(
        leaf, lambda sub: st.tuples(sub, sub).map(lambda t: ProductSpec(*t)), max_leaves=4
    )


@given(_spec_strategy())
def test_spec_round_trip_random(spec):
    assert parse_group_spec(render_group_spec(spec)) == spec


def test_realize_cyclic_table():
    g = realize("Z(6)")
    assert g.size == 6
    for i in range(6):
        for j in range(6):
            assert g.mul(i, j) == (i + j) % 6


def test_realize_klein_four():
    g = realize("Ab[2,2]")
    assert g.size == 4
    assert all(g.element_order(x) == 2 for x in range(1, 4))


def test_realize_product_order_multiplies():
    g = realize("P(Q8,Z(3))")
    assert g.size == 24
    assert (table_of(g) != table_of(g).T).any()  # not abelian
    with pytest.raises(ValueError, match="at least one factor"):
        direct_product([], "P()")


def test_realize_rejects_large_order():
    with pytest.raises(SpecError, match="exceeds"):
        realize("Z(2100)")
    assert realize("Z(2100)", max_order=2100).size == 2100


def test_cyclic_power_beyond_int32_products():
    # k * x overflows int32 above n = 46340; the inverse check at realize
    # takes x**(n-1)
    g = realize("Z(50000)", max_order=50000)
    assert g.power(np.array([49999, 2], dtype=np.int32), 49999).tolist() == [1, 49998]
    assert g.element_order(2) == 25000


@pytest.mark.parametrize(
    "spec", ["Sym(5)", "Q8", "Z(1)", "Z(12)", "Z(1000)", "Dih(1)", "Dih(7)", "Dih(500)",
             "P(Sym(3),Z(4))", "Z(2)^10", "P(Dih(4),Q8)"]
)
def test_power_takes_an_exponent_array(spec):
    g = realize(spec)
    x = np.arange(g.size, dtype=np.int32)
    e = g.exponent
    assert e == math.lcm(*g.orders.tolist())
    steps = [np.zeros_like(x)]  # steps[k] = x**k, by repeated products
    while len(steps) <= max(7, 3 * e + 3):
        steps.append(g.mul(steps[-1], x))
    ks = [0, 1, 2, 3, 5, 6, 7, e - 1, e, e + 1, 2 * e + 3]
    want = np.stack([steps[k] for k in ks])
    # a column of exponents against every element, in both integer widths
    for dtype in (np.int32, np.int64):
        got = g.power(x, np.array(ks, dtype=dtype)[:, None])
        assert got.dtype == np.int32 and np.array_equal(got, want), (spec, dtype)
    # one Python int, small or far above 2**64: x**(e * 2**64 + r) is x**r
    for k, r in [(k, k) for k in ks] + [(e * 2**64 + r, r) for r in (0, 1, e + 2)]:
        got = g.power(x, k)
        assert got.dtype == np.int32 and np.array_equal(got, steps[r]), (spec, k)
    # one Python int element, as mul takes one
    for k in (0, 2, e + 1):
        assert [int(g.power(v, k)) for v in range(g.size)] == steps[k].tolist(), (spec, k)
    # one exponent per element
    k = np.random.default_rng(0).integers(0, 3 * e + 1, size=g.size)
    assert g.power(x, k).tolist() == [steps[k[i]][i] for i in range(g.size)], spec
    # no exponent at all
    assert g.power(x[:0], np.zeros(0, dtype=np.int32)).size == 0


def test_cyclic_power_with_an_exponent_array_beyond_int32_products():
    # k * x is formed in int64 after k mod n: 99999 * 99999 overflows int32
    g = realize("Z(100000)", max_order=100000)
    x = np.array([99999, 2, 12345], dtype=np.int32)
    k = np.array([[1], [2], [50000], [99999]])
    want = [[int(a) * int(b) % 100000 for a in x] for b in k[:, 0]]
    assert g.power(x, k).tolist() == want
    assert g.power(x, np.array([99999, 3, 50000])).tolist() == [1, 6, 50000]


def test_identity_is_element_zero():
    for spec in CORPUS:
        g = bundle(spec).g
        assert g.element_order(0) == 1
        assert g.mul(0, 1) == 1 if g.size > 1 else True


def test_element_order_examples():
    assert realize("Z(6)").element_order(0) == 1
    assert realize("Z(12)").element_order(8) == 3
    q8 = realize("Q8")
    assert q8.labels[1] == "-1" and q8.element_order(1) == 2


# the naive references of tests/_support.py that the lemma tests read


def test_cyclic_subgroup_examples():
    z6 = realize("Z(6)")
    assert cyclic_subgroup(z6, 2) == {0, 2, 4}
    assert cyclic_subgroup(z6, 0) == {0}
    q8 = realize("Q8")
    assert cyclic_subgroup(q8, 2) == {0, 1, 2, 3}  # <i> = {1, -1, i, -i}


def test_gen_set_examples():
    z6 = realize("Z(6)")
    assert gen_set(z6, 1) == {1, 5}
    assert gen_set(z6, 0) == {0}
    z12 = realize("Z(12)")
    assert gen_set(z12, 2) == {2, 10}


def test_gen_set_size_is_totient_of_order():
    for spec in CORPUS:
        g = bundle(spec).g
        for x in range(g.size):
            assert len(gen_set(g, x)) == totient(g.element_order(x))


def test_element_order_divides_group_order():
    for spec in CORPUS:
        g = bundle(spec).g
        for x in range(g.size):
            assert g.size % g.element_order(x) == 0


def test_centralizer_examples():
    klein = realize("Ab[2,2]")
    assert all(centralizer_size(klein, x) == 4 for x in range(4))
    s3 = realize("Sym(3)")
    transpositions = [x for x in range(6) if s3.element_order(x) == 2]
    assert all(centralizer_size(s3, x) == 2 for x in transpositions)
    q8 = realize("Q8")
    assert centralizer_size(q8, 1) == 8  # -1 is central


def test_homocyclic_order_counts():
    # Z(q)^k with q = p^m has p^(t*k) - p^((t-1)*k) elements of order p^t
    for spec_text, p, m, k in [("Z(4)^2", 2, 2, 2), ("Z(3)^2", 3, 1, 2), ("Z(2)^3", 2, 1, 3)]:
        g = realize(spec_text)
        for t in range(1, m + 1):
            count = sum(1 for x in range(g.size) if g.element_order(x) == p**t)
            assert count == p ** (t * k) - p ** ((t - 1) * k)


def test_bad_table_rejected():
    table = np.zeros((3, 3), dtype=np.int32)  # constant table: no inverses
    table[0] = [0, 1, 2]
    table[:, 0] = [0, 1, 2]
    table[1, 1] = 1  # 1*1 = 1 while 1 has order forced... breaks associativity/inverse
    table[1, 2] = 2
    table[2, 1] = 2
    table[2, 2] = 2
    with pytest.raises(ValueError):
        FiniteGroup(table, ("e", "a", "b"), "broken")
    z3 = table_of(realize("Z(3)"))
    for table, labels, message in (
        (z3, ("e", "a"), "one label per element"),
        (z3[:2], ("e", "a"), "must be square"),
        (np.zeros((0, 0)), (), "at least one element"),
        (np.where(z3 == 2, 3, z3), ("e", "a", "b"), "out of range"),
        (np.where(z3 == 2, -1, z3), ("e", "a", "b"), "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            FiniteGroup(table, labels, "broken")


def test_table_and_generators_checked_before_the_cast():
    # each table would become Z(2)'s as int32: 2**32 wraps to 0, 1.5 truncates to 1
    z2 = [[0, 1], [1, 0]]
    for table, generators, message in (
        (np.array([[0, 1], [1, 2**32]]), None, "table entries out of range"),
        ([[0.0, 1.5], [1, 0]], None, "must be integers, not float64"),
        (np.array(z2, dtype=bool), None, "must be integers, not bool"),
        (z2, (99, -3), "generators out of range"),  # at any order, not only above 40
        (z2, (2,), "generators out of range"),
        # a generator is read as an integer, never truncated or parsed
        *((z2, (bad,), re.escape(f"generator {bad!r} is not an integer")) for bad in (0.5, "1", np.float64(1))),
    ):
        with pytest.raises(ValueError, match=message):
            FiniteGroup(table, ("e", "a"), "Z(2)", generators=generators)
    for table in (z2, np.array(z2, dtype=np.uint8), np.array(z2, dtype=np.int64), np.array(z2, dtype=np.int32)):
        g = FiniteGroup(table, ("e", "a"), "Z(2)", generators=(np.int64(1),))
        assert g.table.dtype == np.int32 and g.generators == (1,) and type(g.generators[0]) is int
    # an int32 C-contiguous table needs no cast, and is copied all the same
    table[1, 1] = 1
    assert table.flags.writeable and not g.table.flags.writeable and g.table.tolist() == z2


def test_non_associative_table_rejected():
    # latin square with identity that is not a group (order 5 loop)
    table = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ],
        dtype=np.int32,
    )
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(table, tuple("eabcd"), "loop5")


def _perturbed(g, data):
    """g's table with the entries of one row, away from column 0, permuted;
    mostly the row's inverse keeps its column too, so that only the
    associativity check can tell."""
    reference = table_of(g)
    table = reference.copy()
    row = data.draw(st.integers(1, g.size - 1))
    keep = {0, int(np.flatnonzero(reference[row] == 0)[0])} if data.draw(st.integers(0, 3)) else {0}
    cols = [c for c in range(g.size) if c not in keep]
    table[row, cols] = reference[row, data.draw(st.permutations(cols))]
    return table


SMALL_TABLE_SPECS = ("Z(2)", "Z(5)", "Z(12)", "Dih(3)", "Dih(6)", "Sym(3)", "Q8", "Z(2)^3", "Ab[2,6]")


@given(st.sampled_from(SMALL_TABLE_SPECS), st.data())
@settings(max_examples=80, deadline=None)
def test_table_accepted_exactly_when_it_is_a_group(spec, data):
    g = realize(spec)
    table = _perturbed(g, data)
    if is_group_table(table):
        FiniteGroup(table, g.labels, "perturbed")
    else:
        with pytest.raises(ValueError):
            FiniteGroup(table, g.labels, "perturbed")


# orders above 40; at every order the check tests a generating set only: the
# constructor's, or, for a direct product, which carries none, one picked greedily
LIGHT_TEST_SPECS = (
    "Z(41)", "Z(64)", "Dih(21)", "Dih(32)", "Z(2)^6", "Z(4)^3", "Ab[2,2,12]",
    "P(Sym(3),Z(8))", "P(Q8,Z(6))", "P(Sym(4),Z(2))", "P(Dih(4),Dih(3))",
)


@given(st.sampled_from(LIGHT_TEST_SPECS), st.data())
@settings(max_examples=40, deadline=None)
def test_table_with_generators_accepted_exactly_when_it_is_a_group(spec, data):
    g = realize(spec)
    table = _perturbed(g, data)
    if is_group_table(table):
        FiniteGroup(table, g.labels, "perturbed", generators=g.generators)
    else:
        with pytest.raises(ValueError):
            FiniteGroup(table, g.labels, "perturbed", generators=g.generators)


@pytest.mark.parametrize(
    "spec", ["Z(1)", "Z(7)", "Dih(1)", "Dih(2)", "Dih(9)", "Sym(1)", "Sym(2)", "Sym(3)", "Sym(4)",
             "Sym(5)", "Q8"]
)
def test_constructor_generators_generate_the_group(spec):
    # the check proves them too, by its own closure; a direct product,
    # checked through its factors, carries none
    g = realize(spec)
    reached = {0, *g.generators}
    while (grown := reached | {g.mul(a, b) for a in reached for b in reached}) != reached:
        reached = grown
    assert reached == set(range(g.size))
    assert realize(f"P({spec},Z(2))").generators is None


def test_non_generating_generators_rejected():
    g = realize("Sym(5)")
    transposition = g.labels.index("(0 1)")
    with pytest.raises(ValueError, match="span 2 of the 120"):
        FiniteGroup(g.table, g.labels, "Sym(5)", generators=(transposition,))
    # at every order, 40 elements or fewer included
    z4 = realize("Z(4)")
    with pytest.raises(ValueError, match="the generators span 2 of the 4 elements"):
        FiniteGroup(table_of(z4), z4.labels, "Z(4)", generators=(2,))
    with pytest.raises(ValueError, match="out of range"):
        FiniteGroup(g.table, g.labels, "Sym(5)", generators=(*g.generators, 120))


def test_swapped_entries_rejected_with_generators():
    g = realize("Dih(100)")
    table = table_of(g)
    table[57, [3, 150]] = table[57, [150, 3]]  # row 57 is neither r nor s
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(table, g.labels, "Dih(100)", generators=g.generators)


def test_symmetric_group_realization():
    s4 = realize("Sym(4)")
    assert s4.size == 24
    assert (table_of(s4) != table_of(s4).T).any()  # not abelian
    with pytest.raises(SpecError):
        realize("Sym(6)")


def _loop_symmetric_table(n):
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def _loop_dihedral_table(n):
    # s^f1 r^a1 * s^f2 r^a2 = s^(f1^f2) r^(a2 +- a1), index f*n + a
    return [
        [(f1 ^ f2) * n + (a2 + (a1 if f2 == 0 else -a1)) % n for f2 in range(2) for a2 in range(n)]
        for f1 in range(2)
        for a1 in range(n)
    ]


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_table_matches_loop_reference(n):
    g = realize(f"Sym({n})")
    assert g.table.dtype == np.int32
    assert g.table.tolist() == _loop_symmetric_table(n)


def _hamilton(p, q):
    """The product of the quaternions p and q, each (1, i, j, k) components."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def test_quaternion_table_matches_hamilton_product():
    g = realize("Q8")
    units = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}
    quaternions = [
        tuple(-c for c in units[label[1:]]) if label[0] == "-" else units[label] for label in g.labels
    ]
    assert len(set(quaternions)) == 8
    assert g.table.tolist() == [[quaternions.index(_hamilton(p, q)) for q in quaternions] for p in quaternions]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 50])
def test_dihedral_table_matches_loop_reference(n):
    g = realize(f"Dih({n})")
    assert table_of(g).dtype == np.int32
    assert table_of(g).tolist() == _loop_dihedral_table(n)


@pytest.mark.parametrize(
    "spec", ["Z(12)", "Q8", "Dih(6)", "Sym(4)", "Z(2)^3", "Z(97)", "Dih(50)", "Sym(5)", "P(Sym(3),Z(4))"]
)
def test_power_table_reads_match_loop_reference(spec):
    g = realize(spec)
    rows = g.power(np.arange(g.size, dtype=np.int32), np.arange(int(g.orders.max()) + 1)[:, None])
    assert rows.dtype == np.int32
    for x in range(g.size):
        powers = naive_powers(g, x)
        order = len(powers)
        # the whole column, rows 0..m: x**k cycles with period order(x)
        assert rows[:, x].tolist() == [0] + [powers[(k - 1) % order] for k in range(1, len(rows))]
        assert g.element_order(x) == order


def test_arithmetic_helpers():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None
    assert totient(12) == 4
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert spec_order(parse_group_spec("P(Q8,Z(3))")) == 24
    with pytest.raises(ValueError, match="cannot factorize 0"):
        factorize(0)


def test_unit_generators_generate_the_unit_group():
    for n in [*range(1, 130), 1000, 1024, 1260, 1680, 2000]:
        units = {k % n for k in range(1, n + 1) if math.gcd(k, n) == 1}
        gens = unit_generators(n)
        assert set(gens) <= units
        closure = {1 % n}
        while True:
            grown = closure | {h * u % n for h in closure for u in gens}
            if grown == closure:
                break
            closure = grown
        assert closure == units, n


def test_labels_are_unique():
    for spec in CORPUS:
        g = bundle(spec).g
        assert len(set(g.labels)) == g.size


def _reference_power_graph(ref):
    """Adjacency of the power graph from the table route's membership matrix."""
    n = ref.size
    member = np.zeros((n, n), dtype=bool)  # member[x, y]: y lies in <x>
    x = np.arange(n, dtype=np.int32)
    member[x, ref.power(x, np.arange(int(ref.orders.max()) + 1)[:, None])] = True
    upper = np.triu(member | member.T, k=1)[1:, 1:]
    return WeightedGraph(n - 1, zip(*(ends.tolist() for ends in np.nonzero(upper)))).adj


@pytest.mark.parametrize(
    "specs", [CORPUS, SMALL_GROUP_SPECS, WORKLOAD_SPECS], ids=["corpus", "small", "workloads"]
)
def test_arithmetic_groups_match_the_table_route(specs):
    for spec in specs:
        g, ref = realize(spec), reference_group(spec)
        # a direct product carries no generators; a leaf keeps the reference's
        expected = None if isinstance(g, _ProductGroup) else ref.generators
        assert (g.labels, g.generators) == (ref.labels, expected), spec
        assert np.array_equal(table_of(g), ref.table), spec
        x = np.arange(g.size, dtype=np.int32)
        m = int(ref.orders.max())
        # every closed-form power, against the reference table's rows of
        # powers (built by its products), as one column and one int at a time
        rows = ref.power(x, np.arange(m + 1)[:, None])
        assert np.array_equal(g.power(x, np.arange(m + 1)[:, None]), rows), spec
        assert all(np.array_equal(g.power(x, k), rows[k]) for k in range(1, m + 1)), spec
        assert np.array_equal(g.orders, ref.orders), spec
        if g.size > 1:
            sg, ref_sg = cyclic_subgroup_graph(g), cyclic_subgroup_graph(ref)
            assert (sg.members, sg.adj, sg.weights) == (ref_sg.members, ref_sg.adj, ref_sg.weights), spec
            if g.size <= 1000:
                assert build_power_graph(g).adj == _reference_power_graph(ref), spec


@pytest.mark.parametrize("spec", ["Z(1000)", "Dih(500)", "Z(2)^10"])
def test_analyze_of_an_arithmetic_group_builds_no_cayley_table(spec):
    # a table alone would take 4 MB at order 1000 (about 5 MB peak with one)
    analyze("Z(6)")
    assert traced_peak(lambda: analyze(spec)) < 2**20


def test_power_graph_of_an_arithmetic_group_builds_no_square_matrix():
    # built from an n x n membership matrix, this graph peaked at 6 MB
    g = realize("Dih(500)")
    assert traced_peak(lambda: build_power_graph(g)) < 2**20


def _is_product(text: str) -> bool:
    spec = parse_group_spec(text)
    return isinstance(spec, (ProductSpec, HomocyclicSpec)) or (
        isinstance(spec, AbelianSpec) and len(spec.orders) > 1
    )


PRODUCT_SPECS = tuple(
    dict.fromkeys(
        [s for s in GOLDEN_SPECS if _is_product(s)]
        + ["Z(2)^10", "Z(3)^5", "P(Sym(4),Sym(3))", "P(Sym(5),Z(7))", "Ab[1,4]", "P(Z(1),Sym(3))"]
    )
)


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
def test_product_orders_and_digits_match_the_table_route(spec):
    g, ref = realize(spec), reference_group(spec)
    assert np.array_equal(g.orders, ref.orders)
    # the digits of x, read through the factors' labels, give the label the
    # table route composed for x: "(" + the factors' labels + ")"
    digits = g._digit_table.tolist()
    names = [
        "(" + ",".join(f.labels[d] for f, d in zip(g.factors, row)) + ")" for row in digits
    ]
    assert names == list(ref.labels)
    # and x is the mixed-radix number of its digits, first factor most significant
    number = np.zeros(g.size, dtype=np.int64)
    for f, column in zip(g.factors, g._digit_table.T):
        number = number * f.size + column
    assert np.array_equal(number, np.arange(g.size))


@pytest.mark.parametrize("spec", ["P(Sym(3),Z(4))", "Z(2)^10", "Ab[1,4]"])
def test_product_orders_are_confirmed_by_a_product_power(spec, monkeypatch):
    g = realize(spec)
    monkeypatch.setattr(g, "power", lambda x, k: x)  # every power a wrong answer
    with pytest.raises(ValueError, match="factors' orders"):
        g.orders


def test_a_product_is_checked_through_its_leaves_once(monkeypatch):
    calls = {"_validate": [], "_validate_grid": [], "product": []}

    def count(cls, name, log):
        original = getattr(cls, name)

        def counted(self, *args):
            log.append(self.description)
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    count(FiniteGroup, "_validate", calls["_validate"])
    count(FiniteGroup, "_validate_grid", calls["_validate_grid"])
    count(_ProductGroup, "_validate", calls["product"])
    first, second = analyze("Ab[2,2,3]"), analyze("Ab[2,2,3]")
    assert first == second
    assert calls == {
        "_validate": ["Z(2)", "Z(3)"],
        "_validate_grid": ["Z(2)", "Z(3)"],
        "product": ["Ab[2,2,3]", "Ab[2,2,3]"],
    }


def _plant_reversed_strides(g):
    g._strides = g._strides[::-1]


def _plant_swapped_digits(g):
    g._digit_table = g._digit_table[[0, 2, 1, *range(3, len(g._digit_table))]]


def _plant_digit_out_of_range(g):
    # (0, 3) numbers 3 like (1, 1) does, but 3 is not an element of Z(2)
    table = g._digit_table.copy()
    table[3] = (0, 3)
    g._digit_table = table


@pytest.mark.parametrize(
    "plant", [_plant_reversed_strides, _plant_swapped_digits, _plant_digit_out_of_range]
)
def test_a_product_whose_digits_misnumber_its_elements_is_rejected(plant):
    class Planted(_ProductGroup):
        def _setup(self, *args):
            plant(self)
            super()._setup(*args)

    z2, z3 = realize("Z(2)"), realize("Z(3)")
    factors = [z2, z2] if plant is _plant_digit_out_of_range else [z2, z3]
    with pytest.raises(ValueError, match="one to one"):
        Planted(factors, "planted")
    assert direct_product(factors, "fine").size == 2 * factors[1].size


def test_equal_leaf_specs_give_one_group():
    for text in ("Z(12)", "Dih(6)", "Sym(4)", "Q8"):
        assert realize(text) is realize(parse_group_spec(text)) is realize(text)
    z2 = realize("Z(2)")
    assert realize("Z(2)^3").factors == (z2, z2, z2)
    assert realize("Ab[2,3]").factors[0] is z2
    assert realize("P(Z(2),Q8)").factors == (z2, realize("Q8"))


@pytest.mark.parametrize("order", [("Ab[12]", "Z(12)"), ("Z(12)", "Ab[12]")])
def test_a_one_factor_product_renames_a_copy_of_the_cached_leaf(order):
    groups = [realize(text) for text in order]
    assert [g.description for g in groups] == list(order)
    assert groups[0] is not groups[1]
    assert [realize(text).description for text in order] == list(order)


@pytest.mark.parametrize(
    "n, op, planted, message",
    [
        # a square that is not x * x, below and above 200 elements
        (7, "power", lambda x, k, n: np.where(k == 2, x, x * k % n), "differs from the product"),
        (211, "power", lambda x, k, n: np.where(k == 2, x, x * k % n), "differs from the product"),
        # above 200 elements the grid is not built: identity and inverses go through mul
        (211, "mul", lambda a, b, n: (a + b + 1) % n, "not a two-sided identity"),
        (211, "power", lambda x, k, n: np.where(k == n - 1, x, x * k % n), "no two-sided inverse"),
        # x**n is x, so no element meets the identity: the group is built, and
        # its orders fail on their first read
        (211, "power", lambda x, k, n: np.where(k % n == 0, x, x * k % n), "does not divide the group order"),
    ],
)
def test_a_cyclic_group_with_planted_arithmetic_is_rejected(n, op, planted, message):
    Planted = type("Planted", (_CyclicGroup,), {op: lambda self, a, b: planted(a, b, self.size)})
    with pytest.raises(ValueError, match=message):
        Planted(n).orders
    assert _CyclicGroup(n).size == n


def test_a_leaf_whose_check_raises_is_not_cached(monkeypatch):
    monkeypatch.setattr(_CyclicGroup, "mul", lambda self, a, b: (a + b + 1) % self.size)
    for _ in range(2):
        with pytest.raises(ValueError, match="identity"):
            realize("Z(5)")
    assert _leaf.cache_info().currsize == 0
    monkeypatch.undo()
    assert realize("Z(5)").size == 5


def test_the_leaf_cache_is_bounded():
    assert _leaf.cache_info().maxsize == 64
    for n in range(1, 81):
        realize(f"Z({n})")
    assert _leaf.cache_info().currsize == 64
    # a group above the default order cap keeps none of its leaves
    _leaf.cache_clear()
    for text in ("Z(2100)", "Z(2100)", "Ab[2,1050]", "Z(2)^12"):
        assert realize(text, max_order=4096).size > 2000
    assert _leaf.cache_info().currsize == 0
    assert realize("Z(2100)", max_order=2100) is not realize("Z(2100)", max_order=2100)


def _table_groups():
    groups = [realize(f"Sym({n})") for n in range(1, 6)] + [realize("Q8")]
    return groups + [reference_group("Z(12)"), reference_group("Dih(6)")]


@pytest.mark.parametrize("g", _table_groups(), ids=lambda g: g.description)
def test_table_powers_equal_repeated_products(g):
    assert g.table is not None
    x = np.arange(g.size, dtype=np.int32)
    exponent = math.lcm(*g.orders.tolist())
    steps = [np.zeros_like(x)]  # steps[k] = x**k, by repeated products
    for k in range(1, max(2 * exponent, 3 * g.size) + 1):
        steps.append(g.mul(steps[-1], x))
        assert np.array_equal(g.power(x, k), steps[k]), (g.description, k)
    # exponents far above n: a Python int above 2**64, and one array of every
    # exponent 0..3n against every element
    for r in (0, 1, 5, 7, 59, 119, 2**40):
        k = 2**64 + r
        assert np.array_equal(g.power(x, k), steps[k % exponent]), (g.description, r)
    k = np.arange(3 * g.size + 1)
    assert np.array_equal(g.power(x, k[:, None]), np.stack(steps[: 3 * g.size + 1])), g.description


@pytest.mark.parametrize(
    "table",
    [
        # element 1 has order 3, which does not divide 4: (1 * 3) * 3 = 0 but
        # 1 * (3 * 3) = 1, so the table is not associative
        [[0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3], [3, 3, 3, 0]],
        # element 3 never meets the identity: 3 * 3 = 3, so 3 has no inverse
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 3]],
        # a latin square with an identity (a loop): every element has order 2,
        # which does not divide 5, and the table is not associative
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    ],
)
def test_unchecked_table_with_a_bad_order_fails_on_its_first_power(table):
    # every table is checked when it is built, so neither gets as far as a power
    with pytest.raises(ValueError, match="not associative|no two-sided inverse"):
        FiniteGroup(np.array(table), tuple("abcde")[: len(table)], "bad")


def test_light_test_runs_at_any_order_on_a_table_with_generators():
    # Z(202) with one intercalate swapped: 1 * 2 and 1 * 103 trade values, and
    # so do 102 * 2 and 102 * 103. The table keeps its identity and inverses,
    # but (1 * 2) * 3 = 107 and 1 * (2 * 3) = 6
    z = realize("Z(202)")
    table = table_of(z)
    table[[1, 1, 102, 102], [2, 103, 2, 103]] = table[[1, 1, 102, 102], [103, 2, 103, 2]]
    assert table[table[1, 2], 3] == 107 and table[1, table[2, 3]] == 6
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table, z.labels, "bad", generators=(1,))
    # without generators, Light's test runs on a generating set picked greedily
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(table, z.labels, "bad")
