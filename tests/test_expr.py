import math
import sys

import pytest
from hypothesis import given, strategies as st

from pga import (
    Opaque,
    Product,
    SpecError,
    Sym,
    Trivial,
    Wreath,
    decimal,
    expr_normalize,
    expr_order,
    parse_expr,
    render_expr,
)

from _support import GOLDEN_SPECS, WORKLOAD_SPECS, report


def test_order_examples():
    assert expr_order(Sym(3)) == 6
    assert expr_order(Wreath(Sym(2), Sym(3))) == 48
    assert expr_order(Product((Wreath(Sym(2), Sym(3)),) + (Sym(2),) * 6)) == 3072
    assert expr_order(Trivial()) == 1
    assert expr_order(Opaque(17)) == 17


def test_normalize_drops_unit_factors():
    assert expr_normalize(Product((Sym(1), Sym(2)))) == Sym(2)
    assert expr_normalize(Product((Trivial(), Trivial()))) == Trivial()


def test_normalize_collapses_degenerate_wreath():
    assert expr_normalize(Wreath(Sym(3), Sym(1))) == Sym(3)
    assert expr_normalize(Wreath(Trivial(), Sym(4))) == Sym(4)
    # a top of S0 is order 1 whatever the base
    assert expr_normalize(Wreath(Sym(2), Sym(0))) == Trivial()
    assert expr_normalize(Wreath(Trivial(), Sym(0))) == Trivial()
    assert expr_normalize(Opaque(1)) == Trivial()


def test_normalize_flattens_and_sorts():
    e = Product((Product((Sym(2), Sym(4))), Sym(3)))
    assert expr_normalize(e) == Product((Sym(4), Sym(3), Sym(2)))


def test_render_examples():
    assert render_expr(expr_normalize(Product((Sym(2), Sym(2))))) == "S2^2"
    e = Product((Wreath(Sym(2), Sym(3)),) + (Sym(2),) * 6)
    assert render_expr(expr_normalize(e)) == "(S2 wr S3) x S2^6"
    assert render_expr(Trivial()) == "1"
    assert render_expr(Opaque(6)) == "[6]"
    assert render_expr(Wreath(Product((Sym(2), Sym(2))), Sym(3))) == "((S2^2) wr S3)"
    assert render_expr(Wreath(Product((Sym(3), Sym(2))), Sym(4))) == "((S3 x S2) wr S4)"


def test_parse_render_round_trip_samples():
    for text in ("1", "S5", "[42]", "(S2 wr S3) x S2^6", "S4 x S3", "((S2 wr S2) wr S3)"):
        e = parse_expr(text)
        assert render_expr(expr_normalize(e)) == render_expr(expr_normalize(parse_expr(render_expr(e))))
        assert expr_order(parse_expr(render_expr(e))) == expr_order(e)


def test_parse_rejects_garbage():
    for text in ("", "S", "wr", "(S2 wr)", "S2 x", "[x]"):
        with pytest.raises(SpecError) as err:
            parse_expr(text)
        assert err.value.position is not None, text
    # an opaque group has at least one element
    with pytest.raises(SpecError, match=r"must be positive \(at position 6\)"):
        parse_expr("S2 x [0]")


def test_parse_long_integer_is_a_positioned_error():
    with pytest.raises(SpecError) as err:
        parse_expr("[" + "1" * 5000 + "]")
    assert err.value.position == 1
    assert str(err.value) == "integer of 5000 digits is too long (at position 1)"


@pytest.mark.parametrize(
    "spec", tuple(dict.fromkeys(GOLDEN_SPECS + WORKLOAD_SPECS + ("Z(1999)", "Dih(1000)")))
)
def test_report_expressions_round_trip(spec):
    r = report(spec)
    parsed = parse_expr(r.expression_str)
    assert expr_normalize(parsed) == r.expression
    assert decimal(expr_order(parsed)) == decimal(r.order)


def _expr_strategy():
    leaf = st.one_of(
        st.just(Trivial()),
        st.integers(0, 6).map(Sym),
        st.integers(1, 100).map(Opaque),
    )

    def compound(sub):
        return st.one_of(
            st.lists(sub, min_size=1, max_size=4).map(lambda fs: Product(tuple(fs))),
            st.tuples(sub, st.integers(0, 4)).map(lambda t: Wreath(t[0], Sym(t[1]))),
        )

    return st.recursive(leaf, compound, max_leaves=6)


@given(_expr_strategy(), st.integers(1, 5))
def test_wreath_order_law(e, t):
    assert expr_order(Wreath(e, Sym(t))) == expr_order(e) ** t * math.factorial(t)


@given(_expr_strategy())
def test_normalize_preserves_order(e):
    assert expr_order(expr_normalize(e)) == expr_order(e)


@given(_expr_strategy())
def test_normalize_idempotent(e):
    once = expr_normalize(e)
    assert expr_normalize(once) == once


@given(_expr_strategy())
def test_render_parse_preserves_order(e):
    assert expr_order(parse_expr(render_expr(e))) == expr_order(e)


@given(st.integers(-(10**5000), 10**5000) | st.sampled_from([0, 2**2000, 2**2001, -(2**9000)]))
def test_decimal_matches_str_without_a_digit_limit(n):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert decimal(n) == expected


def test_decimal_leaves_the_digit_limit_alone():
    limit = sys.get_int_max_str_digits()
    assert len(decimal(math.factorial(3000))) == 9131
    assert sys.get_int_max_str_digits() == limit
