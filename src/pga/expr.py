"""Symbolic expressions for automorphism groups and their exact orders.

Node kinds: Trivial, Sym(n), Product(factors), Wreath(base, top symmetric
group), and Opaque(order) for a group known only through brute-force counting.
All orders are exact Python integers; nothing here touches floats.

Rendered strings use `x` for products, `wr` for wreath products, `S<n>` for
symmetric groups, `^k` for repeated identical factors, `1` for the trivial
group and `[n]` for opaque groups of order n, e.g. "(S2 wr S3) x S2^6".
`parse_expr` reads such strings back; on malformed input it raises SpecError
(a ValueError) carrying the position where reading stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import Cursor


class GroupExpr:
    pass


@dataclass(frozen=True)
class Trivial(GroupExpr):
    pass


@dataclass(frozen=True)
class Sym(GroupExpr):
    n: int


@dataclass(frozen=True)
class Opaque(GroupExpr):
    """A group identified only by its exact order (brute-force fallback)."""

    order: int


@dataclass(frozen=True)
class Wreath(GroupExpr):
    base: GroupExpr
    top: Sym


@dataclass(frozen=True)
class Product(GroupExpr):
    factors: tuple[GroupExpr, ...]


def expr_order(e: GroupExpr) -> int:
    # the kinds are disjoint; Sym, the most common factor, is tested first
    if isinstance(e, Sym):
        return math.factorial(e.n)
    if isinstance(e, Trivial):
        return 1
    if isinstance(e, Opaque):
        return e.order
    if isinstance(e, Wreath):
        t = e.top.n
        return expr_order(e.base) ** t * math.factorial(t)
    if isinstance(e, Product):
        return math.prod(expr_order(f) for f in e.factors)
    raise TypeError(f"not a GroupExpr: {e!r}")


def _sort_key(e: GroupExpr):
    # wreaths first, then opaque orders, then symmetric groups by size descending
    if isinstance(e, Sym):
        return (3, -e.n)
    if isinstance(e, Wreath):
        return (0, _sort_key(e.base), -e.top.n)
    if isinstance(e, Product):
        return (1, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Opaque):
        return (2, -e.order)
    return (4,)


def expr_normalize(e: GroupExpr) -> GroupExpr:
    """Normal form: flatten products, drop order-1 factors, sort factors
    canonically, collapse degenerate wreaths. Order is preserved exactly."""
    if isinstance(e, Sym):
        return Trivial() if e.n <= 1 else e
    if isinstance(e, Opaque):
        return Trivial() if e.order == 1 else e
    if isinstance(e, Wreath):
        base = expr_normalize(e.base)
        t = e.top.n
        if t <= 1:  # base**0 x S0 and base**1 x S1
            return base if t else Trivial()
        if isinstance(base, Trivial):
            return Sym(t)
        return Wreath(base, Sym(t))
    if isinstance(e, Product):
        factors: list[GroupExpr] = []
        stack = list(reversed(e.factors))  # next factor last
        while stack:
            f = expr_normalize(stack.pop())
            if isinstance(f, Product):
                stack.extend(reversed(f.factors))
            elif not isinstance(f, Trivial):
                factors.append(f)
        if not factors:
            return Trivial()
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(sorted(factors, key=_sort_key)))
    return e


def decimal(n: int) -> str:
    """The exact decimal digits of an integer of any size.

    Python refuses str() on integers above a digit limit (4300 by default,
    set by sys.set_int_max_str_digits and never changed here), and
    automorphism orders pass it from Z(1567) on. Numbers of up to 2000 bits
    (at most 603 digits, below the least limit allowed) go through str();
    larger ones are split by a power of ten near half their length and
    converted half by half.
    """
    if n < 0:
        return "-" + decimal(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return decimal(high) + decimal(low).rjust(k, "0")


def render_expr(e: GroupExpr) -> str:
    if isinstance(e, Trivial):
        return "1"
    if isinstance(e, Sym):
        return f"S{e.n}"
    if isinstance(e, Opaque):
        return f"[{decimal(e.order)}]"
    if isinstance(e, Wreath):
        base = render_expr(e.base)
        if isinstance(e.base, Product):
            base = f"({base})"
        return f"({base} wr S{e.top.n})"
    if isinstance(e, Product):
        if not e.factors:
            return "1"
        parts: list[str] = []
        run_expr = e.factors[0]
        run = 1
        for f in list(e.factors[1:]) + [None]:
            if f is not None and f == run_expr:
                run += 1
                continue
            s = render_expr(run_expr)
            if isinstance(run_expr, Product):
                s = f"({s})"  # nested products only occur in unnormalized trees
            parts.append(s if run == 1 else f"{s}^{run}")
            if f is not None:
                run_expr, run = f, 1
        return " x ".join(parts)
    raise TypeError(f"not a GroupExpr: {e!r}")


# ---------------------------------------------------------------------------
# parsing rendered strings back (used by report round-trips)


def _atom(c: Cursor) -> GroupExpr:
    if c.literal("S"):
        return Sym(c.integer())
    if c.literal("("):
        return _group(c)
    if c.literal("["):
        order = c.positive("an opaque group's order must be positive")
        c.expect("]")
        return Opaque(order)
    if c.literal("1"):
        return Trivial()
    raise c.error("expected S<n>, 1, [n] or '('")


def _group(c: Cursor) -> GroupExpr:
    """The rest of "(" product ")" or "(" product "wr" S<n> ")"."""
    inner = _product(c)
    if c.literal("wr"):
        c.expect("S")
        inner = Wreath(inner, Sym(c.integer()))
    c.expect(")")
    return inner


def _term(c: Cursor) -> list[GroupExpr]:
    atom = _atom(c)
    return [atom] * c.integer() if c.literal("^") else [atom]


def _product(c: Cursor) -> GroupExpr:
    factors = _term(c)
    while c.literal("x"):
        factors += _term(c)
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def parse_expr(text: str) -> GroupExpr:
    """Parse a rendered expression string; inverse of render_expr up to
    normalization (exact orders always round-trip). Malformed input raises
    SpecError with the position where reading stopped."""
    cursor = Cursor(text)
    e = _product(cursor)
    cursor.end()
    return e
