"""Symbolic expressions for automorphism groups and their exact orders.

Node kinds: Trivial, Sym(n), Product(factors), Wreath(base, top symmetric
group), and Opaque(order) for a group known only through brute-force counting.
All orders are exact Python integers; nothing here touches floats.

Rendered strings use `x` for products, `wr` for wreath products, `S<n>` for
symmetric groups, `^k` for repeated identical factors, `1` for the trivial
group and `[n]` for opaque groups of order n, e.g. "(S2 wr S3) x S2^6".
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
    if isinstance(e, Trivial):
        return 1
    if isinstance(e, Sym):
        return math.factorial(e.n)
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
    if isinstance(e, Wreath):
        return (0, _sort_key(e.base), -e.top.n)
    if isinstance(e, Product):
        return (1, tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Opaque):
        return (2, -e.order)
    if isinstance(e, Sym):
        return (3, -e.n)
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
        if t == 1:
            return base
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


def _tokenize(text: str) -> list[str]:
    for ch in "()[]^":
        text = text.replace(ch, f" {ch} ")
    return text.split()


class _ExprParser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse_int(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, got {tok!r}")
        return int(tok)

    def parse_sym(self) -> Sym:
        tok = self.take()
        if not (tok.startswith("S") and tok[1:].isdigit()):
            raise ValueError(f"expected a symmetric group token, got {tok!r}")
        return Sym(int(tok[1:]))

    def parse_atom(self) -> GroupExpr:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "1":
            self.take()
            return Trivial()
        if tok == "[":
            self.take()
            order = self.parse_int()
            self.expect("]")
            return Opaque(order)
        if tok == "(":
            self.take()
            inner = self.parse_product()
            nxt = self.take()
            if nxt == ")":
                return inner
            if nxt == "wr":
                top = self.parse_sym()
                self.expect(")")
                return Wreath(inner, top)
            raise ValueError(f"expected ')' or 'wr', got {nxt!r}")
        return self.parse_sym()

    def parse_term(self) -> list[GroupExpr]:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take()
            k = self.parse_int()
            return [atom] * k
        return [atom]

    def parse_product(self) -> GroupExpr:
        factors = self.parse_term()
        while self.peek() == "x":
            self.take()
            factors.extend(self.parse_term())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))


def parse_expr(text: str) -> GroupExpr:
    """Parse a rendered expression string; inverse of render_expr up to
    normalization (exact orders always round-trip)."""
    parser = _ExprParser(_tokenize(text))
    e = parser.parse_product()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in expression: {parser.tokens[parser.pos:]}")
    return e
