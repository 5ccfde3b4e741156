"""Finite groups as explicit multiplication tables with 0-based element indices.

Element 0 is always the identity. Groups are built from a small spec grammar:

    Z(n)            cyclic of order n
    Z(q)^k          direct product of k copies of Z(q), q a prime power
    Ab[d1,...,dk]   direct product of cyclic groups Z(d1) x ... x Z(dk)
    Sym(n)          symmetric group on n points, n <= 5
    Dih(n)          dihedral group of order 2n
    Q8              quaternion group
    P(A,B)          external direct product of two specs

Element orders, cyclic subgroups and generator sets are reads of one power
table per group, built on first use. Instances are immutable and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations, product
from typing import Union

import numpy as np

from .errors import SpecError

DEFAULT_MAX_ORDER = 2000


# ---------------------------------------------------------------------------
# integer helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the orders in scope."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, m) with n = p**m, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, m),) = fac.items()
    return p, m


def totient(n: int) -> int:
    r = n
    for p in factorize(n) if n > 1 else ():
        r = r // p * (p - 1)
    return r


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in small if d * d != n]
    return sorted(small + large)


# ---------------------------------------------------------------------------
# spec grammar


@dataclass(frozen=True)
class CyclicSpec:
    n: int


@dataclass(frozen=True)
class HomocyclicSpec:
    q: int  # prime power p**m
    copies: int  # >= 2; Z(q)^1 normalizes to CyclicSpec(q)

    @property
    def prime_power(self) -> tuple[int, int]:
        pp = is_prime_power(self.q)
        assert pp is not None
        return pp


@dataclass(frozen=True)
class AbelianSpec:
    orders: tuple[int, ...]


@dataclass(frozen=True)
class SymmetricSpec:
    n: int


@dataclass(frozen=True)
class DihedralSpec:
    n: int


@dataclass(frozen=True)
class QuaternionSpec:
    pass


@dataclass(frozen=True)
class ProductSpec:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[
    CyclicSpec,
    HomocyclicSpec,
    AbelianSpec,
    SymmetricSpec,
    DihedralSpec,
    QuaternionSpec,
    ProductSpec,
]


class _SpecParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> SpecError:
        return SpecError(message, position=self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def literal(self, word: str) -> bool:
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a positive integer")
        value = int(self.text[start : self.pos])
        if value < 1:
            raise SpecError("parameters must be positive", position=start)
        return value

    def parse_spec(self) -> GroupSpec:
        self.skip_ws()
        start = self.pos
        if self.literal("Z"):
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            self.skip_ws()
            if self.peek() == "^":
                self.pos += 1
                k = self.parse_int()
                if is_prime_power(n) is None:
                    raise SpecError(
                        f"{n} is not a prime power", position=start
                    )
                if k == 1:
                    return CyclicSpec(n)
                return HomocyclicSpec(n, k)
            return CyclicSpec(n)
        if self.literal("Ab"):
            self.expect("[")
            orders = [self.parse_int()]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                orders.append(self.parse_int())
                self.skip_ws()
            self.expect("]")
            return AbelianSpec(tuple(orders))
        if self.literal("Sym"):
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            if n > 5:
                raise SpecError(f"Sym({n}) is unsupported (n must be <= 5)", position=start)
            return SymmetricSpec(n)
        if self.literal("Dih"):
            self.expect("(")
            n = self.parse_int()
            self.expect(")")
            return DihedralSpec(n)
        if self.literal("Q8"):
            return QuaternionSpec()
        if self.literal("P"):
            self.expect("(")
            left = self.parse_spec()
            self.expect(",")
            right = self.parse_spec()
            self.expect(")")
            return ProductSpec(left, right)
        raise self.error("expected a group spec (Z, Ab, Sym, Dih, Q8 or P)")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string; raises SpecError with a position on bad input."""
    parser = _SpecParser(text)
    spec = parser.parse_spec()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return spec


def render_group_spec(spec: GroupSpec) -> str:
    """Canonical string form; parse_group_spec(render_group_spec(s)) == s."""
    if isinstance(spec, CyclicSpec):
        return f"Z({spec.n})"
    if isinstance(spec, HomocyclicSpec):
        return f"Z({spec.q})^{spec.copies}"
    if isinstance(spec, AbelianSpec):
        return "Ab[" + ",".join(str(d) for d in spec.orders) + "]"
    if isinstance(spec, SymmetricSpec):
        return f"Sym({spec.n})"
    if isinstance(spec, DihedralSpec):
        return f"Dih({spec.n})"
    if isinstance(spec, QuaternionSpec):
        return "Q8"
    if isinstance(spec, ProductSpec):
        return f"P({render_group_spec(spec.left)},{render_group_spec(spec.right)})"
    raise TypeError(f"not a GroupSpec: {spec!r}")


def spec_order(spec: GroupSpec) -> int:
    if isinstance(spec, CyclicSpec):
        return spec.n
    if isinstance(spec, HomocyclicSpec):
        return spec.q**spec.copies
    if isinstance(spec, AbelianSpec):
        return math.prod(spec.orders)
    if isinstance(spec, SymmetricSpec):
        return math.factorial(spec.n)
    if isinstance(spec, DihedralSpec):
        return 2 * spec.n
    if isinstance(spec, QuaternionSpec):
        return 8
    if isinstance(spec, ProductSpec):
        return spec_order(spec.left) * spec_order(spec.right)
    raise TypeError(f"not a GroupSpec: {spec!r}")


# ---------------------------------------------------------------------------
# the group model


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a, b] is the index of the product a*b; index 0 is the identity.
    Identity and inverse axioms are always validated; associativity is checked
    exhaustively for orders up to 200 (larger groups only arise here through
    direct products of validated factors).
    """

    def __init__(
        self,
        table: np.ndarray,
        labels: tuple[str, ...],
        description: str,
        *,
        check: bool = True,
    ) -> None:
        table = np.ascontiguousarray(table, dtype=np.int32)
        self.size = int(table.shape[0])
        self.table = table
        self.labels = tuple(labels)
        self.description = description
        if len(self.labels) != self.size:
            raise ValueError("one label per element is required")
        if check:
            self._validate()
        self.table.flags.writeable = False

    def _validate(self) -> None:
        n, t = self.size, self.table
        if t.shape != (n, n):
            raise ValueError("multiplication table must be square")
        if n < 1:
            raise ValueError("a group has at least one element")
        if t.min() < 0 or t.max() >= n:
            raise ValueError("table entries out of range")
        idx = np.arange(n)
        if not np.array_equal(t[0], idx) or not np.array_equal(t[:, 0], idx):
            raise ValueError("element 0 is not a two-sided identity")
        inv = (t == 0).argmax(axis=1)
        if not (t[idx, inv] == 0).all() or not (t[inv, idx] == 0).all():
            raise ValueError("some element has no two-sided inverse")
        if n <= 200:
            for a in range(n):
                if not np.array_equal(t[t[a]], t[a][t]):
                    raise ValueError(f"multiplication is not associative (element {a})")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.description!r}, order={self.size})"

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @cached_property
    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    @cached_property
    def powers(self) -> np.ndarray:
        """powers[k, x] = x**k for 0 <= k <= m, the largest element order, filled by
        row gathers; a first pass finds m, so the table is allocated once."""
        idx = np.arange(self.size, dtype=np.int32)
        row, seen, m = idx, idx == 0, 1
        while not seen.all():
            row, m = self.table[row, idx], m + 1
            seen |= row == 0
        out = np.zeros((m + 1, self.size), dtype=np.int32)
        out[1] = idx
        for k in range(2, m + 1):
            out[k] = self.table[out[k - 1], idx]
        out.flags.writeable = False
        return out

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[x]: the least k >= 1 with x**k the identity."""
        return (self.powers[1:] == 0).argmax(axis=0) + 1

    def element_order(self, x: int) -> int:
        return int(self.orders[x])

    def cyclic_subgroup(self, x: int) -> frozenset[int]:
        """All powers of x, identity included."""
        return frozenset(self.powers[: self.orders[x], x].tolist())

    def gen_set(self, x: int) -> frozenset[int]:
        """The generators of the cyclic subgroup of x; size totient(order(x))."""
        ks = np.arange(1, self.orders[x] + 1)
        return frozenset(self.powers[ks[np.gcd(ks, ks[-1]) == 1], x].tolist())

    def centralizer_size(self, x: int) -> int:
        return int((self.table[x, :] == self.table[:, x]).sum())


# ---------------------------------------------------------------------------
# constructions


def _cyclic_group(n: int, description: str | None = None) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    labels = tuple(str(i) for i in range(n))
    return FiniteGroup(table, labels, description or f"Z({n})")


def _compose_tables(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    nb = tb.shape[0]
    na = ta.shape[0]
    t = ta[:, None, :, None].astype(np.int64) * nb + tb[None, :, None, :]
    return t.reshape(na * nb, na * nb).astype(np.int32)


def direct_product(factors: list[FiniteGroup], description: str) -> FiniteGroup:
    """Direct product with lexicographic element ordering over the factors."""
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        g = factors[0]
        return FiniteGroup(g.table, g.labels, description, check=False)
    table = reduce(_compose_tables, (g.table for g in factors))
    labels = tuple(
        "(" + ",".join(parts) + ")" for parts in product(*(g.labels for g in factors))
    )
    return FiniteGroup(table, labels, description)


def _cycle_label(p: tuple[int, ...]) -> str:
    seen: set[int] = set()
    parts: list[str] = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) if parts else "e"


def _symmetric_group(n: int) -> FiniteGroup:
    perm_list = list(permutations(range(n)))  # lexicographic; identity first
    perms = np.array(perm_list, dtype=np.int64).reshape(len(perm_list), n)
    # base-n codes increase with the lexicographic order, so a code's rank is
    # its element index; perms[:, perms][i, j] is the composition p_i(p_j(x))
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.searchsorted(perms @ place, perms[:, perms] @ place)
    labels = tuple(_cycle_label(p) for p in perm_list)
    return FiniteGroup(table, labels, f"Sym({n})")


def _dihedral_group(n: int) -> FiniteGroup:
    # element (f, a) = s^f r^a at index f*n + a; r^a s = s r^(-a)
    idx = np.arange(n, dtype=np.int32)
    table = np.empty((2 * n, 2 * n), dtype=np.int32)
    for f1 in range(2):
        for f2 in range(2):
            # rows a1, columns a2: the product is s^(f1^f2) r^(a2 +- a1)
            a1 = idx[:, None] if f2 == 0 else -idx[:, None]
            block = (idx[None, :] + a1) % n + (f1 ^ f2) * n
            table[f1 * n : (f1 + 1) * n, f2 * n : (f2 + 1) * n] = block
    labels = []
    for f in range(2):
        for a in range(n):
            rot = "" if a == 0 else ("r" if a == 1 else f"r^{a}")
            if f == 0:
                labels.append(rot or "e")
            else:
                labels.append("s" + rot)
    return FiniteGroup(table, tuple(labels), f"Dih({n})")


_Q8_UNIT_MUL = {
    # (u1, u2) -> (sign, unit) over units 0:1, 1:i, 2:j, 3:k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def _quaternion_group() -> FiniteGroup:
    # index = 2*unit + sign, ordering 1, -1, i, -i, j, -j, k, -k
    table = np.zeros((8, 8), dtype=np.int32)
    for u1 in range(4):
        for s1 in range(2):
            for u2 in range(4):
                for s2 in range(2):
                    sign, unit = _Q8_UNIT_MUL[(u1, u2)]
                    table[2 * u1 + s1, 2 * u2 + s2] = 2 * unit + (s1 ^ s2 ^ sign)
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return FiniteGroup(table, labels, "Q8")


def realize(spec: GroupSpec | str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build the group a spec describes; rejects orders above max_order."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    order = spec_order(spec)
    if order > max_order:
        raise SpecError(
            f"group order {order} exceeds the configured maximum {max_order}"
        )
    description = render_group_spec(spec)
    if isinstance(spec, CyclicSpec):
        return _cyclic_group(spec.n)
    if isinstance(spec, HomocyclicSpec):
        return direct_product([_cyclic_group(spec.q) for _ in range(spec.copies)], description)
    if isinstance(spec, AbelianSpec):
        return direct_product([_cyclic_group(d) for d in spec.orders], description)
    if isinstance(spec, SymmetricSpec):
        return _symmetric_group(spec.n)
    if isinstance(spec, DihedralSpec):
        return _dihedral_group(spec.n)
    if isinstance(spec, QuaternionSpec):
        return _quaternion_group()
    if isinstance(spec, ProductSpec):
        left = realize(spec.left, max_order)
        right = realize(spec.right, max_order)
        return direct_product([left, right], description)
    raise TypeError(f"not a GroupSpec: {spec!r}")
