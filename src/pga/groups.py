"""Finite groups on 0-based element indices, read through a vectorized
product and power.

Element 0 is always the identity. Groups are built from a small spec grammar:

    Z(n)            cyclic of order n
    Z(q)^k          direct product of k copies of Z(q), q a prime power
    Ab[d1,...,dk]   direct product of cyclic groups Z(d1) x ... x Z(dk)
    Sym(n)          symmetric group on n points, n <= 5
    Dih(n)          dihedral group of order 2n
    Q8              quaternion group
    P(A,B)          external direct product of two specs

A group supplies `mul(a, b)` and `power(x, k)` on int32 index arrays, and
everything else is built on those two. `power` is the one way to raise
elements: k is an integer array broadcast against x (or a single int), so
one call takes many exponents (the cyclic-subgroup graph takes every
(subgroup, divisor) pair in one, and the power graph every power of a block
of elements). Sym(n), Q8 and any table passed to `FiniteGroup` are table
groups, which read an n x n multiplication table and read x**k off rows of
the powers x**0 ... x**n, built once by products, as x**(k mod n)
(Lagrange). Z(n), Dih(n) and direct products (Ab[...], Z(q)^k, P(A,B)) are
arithmetic groups: residues mod n, (flip, rotation) pairs, and mixed-radix
digits over the factors, each digit read from a table of every element's
digits built once; they store no multiplication table, so no n x n array is
built for them. Every leaf, table or arithmetic, finds its element orders
with one power call per prime power dividing the group order (each order
divides it); a direct product takes the lcm of its factors' orders, digit
by digit, and checks it with one power of the product. The exponent, the
lcm of the orders, is built once per group as well (a product's from its
factors'). Instances are immutable and thread-safe.

Every leaf group, Z(n), Dih(n), Sym(n) or Q8, is built and checked once per
process: within the default order cap, `realize` takes it from a small cache
keyed by its spec, so the factors of every product share one checked
instance (a leaf whose check fails is not cached). A leaf's check: element 0
must be a two-sided identity and every element must have a two-sided
inverse, and power(x, 2) must equal mul(x, x). For orders up to 200, and for
every table at any order, the product on its full n x n grid must also be
associative. The check is Light's test (Clifford and Preston, *The Algebraic
Theory of Semigroups* I, 1961, section 1.2): the elements a with (ab)c =
a(bc) for all b and c are closed under products, so it suffices that they
include a generating set. Each constructor passes the generators it knows (1
for Z(n); r and s for Dih(n); (0 1) and (0 1 ... n-1) for Sym(n); i and j
for Q8), and the check first proves, by closure under products with them,
that they generate the group, at every order; a table given without
generators gets a generating set picked greedily, the least element not yet
reached each time. The check then tests the generators against every pair
b, c, about |S| n**2 products where the exhaustive test takes n**3. Above
200 elements, Z(n) and Dih(n) check identity and inverses on their n
elements alone.

A direct product is checked through its factors: they were checked when
they were built, so it suffices that its digit table numbers the elements
one to one, and that power(x, 2) equals mul(x, x) on its n elements. Its
product is then the factors' products carried through a bijection, which is
a group, and it carries no generators (`generators` is None). A table
passed to `FiniteGroup` is checked as given, before its cast to int32, so no
entry out of range or of a non-integer dtype can wrap or truncate into one.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, permutations
from typing import Union

import numpy as np

from .errors import Cursor, SpecError

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


def unit_generators(n: int) -> list[int]:
    """Residues that generate the multiplicative group of units mod n.

    That group is the product, over the p**a exactly dividing n, of the units
    mod p**a: cyclic for odd p (a primitive root mod p, or that root plus p
    when it fails mod p**2, generates it for every a), and generated by -1
    and 5 for 2**a. Each local generator is lifted to n as the residue that
    is 1 modulo n / p**a."""
    out = []
    for p, a in factorize(n).items():
        q, rest = p**a, n // p**a
        if p == 2:
            local = [q - 1, 5][: min(a, 3) - 1]  # none mod 2, -1 mod 4
        else:
            root = next(
                g for g in range(2, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in factorize(p - 1))
            )
            local = [root + p if a > 1 and pow(root, p - 1, p * p) == 1 else root]
        out += [1 + rest * ((g - 1) * pow(rest, -1, q) % q) for g in local]
    return out


# ---------------------------------------------------------------------------
# spec grammar


@dataclass(frozen=True)
class CyclicSpec:
    n: int


@dataclass(frozen=True)
class HomocyclicSpec:
    q: int  # prime power p**m
    copies: int  # >= 2; Z(q)^1 normalizes to CyclicSpec(q)


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


class _SpecParser(Cursor):
    def parameter(self) -> int:
        return self.positive("parameters must be positive")

    def argument(self) -> int:
        """The "(" n ")" after Z, Sym and Dih."""
        self.expect("(")
        n = self.parameter()
        self.expect(")")
        return n

    def parse_spec(self) -> GroupSpec:
        self.skip_ws()
        start = self.pos
        if self.literal("Z"):
            n = self.argument()
            if not self.literal("^"):
                return CyclicSpec(n)
            k = self.parameter()
            if is_prime_power(n) is None:
                raise SpecError(f"{n} is not a prime power", position=start)
            return CyclicSpec(n) if k == 1 else HomocyclicSpec(n, k)
        if self.literal("Ab"):
            self.expect("[")
            orders = [self.parameter()]
            while self.literal(","):
                orders.append(self.parameter())
            self.expect("]")
            return AbelianSpec(tuple(orders))
        if self.literal("Sym"):
            n = self.argument()
            if n > 5:
                raise SpecError(f"Sym({n}) is unsupported (n must be <= 5)", position=start)
            return SymmetricSpec(n)
        if self.literal("Dih"):
            return DihedralSpec(self.argument())
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
    parser.end()
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


def _scale(x, k, n: int) -> np.ndarray:
    """k * x mod n for the int32 residues x (an array or an int), k broadcast
    against x; with k reduced mod n first, the int64 product stays below n**2."""
    return (np.asarray(x, dtype=np.int64) * (k % n) % n).astype(np.int32)


def _generator(x) -> int:
    """A generator as a Python int: int() would read 0.5 or "1"."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"generator {x!r} is not an integer") from None


def _check_table(t: np.ndarray, n: int) -> None:
    """A ValueError unless t, as given, is an n x n integer array of entries in range(n), n >= 1."""
    if t.shape != (n, n):
        raise ValueError("multiplication table must be square")
    if n < 1:
        raise ValueError("a group has at least one element")
    if t.dtype.kind not in "iu":
        raise ValueError(f"table entries must be integers, not {t.dtype}")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("table entries out of range")


class FiniteGroup:
    """A finite group on the element indices 0..n-1, index 0 the identity.

    Everything is read through two vectorized operations on int32 index
    arrays: `mul(a, b)`, the elementwise (broadcast) product, and
    `power(x, k)`, the exponents k broadcast against x. Element orders and
    the exponent are built on those two. Two forms supply them:

    - a table group, this class built from its n x n multiplication table
      (table[a, b] is the index of a*b): Sym(n), Q8 and any table passed in.
      Its powers are read off rows of powers built once (_power_table);
    - an arithmetic group, one of the subclasses below, which computes each
      product and each power in closed form and stores no multiplication
      table: Z(n), Dih(n), and direct products (Ab[...], Z(q)^k, P(A,B)),
      componentwise.

    `generators`, when given, are integers in range(n) that generate the
    group; a direct product has none. A table is checked before its cast to
    int32 (_check_table), and the cast copies it.

    Every group is checked when it is built; `realize` builds each leaf
    (Z(n), Dih(n), Sym(n), Q8) once per process. For orders up to 200, and
    for every table, the product on the full n x n grid (the table itself)
    must have element 0 as a two-sided identity and a two-sided inverse for
    every element, and be associative by Light's test: a closure under
    products with the given generators S first proves that S generates the
    grid (a ValueError otherwise), or, with none given, S is picked
    greedily (_generating_set); then (sb)c = s(bc) is checked for every s in
    S and all b, c, |S| n**2 products. Z(n) and Dih(n) above 200 elements
    check identity and inverses on their n elements through `mul`, x**(n-1)
    being x's inverse.
    A direct product is checked through its factors and its numbering of the
    elements instead (_ProductGroup._validate). Every group also checks
    power(x, 2) == mul(x, x) for every x, so that a closed-form power cannot
    drift away from the checked product.
    """

    table: np.ndarray | None = None  # arithmetic groups have none

    def __init__(
        self,
        table: np.ndarray,
        labels: tuple[str, ...],
        description: str,
        *,
        generators: tuple[int, ...] | None = None,
    ) -> None:
        table = np.asarray(table)
        _check_table(table, len(table) if table.ndim else 0)
        self.table = np.array(table, dtype=np.int32, order="C")
        self._flat = self.table.ravel()
        self._setup(int(self.table.shape[0]), labels, description, generators)
        self.table.flags.writeable = False

    def _setup(
        self,
        size: int,
        labels: tuple[str, ...] | None,
        description: str,
        generators: tuple[int, ...] | None,
    ) -> None:
        """None for labels leaves them to a subclass's `labels` property."""
        self.size = size
        self.description = description
        self.generators = None if generators is None else tuple(map(_generator, generators))
        if self.generators is not None and not all(0 <= x < size for x in self.generators):
            raise ValueError("generators out of range")
        if labels is not None:
            self.labels = tuple(labels)
            if len(self.labels) != self.size:
                raise ValueError("one label per element is required")
        self._validate()

    def _validate(self) -> None:
        n = self.size
        idx = np.arange(n, dtype=np.int32)
        if self.table is None and n > 200:
            if (self.mul(0, idx) != idx).any() or (self.mul(idx, 0) != idx).any():
                raise ValueError("element 0 is not a two-sided identity")
            inv = self.power(idx, n - 1)
            if (self.mul(idx, inv) != 0).any() or (self.mul(inv, idx) != 0).any():
                raise ValueError("some element has no two-sided inverse")
        else:
            grid = self.table  # a table was checked before its cast
            if grid is None:
                grid = self.mul(idx[:, None], idx)
                _check_table(grid, n)
            self._validate_grid(grid)
        self._validate_square()

    def _validate_square(self) -> None:
        idx = np.arange(self.size, dtype=np.int32)
        if (self.power(idx, 2) != self.mul(idx, idx)).any():
            raise ValueError("power(x, 2) differs from the product x * x")

    def _validate_grid(self, t: np.ndarray) -> None:
        n = self.size
        idx = np.arange(n)
        if not np.array_equal(t[0], idx) or not np.array_equal(t[:, 0], idx):
            raise ValueError("element 0 is not a two-sided identity")
        inv = (t == 0).argmax(axis=1)
        if not (t[idx, inv] == 0).all() or not (t[inv, idx] == 0).all():
            raise ValueError("some element has no two-sided inverse")
        # the elements s with (sb)c = s(bc) for all b, c are closed under
        # products: ((s1 s2) b) c = (s1 (s2 b)) c = s1 ((s2 b) c) = s1 (s2 (bc))
        # = (s1 s2)(bc), so checking a generating set checks every element
        gens = self._generating_set(t)
        # (sb)c against s(bc) for a block of elements s at a time, about 2**16
        # products per block
        step = max(1, 2**16 // (n * n))
        for lo in range(0, gens.size, step):
            rows = t[gens[lo : lo + step]]
            bad = np.flatnonzero((t[rows] != np.take(rows, t, axis=1)).any(axis=(1, 2)))
            if bad.size:
                raise ValueError(
                    f"multiplication is not associative (element {gens[lo + bad[0]]})"
                )

    def _generating_set(self, t: np.ndarray) -> np.ndarray:
        """The constructor's generators, proved to generate the grid t (a
        ValueError otherwise), or, when none were given, a generating set
        picked greedily: the least element not reached yet, each time. By
        Lagrange each pick at least doubles the span, so at most log2(n) are
        picked.

        The span grows from the identity by rounds: the elements a round
        reaches are multiplied on the right by the generators and by each
        other, so the word length doubles each round, and a new pick starts
        from the span times it alone. No block of the span times itself is
        formed."""
        n = self.size
        flat = t.ravel()
        gens = [] if self.generators is None else sorted(set(self.generators))
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        s = np.array(gens, dtype=np.intp)
        products = s  # the identity times the generators
        while True:
            while True:
                grown = reached.copy()
                grown[products] = True
                new = np.flatnonzero(grown > reached)
                reached = grown
                if not new.size:
                    break
                products = flat.take(np.hstack((new[:, None] * n + s, new[:, None] * n + new)))
            if reached.all():
                return s
            if self.generators is not None:
                raise ValueError(f"the generators span {np.count_nonzero(reached)} of the {n} elements")
            gens.append(int(reached.argmin()))
            s = np.array(gens, dtype=np.intp)
            products = flat.take(np.flatnonzero(reached) * n + gens[-1])

    def __repr__(self) -> str:
        return f"FiniteGroup({self.description!r}, order={self.size})"

    def mul(self, a, b):
        """The products a*b, elementwise over the broadcast index arrays (or ints);
        flat table indices stay int32, as n * n < 2**31 for any table that
        fits in memory."""
        return self._flat.take(a * self.size + b)

    def power(self, x: np.ndarray, k) -> np.ndarray:
        """x**k for the int32 elements x (or an int) and the exponents k >= 0,
        an integer array (or int) broadcast against x, so one call takes many exponents:
        a column of them against a row of elements gives a table of powers.
        A table group reads x**(k mod n) off its rows of powers, as every
        element's order divides the group order n (Lagrange; the table was
        checked as a group when it was built)."""
        return self._power_table.take(k % self.size * self.size + x)

    @cached_property
    def _power_table(self) -> np.ndarray:
        """A table group's rows of powers x**0 ... x**n, flat, built once by
        products: rows j+1..j+s are rows 1..s times row j in one product, as
        x**(j+k) = x**k * x**j, so the rows take about log2(n) products."""
        n = self.size
        rows = np.empty((n + 1, n), dtype=np.int32)
        rows[0], rows[1] = 0, np.arange(n)
        j = 1
        while j < n:
            s = min(j, n - j)
            rows[j + 1 : j + s + 1] = self.mul(rows[1 : s + 1], rows[j])
            j += s
        rows = rows.ravel()
        rows.flags.writeable = False
        return rows

    @cached_property
    def exponent(self) -> int:
        """The lcm of the element orders, built once per group (per leaf per process)."""
        return math.lcm(*set(self.orders.tolist()))

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[x]: the least k >= 1 with x**k the identity.

        The order divides the group order n (Lagrange), so it is the product,
        over the prime powers p**e exactly dividing n, of the order p**a of
        x's p-part x**(n / p**e): the least a <= e with x**((n / p**e) p**a)
        the identity, read off one power call per p."""
        n = self.size
        x = np.arange(n, dtype=np.int32)
        orders = np.ones(n, dtype=np.intp)
        for p, e in factorize(n).items():
            steps = p ** np.arange(e + 1)
            reached = self.power(x, (n // p**e * steps)[:, None]) == 0
            if not reached[-1].all():
                raise ValueError("some element's order does not divide the group order")
            orders *= steps[reached.argmax(axis=0)]
        orders.flags.writeable = False
        return orders

    def element_order(self, x: int) -> int:
        return int(self.orders[x])


class _CyclicGroup(FiniteGroup):
    """Z(n) on the residues mod n: a*b is a + b and x**k is kx, mod n."""

    def __init__(self, n: int) -> None:
        generators = (1,) if n > 1 else ()
        self._setup(n, tuple(map(str, range(n))), f"Z({n})", generators)

    def mul(self, a, b):
        return (a + b) % self.size

    def power(self, x: np.ndarray, k) -> np.ndarray:
        return _scale(x, k, self.size)


class _DihedralGroup(FiniteGroup):
    """Dih(n), order 2n: index f*n + a is s^f r^a, and r^a s = s r^(-a)."""

    def __init__(self, n: int) -> None:
        self.rotations = n
        labels = []
        for f in range(2):
            for a in range(n):
                rot = "" if a == 0 else ("r" if a == 1 else f"r^{a}")
                if f == 0:
                    labels.append(rot or "e")
                else:
                    labels.append("s" + rot)
        self._setup(2 * n, labels, f"Dih({n})", (1, n))  # r and s

    def mul(self, a, b):
        # s^f1 r^a1 * s^f2 r^a2 = s^(f1^f2) r^(a2 +- a1), minus when f2 = 1
        n = self.rotations
        f1, a1 = divmod(a, n)
        f2, a2 = divmod(b, n)
        return (f1 ^ f2) * n + (a2 + a1 - 2 * a1 * f2) % n

    def power(self, x: np.ndarray, k) -> np.ndarray:
        # a rotation's exponent is multiplied by k; a reflection is an involution
        n = self.rotations
        return np.where(x < n, _scale(x, k, n), x * (k % 2 == 1))


class _ProductGroup(FiniteGroup):
    """A direct product, element index the mixed-radix number of the factors'
    indices with the first factor most significant; products and powers are
    the factors', digit by digit.

    The digits of every element are built once, as an n x k table with one
    column per factor, so the digits of x are row x, and each factor's
    digits of a batch of elements are one column of one `take`."""

    def __init__(self, factors: list[FiniteGroup], description: str) -> None:
        self.factors = tuple(factors)
        sizes = [g.size for g in factors]
        # a factor's stride is the product of the later factors' orders
        strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
        n = strides[0] * sizes[0]
        self._strides = strides
        self._digit_table = np.arange(n, dtype=np.int32)[:, None] // np.array(
            strides, dtype=np.int32
        ) % np.array(sizes, dtype=np.int32)
        self._setup(n, None, description, None)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """"(a,b,...,z)" from the factors' labels, composed on first read."""
        tail = [f"{label})" for label in self.factors[-1].labels]
        for g in reversed(self.factors[1:-1]):
            tail = [f"{a},{b}" for a in g.labels for b in tail]
        return tuple(f"({a},{b}" for a in self.factors[0].labels for b in tail)

    def _validate(self) -> None:
        """The factors are groups, each checked when it was built; if the
        digit table numbers the elements one to one (digits in range, and x
        the number of its own digits), `mul` is the factors' product carried
        through that bijection, a group."""
        digits = self._digit_table
        in_range = ((digits >= 0) & (digits < [g.size for g in self.factors])).all()
        if not in_range or not np.array_equal(self._number(digits.T), np.arange(self.size)):
            raise ValueError("the digit table does not number the elements one to one")
        self._validate_square()

    def _number(self, digits):
        """The element indices whose digits are `digits`, one array per factor."""
        return sum(d * stride for d, stride in zip(digits, self._strides))

    def mul(self, a, b):
        da, db = self._digit_table.take(a, axis=0), self._digit_table.take(b, axis=0)
        return self._number([g.mul(da[..., i], db[..., i]) for i, g in enumerate(self.factors)])

    def power(self, x: np.ndarray, k) -> np.ndarray:
        digits = self._digit_table.take(x, axis=0)
        return self._number([g.power(digits[..., i], k) for i, g in enumerate(self.factors)])

    @cached_property
    def exponent(self) -> int:
        """The lcm of the factors' exponents."""
        return math.lcm(*(g.exponent for g in self.factors))

    @cached_property
    def orders(self) -> np.ndarray:
        """The lcm of the factors' orders of each element's digits, confirmed
        by one product power: x**e must be the identity for the exponent e."""
        digits = self._digit_table.T
        orders = np.lcm.reduce([g.orders.take(d) for g, d in zip(self.factors, digits)])
        if self.power(np.arange(self.size, dtype=np.int32), self.exponent).any():
            raise ValueError("a power of the product differs from its factors' orders")
        orders.flags.writeable = False
        return orders


# ---------------------------------------------------------------------------
# constructions


def direct_product(factors: list[FiniteGroup], description: str) -> FiniteGroup:
    """Direct product with lexicographic element ordering over the factors."""
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        g = copy.copy(factors[0])
        g.description = description
        return g
    return _ProductGroup(factors, description)


def _cycle_label(p: tuple[int, ...]) -> str:
    out = ""
    for i, j in enumerate(p):
        if j <= i:  # i is fixed, or not the least node of its cycle
            continue
        cycle = f"({i}"
        while j > i:
            cycle += f" {j}"
            j = p[j]
        if j == i:  # the walk closed the cycle, so i is its least node
            out += cycle + ")"
    return out or "e"


def _symmetric_group(n: int) -> FiniteGroup:
    perm_list = list(permutations(range(n)))  # lexicographic; identity first
    m = len(perm_list)
    perms = np.fromiter(chain.from_iterable(perm_list), np.intp, m * n).reshape(m, n)
    # a permutation's base-n code indexes a lookup of its element index, and
    # perms[:, perms][i, j] is the composition p_i o p_j, x -> p_i[p_j[x]]
    place = n ** np.arange(n - 1, -1, -1)
    rank = np.zeros(n**n, dtype=np.int32)
    rank[perms @ place] = np.arange(m, dtype=np.int32)
    table = rank.take(perms[:, perms] @ place)
    labels = tuple(_cycle_label(p) for p in perm_list)
    # the transposition (0 1) and the n-cycle (0 1 ... n-1)
    moves = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    generators = tuple(perm_list.index(p) for p in moves)
    return FiniteGroup(table, labels, f"Sym({n})", generators=generators)


def _quaternion_group() -> FiniteGroup:
    # index 2*unit + sign, ordering 1, -1, i, -i, j, -j, k, -k: the units 1,
    # i, j, k are 0-3 and multiply as the XOR of their indices (ij = k, jk =
    # i, ki = j), and flip[u1, u2] is 1 where that product is negated
    flip = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    unit, sign = np.divmod(np.arange(8), 2)
    table = 2 * (unit[:, None] ^ unit) + (sign[:, None] ^ sign ^ flip[unit[:, None], unit])
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return FiniteGroup(table, labels, "Q8", generators=(2, 4))  # i and j


@lru_cache(maxsize=64)
def _leaf(spec: CyclicSpec | DihedralSpec | SymmetricSpec | QuaternionSpec) -> FiniteGroup:
    """The group of a leaf spec, built and checked on its first use in a
    process. Groups are immutable, so every later use shares the instance,
    its check and its lazily built orders and exponent (and a table group's
    rows of powers); a spec whose check raises is not cached, and raises
    again on its next use. 64 leaves hold a corpus of small groups
    (Z(2)-Z(28), Dih(1)-Dih(14), Sym(n) and Q8 are 45). realize keeps only
    the leaves of groups within the default order cap, so a kept leaf holds
    at most 2,000 labels and orders, or Sym(5)'s 120 x 120 table and its 121
    rows of 120 powers."""
    if isinstance(spec, CyclicSpec):
        return _CyclicGroup(spec.n)
    if isinstance(spec, DihedralSpec):
        return _DihedralGroup(spec.n)
    if isinstance(spec, SymmetricSpec):
        return _symmetric_group(spec.n)
    return _quaternion_group()


def realize(spec: GroupSpec | str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build the group a spec describes; rejects orders above max_order."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    order = spec_order(spec)
    if order > max_order:
        raise SpecError(
            f"group order {order} exceeds the configured maximum {max_order}"
        )
    leaf = _leaf if order <= DEFAULT_MAX_ORDER else _leaf.__wrapped__
    if isinstance(spec, (CyclicSpec, DihedralSpec, SymmetricSpec, QuaternionSpec)):
        return leaf(spec)
    description = render_group_spec(spec)
    if isinstance(spec, HomocyclicSpec):
        return direct_product([leaf(CyclicSpec(spec.q))] * spec.copies, description)
    if isinstance(spec, AbelianSpec):
        return direct_product([leaf(CyclicSpec(d)) for d in spec.orders], description)
    if isinstance(spec, ProductSpec):
        left = realize(spec.left, max_order)
        right = realize(spec.right, max_order)
        return direct_product([left, right], description)
    raise TypeError(f"not a GroupSpec: {spec!r}")
