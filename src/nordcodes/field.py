"""Exact arithmetic in small finite fields GF(p^k), q = p^k <= 256.

Elements are encoded by an integer index in [0, q): the base-p digits of the
index, little-endian, are the coefficients of the residue polynomial modulo
the field's irreducible modulus, the lexicographically least monic one.
Every field gets, once, full add, mul and neg tables and exp/log tables
w.r.t. a fixed generator, so each operation is a table lookup.  The tables
recurse on the digits alone: x = x0 + p*x' is the polynomial x0 + t*x'(t),
so a sum, a scaling by a constant and a product by t each take the entry of
x' and add one digit, and a*b = b0*a + t*(a*b') takes the entry of b'.
Larger fields are refused with FieldTooLarge before any table is built.

Vectors are lists of indices.  `Field.scale_row`, `Field.add_scaled_row` and
`Field.dot` are the whole-row operations that `linalg` and `codes` run on.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import DivisionByZero, FieldTooLarge, NotPrime

MAX_FIELD_SIZE = 256  # every accepted field is fully tabled


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# the modulus search, on little-endian coefficient tuples over GF(p)


def _monic_polys(p: int, degree: int):
    """All monic polynomials of the given degree, lex order on (c0, c1, ...)."""
    for low in itertools.product(range(p), repeat=degree):
        yield low + (1,)


def _divides(g, a, p: int) -> bool:
    """Whether monic g divides a over GF(p): long division, zero remainder."""
    a, dg = list(a), len(g) - 1
    for shift in range(len(a) - 1 - dg, -1, -1):
        lead = a[shift + dg]
        for i, gi in enumerate(g):
            a[shift + i] = (a[shift + i] - lead * gi) % p
    return not any(a)


def _is_irreducible(poly, p: int) -> bool:
    # a reducible poly has a monic factor of degree <= half its own
    deg = len(poly) - 1
    return not any(_divides(g, poly, p) for d in range(1, deg // 2 + 1) for g in _monic_polys(p, d))


def _default_modulus(p: int, k: int):
    # the first monic irreducible of degree k over GF(p); one exists for every k >= 1
    return next(cand for cand in _monic_polys(p, k) if _is_irreducible(cand, p))


# ---------------------------------------------------------------------------


class Field:
    """Immutable GF(p^k) with table-backed arithmetic on element indices."""

    def __init__(self, p: int, k: int):
        if k < 1:
            raise NotPrime(f"extension degree must be >= 1, got {k}")
        # before the primality test, and p^k only for small k, so that a huge
        # p or k costs nothing
        if p >= 2 and (k >= MAX_FIELD_SIZE.bit_length() or p**k > MAX_FIELD_SIZE):
            raise FieldTooLarge(f"GF({p}^{k}) has more than {MAX_FIELD_SIZE} elements")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _default_modulus(p, k)
        self._build_tables()

    def _build_tables(self):
        """Every table from the base-p digits of the indices: x = x0 + p*x'
        is the polynomial x0 + t*x'(t), x0 = x mod p."""
        p, q = self.p, self.q
        top = q // p  # the place value of the coefficient of t^(k-1)
        add = [list(range(q))]
        for a in range(1, q):
            below = add[a // p]
            add.append([p * below[b // p] + (a + b) % p for b in range(q)])
        scale = []  # scale[c][x] = c*x for the p constants c
        for c in range(p):
            row = [0] * q
            for x in range(1, q):
                row[x] = p * row[x // p] + c * x % p
            scale.append(row)
        # t^k = -(m_0 + ... + m_(k-1) t^(k-1)), folded in for the top digit
        low = sum(c * p**i for i, c in enumerate(self.modulus[:-1]))
        times_t = [add[x % top * p][scale[-(x // top) % p][low]] for x in range(q)]
        mul = []  # a*b = b0*a + t*(a*b') for b = b0 + p*b'
        for a in range(q):
            row = [0] * q
            for b in range(1, q):
                row[b] = add[scale[b % p][a]][times_t[row[b // p]]]
            mul.append(row)
        # the first element of order q - 1 generates; g = 1 does only for q = 2
        for g in range(1, q):
            x, order = g, 1
            while x != 1:
                x = mul[g][x]
                order += 1
            if order == q - 1:
                break
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = mul[g][x]
        self.generator, self._exp, self._log = g, exp, log
        self._add, self._mul, self._neg = add, mul, scale[p - 1]

    # -- arithmetic on indices -------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # -- whole rows of indices -------------------------------------------

    def scale_row(self, c: int, row) -> list[int]:
        """c * row, entrywise."""
        times_c = self._mul[c]
        return [times_c[v] for v in row]

    def add_scaled_row(self, x, c: int, y) -> list[int]:
        """x + c * y, entrywise."""
        add, times_c = self._add, self._mul[c]
        return [add[a][times_c[b]] for a, b in zip(x, y)]

    def dot(self, x, y) -> int:
        """sum of x[i] * y[i]."""
        add, mul = self._add, self._mul
        total = 0
        for a, b in zip(x, y):
            total = add[total][mul[a][b]]
        return total

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k}, modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> Field:
    """Build (and cache) GF(p^k), modulo the lexicographically smallest monic
    irreducible of degree k, coefficients compared low-to-high."""
    return Field(p, k)
