"""Exact arithmetic in small finite fields GF(p^k), q = p^k <= 256.

Elements are encoded by an integer index in [0, q): the base-p digits of the
index, little-endian, are the coefficients of the residue polynomial modulo
the field's irreducible modulus.  Every field gets, once, exp/log tables
w.r.t. a fixed generator and full add, mul and neg tables, so each operation
is a table lookup.  Larger fields are refused with FieldTooLarge before any
table is built.

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
# polynomial helpers over GF(p), coefficients little-endian tuples


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a, m, p):
    # remainder of a by monic m over GF(p)
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, ci in enumerate(m):
            a[shift + i] = (a[shift + i] - lead * ci) % p
        a.pop()
    return _poly_trim(a)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _monic_polys(p: int, degree: int):
    """All monic polynomials of the given degree, lex order on (c0, c1, ...)."""
    for low in itertools.product(range(p), repeat=degree):
        yield low + (1,)


def _is_irreducible(poly, p: int) -> bool:
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by t
        return False
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(poly, g, p):
                return False
    return True


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

    # index <-> coefficient tuple
    def coeffs(self, index: int):
        c = []
        for _ in range(self.k):
            c.append(index % self.p)
            index //= self.p
        return tuple(c)

    def from_coeffs(self, c) -> int:
        idx = 0
        reduced = _poly_mod(c, self.modulus, self.p)
        for ci in reversed(reduced + (0,) * (self.k - len(reduced))):
            idx = idx * self.p + ci
        return idx

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.from_coeffs(prod)

    def _build_tables(self):
        q = self.q
        # the first element of order q - 1 generates; g = 1 does only for q = 2
        for g in range(1, q):
            x, order = g, 1
            while x != 1:
                x = self._raw_mul(x, g)
                order += 1
            if order == q - 1:
                break
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, g)
        self.generator, self._exp, self._log = g, exp, log
        self._add = [[self._digit_add(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[0] * q] + [
            [0] + [exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
            for a in range(1, q)
        ]
        self._neg = [self._digit_neg(a) for a in range(q)]

    def _digit_add(self, a: int, b: int) -> int:
        p = self.p
        out, mult = 0, 1
        for _ in range(self.k):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _digit_neg(self, a: int) -> int:
        p = self.p
        out, mult = 0, 1
        for _ in range(self.k):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

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
