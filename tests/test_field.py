import itertools

import pytest
from hypothesis import given, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_neg, gf_rem, gf_strip, gf_sub

from nordcodes.errors import DivisionByZero, FieldTooLarge, NotPrime
from nordcodes.field import MAX_FIELD_SIZE, Field, make_field


def test_default_moduli():
    assert make_field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1, the only choice
    assert make_field(2, 1).q == 2
    assert make_field(3, 2).q == 9


def test_gf4_arithmetic():
    F = make_field(2, 2)
    w = 2
    assert F.mul(w, w) == 3  # w^2 = w + 1 forced by t^2+t+1
    for x in range(F.q):
        assert F.add(x, x) == 0  # characteristic 2
    # inverse via exhaustive multiplication-table oracle
    inv_oracle = {
        a: next(b for b in range(1, 4) if F.mul(a, b) == 1) for a in range(1, 4)
    }
    assert F.inv(w) == inv_oracle[2] == 3


def test_enumerate():
    # elements are the indices 0..q-1, and q = p^k
    assert make_field(2, 1).q == 2
    assert make_field(2, 2).q == 4
    assert make_field(3, 2).q == 9


def test_validation_errors():
    with pytest.raises(NotPrime):
        Field(4, 1)
    for p, k in ((2, 9), (257, 1), (2, 17)):
        with pytest.raises(FieldTooLarge):
            Field(p, k)
    with pytest.raises(DivisionByZero):
        make_field(2, 2).inv(0)
    with pytest.raises(DivisionByZero, match="negative power of zero"):
        make_field(2, 2).pow(0, -1)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 4)])
def test_field_axioms_exhaustive(p, k):
    """Associativity, commutativity, distributivity and inverses, exhaustively."""
    F = make_field(p, k)
    q = F.q
    for a in range(q):
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(q):
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, q):
        inv = F.inv(a)
        assert F.mul(a, inv) == 1 and F.mul(inv, a) == 1


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_frobenius_is_additive(p, k):
    F = make_field(p, k)
    for a in range(F.q):
        for b in range(F.q):
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf256_axioms_sampled(a, b, c):
    F = make_field(2, 8)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def test_pow_matches_repeated_mul():
    F = make_field(3, 2)
    for a in range(1, F.q):
        acc = 1
        for e in range(1, 10):
            acc = F.mul(acc, a)
            assert F.pow(a, e) == acc


# -- the tables against sympy's polynomial arithmetic over GF(p) -------------
# The base-p digits of an index, little-endian, are its coefficients, and
# galoistools lists coefficients high-to-low, so the galoistools list of an
# element is its digits read most significant first, and Horner's rule over
# that list gives the index back.

# every accepted field over p <= 13; a larger p is accepted only at k = 1
ACCEPTED = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 9) if p**k <= MAX_FIELD_SIZE]


def _gf_poly(F, a):
    return gf_strip([ZZ(a // F.p**i % F.p) for i in reversed(range(F.k))])


def _gf_index(F, poly):
    index = 0
    for c in poly:
        index = index * F.p + int(c)
    return index


@pytest.mark.parametrize("p,k", ACCEPTED)
def test_default_modulus_irreducible_by_sympy(p, k):
    """The modulus is the first monic irreducible of degree k, coefficients
    compared low-to-high, as README and `make_field` promise."""
    least = next(low + (1,) for low in itertools.product(range(p), repeat=k)
                 if gf_irreducible_p([ZZ(c) for c in reversed(low + (1,))], p, ZZ))
    assert make_field(p, k).modulus == least


@pytest.mark.parametrize("p,k", ACCEPTED)
def test_tables_match_sympy(p, k):
    F = make_field(p, k)
    modulus = [ZZ(c) for c in reversed(F.modulus)]
    # a fixed sample past q = 27, holding 0, 1, 2, 3, 100, 254 and 255 of GF(256)
    elems = range(F.q) if F.q <= 27 else sorted({*range(0, F.q, 9), 1, 2, 3, 100 % F.q, F.q - 2, F.q - 1})
    for a in elems:
        pa = _gf_poly(F, a)
        assert F.neg(a) == _gf_index(F, gf_neg(pa, p, ZZ))
        for b in elems:
            pb = _gf_poly(F, b)
            assert F.add(a, b) == _gf_index(F, gf_add(pa, pb, p, ZZ))
            assert F.sub(a, b) == _gf_index(F, gf_sub(pa, pb, p, ZZ))
            assert F.mul(a, b) == _gf_index(F, gf_rem(gf_mul(pa, pb, p, ZZ), modulus, p, ZZ))
