"""The Hermitian curve y^q + y = x^(q+1) over GF(q^2) with the two marked
points Q1 = the point at infinity and Q2 = (0, 0).

A function regular outside {Q1, Q2} is a combination of monomials x^a y^b
with 0 <= a <= q and b in Z.  Its support is a tuple of ((a, b),
coefficient index) pairs sorted by the monomial key (a, b).  Distinct keys
have pairwise distinct valuations at both points, so the pole orders of a
support are the largest `pole_orders` over its keys.  `monomial_product`
multiplies two keys with x^(q+1) = y^q + y applied at most once; the algebra
on supports is `models.CurveValuationModel`.

For a monomial x^a y^b:  v_inf = -(a*q + b*(q+1)),  v_0 = a + b*(q+1).
The good-basis profile is counted from these keys, once per curve, and the
gap pairs of H(Q1, Q2) are read off it.  `image` evaluates a key on the code
support, every affine point but Q2, once per key per curve.
"""

from __future__ import annotations

from .errors import UnsupportedQ
from .field import Field, make_field

_SUPPORTED_Q = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


class HermitianCurve:
    def __init__(self, q: int):
        if q not in _SUPPORTED_Q:
            raise UnsupportedQ(f"q must be one of {sorted(_SUPPORTED_Q)}, got {q}")
        p, e = _SUPPORTED_Q[q]
        self.q = q
        self.genus = q * (q - 1) // 2
        # the largest gap of H(Q2) = <q, q+1>: q^2 - q - 1 = 2*genus - 1
        self.lambda_sigma = 2 * self.genus - 1
        self.n = q**3 - 1  # the code length: every affine point but Q2
        self.field: Field = make_field(p, 2 * e)
        self.points = self._enumerate_points()
        assert len(self.points) == q**3
        self._profile = None
        self._images: dict[tuple[int, int], tuple[int, ...]] = {}

    def _enumerate_points(self):
        """Affine points as field indices, lexicographic; Q2 = (0, 0) first.
        Each x reads the y filed under the trace y^q + y = x^(q+1): O(q^2)."""
        F, q = self.field, self.q
        by_trace: dict[int, list[int]] = {}
        for y in range(F.q):
            by_trace.setdefault(F.add(F.pow(y, q), y), []).append(y)
        return [(x, y) for x in range(F.q) for y in by_trace.get(F.pow(x, q + 1), ())]

    # -- monomials -------------------------------------------------------

    def image(self, key: tuple[int, int]) -> tuple[int, ...]:
        """Values of x^a y^b, key = (a, b), at points[1:].  y != 0 there, so a
        negative b is a power of 1/y, and the image of a key sum is the
        entrywise product of the two images."""
        if key not in self._images:
            F, (a, b) = self.field, key
            self._images[key] = tuple(F.mul(F.pow(x, a), F.pow(y, b)) for x, y in self.points[1:])
        return self._images[key]

    def monomial_product(self, k1: tuple[int, int], k2: tuple[int, int]) -> tuple:
        """The key-sorted support of x^a1 y^b1 * x^a2 y^b2 for reduced keys.
        a = a1 + a2 <= 2q, so x^(q+1) = y^q + y applies at most once."""
        a, b = k1[0] + k2[0], k1[1] + k2[1]
        q = self.q
        if a <= q:
            return (((a, b), 1),)
        return (((a - q - 1, b + 1), 1), ((a - q - 1, b + q), 1))

    def pole_orders(self, key: tuple[int, int]) -> tuple[int, int]:
        """(rho, sigma) of x^a y^b, key = (a, b): the pole orders at Q1 and
        Q2, max(0, -v_inf) and max(0, -v_0)."""
        a, b = key
        q = self.q
        return max(0, a * q + b * (q + 1)), max(0, -(a + b * (q + 1)))

    # -- Riemann-Roch spaces --------------------------------------------

    def _b_bounds(self, ell: int, m: int):
        """(a, lowest b, highest b) of the keys with rho <= ell and sigma <= m,
        for a = 0..q; negative ell or m means forced vanishing at the
        corresponding point."""
        q = self.q
        for a in range(q + 1):
            # a*q + b*(q+1) <= ell  and  a + b*(q+1) >= -m
            yield a, -((m + a) // (q + 1)), (ell - a * q) // (q + 1)

    def riemann_roch_basis(self, ell: int, m: int) -> list[tuple[int, int]]:
        """Sorted monomial keys (a, b) spanning {h : rho(h) <= ell, sigma(h) <= m}."""
        return sorted((a, b) for a, lo, hi in self._b_bounds(ell, m) for b in range(lo, hi + 1))

    def riemann_roch_dimension(self, ell: int, m: int) -> int:
        """len(riemann_roch_basis(ell, m)), in O(q) with nothing listed."""
        return sum(max(0, hi - lo + 1) for _, lo, hi in self._b_bounds(ell, m))

    def two_point_semigroup(self) -> TwoPointSemigroup:
        """Gap pairs of H(Q1, Q2), read off the profile: the lattice points
        directly below or directly left of a point (i, sigma_i) of its graph
        (S. J. Kim, Arch. Math. 62, 1994; M. Homma, Arch. Math. 67, 1996)."""
        from .semigroup import TwoPointSemigroup

        entries = self.profile_closed_form().entries
        below = {(i, b) for i, sigma in entries for b in range(sigma)}
        left = {(a, sigma) for i, sigma in entries for a in range(i)}
        return TwoPointSemigroup(frozenset(below | left))

    # -- good basis ------------------------------------------------------

    def good_basis_function(self, i: int) -> tuple[int, int]:
        """The key of the unique reduced monomial with pole order i at Q1 and
        minimal sigma; a = (-i) mod (q+1), b = (i - a*q) / (q+1)."""
        q = self.q
        a = (-i) % (q + 1)
        b = (i - a * q) // (q + 1)
        assert a * q + b * (q + 1) == i
        return a, b

    def profile_closed_form(self) -> GoodBasisProfile:
        """sigma-values of the canonical monomial good basis, keyed by the
        gaps of H(Q1).

        good_basis_function(i) is the unique reduced key (a, b), 0 <= a <= q,
        with pole order i at Q1.  So i is a nongap of H(Q1) = <q, q+1> iff
        b >= 0, which forces sigma = 0; a gap has b < 0, so a + b*(q+1) < 0
        and sigma > 0.  Every gap lies below 2*genus, so the profile is
        counted over [1, 2*genus), once per curve, with no semigroup built.
        """
        if self._profile is None:
            from .semigroup import GoodBasisProfile
            self._profile = GoodBasisProfile(
                (i, sigma) for i in range(1, 2 * self.genus)
                if (sigma := self.pole_orders(self.good_basis_function(i))[1]))
        return self._profile

    def __repr__(self):
        return f"HermitianCurve(q={self.q}, genus={self.genus}, n_points={len(self.points)})"
