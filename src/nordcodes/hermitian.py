"""The Hermitian curve y^q + y = x^(q+1) over GF(q^2) with the two marked
points Q1 = the point at infinity and Q2 = (0, 0).

A function regular outside {Q1, Q2} is a combination of monomials x^a y^b
with 0 <= a <= q and b in Z.  Its support is a tuple of ((a, b),
coefficient index) pairs sorted by the monomial key (a, b).  `reduce`
applies the relation x^(q+1) = y^q + y, so distinct keys have pairwise
distinct valuations at both points, and the pole orders of a support are
the largest `pole_orders` over its keys.  The algebra on supports is
`models.CurveValuationModel`.

For a monomial x^a y^b:  v_inf = -(a*q + b*(q+1)),  v_0 = a + b*(q+1).
The good-basis profile is counted from these keys: the reduced key of pole
order i at Q1 has a pole at Q2 exactly when i is a gap of H(Q1).
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
        self.field: Field = make_field(p, 2 * e)
        self.points = self._enumerate_points()
        assert len(self.points) == q**3

    def _enumerate_points(self):
        F, q = self.field, self.q
        pts = []
        for x in range(F.q):
            rhs = F.pow(x, q + 1)
            for y in range(F.q):
                if F.add(F.pow(y, q), y) == rhs:
                    pts.append((x, y))
        return pts

    # -- monomials -------------------------------------------------------

    def reduce(self, raw: dict) -> tuple:
        """The key-sorted support of sum c * x^a y^b over raw = {(a, b): c},
        any a >= 0, with x^(q+1) = y^q + y applied until every a <= q."""
        F, q = self.field, self.q
        acc: dict[tuple[int, int], int] = {}
        stack = list(raw.items())
        while stack:
            (a, b), c = stack.pop()
            if c == 0:
                continue
            if a > q:
                stack.append(((a - q - 1, b + q), c))
                stack.append(((a - q - 1, b + 1), c))
                continue
            key = (a, b)
            acc[key] = F.add(acc.get(key, 0), c)
        return tuple(sorted((k, v) for k, v in acc.items() if v != 0))

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
        """Monomial keys (a, b) spanning {h : rho(h) <= ell, sigma(h) <= m},
        sorted."""
        return sorted((a, b) for a, lo, hi in self._b_bounds(ell, m) for b in range(lo, hi + 1))

    def riemann_roch_dimension(self, ell: int, m: int) -> int:
        """len(riemann_roch_basis(ell, m)), in O(q) with nothing listed."""
        return sum(max(0, hi - lo + 1) for _, lo, hi in self._b_bounds(ell, m))

    def two_point_semigroup(self) -> TwoPointSemigroup:
        """Gap pairs of H(Q1, Q2) via the dimension-jump criterion on the box
        [0, 2*genus + 1]^2, which holds every gap pair."""
        from .semigroup import TwoPointSemigroup

        box = 2 * self.genus + 1
        dim = self.riemann_roch_dimension
        gaps = set()
        for alpha in range(box + 1):
            for beta in range(box + 1):
                if (alpha, beta) == (0, 0):
                    continue
                d = dim(alpha, beta)
                if d <= dim(alpha - 1, beta) or d <= dim(alpha, beta - 1):
                    gaps.add((alpha, beta))
        return TwoPointSemigroup(frozenset(gaps))

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
        counted over [1, 2*genus) with no semigroup built.
        """
        from .semigroup import GoodBasisProfile

        return GoodBasisProfile.from_entries({
            i: sigma for i in range(1, 2 * self.genus)
            if (sigma := self.pole_orders(self.good_basis_function(i))[1])})

    def __repr__(self):
        return f"HermitianCurve(q={self.q}, genus={self.genus}, n_points={len(self.points)})"
