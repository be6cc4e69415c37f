"""The Hermitian curve y^q + y = x^(q+1) over GF(q^2) with the two marked
points Q1 = the point at infinity and Q2 = (0, 0).

Functions regular outside {Q1, Q2} are represented as reduced monomial
combinations x^a y^b with 0 <= a <= q and b in Z; the relation
x^(q+1) = y^q + y is applied eagerly, so distinct stored monomials have
pairwise distinct valuations at both points and every valuation is the
support minimum.

For a monomial x^a y^b:  v_inf = -(a*q + b*(q+1)),  v_0 = a + b*(q+1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoxTooSmall, PoleAtPoint, UnsupportedQ, ZeroFunction
from .field import Field, make_field
from .semigroup import GoodBasisProfile, NumericalSemigroup, TwoPointSemigroup, ns_from_generators

_SUPPORTED_Q = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


@dataclass(frozen=True)
class ValuationPair:
    v_inf: int
    v_zero: int

    @property
    def rho(self) -> int:
        return max(0, -self.v_inf)

    @property
    def sigma(self) -> int:
        return max(0, -self.v_zero)


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

    # -- monomial bookkeeping -------------------------------------------

    def monomial_valuations(self, a: int, b: int) -> ValuationPair:
        q = self.q
        return ValuationPair(-(a * q + b * (q + 1)), a + b * (q + 1))

    def function(self, support: dict) -> "TwoPointFunction":
        return TwoPointFunction.make(self, support)

    def zero_function(self) -> "TwoPointFunction":
        return TwoPointFunction(self, ())

    def one_function(self) -> "TwoPointFunction":
        return TwoPointFunction(self, (((0, 0), 1),))

    def monomial(self, a: int, b: int, coeff: int = 1) -> "TwoPointFunction":
        return TwoPointFunction.make(self, {(a, b): coeff})

    # -- Riemann-Roch spaces --------------------------------------------

    def riemann_roch_basis(self, ell: int, m: int) -> list[tuple[int, int]]:
        """Monomial keys (a, b) spanning {h : rho(h) <= ell, sigma(h) <= m};
        negative ell or m means forced vanishing at the corresponding point."""
        q = self.q
        keys = []
        for a in range(q + 1):
            # a*q + b*(q+1) <= ell  and  a + b*(q+1) >= -m
            b_hi = (ell - a * q) // (q + 1)
            b_lo = -((m + a) // (q + 1))
            for b in range(b_lo, b_hi + 1):
                keys.append((a, b))
        keys.sort()
        return keys

    def two_point_semigroup(self, box: int | None = None) -> TwoPointSemigroup:
        """Gap pairs of H(Q1, Q2) via the dimension-jump criterion."""
        need = 2 * self.genus
        if box is None:
            box = need + 1
        if box < need:
            raise BoxTooSmall(f"box must cover [0, {need}]^2")

        def dim(a, b):
            return len(self.riemann_roch_basis(a, b))

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

    def good_basis_function(self, i: int) -> "TwoPointFunction":
        """The unique reduced monomial with pole order i at Q1 and minimal
        sigma; a = (-i) mod (q+1), b = (i - a*q) / (q+1)."""
        q = self.q
        a = (-i) % (q + 1)
        b = (i - a * q) // (q + 1)
        assert a * q + b * (q + 1) == i
        return self.monomial(a, b)

    def good_basis_g(self, j: int) -> "TwoPointFunction":
        """The unique reduced monomial with pole order m_j at Q2 and no pole
        at Q1 (m_j = j-th nongap of H(sigma))."""
        m_j = self.sigma_semigroup().nth_nongap(j)
        q = self.q
        a = (-m_j) % (q + 1)
        b = (-m_j - a) // (q + 1)
        f = self.monomial(a, b)
        val = f.valuations()
        assert val.v_zero == -m_j and val.v_inf >= 0
        return f

    def rho_semigroup(self) -> NumericalSemigroup:
        """H(Q1) = <q, q+1>."""
        return ns_from_generators([self.q, self.q + 1])

    def sigma_semigroup(self) -> NumericalSemigroup:
        # Q2 is a rational point of the same curve family; by symmetry of the
        # automorphism group its gap sequence equals the one at infinity.
        return self.rho_semigroup()

    def profile_closed_form(self) -> GoodBasisProfile:
        """sigma-values of the canonical monomial good basis, keyed by the
        gaps of H(Q1)."""
        entries = {}
        for i in sorted(self.rho_semigroup().gaps):
            entries[i] = self.good_basis_function(i).valuations().sigma
        return GoodBasisProfile.from_entries(entries)

    def __repr__(self):
        return f"HermitianCurve(q={self.q}, genus={self.genus}, n_points={len(self.points)})"


class TwoPointFunction:
    """Reduced monomial combination sum c_ab * x^a * y^b, 0 <= a <= q."""

    __slots__ = ("curve", "support")

    def __init__(self, curve: HermitianCurve, support):
        self.curve = curve
        self.support = tuple(sorted(support))  # ((a, b), coeff index), reduced

    @classmethod
    def make(cls, curve: HermitianCurve, raw: dict) -> "TwoPointFunction":
        F, q = curve.field, curve.q
        acc: dict[tuple[int, int], int] = {}
        stack = list(raw.items())
        while stack:
            (a, b), c = stack.pop()
            if c == 0:
                continue
            if a > q:
                # x^(q+1) = y^q + y
                stack.append(((a - q - 1, b + q), c))
                stack.append(((a - q - 1, b + 1), c))
                continue
            key = (a, b)
            acc[key] = F.add(acc.get(key, 0), c)
        return cls(curve, tuple((k, v) for k, v in acc.items() if v != 0))

    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other):
        return isinstance(other, TwoPointFunction) and self.support == other.support

    def __hash__(self):
        return hash(self.support)

    def __add__(self, other: "TwoPointFunction") -> "TwoPointFunction":
        F = self.curve.field
        acc = dict(self.support)
        for key, c in other.support:
            acc[key] = F.add(acc.get(key, 0), c)
        return TwoPointFunction(self.curve, tuple((k, v) for k, v in acc.items() if v != 0))

    def __neg__(self) -> "TwoPointFunction":
        F = self.curve.field
        return TwoPointFunction(self.curve, tuple((k, F.neg(v)) for k, v in self.support))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff: int) -> "TwoPointFunction":
        F = self.curve.field
        if coeff == 0:
            return self.curve.zero_function()
        return TwoPointFunction(self.curve, tuple((k, F.mul(v, coeff)) for k, v in self.support))

    def __mul__(self, other: "TwoPointFunction") -> "TwoPointFunction":
        F = self.curve.field
        raw: dict[tuple[int, int], int] = {}
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.support:
            for (a2, b2), c2 in other.support:
                key = (a1 + a2, b1 + b2)
                raw[key] = F.add(raw.get(key, 0), F.mul(c1, c2))
        return TwoPointFunction.make(self.curve, raw)

    def valuations(self) -> ValuationPair:
        if self.is_zero():
            raise ZeroFunction("the zero function has no valuation")
        curve = self.curve
        vals = [curve.monomial_valuations(a, b) for (a, b), _ in self.support]
        return ValuationPair(min(v.v_inf for v in vals), min(v.v_zero for v in vals))

    def evaluate(self, point: tuple[int, int]) -> int:
        """Value at an affine point, as a field index."""
        F = self.curve.field
        x, y = point
        if y == 0 and any(b < 0 for (_, b), _ in self.support):
            raise PoleAtPoint(f"denominator y vanishes at {point}")
        total = 0
        for (a, b), c in self.support:
            term = F.mul(F.pow(x, a), F.pow(y, b) if b >= 0 else F.pow(F.inv(y), -b))
            total = F.add(total, F.mul(c, term))
        return total

    # -- text form: "c*x^a*y^b" terms joined by "+" ----------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        return "+".join(f"{c}*x^{a}*y^{b}" for (a, b), c in self.support)

    @classmethod
    def parse(cls, curve: HermitianCurve, text: str) -> "TwoPointFunction":
        text = text.strip()
        if text == "0":
            return curve.zero_function()
        raw = {}
        for term in text.split("+"):
            c_part, x_part, y_part = term.strip().split("*")
            c = int(c_part)
            a = int(x_part.split("^")[1])
            b = int(y_part.split("^")[1])
            raw[(a, b)] = curve.field.add(raw.get((a, b), 0), c)
        return cls.make(curve, raw)
