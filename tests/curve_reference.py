"""Reference arithmetic on Hermitian-curve functions regular outside
{Q1, Q2}: the `TwoPointFunction` payload type that preceded the key-sorted
supports of `models.CurveValuationModel`.

It reduces, adds, multiplies, takes valuations and evaluates at points on
its own, so the curve algebra, `HermitianCurve.monomial_product`,
`HermitianCurve.pole_orders` and the point images of the code layer are
tested against it.  `dimension_jump_semigroup` builds the two-point
semigroup from Riemann-Roch dimensions alone, the oracle of the gap pairs
that `HermitianCurve.two_point_semigroup` reads off the profile.

For a monomial x^a y^b:  v_inf = -(a*q + b*(q+1)),  v_0 = a + b*(q+1).
"""

from __future__ import annotations

from dataclasses import dataclass

from nordcodes.semigroup import TwoPointSemigroup, ns_from_generators


class ZeroFunction(ValueError):
    pass


class PoleAtPoint(ValueError):
    pass


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


def monomial_valuations(curve, a: int, b: int) -> ValuationPair:
    q = curve.q
    return ValuationPair(-(a * q + b * (q + 1)), a + b * (q + 1))


def good_basis_g(curve, j: int) -> tuple[int, int]:
    """The key of the unique reduced monomial with pole order m_j at Q2 and
    no pole at Q1, m_j the j-th nongap (0-indexed) of H(Q2).  Q2 is a
    rational point of the same curve family, so H(Q2) = H(Q1) = <q, q+1>."""
    q = curve.q
    gaps = ns_from_generators([q, q + 1]).gaps
    m_j = [n for n in range(j + len(gaps) + 1) if n not in gaps][j]
    a = (-m_j) % (q + 1)
    b = (-m_j - a) // (q + 1)
    assert curve.pole_orders((a, b)) == (0, m_j)
    return a, b


def dimension_jump_semigroup(curve) -> TwoPointSemigroup:
    """Gap pairs of H(Q1, Q2) by the dimension-jump criterion: (alpha, beta)
    is a gap iff l(alpha, beta) equals l(alpha - 1, beta) or l(alpha,
    beta - 1).  The box [0, 2*genus + 1]^2 holds every gap pair."""
    box = 2 * curve.genus + 1
    dim = curve.riemann_roch_dimension
    gaps = set()
    for alpha in range(box + 1):
        for beta in range(box + 1):
            if (alpha, beta) == (0, 0):
                continue
            d = dim(alpha, beta)
            if d <= dim(alpha - 1, beta) or d <= dim(alpha, beta - 1):
                gaps.add((alpha, beta))
    return TwoPointSemigroup(frozenset(gaps))


def function(curve, support: dict) -> "TwoPointFunction":
    return TwoPointFunction.make(curve, support)


def zero(curve) -> "TwoPointFunction":
    return TwoPointFunction(curve, ())


def one(curve) -> "TwoPointFunction":
    return TwoPointFunction(curve, (((0, 0), 1),))


def monomial(curve, a: int, b: int, coeff: int = 1) -> "TwoPointFunction":
    return TwoPointFunction.make(curve, {(a, b): coeff})


class TwoPointFunction:
    """Reduced monomial combination sum c_ab * x^a * y^b, 0 <= a <= q."""

    __slots__ = ("curve", "support")

    def __init__(self, curve, support):
        self.curve = curve
        self.support = tuple(sorted(support))  # ((a, b), coeff index), reduced

    @classmethod
    def make(cls, curve, raw: dict) -> "TwoPointFunction":
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
            return zero(self.curve)
        return TwoPointFunction(self.curve, tuple((k, F.mul(v, coeff)) for k, v in self.support))

    def __mul__(self, other: "TwoPointFunction") -> "TwoPointFunction":
        F = self.curve.field
        raw: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.support:
            for (a2, b2), c2 in other.support:
                key = (a1 + a2, b1 + b2)
                raw[key] = F.add(raw.get(key, 0), F.mul(c1, c2))
        return TwoPointFunction.make(self.curve, raw)

    def valuations(self) -> ValuationPair:
        if self.is_zero():
            raise ZeroFunction("the zero function has no valuation")
        vals = [monomial_valuations(self.curve, a, b) for (a, b), _ in self.support]
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

    # text form: "c*x^a*y^b" terms joined by "+"
    def __str__(self):
        if self.is_zero():
            return "0"
        return "+".join(f"{c}*x^{a}*y^{b}" for (a, b), c in self.support)
