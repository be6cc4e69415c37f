"""Concrete algebras carrying near-order / near-weight functions, plus
finite-sample axiom and filtration checkers.

Four models are provided: the constant map on a polynomial ring, the
ideal-membership map on a polynomial ring, the Laurent ring F[X,Y]/(XY-1)
graded by the Y-degree, and valuation adapters over a Hermitian curve.

Every model is one sparse monomial algebra.  An element is a tuple of
(monomial key, coefficient index) pairs sorted by key, with no zero
coefficient, and rho(f) is the largest weight over its support
(`NWeightModel.rho`, the only body of rho here).  The keys are degrees in
F[t], exponents of X in the Laurent ring (Y^e is X^-e), and the reduced
exponents (a, b) of x^a y^b on the curve.  A model supplies the hooks:

* `basis_keys(bound)`: the monomials whose span is sampled, ascending, and
  `basis_count(bound)`, their number (the curve counts them unlisted);
* `_from_terms(terms)`: the sampled element with coefficient c on basis key
  k for each (k, c) in `terms`: the pairs themselves, except in the ideal
  model, whose sample spans t^0 ... t^bound in t-coordinates;
* `monomial_product(k1, k2)`: the product of two monomials, as an element
  (the key sum for F[t] and the Laurent ring, the reduced product on the
  curve);
* `weight(key)`: c (constant model), max(0, -k) (Laurent), the pole orders
  of x^a y^b from `HermitianCurve.pole_orders` (curve rho and sigma), and
  phi(base weight) for a `NormalizedModel`;
* `show(f)`: how an element appears in reports: the dense low-to-high
  coefficient tuple in F[t], the pairs in the Laurent ring, and on the
  curve the "c*x^a*y^b" terms joined by "+" ("0" for zero).

`IdealModel` keys F[t] by the basis b_e = t^e (e < deg g), t^(e - deg g)*g,
in which f = Q*g + R has R on the keys below deg g: weight 1 there and 0
above gives rho(f) = 1 iff g does not divide f.

The checkers read rho of sums, multiples and products of sample elements
from `model.rows(elements)`: `_WeightRows`, which reads them from packed
coefficient rows and monomial-product tables with no element built.  A
subclass that overrides `rho` must hand rows of its own (the tests' sparse
reference does); `NWeightModel.rows` refuses it with TypeError.

All verdicts are exhaustive over a bounded, deterministically enumerated
sample; nothing is probabilistic.  The sample comes straight from the n
basis keys: every choice of at most R keys with nonzero coefficients,
through `_from_terms`, sorted by `_order_key`, with R = n (the full span)
when q^n <= 4096 and R = 2 otherwise.  `sample_size` gives its size in
closed form, the sum over r <= R of C(n, r) (q-1)^r, and every checker
refuses a sample above `_SAMPLE_CAP` with SampleTooLarge before building it.
Nothing here forms a sum, multiple or product of elements; the tests'
sparse reference does, as the oracle of the rows and of the sample.

The triple-quantified axioms (N3, O3, N5, no zero divisors) run over the
first element, in sample order, of each scalar class {lam*f}: scaling
changes neither rho(f) nor rho(f*h), so each predicate depends only on the
classes, and the first witness over the whole sample is made of such
elements.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import combinations, product, repeat
from math import comb, gcd
from operator import and_, gt, ne

from .errors import (CoefficientOutOfRange, EmptyLevel, GIsConstant, NegativeRho,
                     SampleTooLarge, TrivialModel)
from .field import Field

NEG_INF = float("-inf")

_FULL_ENUM_LIMIT = 4096
_SAMPLE_CAP = 2000


def _span_rank(q: int, n: int) -> int:
    """The most basis keys an element of the sample is drawn on: all n when
    the full span has q^n <= _FULL_ENUM_LIMIT elements (q >= 2, so no
    longer basis qualifies), else 2."""
    return n if n < _FULL_ENUM_LIMIT.bit_length() and q**n <= _FULL_ENUM_LIMIT else 2


def _bounded_sample(model, bound: int) -> list:
    """model.elements(bound), refused before it is built when it would
    exceed _SAMPLE_CAP."""
    size = model.sample_size(bound)
    if size > _SAMPLE_CAP:
        raise SampleTooLarge(f"sample has {size} elements (> {_SAMPLE_CAP})")
    return model.elements(bound)


def _require_nonnegative(model, sample, rhos):
    """Refuse a nonzero element with rho < 0: the levels and the divisor start at 0."""
    for f, r in zip(sample, rhos):
        if r < 0 and not model.is_zero(f):
            raise NegativeRho(f"rho({model.show(f)}) = {r} < 0")


# ---------------------------------------------------------------------------
# the algebra


class NWeightModel:
    """An F-algebra with a value map rho, as a sparse monomial algebra.

    Concrete models define the hooks `basis_keys`, `monomial_product`,
    `weight` and `show`, the key `unit_key` of the monomial 1, and
    `_order_key`, the sort key of the sample.  This class defines none of
    them, so that `NormalizedModel` finds its base model's."""

    name: str
    field: Field

    def __init__(self, field: Field):
        self.field = field

    def zero(self):
        return ()

    def one(self):
        return ((self.unit_key, 1),)

    def rho(self, f):
        """The largest `weight` over the support of f."""
        if not f:
            return NEG_INF
        return max(map(self.weight, [k for k, _ in f]))

    def _weighs(self) -> bool:
        """Whether rho is `NWeightModel.rho`, the largest weight."""
        return type(self).rho is NWeightModel.rho

    def rows(self, elements) -> _WeightRows:
        """rho of sums, multiples and products of `elements`, for the
        checkers.  A model whose rho is not the largest weight must hand
        rows of its own."""
        if not self._weighs():
            raise TypeError(f"{type(self).__name__} defines its own rho but no rows")
        return _WeightRows(self, elements)

    def is_zero(self, f) -> bool:
        return not f

    def in_unit_part(self, f) -> bool:
        return self.rho(f) <= self.rho(self.one())

    def in_m_part(self, f) -> bool:
        return self.rho(f) > self.rho(self.one())

    def basis_count(self, bound: int) -> int:
        """len(basis_keys(bound)); a model that can count its basis without
        listing it overrides this."""
        return len(self.basis_keys(bound))

    def sample_size(self, bound: int) -> int:
        """len(elements(bound)), from the closed form, with nothing built."""
        q = self.field.q
        try:
            n = self.basis_count(bound)
        except OverflowError:  # a range longer than sys.maxsize
            raise SampleTooLarge(f"basis of bound {bound} has more than sys.maxsize keys")
        return sum(comb(n, r) * (q - 1) ** r for r in range(_span_rank(q, n) + 1))

    def elements(self, bound: int) -> list:
        """Sample: every choice of at most `_span_rank` basis keys with
        nonzero coefficients, through `_from_terms`."""
        keys = self.basis_keys(bound)
        units = range(1, self.field.q)
        out = [self._from_terms(tuple(zip(chosen, coeffs)))
               for r in range(_span_rank(self.field.q, len(keys)) + 1)
               for chosen in combinations(keys, r)
               for coeffs in product(units, repeat=r)]
        return sorted(out, key=self._order_key)

    def _from_terms(self, terms):
        """The element with coefficient c on basis key k for (k, c) in
        `terms`: the pairs themselves."""
        return terms

    def describe(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# F[t] and the Laurent ring: keys are integer exponents


class _ExponentAlgebra(NWeightModel):
    unit_key = 0

    def monomial_product(self, e1: int, e2: int):
        return ((e1 + e2, 1),)

    def show(self, f):
        return f

    def _order_key(self, f):
        return repr(self.show(f))


class _PolynomialAlgebra(_ExponentAlgebra):
    """F[t]; reports show the dense low-to-high coefficient tuple."""

    def basis_keys(self, bound: int):
        return range(bound + 1)

    def show(self, f):
        dense = [0] * (f[-1][0] + 1) if f else []
        for d, c in f:
            dense[d] = c
        return tuple(dense)


class ConstantModel(_PolynomialAlgebra):
    """rho(f) = c for every nonzero f; the trivial n-order of a constant map."""

    def __init__(self, field: Field, c: int):
        super().__init__(field)
        self.c = c
        self.name = f"constant(c={c})"

    def weight(self, key):
        return self.c


class IdealModel(_PolynomialAlgebra):
    """rho(f) = 0 on the nonzero multiples of a fixed nonconstant g, else 1.
    g is the dense low-to-high coefficient list.

    Elements are in the basis b_e = t^e (e < d), t^(e-d) * g (e >= d) of
    F[t], d = deg g, not in t-coordinates (for g = t^d the two agree): key
    e has weight 1 below d and 0 from d up."""

    def __init__(self, field: Field, g):
        super().__init__(field)
        g = tuple(g)
        bad = [c for c in g if not (isinstance(c, int) and 0 <= c < field.q)]
        if bad:
            raise CoefficientOutOfRange(f"coefficients of g must lie in [0, {field.q}), got {bad}")
        while g and g[-1] == 0:
            g = g[:-1]
        if len(g) < 2:
            raise GIsConstant("g must have degree >= 1")
        self.g = g
        self.d = len(g) - 1
        self.name = f"ideal(g={list(g)})"

    def weight(self, key):
        return 1 if key < self.d else 0

    def _from_t(self, dense) -> tuple:
        """The element with dense t-coefficients `dense`: divided by g, the
        remainder on the keys below d, the quotient's t^k on key d + k."""
        F, g, d = self.field, self.g, self.d
        rem = list(dense)
        quo = [0] * max(0, len(rem) - d)
        lead_inv = F.inv(g[-1])
        for k in reversed(range(len(quo))):
            c = quo[k] = F.mul(rem[k + d], lead_inv)
            for i, gi in enumerate(g):
                rem[k + i] = F.sub(rem[k + i], F.mul(c, gi))
        return (*((e, c) for e, c in enumerate(rem[:d]) if c),
                *((d + k, c) for k, c in enumerate(quo) if c))

    def _from_terms(self, terms):
        # the sample spans t^0 ... t^bound: `terms` are t-coefficients
        return self._from_t(super().show(terms))

    def monomial_product(self, e1: int, e2: int):
        # b_e1 * b_e2 = t^s * g^n: below d when n = 0, else t^s * g^(n-1) times g
        d, g = self.d, self.g
        n = (e1 >= d) + (e2 >= d)
        s = e1 + e2 - n * d
        if n == 0:
            return self._from_t([0] * s + [1])
        return tuple((d + s + i, c) for i, c in enumerate((1,) if n == 1 else g) if c)

    def show(self, f):
        # b_e has t-degree e, so the top key fixes the length
        F, g, d = self.field, self.g, self.d
        dense = [0] * (f[-1][0] + 1) if f else []
        for e, c in f:
            poly, shift = ((1,), e) if e < d else (g, e - d)
            for i, gi in enumerate(poly, shift):
                dense[i] = F.add(dense[i], F.mul(c, gi))
        return tuple(dense)


class LaurentModel(_ExponentAlgebra):
    """F[X,Y]/(XY-1) = F[X, X^-1]; rho is the Y-degree, the negated lowest
    X-exponent when that is negative, else 0."""

    def __init__(self, field: Field):
        super().__init__(field)
        self.name = "laurent"

    def basis_keys(self, bound: int):
        return range(-bound, bound + 1)

    def weight(self, key):
        return -key if key < 0 else 0


# ---------------------------------------------------------------------------
# curve adapters: keys are the reduced exponents (a, b) of x^a y^b


class CurveValuationModel(NWeightModel):
    """rho (pole order at infinity) or sigma (pole order at the origin) on the
    coordinate ring of a HermitianCurve `curve` (not imported here, so that
    the other models load without it); sample drawn from R_bound^bound."""

    unit_key = (0, 0)

    def __init__(self, curve, which: str):
        if which not in ("rho", "sigma"):
            raise ValueError("which must be 'rho' or 'sigma'")
        super().__init__(curve.field)
        self.curve = curve
        self.which = which
        self.name = f"curve(q={curve.q}, {which})"

    def basis_keys(self, bound: int):
        return self.curve.riemann_roch_basis(bound, bound)

    def basis_count(self, bound: int) -> int:
        return self.curve.riemann_roch_dimension(bound, bound)

    def monomial_product(self, k1, k2):
        return self.curve.reduce({(k1[0] + k2[0], k1[1] + k2[1]): 1})

    def weight(self, key):
        rho, sigma = self.curve.pole_orders(key)
        return rho if self.which == "rho" else sigma

    def show(self, f):
        if not f:
            return "0"
        return "+".join(f"{c}*x^{a}*y^{b}" for (a, b), c in f)

    def _order_key(self, f):
        return repr(f)


def model_laurent(field: Field) -> LaurentModel:
    # kept because perfbench/inproc.py calls it
    return LaurentModel(field)


# ---------------------------------------------------------------------------
# rho of sums, multiples and products of sample elements


class _WeightRows:
    """rho of sums, multiples and products of `elements`, read through the
    model's `weight` with no element built.

    Slots are the support keys in ascending weight.  Each lam*e_j is packed
    into one int, `bits` bits per slot.  Two packed rows first differ, from
    the top, in the heaviest slot where the elements differ, so rho(e_i -
    lam*e_j) is the weight of the slot holding the top bit of P[e_i] ^
    P[lam*e_j], and it is < limit iff the rows agree above the slots of
    weight < limit.  rho(e_i * e_j) is the weight of the heaviest output key
    whose coefficient, the sum of c * e_i[s1] * e_j[s2] over the key's
    contributions (s1, s2, c) from `monomial_product`, is nonzero."""

    def __init__(self, model: NWeightModel, elements):
        F, weight = model.field, model.weight
        keys = sorted({k for f in elements for k, _ in f}, key=lambda k: (weight(k), k))
        slot = {k: s for s, k in enumerate(keys)}
        self.field, self.weights = F, [weight(k) for k in keys]
        self.bits = bits = (F.q - 1).bit_length()
        # the weight of the slot holding bit L-1, for a packed row of bit length L
        self.top_weight = [NEG_INF] + [w for w in self.weights for _ in range(bits)]
        self.dense = [[0] * len(keys) for _ in elements]  # e_i's coefficient per slot
        for row, f in zip(self.dense, elements):
            for k, c in f:
                row[slot[k]] = c
        self.packed = [None] + [
            [sum(F.mul(lam, c) << bits * s for s, c in enumerate(row) if c) for row in self.dense]
            for lam in range(1, F.q)
        ]
        self.rhos = [self.top_weight[p.bit_length()] for p in self.packed[1]]
        self.tops: dict = {}  # cut -> j -> {lam*e_j above the cut: (lam, ...)}
        contributions: dict = {}
        for s1, k1 in enumerate(keys):
            for s2, k2 in enumerate(keys):
                for k, c in model.monomial_product(k1, k2):
                    contributions.setdefault(k, []).append((s1, s2, c))
        heaviest = sorted(contributions, key=lambda k: (-weight(k), k))
        self.levels = [(weight(k), contributions[k]) for k in heaviest]

    def scaled_rhos(self, i: int) -> list:
        top = self.top_weight
        return [top[row[i].bit_length()] for row in self.packed[1:]]

    def sum_rhos(self, i: int) -> list:
        top, p = self.top_weight, self.packed[1][i]
        return [top[(p ^ x).bit_length()] for x in self.packed[self.field.neg(1)][i:]]

    def lambdas(self, i: int, js, limit, strict: bool) -> list:
        if strict and limit == NEG_INF:
            return [()] * len(js)
        cut = self.bits * (bisect_left if strict else bisect_right)(self.weights, limit)
        tables = self.tops.setdefault(cut, {})
        for j in js:
            if j not in tables:
                table = tables[j] = {}
                for lam in range(1, self.field.q):
                    top = self.packed[lam][j] >> cut
                    table[top] = table.get(top, ()) + (lam,)
        mine = self.packed[1][i] >> cut
        return [tables[j].get(mine, ()) for j in js]

    def product_rhos(self, i: int, js) -> list:
        add, mul = self.field.add, self.field.mul
        f = {s: c for s, c in enumerate(self.dense[i]) if c}
        plan = []  # (weight, [(s2, c * e_i[s1])]) per output key that e_i reaches
        for w, contributions in self.levels:
            terms = [(s2, mul(c, f[s1])) for s1, s2, c in contributions if s1 in f]
            if terms:
                plan.append((w, terms))
        out = []
        for j in js:
            g, r = self.dense[j], NEG_INF
            for w, terms in plan:
                total = 0
                for s2, a in terms:
                    if g[s2]:
                        total = add(total, mul(a, g[s2]))
                if total:
                    r = w
                    break
            out.append(r)
        return out


# ---------------------------------------------------------------------------
# axiom checking

_ELEMENT_KEYS = ("f", "g", "h")


class AxiomReport:
    """Verdicts and witnesses; witness elements are stored as `show` gives
    them."""

    def __init__(self, model_name: str, bound: int, sample_size: int, show):
        self.model_name = model_name
        self.bound = bound
        self.sample_size = sample_size
        self.show = show
        self.entries: dict[str, dict] = {}

    def record(self, axiom: str, ok: bool, witness=None):
        entry = {"axiom": axiom, "verdict": "PASS" if ok else "FAIL"}
        if not ok:
            entry["witness"] = {
                k: self.show(v) if k in _ELEMENT_KEYS else v for k, v in witness.items()
            }
        self.entries[axiom] = entry

    def passed(self, axiom: str) -> bool:
        return self.entries[axiom]["verdict"] == "PASS"

    def all_near_order_pass(self) -> bool:
        return all(self.passed(a) for a in ("N0", "N1", "N2", "N3", "N4"))

    def all_near_weight_pass(self) -> bool:
        return self.all_near_order_pass() and self.passed("N5")

    def order_axioms_pass(self) -> bool:
        return all(self.passed(a) for a in ("O3", "O4"))

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "bound": self.bound,
            "sample_size": self.sample_size,
            "results": [self.entries[k] for k in sorted(self.entries)],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, default=str)


def _class_firsts(model: NWeightModel, sample) -> list[int]:
    """The sample index of the first element of each scalar class {lam*f},
    ascending.  A class is named by its member with coefficient 1 on the
    lowest key."""
    inv, mul = model.field.inv, model.field.mul
    firsts: dict = {}
    for i, f in enumerate(sample):
        a = inv(f[0][1]) if f else 0
        firsts.setdefault(tuple((k, mul(a, c)) for k, c in f), i)
    return list(firsts.values())


def _first_violation(rrhos, prodrho, strict, weak: bool):
    """First (i, g, h) in index order with rrhos[i] < rrhos[g] and
    prodrho[i][h] >= prodrho[g][h] where strict[h], or (if weak) >
    elsewhere; None if there is none.

    Each row is compared with the column minima over the rows of higher
    rho, built once per rho level, so the scan is O(n^2).  Only the first
    failing row is walked pair by pair for its witness."""
    n = len(rrhos)
    levels: dict[float, list[int]] = {}
    for i, r in enumerate(rrhos):
        levels.setdefault(r, []).append(i)
    above = {}  # rho level -> column minima over the rows above it
    col_min = None
    for r in sorted(levels, reverse=True):
        above[r] = col_min
        for i in levels[r]:
            col_min = prodrho[i] if col_min is None else list(map(min, col_min, prodrho[i]))

    def bad(p, other, s):
        return p >= other if s else weak and p > other

    for i in range(n):
        col_min = above[rrhos[i]]
        row = prodrho[i]
        if col_min is None or not any(map(bad, row, col_min, strict)):
            continue
        for g in range(n):
            if rrhos[g] > rrhos[i]:
                for h, hit in enumerate(map(bad, row, prodrho[g], strict)):
                    if hit:
                        return i, g, h
    return None


def axiom_check(model: NWeightModel, bound: int) -> AxiomReport:
    """Exhaustively check (N0)-(N5), the order axioms (O3)/(O4), and the
    companion lemmas over the bounded sample."""
    sample = _bounded_sample(model, bound)
    report = AxiomReport(model.describe(), bound, len(sample), model.show)
    F = model.field
    units = [c for c in range(1, F.q)]
    rho1 = model.rho(model.one())
    zero = model.zero()
    rows = model.rows(sample)

    rhos = [float(r) for r in rows.rhos]

    # N0: rho(f) = -inf iff f = 0
    bad = next(
        (f for f, r in zip(sample, rhos) if (r == NEG_INF) != model.is_zero(f)), None
    )
    report.record("N0", bad is None, witness={"f": bad})

    # N1: scalar invariance
    witness = None
    for i, (f, r) in enumerate(zip(sample, rhos)):
        lam = next((lam for lam, rs in zip(units, rows.scaled_rhos(i)) if rs != r), None)
        if lam is not None:
            witness = {"f": f, "lambda": lam}
            break
    report.record("N1", witness is None, witness)

    # N2 + Lemma 3.13(3): subadditivity of max, equality on distinct values;
    # each row (f_i + f_j for j >= i) is flagged whole, and the first flagged
    # j is the witness
    n2_witness = max_witness = None
    for i, f in enumerate(sample):
        rf, rgs, sums = rhos[i], rhos[i:], rows.sum_rhos(i)
        his = [rf if rf > rg else rg for rg in rgs]
        over = list(map(gt, sums, his))
        if n2_witness is None and True in over:
            j = over.index(True)
            n2_witness = {"f": f, "g": sample[i + j], "rho(f+g)": sums[j]}
        off = list(map(and_, map(ne, rgs, repeat(rf)), map(ne, sums, his)))
        if max_witness is None and True in off:
            j = off.index(True)
            max_witness = {"f": f, "g": sample[i + j], "rho(f+g)": sums[j]}
        if n2_witness and max_witness:
            break
    report.record("N2", n2_witness is None, n2_witness)
    report.record("lemma_max_rule", max_witness is None, max_witness)

    # product-value matrix of the scalar-class representatives (as sample
    # indices) for the triple-quantified axioms
    idx = _class_firsts(model, sample)
    reps = [sample[i] for i in idx]
    rrhos = [rhos[i] for i in idx]
    nrep = len(reps)
    prodrho = [[0.0] * nrep for _ in range(nrep)]
    for a, i in enumerate(idx):
        row = prodrho[a]
        for b, r in enumerate(rows.product_rhos(i, idx[a:]), a):
            row[b] = prodrho[b][a] = float(r)
    m_mask = [r > rho1 for r in rrhos]
    nonzero_mask = [r > NEG_INF for r in rrhos]

    # N3: rho(f) < rho(g) implies rho(fh) <= rho(gh), strict for h in M
    # O3: rho(f) < rho(g), h != 0 implies strict inequality
    for axiom, strict, weak in (("N3", m_mask, True), ("O3", nonzero_mask, False)):
        hit = _first_violation(rrhos, prodrho, strict, weak)
        witness = hit and {"f": reps[hit[0]], "g": reps[hit[1]], "h": reps[hit[2]]}
        report.record(axiom, hit is None, witness)

    # N4 (+ uniqueness of lambda) on M-pairs, O4 on all equal-rho pairs:
    # the lam with rho(f - lam*g) < rho(f) = rho(g)
    n4_witness = unique_witness = o4_witness = None
    by_rho: dict[float, list] = {}
    for i, r in enumerate(rhos):
        if r > NEG_INF:
            by_rho.setdefault(r, []).append(i)
    for r, group in sorted(by_rho.items()):
        in_m = r > rho1
        for a, i in enumerate(group):
            rest = group[a + 1 :]
            for j, lams in zip(rest, rows.lambdas(i, rest, r, strict=True)):
                if len(lams) == 1:  # the axioms hold for this pair
                    continue
                f, g = sample[i], sample[j]
                if in_m:
                    if not lams and n4_witness is None:
                        n4_witness = {"f": f, "g": g, "rho": r}
                    if len(lams) > 1 and unique_witness is None:
                        unique_witness = {"f": f, "g": g, "lambdas": list(lams)}
                if not lams and o4_witness is None:
                    o4_witness = {"f": f, "g": g, "rho": r}
    report.record("N4", n4_witness is None, n4_witness)
    report.record("lemma_lambda_unique", unique_witness is None, unique_witness)
    report.record("O4", o4_witness is None, o4_witness)

    # N5: rho(fg) <= rho(f) + rho(g); equality on M x M
    n5_witness = None
    nz = [i for i in range(nrep) if nonzero_mask[i]]
    for i in nz:
        for j in nz:
            p, s = prodrho[i][j], rrhos[i] + rrhos[j]
            if p > s or (m_mask[i] and m_mask[j] and p != s):
                n5_witness = {"f": reps[i], "g": reps[j], "rho(fg)": p, "rho(f)+rho(g)": s}
                break
        if n5_witness:
            break
    report.record("N5", n5_witness is None, n5_witness)

    # Lemma 3.12: M contains no zero divisors
    zd_witness = next(
        (
            {"f": reps[i], "g": reps[j]}
            for i in range(nrep)
            if m_mask[i]
            for j in nz
            if prodrho[i][j] == NEG_INF
        ),
        None,
    )
    report.record("lemma_no_zero_divisors", zd_witness is None, zd_witness)

    # Lemma 3.11 classification: U cap sample = F  iff  O0-O4 pass
    u_sample = [f for f, r in zip(sample, rhos) if r <= rho1]
    constants = {zero} | {((model.unit_key, lam),) for lam in units}
    u_is_field = set(u_sample) == constants
    orders_ok = report.order_axioms_pass()
    report.record(
        "order_classification",
        u_is_field == orders_ok,
        witness={"U_equals_F": u_is_field, "order_axioms_pass": orders_ok},
    )
    report.entries["order_classification"]["U_equals_F"] = u_is_field
    report.entries["order_classification"]["is_order"] = u_is_field and orders_ok

    return report


# ---------------------------------------------------------------------------
# normalization


class NormalizedModel(NWeightModel):
    """Same algebra, rho divided by the sampled gcd on M and clamped to 0
    on U.  The gcd is taken over the finite sample only.  The weight is
    phi(base weight), phi(r) = 0 for r <= rho_base(1) and r // divisor
    above; phi is monotone, so rho is phi(rho_base).  Everything but the
    weight and the name (the field, the other hooks, the sample) is the base
    model's."""

    def __init__(self, base: NWeightModel, divisor: int):
        self.base = base
        self.divisor = divisor
        self.unit_rho = base.rho(base.one())
        self.name = f"normalized({base.describe()}, d={divisor})"

    def __getattr__(self, attr):
        return getattr(self.base, attr)

    def weight(self, key):
        r = self.base.weight(key)
        return 0 if r <= self.unit_rho else r // self.divisor

    def _weighs(self) -> bool:
        return self.base._weighs()

    def _from_terms(self, terms):
        return self.base._from_terms(terms)

    def basis_count(self, bound: int) -> int:
        return self.base.basis_count(bound)


def normalize(model: NWeightModel, bound: int) -> NormalizedModel:
    sample = _bounded_sample(model, bound)
    rho1, rhos = model.rho(model.one()), model.rows(sample).rhos
    _require_nonnegative(model, sample, rhos)
    m_values = [int(r) for f, r in zip(sample, rhos) if not model.is_zero(f) and r > rho1]
    if not m_values:
        raise TrivialModel("no non-unit elements in the sample")
    d = 0
    for v in m_values:
        d = gcd(d, v)
    return NormalizedModel(model, d)


# ---------------------------------------------------------------------------
# filtration checks (subspace chain seen through sampled representatives)


def filtration_check(model: NWeightModel, bound: int) -> dict:
    sample = _bounded_sample(model, bound)
    rows = model.rows(sample)
    rhos, rho1 = rows.rhos, model.rho(model.one())
    _require_nonnegative(model, sample, rhos)
    nonzero = [i for i, f in enumerate(sample) if not model.is_zero(f)]
    if not any(rhos[i] > rho1 for i in nonzero):
        raise TrivialModel("no non-unit elements in the sample")
    values = sorted({int(rhos[i]) for i in nonzero})
    if values[0] != 0:
        values.insert(0, 0)

    reps = []  # per level, the sample index of its first nonzero element
    for v in values:
        rep = next((i for i in nonzero if rhos[i] == v), None)
        if rep is None:  # level 0 is inserted even when no element reaches it
            raise EmptyLevel(f"no sampled element has rho = {v}")
        reps.append(rep)

    failures = []
    skipped = 0

    # one-step growth: each new level is one-dimensional over the previous:
    # exactly one lam with rho(f - lam*g) <= the previous level
    for i in range(len(values) - 1):
        level = [j for j, r in enumerate(rhos) if r == values[i + 1]]
        for a, j in enumerate(level):
            rest = level[a + 1 :]
            for k, lams in zip(rest, rows.lambdas(j, rest, values[i], strict=False)):
                if len(lams) != 1:
                    failures.append(
                        {"check": "one_step_growth", "f": model.show(sample[j]),
                         "g": model.show(sample[k]), "lambdas": list(lams)}
                    )

    # l(i, j) monotonicity and the n-weight product rule, via representatives
    max_v = values[-1]
    is_weight = True  # checked below through the product rule

    def levels(i, js):
        """The level of rho(e_i * e_j) for j in js; None where it is -inf,
        above the top level or no level."""
        return [values.index(int(r)) if r != NEG_INF and r <= max_v and int(r) in values
                else None for r in rows.product_rhos(i, js)]

    ell = [levels(i, reps) for i in reps]  # ell[i][j]: the level of f_i * f_j
    n = len(values)
    for j in range(1, n):
        for i in range(n - 1):
            a, b = ell[i][j], ell[i + 1][j]
            if a is None or b is None:
                skipped += 1
                continue
            if not a < b:
                failures.append({"check": "l_strict_growth", "i": i, "j": j, "l": (a, b)})
    # j = 0: lower estimate over sampled unit-part elements
    units = [i for i in nonzero if rhos[i] <= rho1]
    est = [max((l for l in levels(i, units) if l is not None), default=None) for i in reps]
    for i in range(n - 1):
        a, b = est[i], est[i + 1]
        if a is None or b is None:
            skipped += 1
        elif not a <= b:
            failures.append({"check": "l_weak_growth_j0", "i": i, "l": (a, b)})

    for i in range(1, n):
        for j in range(1, n):
            if values[i] + values[j] > max_v:
                skipped += 1
                continue
            lij = ell[i][j]
            if lij is None:
                skipped += 1
                continue
            if values[lij] != values[i] + values[j]:
                failures.append(
                    {"check": "weight_product_rule", "i": i, "j": j, "rho": values[lij]}
                )
                is_weight = False

    return {
        "model": model.describe(),
        "bound": bound,
        "levels": len(values),
        "verdict": "PASS" if not failures else "FAIL",
        "failures": failures,
        "skipped": skipped,
        "weight_product_rule": is_weight,
    }
