"""Reference sparse algebra of `models`: every sum, multiple and product is
formed as an element and rho is read from it.

`NWeightModel` keeps only `add` and `scale`, which build the sample; `neg`,
`sub` and `mul` here complete the algebra.  `SparseRows` gives the values
that `models._WeightRows` reads from packed rows, each from the element it
describes, so it is the oracle of `_WeightRows` and the rows of test models
that define a rho of their own (the `Sparse` mixin).  `ideal_rho` (by
`divisible`) and `normalized_rho` are the ideal and normalized rho as
defined before those models became weight models.
"""

from __future__ import annotations

from operator import le, lt

NEG_INF = float("-inf")


def neg(model, f):
    return model.scale(model.field.neg(1), f)


def sub(model, f, g):
    return model.add(f, neg(model, g))


def mul(model, f, g, products=None):
    """f * g in the model's algebra; `products` caches `monomial_product`
    per key pair."""
    F = model.field
    products = {} if products is None else products
    acc: dict = {}
    for k1, c1 in f:
        for k2, c2 in g:
            prod = products.get((k1, k2))
            if prod is None:
                prod = products[(k1, k2)] = model.monomial_product(k1, k2)
            c = F.mul(c1, c2)
            for k, m in prod:
                term = F.mul(c, m)
                acc[k] = F.add(acc[k], term) if k in acc else term
    return tuple(sorted(kc for kc in acc.items() if kc[1]))


class SparseRows:
    """rho of sums, multiples and products of `elements`, each formed in the
    sparse algebra and measured by `model.rho`."""

    def __init__(self, model, elements):
        self.model, self.elements = model, elements
        self.rho = model.rho
        self.products: dict = {}
        self.rhos = [self.rho(f) for f in elements]

    def scaled_rhos(self, i: int) -> list:
        """rho(lam * e_i) for lam = 1, ..., q-1."""
        m, f = self.model, self.elements[i]
        return [self.rho(m.scale(lam, f)) for lam in range(1, m.field.q)]

    def sum_rhos(self, i: int) -> list:
        """rho(e_i + e_j) for j = i, i+1, ..."""
        m, f = self.model, self.elements[i]
        return [self.rho(m.add(f, g)) for g in self.elements[i:]]

    def product_rhos(self, i: int, js) -> list:
        """rho(e_i * e_j) for j in js."""
        m, f, el = self.model, self.elements[i], self.elements
        return [self.rho(mul(m, f, el[j], self.products)) for j in js]

    def lambdas(self, i: int, js, limit, strict: bool) -> list:
        """For each j in js, the lam in 1..q-1, ascending, with rho(e_i -
        lam*e_j) < limit (strict) or <= limit; e_i - lam*e_j is formed as
        e_i + (-lam)*e_j."""
        m, f = self.model, self.elements[i]
        below = lt if strict else le
        neg_units = [(lam, m.field.neg(lam)) for lam in range(1, m.field.q)]
        return [
            [lam for lam, minus in neg_units
             if below(self.rho(m.add(f, m.scale(minus, g))), limit)]
            for g in [self.elements[j] for j in js]
        ]


class Sparse:
    """Mixin for a model subclass with a rho of its own: the checkers read
    it through `SparseRows`."""

    def rows(self, elements):
        return SparseRows(self, elements)


def sparse(cls):
    """cls, handing `SparseRows` to the checkers."""
    return type(f"Sparse{cls.__name__}", (Sparse, cls), {})


def divisible(F, dense, g) -> bool:
    """Whether g divides the polynomial with dense low-to-high coefficients
    `dense`, by long division."""
    rem = list(dense)
    lead_inv = F.inv(g[-1])
    while len(rem) >= len(g):
        if rem[-1] == 0:
            rem.pop()
            continue
        factor = F.mul(rem[-1], lead_inv)
        shift = len(rem) - len(g)
        for i, ci in enumerate(g):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(factor, ci))
        rem.pop()
    return not any(rem)


def ideal_rho(model, f):
    """rho of `models.IdealModel` from divisibility of `show(f)` by g."""
    if not f:
        return NEG_INF
    return 0 if divisible(model.field, model.show(f), model.g) else 1


def normalized_rho(norm, f):
    """rho of a `models.NormalizedModel` from its base model's rho."""
    base = norm.base
    r = base.rho(f)
    if r == NEG_INF:
        return NEG_INF
    if r <= base.rho(base.one()):
        return 0
    return r // norm.divisor
