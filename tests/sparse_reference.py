"""Reference sparse algebra of `models`: every sum, multiple and product is
formed as an element and rho is read from it.

`models` forms no element by arithmetic; `add`, `scale`, `neg`, `sub` and
`mul` here are the algebra, and `elements` builds the sample from them, the
full span of the basis monomials or every sum of at most two multiples, as
the oracle of `NWeightModel.elements`.  `SparseRows` gives the values
that `models._WeightRows` reads from packed rows, each from the element it
describes, so it is the oracle of `_WeightRows` and the rows of test models
that define a rho of their own (the `Sparse` mixin), for the axiom checker of
`models` and for the normalization and filtration checks of `filtration`.
`ideal_rho` (by `divisible`) and `normalized_rho` are the ideal rho of
`models` and the normalized rho of `filtration` as defined before those
models became weight models.
"""

from __future__ import annotations

from operator import le, lt

NEG_INF = float("-inf")


def add(model, f, g):
    """f + g: the merge of two key-sorted supports."""
    plus = model.field.add
    out = []
    i = j = 0
    while i < len(f) and j < len(g):
        (kf, cf), (kg, cg) = f[i], g[j]
        if kf < kg:
            out.append(f[i])
            i += 1
        elif kg < kf:
            out.append(g[j])
            j += 1
        else:
            c = plus(cf, cg)
            if c:
                out.append((kf, c))
            i += 1
            j += 1
    return (*out, *f[i:], *g[j:])


def scale(model, lam: int, f):
    if lam == 0:
        return ()
    times = model.field.mul
    return tuple((k, times(lam, c)) for k, c in f)


def neg(model, f):
    return scale(model, model.field.neg(1), f)


def sub(model, f, g):
    return add(model, f, neg(model, g))


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


def elements(model, bound: int) -> list:
    """The sample as `models` built it by arithmetic: the full span of the
    basis monomials when it has at most 2000 elements (the sample cap), else
    every sum of at most two of their multiples."""
    basis = [((k, 1),) for k in model.basis_keys(bound)]
    q = model.field.q
    if q ** len(basis) <= 2000:
        out = [()]
        for mono in basis:
            out += [add(model, f, scale(model, c, mono)) for f in out for c in range(1, q)]
        return sorted(set(out), key=model._order_key)
    out = {()}
    for i, m1 in enumerate(basis):
        for c1 in range(1, q):
            f1 = scale(model, c1, m1)
            out.add(f1)
            for m2 in basis[i + 1 :]:
                for c2 in range(1, q):
                    out.add(add(model, f1, scale(model, c2, m2)))
    return sorted(out, key=model._order_key)


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
        return [self.rho(scale(m, lam, f)) for lam in range(1, m.field.q)]

    def sum_rhos(self, i: int) -> list:
        """rho(e_i + e_j) for j = i, i+1, ..."""
        m, f = self.model, self.elements[i]
        return [self.rho(add(m, f, g)) for g in self.elements[i:]]

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
             if below(self.rho(add(m, f, scale(m, minus, g))), limit)]
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
    """rho of a `filtration.NormalizedModel` from its base model's rho."""
    base = norm.base
    r = base.rho(f)
    if r == NEG_INF:
        return NEG_INF
    if r <= base.rho(base.one()):
        return 0
    return r // norm.divisor
