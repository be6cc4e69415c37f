"""Finite-sample checks of the normalization and the filtration of a model
of `models`, on its bounded sample and rows.  No command runs them, so they
live apart from `models`, which every `axioms` job loads; this module
imports `models`, never the other way round.
"""

from __future__ import annotations

from math import gcd

from .errors import EmptyLevel, NegativeRho, TrivialModel
from .models import NWeightModel, _bounded_sample, _by_rho


def _checked_rows(model: NWeightModel, bound: int):
    """(sample, rows, rho(1)) for the bounded sample, once no nonzero element
    has rho < 0 (the levels and the divisor start at 0) and some has
    rho > rho(1)."""
    sample = _bounded_sample(model, bound)
    rows = model.rows(sample)
    rho1 = model.rho(model.one())
    for f, r in zip(sample, rows.rhos):
        if r < 0 and f:
            raise NegativeRho(f"rho({model.show(f)}) = {r} < 0")
    if not any(r > rho1 and f for f, r in zip(sample, rows.rhos)):
        raise TrivialModel("no non-unit elements in the sample")
    return sample, rows, rho1


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
        self.name = f"normalized({base.name}, d={divisor})"

    def __getattr__(self, attr):
        return getattr(self.base, attr)

    def weight(self, key):
        r = self.base.weight(key)
        return 0 if r <= self.unit_rho else r // self.divisor

    def _weighs(self) -> bool:
        return self.base._weighs()

    def basis_count(self, bound: int) -> int:
        return self.base.basis_count(bound)


def normalize(model: NWeightModel, bound: int) -> NormalizedModel:
    sample, rows, rho1 = _checked_rows(model, bound)
    d = 0
    for f, r in zip(sample, rows.rhos):
        if f and r > rho1:
            d = gcd(d, r)
    return NormalizedModel(model, d)


def filtration_check(model: NWeightModel, bound: int) -> dict:
    """The subspace chain of the levels of rho, seen through sampled representatives."""
    sample, rows, rho1 = _checked_rows(model, bound)
    rhos = rows.rhos
    nonzero = [i for i, f in enumerate(sample) if f]
    by_rho = _by_rho((i, rhos[i]) for i in nonzero)  # no rho < 0: level 0 is the lowest
    if 0 not in by_rho:
        raise EmptyLevel("no sampled element has rho = 0")
    values = list(by_rho)
    reps = [group[0] for group in by_rho.values()]  # per level, its first element

    failures = []
    skipped = 0

    # one-step growth: each new level is one-dimensional over the previous:
    # exactly one lam with rho(f - lam*g) <= the previous level
    for below, level in zip(values, list(by_rho.values())[1:]):
        for a, j in enumerate(level):
            rest = level[a + 1 :]
            for k, lams in zip(rest, rows.lambdas(j, rest, below, strict=False)):
                if len(lams) != 1:
                    failures.append(
                        {"check": "one_step_growth", "f": model.show(sample[j]),
                         "g": model.show(sample[k]), "lambdas": list(lams)}
                    )

    # l(i, j) monotonicity and the n-weight product rule, via representatives
    max_v = values[-1]
    level_of = {v: lv for lv, v in enumerate(values)}

    def levels(i, js):
        """The level of rho(e_i * e_j) for j in js; None where it is no level
        (-inf, or a value no sampled element has)."""
        return [level_of.get(r) for r in rows.product_rhos(i, js)]

    ell = [levels(i, reps) for i in reps]  # ell[i][j]: the level of f_i * f_j
    n = len(values)
    for j in range(1, n):
        for i in range(n - 1):
            a, b = ell[i][j], ell[i + 1][j]
            if a is None or b is None:
                skipped += 1
            elif not a < b:
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
            lij = ell[i][j]
            if values[i] + values[j] > max_v or lij is None:
                skipped += 1
            elif values[lij] != values[i] + values[j]:
                failures.append(
                    {"check": "weight_product_rule", "i": i, "j": j, "rho": values[lij]}
                )

    return {
        "model": model.name,
        "bound": bound,
        "levels": len(values),
        "verdict": "PASS" if not failures else "FAIL",
        "failures": failures,
        "skipped": skipped,
        "weight_product_rule": all(f["check"] != "weight_product_rule" for f in failures),
    }
