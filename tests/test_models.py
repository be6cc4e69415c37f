import json

import pytest
from hypothesis import example, given, settings, strategies as st

import curve_reference as ref
import sparse_reference as sref
from nordcodes import filtration, models
from nordcodes.errors import (
    CoefficientOutOfRange,
    EmptyLevel,
    GIsConstant,
    NegativeBound,
    NegativeRho,
    NordError,
    SampleTooLarge,
    TrivialModel,
)
from nordcodes.field import make_field
from nordcodes.hermitian import HermitianCurve
from nordcodes.models import NEG_INF

F2 = make_field(2, 1)
F4 = make_field(2, 2)


# -- model value maps -------------------------------------------------------


def test_constant_model_values():
    m = models.ConstantModel(F2, 3)
    assert m.rho(()) == NEG_INF
    assert m.rho(m.one()) == 3
    assert m.rho(((0, 1), (5, 1))) == 3  # t^5 + 1
    assert not any(m.rho(f) > m.rho(m.one()) for f in m.elements(3))


def test_ideal_model_values():
    m = models.IdealModel(F2, [0, 0, 1])  # g = t^2
    assert m.rho(((2, 1),)) == 0  # t^2
    assert m.rho(((1, 1),)) == 1  # t
    assert m.rho(()) == NEG_INF
    assert m.rho(m.one()) == 1
    with pytest.raises(GIsConstant):
        models.IdealModel(F2, [1])


def test_ideal_coefficients_must_be_field_elements():
    # 2 is not an element index of GF(2): refused before any sampling
    for g in ([2, 0, 1], [-1, 1], [0, 1.5]):
        with pytest.raises(CoefficientOutOfRange):
            models.IdealModel(F2, g)
    assert models.IdealModel(F4, [3, 0, 1]).g == (3, 0, 1)
    assert models.IdealModel(F2, [0, 0, 1, 0]).g == (0, 0, 1)  # trailing zeros dropped


def test_laurent_model_values():
    m = models.LaurentModel(F4)
    assert type(models.model_laurent(F4)) is models.LaurentModel  # the benchmark's entry
    x = ((1, 1),)
    y = ((-1, 1),)
    x3_plus_x = sref.add(m, sref.mul(m, sref.mul(m, x, x), x), x)
    assert m.rho(x3_plus_x) == 0
    y2_plus_x = sref.add(m, sref.mul(m, y, y), x)
    assert m.rho(y2_plus_x) == 2
    assert sref.mul(m, x, y) == m.one()  # the defining relation
    assert m.rho(sref.mul(m, x, y)) == 0


def test_curve_model_values():
    c2 = HermitianCurve(2)
    m = models.CurveValuationModel(c2, "rho")
    assert m.rho(ref.monomial(c2, 1, 0).support) == 2  # x has pole order q at infinity
    assert m.rho(ref.one(c2).support) == 0
    assert m.rho(ref.monomial(c2, 2, -1).support) == 1
    assert m.show((((0, 1), 3), ((2, -1), 1))) == "3*x^0*y^1+1*x^2*y^-1"  # 3y + x^2/y
    assert m.show(()) == "0"
    with pytest.raises(ValueError):
        models.CurveValuationModel(c2, "tau")


# -- axiom checker ----------------------------------------------------------


def test_laurent_axioms_pass():
    for field in (F2, F4):
        rep = models.axiom_check(models.LaurentModel(field), 3)
        assert rep.all_near_weight_pass()
        assert rep.passed("lemma_lambda_unique")
        assert rep.passed("lemma_max_rule")
        assert rep.passed("lemma_no_zero_divisors")
        # the Laurent ring admits no order function: a witness is recorded
        assert not rep.order_axioms_pass()
        assert rep.entries["O3"]["witness"] or rep.entries["O4"]["witness"]
        assert rep.passed("order_classification")
        assert not rep.entries["order_classification"]["is_order"]


def test_constant_model_not_an_order():
    rep = models.axiom_check(models.ConstantModel(F2, 0), 3)
    for axiom in ("N0", "N1", "N2", "N3", "N4"):
        assert rep.passed(axiom)
    assert rep.passed("order_classification")
    assert not rep.entries["order_classification"]["U_equals_F"]
    assert not rep.entries["order_classification"]["is_order"]


def test_ideal_model_axioms():
    rep = models.axiom_check(models.IdealModel(F2, [0, 0, 1]), 3)
    for axiom in ("N0", "N1", "N2", "N3", "N4"):
        assert rep.passed(axiom)
    assert not rep.entries["order_classification"]["is_order"]


def test_broken_model_yields_witness():
    class Broken(sref.Sparse, models.LaurentModel):
        def rho(self, f):  # violates N2: rho of a sum can exceed the max
            base = super().rho(f)
            if base == NEG_INF:
                return base
            return base + len(f)

    rep = models.axiom_check(Broken(F2), 2)
    assert not rep.passed("N2")
    w = rep.entries["N2"]["witness"]
    # the witness is checkable by hand
    m = Broken(F2)
    assert m.rho(sref.add(m, w["f"], w["g"])) > max(m.rho(w["f"]), m.rho(w["g"]))


class LeadingCoefficient(sref.Sparse, models.ConstantModel):
    """rho(f) is the index of the leading coefficient: lam*f changes it."""

    def rho(self, f):
        return f[-1][1] if f else NEG_INF


def test_scalar_dependent_rho_fails_n1():
    """The N1 witness is the first nonzero sample element and the first lam
    that changes its rho: t, with lead 1, and lam = 2."""
    m = LeadingCoefficient(make_field(3, 1), 0)
    rep = models.axiom_check(m, 1)
    assert m.elements(1)[1] == ((1, 1),)
    assert rep.entries["N1"] == {"axiom": "N1", "verdict": "FAIL",
                                 "witness": {"f": (0, 1), "lambda": 2}}


@pytest.mark.parametrize("F", [F2, make_field(3, 1)], ids=["GF2", "GF3"])
def test_constant_past_the_float_range_is_compared_exactly(F):
    """rho = c is compared exactly: 2^53 + 1 rounds to the float 2^53, which
    made N1 and N2 fail for a constant map, and 10^400 overflowed the float."""
    def verdicts(c):
        rep = models.axiom_check(models.ConstantModel(F, c), 2)
        return rep, {a: e["verdict"] for a, e in rep.entries.items()}

    want = verdicts(1)[1]
    for c in (2**53 + 1, 10**400):
        rep, got = verdicts(c)
        assert got == want
        assert rep.entries["O4"]["witness"]["rho"] == c  # the exact int, not a float
    rep = verdicts(2**53)[0]  # exact as a float, so printed as one
    assert '"rho": 9007199254740992.0' in rep.dumps()


def test_report_json_shape():
    rep = models.axiom_check(models.LaurentModel(F2), 2)
    data = rep.to_json()
    assert data["model"] == "laurent"
    entries = {e["axiom"]: e for e in data["results"]}
    assert entries["N3"]["verdict"] == "PASS"
    assert "witness" in entries["O4"]
    rep.dumps()  # must serialize


def test_deterministic_enumeration():
    m = models.LaurentModel(F4)
    assert m.elements(3) == m.elements(3)
    rep1 = models.axiom_check(m, 3).dumps()
    rep2 = models.axiom_check(models.LaurentModel(F4), 3).dumps()
    assert rep1 == rep2


# -- normalization ----------------------------------------------------------


def test_normalize_scales_by_gcd():
    norm = filtration.normalize(DoubledWeight(F2), 3)
    assert norm.divisor == 2
    m = models.LaurentModel(F2)
    for f in m.elements(3):
        assert norm.rho(f) == m.rho(f) == sref.normalized_rho(norm, f)


def test_normalize_identity_when_gcd_one():
    m = models.LaurentModel(F2)
    norm = filtration.normalize(m, 3)
    assert norm.divisor == 1
    for f in m.elements(3):
        assert norm.rho(f) == m.rho(f)


def test_normalize_trivial_model_rejected():
    with pytest.raises(TrivialModel):
        filtration.normalize(models.ConstantModel(F2, 0), 3)


def test_normalized_membership_unchanged():
    base = DoubledWeight(F2)
    norm = filtration.normalize(base, 3)
    for f in base.elements(3):
        if f:
            assert (base.rho(f) > base.rho(base.one())) == (norm.rho(f) > norm.rho(norm.one()))


# -- filtration -------------------------------------------------------------


def test_filtration_laurent():
    rep = filtration.filtration_check(models.LaurentModel(F2), 4)
    assert rep["verdict"] == "PASS"
    assert rep["weight_product_rule"]


def test_filtration_curve_sigma():
    rep = filtration.filtration_check(models.CurveValuationModel(HermitianCurve(2), "sigma"), 4)
    assert rep["verdict"] == "PASS"


def test_filtration_trivial_rejected():
    with pytest.raises(TrivialModel):
        filtration.filtration_check(models.ConstantModel(F2, 1), 3)


def test_filtration_empty_level_named():
    class Broken(sref.Sparse, models.LaurentModel):  # every nonzero element has rho >= 1
        def rho(self, f):
            base = super().rho(f)
            return base if base == NEG_INF else base + len(f)

    with pytest.raises(EmptyLevel, match="rho = 0"):
        filtration.filtration_check(Broken(make_field(3, 1)), 2)


class TruncatedDegree(sref.Sparse, models.ConstantModel):
    """t*F[t], sampled on the keys 1 ... bound, so 1 is not sampled; rho
    by degree: 1, 1, 2, 0 for degrees 0 ... 3, and 9, no level, above."""

    def basis_keys(self, bound):
        return range(1, bound + 1)

    def rho(self, f):
        return (1, 1, 2, 0, 9, 9, 9)[f[-1][0]] if f else NEG_INF


def test_filtration_j0_estimate_drop_and_skip():
    """Levels 0, 1, 2 hold t^3, t and t^2; the units (rho <= rho(1) = 1) are
    the elements of degree 1 and 3.  The j = 0 estimate is None for t^3 (its
    products with units have degree 4 or 6, no level), 2 for t (t * t = t^2)
    and 0 for t^2 (t^2 * t = t^3): one skip, then a drop from 2 to 0.  Of
    the other six skips, three are l(i, j) products of degree >= 4 and three
    are product rule pairs whose rho sum is above the top level."""
    rep = filtration.filtration_check(TruncatedDegree(F2, 0), 3)
    assert rep["levels"] == 3 and rep["skipped"] == 7
    assert rep["failures"] == [{"check": "l_strict_growth", "i": 1, "j": 1, "l": (2, 0)},
                               {"check": "l_weak_growth_j0", "i": 1, "l": (2, 0)}]


# -- well-agreeing pair properties (curve rho with sigma) -------------------


def test_curve_pair_well_agreeing():
    c2 = HermitianCurve(2)
    mr = models.CurveValuationModel(c2, "rho")
    ms = models.CurveValuationModel(c2, "sigma")
    sample = mr.elements(4)
    T = c2.two_point_semigroup()
    box = (max(a for a, _ in T.gapset), max(b for _, b in T.gapset))
    constants = {ref.zero(c2).support} | {
        ref.one(c2).scale(lam).support for lam in range(1, c2.field.q)
    }
    in_both_units = set()
    for f in sample:
        if not f:
            continue
        pair = (mr.rho(f), ms.rho(f))
        if pair[0] <= box[0] and pair[1] <= box[1]:
            assert pair in T, pair
        if pair == (0, 0):
            in_both_units.add(f)
    assert in_both_units | {ref.zero(c2).support} == constants


def test_unit_part_closed_under_product():
    m = models.LaurentModel(F4)
    unit = m.rho(m.one())
    units = [f for f in m.elements(2) if f and m.rho(f) <= unit]
    for f in units:
        for g in units:
            assert m.rho(sref.mul(m, f, g)) <= unit


# -- the sparse algebra against reference arithmetic ------------------------


def _dense_add(F, f, g):
    """Addition of dense low-to-high coefficient tuples (the earlier F[t]
    payload), the reference for the sparse algebra."""
    n = max(len(f), len(g))
    out = [F.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _dense_mul(F, f, g):
    """Convolution of dense coefficient tuples, the reference for `mul`."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, ci in enumerate(f):
        if ci:
            for j, cj in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(ci, cj))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _laurent_mul(F, f, g):
    """Product of Laurent pair tuples by exponent sums (the earlier
    LaurentModel.mul)."""
    acc = {}
    for e1, c1 in f:
        for e2, c2 in g:
            acc[e1 + e2] = F.add(acc.get(e1 + e2, 0), F.mul(c1, c2))
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


def _sparse(dense):
    return tuple((d, c) for d, c in enumerate(dense) if c)


FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(3, 2)]


@st.composite
def _field_and_dense_pair(draw):
    F = draw(st.sampled_from(FIELDS))
    dense = st.lists(st.integers(0, F.q - 1), max_size=6).map(
        lambda c: _dense_add(F, tuple(c), ()))
    return F, draw(dense), draw(dense)


@settings(max_examples=300, deadline=None)
@given(_field_and_dense_pair(), st.integers(0, 8))
def test_polynomial_algebra_matches_dense(case, lam):
    F, f, g = case
    lam %= F.q
    m = models.ConstantModel(F, 1)
    sf, sg = _sparse(f), _sparse(g)
    assert m.show(sf) == f and m.show(sg) == g
    assert m.show(sref.mul(m, sf, sg)) == _dense_mul(F, f, g)
    assert m.show(sref.add(m, sf, sg)) == _dense_add(F, f, g)
    assert m.show(sref.sub(m, sf, sf)) == ()
    assert m.show(sref.scale(m, lam, sf)) == _dense_add(F, tuple(F.mul(lam, c) for c in f), ())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_laurent_mul_matches_exponent_sums(F, data):
    pairs = st.dictionaries(st.integers(-4, 4), st.integers(1, F.q - 1), max_size=5).map(
        lambda d: tuple(sorted(d.items())))
    f, g = data.draw(pairs), data.draw(pairs)
    m = models.LaurentModel(F)
    assert sref.mul(m, f, g) == _laurent_mul(F, f, g)
    assert sref.mul(m, f, g) == sref.mul(m, g, f)


CURVES = {q: HermitianCurve(q) for q in (2, 3)}


@st.composite
def _curve_functions(draw):
    curve = CURVES[draw(st.sampled_from(sorted(CURVES)))]
    q, Q = curve.q, curve.field.q
    raw = st.dictionaries(
        st.tuples(st.integers(0, q), st.integers(-3, 3)), st.integers(1, Q - 1), max_size=4)
    f, g = ref.function(curve, draw(raw)), ref.function(curve, draw(raw))
    return curve, f, g, draw(st.integers(0, Q - 1))


@settings(max_examples=200, deadline=None)
@given(_curve_functions())
def test_curve_algebra_matches_two_point_functions(case):
    curve, f, g, lam = case
    for which in ("rho", "sigma"):
        m = models.CurveValuationModel(curve, which)
        a, b = f.support, g.support
        assert sref.add(m, a, b) == (f + g).support
        assert sref.sub(m, a, b) == (f - g).support
        assert sref.mul(m, a, b) == (f * g).support
        assert sref.scale(m, lam, a) == f.scale(lam).support
        assert m.show(a) == str(f)
        if not f.is_zero():
            val = f.valuations()
            assert m.rho(a) == (val.rho if which == "rho" else val.sigma)


# -- rows: rho of sums, multiples and products against the algebra ---------

ROW_FIELDS = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(5, 1),
              make_field(3, 2)]


class DoubledWeight(models.LaurentModel):
    def weight(self, key):
        return 2 * super().weight(key)


class LiftedWeight(DoubledWeight):
    """weight 2 on the units: rho(1) = 2 > 0, and normalizing divides by 2."""

    def weight(self, key):
        return 2 + super().weight(key)


IDEAL_GS = ([0, 0, 1], [1, 1], [1, 0, 1])  # t^2, t + 1, t^2 + 1

# (model, bound): every model of `models` is a weight model
WEIGHT_MODELS = [
    *((models.ConstantModel(F, c), 3) for F in ROW_FIELDS for c in (0, 2)),
    *((models.IdealModel(F, g), 4) for F in ROW_FIELDS[:3] for g in IDEAL_GS),
    *((models.LaurentModel(F), 2) for F in ROW_FIELDS),
    *((models.CurveValuationModel(curve, which), 3) for curve in CURVES.values()
      for which in ("rho", "sigma")),
    *((filtration.normalize(DoubledWeight(F), 1), 2) for F in ROW_FIELDS[:3]),
    *((filtration.normalize(LiftedWeight(F), 2), 2) for F in ROW_FIELDS[:2]),
    (filtration.normalize(models.CurveValuationModel(CURVES[2], "rho"), 4), 3),
]


def _reference_rho(model):
    """rho as defined apart from the weights: by divisibility by g in
    t-coordinates for the ideal, from the base model's rho for a
    normalization."""
    if isinstance(model, models.IdealModel):
        return lambda f: sref.ideal_rho(model, f)
    if isinstance(model, filtration.NormalizedModel):
        return lambda f: sref.normalized_rho(model, f)
    return model.rho


@st.composite
def _rows_case(draw):
    """A weight model and a list of elements over its basis keys: zero
    first, then random elements, repeats allowed (f + f = 0 in
    characteristic 2)."""
    model, bound = draw(st.sampled_from(WEIGHT_MODELS))
    keys = list(model.basis_keys(bound))
    element = st.dictionaries(st.sampled_from(keys), st.integers(1, model.field.q - 1),
                              max_size=4).map(lambda d: tuple(sorted(d.items())))
    elements = draw(st.lists(element, min_size=1, max_size=7))
    if draw(st.booleans()):
        elements.append(elements[0])
    return model, [(), *elements]


@settings(max_examples=400, deadline=None)
@given(_rows_case())
def test_rows_match_the_algebra(case):
    model, elements = case
    rho = _reference_rho(model)
    units = range(1, model.field.q)
    n = len(elements)
    fast = model.rows(elements)
    assert isinstance(fast, models._WeightRows)
    for rows in (fast, sref.SparseRows(model, elements)):
        assert rows.rhos == [rho(f) for f in elements]
        for i, f in enumerate(elements):
            assert rows.scaled_rhos(i) == [rho(sref.scale(model, lam, f)) for lam in units]
            assert rows.sum_rhos(i) == [rho(sref.add(model, f, g)) for g in elements[i:]]
            assert rows.product_rhos(i, range(n)) == [rho(sref.mul(model, f, g))
                                                      for g in elements]
            for j, g in enumerate(elements):
                diffs = [rho(sref.sub(model, f, sref.scale(model, lam, g))) for lam in units]
                for limit in {NEG_INF, *diffs, *(r + 0.5 for r in diffs)}:
                    for strict in (True, False):
                        want = [lam for lam, r in zip(units, diffs)
                                if (r < limit if strict else r <= limit)]
                        assert list(rows.lambdas(i, [j], limit, strict)[0]) == want


def test_ideal_elements_are_in_the_basis_adapted_to_g():
    F3 = make_field(3, 1)
    m = models.IdealModel(F3, [1, 1])  # g = 1 + t: key e >= 1 is t^(e-1) * g
    basis = [m._from_t([0] * e + [1]) for e in range(3)]  # t^0, t^1, t^2
    assert basis == [((0, 1),), ((0, 2), (1, 1)), ((0, 1), (1, 2), (2, 1))]
    assert [m.show(f) for f in basis] == [(1,), (0, 1), (0, 0, 1)]
    assert m.rho(((0, 2), (1, 1))) == 1  # t
    assert m.rho(((1, 1), (2, 2))) == 0  # g + 2 t g
    for e1 in range(4):
        for e2 in range(4):
            want = m._from_t(_dense_mul(F3, m.show(((e1, 1),)), m.show(((e2, 1),))))
            assert m.monomial_product(e1, e2) == want


# -- which rows a model hands -----------------------------------------------


class AbsWeight(models.LaurentModel):
    """weight |k|: rho(X - X^-1) = rho(X) = rho(X^-1) = 1 fails N4, and
    X * X^-1 = 1 fails N5."""

    def weight(self, key):
        return abs(key)


class ParityConstant(models.ConstantModel):
    """weight 1 on odd degrees, c on even ones."""

    def weight(self, key):
        return 1 if key % 2 else self.c


class CurveShifted(models.CurveValuationModel):
    """weight a + 2b, unclamped and negative on some monomials."""

    def weight(self, key):
        return key[0] + 2 * key[1]


def _outcome(fn):
    try:
        return json.dumps(fn(), sort_keys=True, default=str)
    except NordError as exc:
        return f"error {exc.name}: {exc}"


WEIGHT_OVERRIDES = [
    (AbsWeight, (F2,), 2),
    (AbsWeight, (make_field(3, 1),), 2),
    (AbsWeight, (F4,), 3),  # two-monomial sample
    (AbsWeight, (make_field(7, 1),), 1),  # 343 elements
    (ParityConstant, (make_field(3, 1), 2), 3),
    (CurveShifted, (HermitianCurve(2), "rho"), 2),
    (CurveShifted, (HermitianCurve(2), "sigma"), 4),  # two-monomial sample
]


@pytest.mark.parametrize("cls,args,bound", WEIGHT_OVERRIDES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(WEIGHT_OVERRIDES)])
def test_weight_override_report_equals_sparse_path(cls, args, bound):
    fast, slow = cls(*args), sref.sparse(cls)(*args)
    assert isinstance(fast.rows([]), models._WeightRows)
    assert isinstance(slow.rows([]), sref.SparseRows)
    rep = models.axiom_check(fast, bound)
    assert not all(rep.passed(a) for a in ("N3", "N4", "N5", "O3"))
    assert rep.dumps() == models.axiom_check(slow, bound).dumps()
    outcomes = {_outcome(lambda m=m: filtration.filtration_check(m, bound)) for m in (fast, slow)}
    assert len(outcomes) == 1
    # the weight a + 2b of CurveShifted is negative on x/y: refused on both paths
    negative = cls is CurveShifted
    assert outcomes.pop().startswith("error NegativeRho:") == negative
    if negative:
        for model in (fast, slow):
            with pytest.raises(NegativeRho):
                filtration.normalize(model, bound)


class SparseNormalized(sref.Sparse, filtration.NormalizedModel):
    """A normalization whose rho comes from the base model's, on sparse rows."""

    def rho(self, f):
        return sref.normalized_rho(self, f)


@pytest.mark.parametrize("base,bound", [
    (DoubledWeight(F2), 3),
    (DoubledWeight(make_field(3, 1)), 2),
    (LiftedWeight(F2), 3),
    (models.CurveValuationModel(HermitianCurve(2), "sigma"), 4),
], ids=["doubled-gf2", "doubled-gf3", "lifted-gf2", "curve-sigma"])
def test_normalized_weight_model_matches_the_reference(base, bound):
    norm = filtration.normalize(base, bound)
    assert isinstance(norm.rows([]), models._WeightRows)
    slow = SparseNormalized(base, norm.divisor)
    got = models.axiom_check(norm, bound).dumps()
    assert got == models.axiom_check(slow, bound).dumps()
    assert (_outcome(lambda: filtration.filtration_check(norm, bound))
            == _outcome(lambda: filtration.filtration_check(slow, bound)))
    if type(base) is DoubledWeight:  # halving the doubled weight gives the Laurent model
        assert norm.divisor == 2
        laurent = models.axiom_check(models.LaurentModel(base.field), bound).dumps()
        assert json.loads(got)["results"] == json.loads(laurent)["results"]


class OwnRho(models.LaurentModel):
    def rho(self, f):
        return super().rho(f)


@pytest.mark.parametrize("model", [OwnRho(F2), filtration.NormalizedModel(OwnRho(F2), 1),
                                   filtration.NormalizedModel(sref.sparse(OwnRho)(F2), 1)],
                         ids=["own-rho", "normalized-own-rho", "normalized-sparse"])
def test_own_rho_without_rows_is_refused(model):
    """A rho the weights no longer define gets no verdicts read from them."""
    for check in (models.axiom_check, filtration.filtration_check, filtration.normalize):
        with pytest.raises(TypeError, match="defines its own rho but no rows"):
            check(model, 2)
    assert (models.axiom_check(sref.sparse(OwnRho)(F2), 2).dumps()
            == models.axiom_check(models.LaurentModel(F2), 2).dumps())


# -- triple axioms: scalar classes against every sample index ----------------


class TableWeight(models.LaurentModel):
    """A random weight on the keys -2b..2b that products of the bound-b
    sample reach: N3, O3 and N5 fail with assorted witnesses."""

    def __init__(self, field, table):
        super().__init__(field)
        self.table = table

    def weight(self, key):
        return self.table[key + len(self.table) // 2]


class BrokenSparse(sref.Sparse, models.LaurentModel):
    def rho(self, f):
        base = super().rho(f)
        return base if base == NEG_INF else base + len(f)


F3 = make_field(3, 1)
CLASS_MODELS = [
    (models.ConstantModel(F3, 1), 3),
    (models.IdealModel(F2, [1, 1]), 5),
    (models.IdealModel(F3, [1, 0, 1]), 3),
    (models.IdealModel(F4, [0, 0, 1]), 2),
    (models.LaurentModel(F3), 2),
    (models.CurveValuationModel(HermitianCurve(2), "rho"), 2),
    (filtration.normalize(DoubledWeight(F3), 2), 2),
    (AbsWeight(F3), 1),
    (CurveShifted(HermitianCurve(2), "sigma"), 2),
    (BrokenSparse(F2), 2),
]
TABLE_SAMPLES = [(F2, 1), (F2, 2), (F2, 3), (F3, 1), (F3, 2), (F4, 1), (make_field(5, 1), 1)]


@st.composite
def _table_model(draw):
    F, bound = draw(st.sampled_from(TABLE_SAMPLES))
    table = draw(st.lists(st.integers(0, 3), min_size=4 * bound + 1, max_size=4 * bound + 1))
    return TableWeight(F, table), bound


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(CLASS_MODELS), _table_model()))
def test_scalar_classes_give_the_report_of_every_index(case):
    model, bound = case
    got = models.axiom_check(model, bound).dumps()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_class_firsts", lambda model, sample: list(range(len(sample))))
        assert models.axiom_check(model, bound).dumps() == got


# -- bounded samples --------------------------------------------------------


CLI_MODELS = [models.ConstantModel(F2, 1), models.IdealModel(F2, [0, 0, 1]),
              models.LaurentModel(F2)] + [
    models.CurveValuationModel(HermitianCurve(2), w) for w in ("rho", "sigma")]


@pytest.mark.parametrize("check", [models.axiom_check, filtration.normalize,
                                   filtration.filtration_check], ids=lambda f: f.__name__)
@pytest.mark.parametrize("model", CLI_MODELS, ids=[m.name for m in CLI_MODELS])
def test_negative_bound_is_refused(model, check):
    """Every checker refuses a negative bound before the sample is built
    (the filtration checks used to end in TrivialModel on the sample {0})."""
    with pytest.raises(NegativeBound, match=r"^bound = -1 < 0$"):
        check(model, -1)


@pytest.mark.parametrize("model,bounds", [
    (models.ConstantModel(F2, 1), range(0, 14)),  # full span up to 2^10
    (models.LaurentModel(make_field(3, 1)), range(0, 5)),
    (models.LaurentModel(make_field(3, 2)), range(0, 4)),
    (models.IdealModel(F4, [0, 0, 1]), range(0, 5)),
    (models.CurveValuationModel(HermitianCurve(2), "sigma"), range(-1, 6)),
    (filtration.normalize(DoubledWeight(F2), 3), range(0, 5)),
    (models.IdealModel(make_field(3, 1), [1, 1]), range(0, 6)),
], ids=lambda v: getattr(v, "name", None))
def test_sample_size_is_the_closed_form(model, bounds):
    for bound in bounds:
        assert model.sample_size(bound) == len(model.elements(bound))


@pytest.mark.parametrize("model,bounds", [
    (models.ConstantModel(F2, 1), range(0, 14)),  # two-monomial from 11 basis keys
    (models.ConstantModel(make_field(5, 1), 0), range(0, 7)),
    (models.LaurentModel(F3), range(0, 5)),
    (models.LaurentModel(F4), range(0, 4)),
    (models.IdealModel(F2, [0, 0, 1]), range(0, 13)),
    (models.IdealModel(F4, [1, 1, 1]), range(0, 8)),  # two-monomial from bound 5
    (models.IdealModel(F3, [2, 1, 0, 1]), range(0, 10)),  # two-monomial from bound 6
    (models.CurveValuationModel(HermitianCurve(2), "rho"), range(-1, 6)),
    (models.CurveValuationModel(HermitianCurve(3), "sigma"), range(0, 4)),
    (filtration.normalize(DoubledWeight(F2), 3), range(0, 6)),
    (filtration.NormalizedModel(models.IdealModel(F3, [1, 0, 1]), 1), range(0, 9)),
], ids=lambda v: getattr(v, "name", None))
def test_elements_are_the_arithmetic_sample(model, bounds):
    """The sample built from basis keys is the one the sparse algebra builds
    by sums of multiples of the basis monomials, in the same order."""
    for bound in bounds:
        assert model.elements(bound) == sref.elements(model, bound)


PREFIX_MODELS = [
    cls(F, *args)
    for F in (F2, F3, F4, make_field(5, 1))
    for cls, args in ((models.ConstantModel, (0,)), (models.IdealModel, ([0, 0, 1],)),
                      (models.LaurentModel, ()))
] + [models.CurveValuationModel(HermitianCurve(q), w) for q in (2, 3) for w in ("rho", "sigma")]


@pytest.mark.parametrize("model", PREFIX_MODELS,
                         ids=[f"{m.name}-q{m.field.q}" for m in PREFIX_MODELS])
def test_answered_bounds_form_a_prefix(model):
    """A bound within the sample cap has every smaller bound within it."""
    answered = [model.sample_size(b) <= models._SAMPLE_CAP for b in range(100)]
    assert answered[0] and not answered[-1]
    assert answered == sorted(answered, reverse=True)


class SparseIdeal(sref.Sparse, models.IdealModel):
    """The ideal model with rho read from divisibility by g, on sparse rows."""

    def rho(self, f):
        return sref.ideal_rho(self, f)


# bounds whose full span has 2000 < q^n <= 4096 elements: the two-key sample
BAND_CASES = [
    *[(cls, (F, *args), b)
      for cls, args in ((models.ConstantModel, (0,)), (models.IdealModel, ([0, 0, 1],)))
      for F, bounds in ((F2, (10, 11)), (F3, (6,)), (F4, (5,)), (make_field(5, 1), (4,)))
      for b in bounds],
    (models.LaurentModel, (F2,), 5),
    (models.LaurentModel, (F3,), 3),
    (models.LaurentModel, (make_field(5, 1),), 2),
    (models.CurveValuationModel, (HermitianCurve(2), "rho"), 3),
    (models.CurveValuationModel, (HermitianCurve(2), "sigma"), 3),
]


@pytest.mark.parametrize("cls,args,bound", BAND_CASES,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(BAND_CASES)])
def test_band_report_equals_the_sparse_rows(cls, args, bound):
    fast = cls(*args)
    slow = (SparseIdeal if cls is models.IdealModel else sref.sparse(cls))(*args)
    assert 2000 < fast.field.q ** fast.basis_count(bound) <= 4096
    assert fast.sample_size(bound) <= models._SAMPLE_CAP
    assert models.axiom_check(fast, bound).dumps() == models.axiom_check(slow, bound).dumps()


class NoBuild(models.ConstantModel):
    def elements(self, bound):
        raise AssertionError("the sample was built")


@pytest.mark.parametrize("check", [models.axiom_check, filtration.filtration_check,
                                   filtration.normalize])
def test_oversized_sample_refused_before_it_is_built(check):
    m = NoBuild(F2, 1)
    assert m.sample_size(61) == 1954 <= models._SAMPLE_CAP  # 62 basis monomials
    with pytest.raises(SampleTooLarge, match=r"^sample has 2017 elements \(> 2000\)$"):
        check(m, 62)
    with pytest.raises(SampleTooLarge):
        check(m, 10**20)  # more basis keys than sys.maxsize


# -- N3/O3: column minima against the full triple scan ----------------------


def _n3_scan(rrhos, prodrho, m_mask):
    """The earlier O(n^3) N3 scan: rows i, then for each g of higher rho in
    index order, every column h."""
    n = len(rrhos)
    for i in range(n):
        for g in (g for g in range(n) if rrhos[g] > rrhos[i]):
            for h in range(n):
                weak_bad = prodrho[i][h] > prodrho[g][h]
                strict_bad = prodrho[i][h] >= prodrho[g][h] and m_mask[h]
                if weak_bad or strict_bad:
                    return i, g, h
    return None


def _o3_scan(rrhos, prodrho, nonzero_mask):
    n = len(rrhos)
    for i in range(n):
        for g in (g for g in range(n) if rrhos[g] > rrhos[i]):
            for h in range(n):
                if prodrho[i][h] >= prodrho[g][h] and nonzero_mask[h]:
                    return i, g, h
    return None


_VALUES = st.sampled_from([NEG_INF, 0.0, 1.0, 2.0, 3.0])


@st.composite
def _value_matrix(draw):
    n = draw(st.integers(0, 7))
    rrhos = draw(st.lists(_VALUES, min_size=n, max_size=n))
    prodrho = [draw(st.lists(_VALUES, min_size=n, max_size=n)) for _ in range(n)]
    return rrhos, prodrho, draw(_VALUES)


@settings(max_examples=500, deadline=None)
@given(_value_matrix())
@example(([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]], 0.0))
@example(([NEG_INF, 0.0, 1.0], [[NEG_INF] * 3, [NEG_INF, 1.0, 1.0], [NEG_INF, 0.0, 2.0]], 0.0))
def test_first_violation_matches_triple_scan(case):
    rrhos, prodrho, rho1 = case
    m_mask = [r > rho1 for r in rrhos]
    nonzero_mask = [r > NEG_INF for r in rrhos]
    assert models._first_violation(rrhos, prodrho, m_mask, True) == _n3_scan(
        rrhos, prodrho, m_mask)
    assert models._first_violation(rrhos, prodrho, nonzero_mask, False) == _o3_scan(
        rrhos, prodrho, nonzero_mask)
