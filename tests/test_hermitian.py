import itertools

import pytest
from hypothesis import given, settings, strategies as st

import curve_reference as ref
from nordcodes import codes
from nordcodes.errors import MBelowLambda, UnsupportedQ
from nordcodes.hermitian import HermitianCurve
from nordcodes.semigroup import ns_from_generators


@pytest.fixture(scope="module")
def c2():
    return HermitianCurve(2)


@pytest.fixture(scope="module")
def c3():
    return HermitianCurve(3)


def test_curve_make(c2, c3):
    assert c2.genus == 1 and len(c2.points) == 8
    assert c3.genus == 3 and len(c3.points) == 27
    assert (0, 1) in c2.points  # 1^2 + 1 = 0 = 0^3 in GF(4)
    with pytest.raises(UnsupportedQ):
        HermitianCurve(6)


def test_points_satisfy_equation(c3):
    F, q = c3.field, c3.q
    for x, y in c3.points:
        assert F.add(F.pow(y, q), y) == F.pow(x, q + 1)


def _points_by_scan(curve):
    """Every (x, y) in GF(q^2)^2 with y^q + y = x^(q+1), lexicographic."""
    F, q = curve.field, curve.q
    return [(x, y) for x in range(F.q) for y in range(F.q)
            if F.add(F.pow(y, q), y) == F.pow(x, q + 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_points_match_the_full_scan(q):
    curve = HermitianCurve(q)
    assert curve.points == _points_by_scan(curve)
    assert curve.points[0] == (0, 0)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_curve_constants(q):
    curve = HermitianCurve(q)
    assert curve.lambda_sigma == curve.profile_closed_form().lambda_sigma
    assert curve.n == len(curve.points) - 1 == q**3 - 1


def test_valuations_examples(c2):
    v = ref.monomial(c2, 1, 0).valuations()  # x
    assert (v.v_inf, v.v_zero) == (-2, 1) and (v.rho, v.sigma) == (2, 0)
    assert c2.pole_orders((1, 0)) == (2, 0)
    v = ref.monomial(c2, 2, -1).valuations()  # x^2/y
    assert (v.v_inf, v.v_zero) == (-1, -1) and (v.rho, v.sigma) == (1, 1)
    assert c2.pole_orders((2, -1)) == (1, 1)
    v = ref.one(c2).valuations()
    assert (v.v_inf, v.v_zero) == (0, 0)
    assert c2.pole_orders((0, 0)) == (0, 0)
    with pytest.raises(ref.ZeroFunction):
        ref.zero(c2).valuations()


def test_distinct_monomials_distinct_valuations(c2, c3):
    for curve in (c2, c3):
        keys = curve.riemann_roch_basis(4 * curve.genus, 4 * curve.genus)
        v_inf = [ref.monomial_valuations(curve, a, b).v_inf for a, b in keys]
        v_zero = [ref.monomial_valuations(curve, a, b).v_zero for a, b in keys]
        assert len(set(v_inf)) == len(keys)
        assert len(set(v_zero)) == len(keys)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pole_orders_match_reference(q):
    curve = HermitianCurve(q)
    for a in range(q + 1):
        for b in range(-3 * q, 3 * q):
            v = ref.monomial_valuations(curve, a, b)
            assert curve.pole_orders((a, b)) == (v.rho, v.sigma)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_monomial_product_matches_reference(q):
    """The one-step product of every pair of reduced keys in a b-window
    against the reference's general reduction."""
    curve = HermitianCurve(q)
    keys = [(a, b) for a in range(q + 1) for b in range(-q - 1, q + 2)]
    for (a1, b1), (a2, b2) in itertools.product(keys, repeat=2):
        expected = ref.function(curve, {(a1 + a2, b1 + b2): 1}).support
        assert curve.monomial_product((a1, b1), (a2, b2)) == expected


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5]), data=st.data())
def test_image_of_a_key_sum_is_the_product_of_images(q, data):
    """The identity that key-sum syndromes rest on: y != 0 on the code
    support, so the image of k1 + k2 (a up to 2q, unreduced) is the entrywise
    product of the two images, and every image is the reference evaluation."""
    curve = HermitianCurve(q)
    F, pts = curve.field, curve.points[1:]
    key = st.tuples(st.integers(0, q), st.integers(-q - 1, q + 1))
    k1, k2 = data.draw(key), data.draw(key)
    k12 = (k1[0] + k2[0], k1[1] + k2[1])
    assert curve.image(k12) == tuple(map(F.mul, curve.image(k1), curve.image(k2)))
    for k in (k1, k2, k12):
        assert list(curve.image(k)) == [ref.monomial(curve, *k).evaluate(p) for p in pts]


def test_monomial_product_example(c2):
    # x^3 = y^2 + y for q = 2
    assert c2.monomial_product((1, 0), (2, 0)) == (((0, 1), 1), ((0, 2), 1))
    f = ref.monomial(c2, 1, 0) * ref.monomial(c2, 2, 0)
    assert dict(f.support) == {(0, 2): 1, (0, 1): 1}


def test_evaluate(c2):
    F = c2.field
    pts = [p for p in c2.points if p != (0, 0)]
    for p in pts:
        assert ref.one(c2).evaluate(p) == 1
        assert ref.monomial(c2, 1, 0).evaluate(p) == p[0]
    # x^2/y at (1, w): 1 / w = w^2
    w = 2
    assert (1, w) in c2.points
    assert ref.monomial(c2, 2, -1).evaluate((1, w)) == F.mul(F.pow(1, 2), F.inv(w))
    with pytest.raises(ref.PoleAtPoint):
        ref.monomial(c2, 0, -1).evaluate((0, 0))
    # the point images of the code layer
    pts = codes.evaluation_points(c2)
    for key in c2.riemann_roch_basis(6, 6):
        assert list(c2.image(key)) == [ref.monomial(c2, *key).evaluate(p) for p in pts]


def test_riemann_roch_basis(c2):
    assert c2.riemann_roch_basis(0, 0) == [(0, 0)]
    keys = c2.riemann_roch_basis(2, 1)
    assert set(keys) == {(0, 0), (1, 0), (2, -1)}
    assert len(c2.riemann_roch_basis(3, 2)) == 5  # ell + m + 1 - genus


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_riemann_roch_dimension_counts_basis(q):
    curve = HermitianCurve(q)
    for ell in range(-2 * q - 3, 4 * q + 4):
        for m in range(-2 * q - 3, 4 * q + 4):
            assert curve.riemann_roch_dimension(ell, m) == len(curve.riemann_roch_basis(ell, m))


@pytest.mark.parametrize("q", [2, 3])
def test_rr_dimension_formula(q):
    curve = HermitianCurve(q)
    lam = curve.profile_closed_form().lambda_sigma
    g = curve.genus
    for ell in range(0, 4 * g + 5):
        for m in range(lam, 4 * g + 5 - ell):
            assert len(curve.riemann_roch_basis(ell, m)) == ell + m + 1 - g


def subset_pairs_oracle(curve, box):
    """(rho, sigma) pairs realizable by 1- and 2-monomial supports; any
    realizable pair is realizable this way because each component of the pair
    only sees the monomial attaining the support minimum."""
    keys = curve.riemann_roch_basis(box, box)
    pairs = set()
    for k in keys:
        v = ref.monomial_valuations(curve, *k)
        pairs.add((max(0, -v.v_inf), max(0, -v.v_zero)))
    for k1, k2 in itertools.combinations(keys, 2):
        v1 = ref.monomial_valuations(curve, *k1)
        v2 = ref.monomial_valuations(curve, *k2)
        pairs.add(
            (max(0, -min(v1.v_inf, v2.v_inf)), max(0, -min(v1.v_zero, v2.v_zero)))
        )
    return pairs


@pytest.mark.parametrize("q", [2, 3])
def test_two_point_semigroup_vs_subset_oracle(q):
    curve = HermitianCurve(q)
    T = curve.two_point_semigroup()
    box = 2 * curve.genus + 1
    realizable = subset_pairs_oracle(curve, box)
    for a in range(box + 1):
        for b in range(box + 1):
            assert ((a, b) in T) == ((a, b) in realizable), (a, b)


def test_two_point_semigroup_q2(c2):
    T = c2.two_point_semigroup()
    assert T.gapset == {(0, 1), (1, 0)}
    assert (1, 1) in T  # witness x^2/y
    assert (0, 0) in T


def test_weierstrass_projection(c2, c3):
    assert {a for a, b in c2.two_point_semigroup().gapset if b == 0} == {1}
    assert {a for a, b in c3.two_point_semigroup().gapset if b == 0} == {1, 2, 5}


def test_good_basis_function(c2):
    assert c2.good_basis_function(1) == (2, -1)
    assert ref.monomial(c2, 2, -1).valuations().sigma == 1
    assert c2.good_basis_function(0) == (0, 0)
    assert c2.good_basis_function(7) == (2, 1)
    assert ref.monomial(c2, 2, 1).valuations().sigma == 0
    # minimality of sigma among same-rho functions (2-term competitors)
    for i in range(1, 8):
        v = ref.monomial(c2, *c2.good_basis_function(i)).valuations()
        assert v.rho == i
        for a, b in c2.riemann_roch_basis(i, 10):
            w = ref.monomial_valuations(c2, a, b)
            if max(0, -w.v_inf) == i:
                assert max(0, -w.v_zero) >= v.sigma


def test_good_basis_g(c2):
    assert ref.good_basis_g(c2, 1) == (1, -1)
    v = ref.monomial(c2, 1, -1).valuations()
    assert v.sigma == 2 and v.rho == 0
    assert ref.good_basis_g(c2, 2) == (0, -1)
    assert ref.monomial(c2, 0, -1).valuations().sigma == 3
    for j in range(1, 6):
        assert ref.monomial(c2, *ref.good_basis_g(c2, j)).valuations().v_inf >= 0


@pytest.mark.parametrize("q,expected", [
    (2, {1: 1}),
    (3, {1: 5, 2: 2, 5: 1}),
    (4, {1: 11, 2: 7, 3: 3, 6: 6, 7: 2, 11: 1}),
    (5, {1: 19, 2: 14, 3: 9, 4: 4, 7: 13, 8: 8, 9: 3, 13: 7, 14: 2, 19: 1}),
])
def test_profile_two_derivations_agree(q, expected):
    """The counted profile against the column minima of the semigroup
    built by the dimension-jump criterion, whose gap pairs are the ones read
    off the profile; its lambda_sigma = 2*genus - 1 is the least m the codes
    take, read from the genus alone."""
    curve = HermitianCurve(q)
    closed = curve.profile_closed_form()
    oracle = ref.dimension_jump_semigroup(curve)
    via_semigroup = oracle.profile()
    assert dict(closed.entries) == dict(via_semigroup.entries) == expected
    assert curve.two_point_semigroup().gapset == oracle.gapset
    lam = 2 * closed.genus - 1
    assert closed.lambda_sigma == lam
    with pytest.raises(MBelowLambda, match=rf"^m = {lam - 1} < lambda_sigma = {lam}$"):
        codes.build_E(curve, 0, lam - 1)
    assert codes.build_E(curve, 0, lam).k == closed.genus  # Riemann-Roch at degree 2g - 1


def test_profile_zero_on_nongaps(c2):
    prof = c2.profile_closed_form()
    assert prof.sigma(2) == 0  # 2 is a nongap of H(rho)


def test_truncation_basis_spans(c2):
    """Good-basis functions f_0..f_ell with g_1..g_a form a basis of R_ell^m."""
    from nordcodes import linalg

    ell, m = 4, 3
    sigma_sg = ns_from_generators([c2.q, c2.q + 1])  # H(Q2)
    a = len([t for t in range(1, m + 1) if t in sigma_sg])
    members = [c2.good_basis_function(i) for i in range(ell + 1)]
    members += [ref.good_basis_g(c2, j) for j in range(1, a + 1)]
    for key in members:
        rho, sigma = c2.pole_orders(key)
        assert rho <= ell and sigma <= m
    keys = c2.riemann_roch_basis(ell, m)
    rows = [[int(k == key) for k in keys] for key in members]
    assert linalg.rank(rows, c2.field) == len(members) == len(keys)
