import itertools
import json
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from curve_reference import monomial
from nordcodes import bounds, codes
from nordcodes.cli import main
from nordcodes.errors import (MBelowLambda, NegativeEll, NotAVector, SearchTooLarge,
                              WordNotInLayer)
from nordcodes.field import make_field
from nordcodes.hermitian import HermitianCurve
from nordcodes.linalg import rank
from nordcodes.semigroup import GoodBasisProfile
from test_linalg import ref_nullspace


@pytest.fixture(scope="module")
def c2():
    return HermitianCurve(2)


@pytest.fixture(scope="module")
def c3():
    return HermitianCurve(3)


SMALL_CURVES = {q: HermitianCurve(q) for q in (2, 3, 4)}


# -- LinearCode core --------------------------------------------------------


def test_construction_reduces():
    F = make_field(2, 1)
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]  # rank 2
    code = codes.LinearCode(F, 3, rows)
    assert code.k == 2 and code.generator == ((1, 0, 1), (0, 1, 1))
    assert code.contains((1, 0, 1))
    assert not code.contains((1, 0, 0))
    # rows that are not yet an RREF span the same code
    assert codes.LinearCode(F, 3, ((1, 1, 0), (1, 0, 1))).contains((0, 1, 1))
    twice = codes.LinearCode(F, 3, ((1, 1, 0), (1, 1, 0)))
    assert twice.k == 1 and twice.min_distance_bruteforce() == 2


@st.composite
def recombined_codes(draw):
    """(code, rows): a code over GF(4) or GF(9), and its generator mixed by
    a random invertible matrix, with zero rows and repeated rows added, in
    random order."""
    F = make_field(*draw(st.sampled_from([(2, 2), (3, 2)])))
    n = draw(st.integers(1, 6))
    elem = st.integers(0, F.q - 1)
    rows = draw(st.lists(st.lists(elem, min_size=n, max_size=n), max_size=n))
    code = codes.LinearCode(F, n, rows)
    k = code.k
    mix = draw(st.lists(st.lists(elem, min_size=k, max_size=k), min_size=k, max_size=k)
               .filter(lambda a: rank(a, F) == k))
    mixed = []
    for coeffs in mix:
        word = [0] * n
        for c, row in zip(coeffs, code.generator):
            word = F.add_scaled_row(word, c, row)
        mixed.append(word)
    extra = [[0] * n] * draw(st.integers(0, 2))
    extra += [mixed[i] for i in draw(st.lists(st.integers(0, k - 1), max_size=2))] if k else []
    return code, draw(st.permutations(mixed + extra))


@settings(max_examples=100, deadline=None)
@given(recombined_codes())
def test_equal_codes_are_equal_row_spaces(case):
    code, rows = case
    F, n = code.field, code.n
    assert codes.LinearCode(F, n, rows) == code
    assert codes.LinearCode(F, n, code.generator) == code
    for i, (row, pc) in enumerate(zip(code.generator, code.pivots)):
        assert row[pc] == 1 and not any(row[:pc])
        assert [other[pc] for other in code.generator] == [int(j == i) for j in range(code.k)]


def ref_dual(code):
    """The dual as the row-reduced nullspace of the generator: the oracle
    for `build_C`, which builds the dual at its own divisor."""
    return codes.LinearCode(code.field, code.n,
                            ref_nullspace(code.generator, code.field, code.n))


def test_duality():
    F = make_field(2, 2)
    code = codes.LinearCode(F, 4, [[1, 0, 1, 2], [0, 1, 1, 3]])
    dual = ref_dual(code)
    assert code.k + dual.k == 4
    for row in code.generator:
        for drow in dual.generator:
            assert F.dot(row, drow) == 0
    assert ref_dual(dual).generator == code.generator


def test_repetition_code_distance():
    F = make_field(2, 2)
    rep = codes.LinearCode(F, 7, [[1] * 7])
    assert rep.min_distance_bruteforce() == 7
    zero = codes.LinearCode(F, 7, [])
    assert zero.min_distance_bruteforce() is None


def test_bruteforce_cap():
    F = make_field(2, 8)
    rows = [[1 if i == j else 0 for j in range(30)] for i in range(30)]
    code = codes.LinearCode(F, 30, rows)
    with pytest.raises(SearchTooLarge):
        code.min_distance_bruteforce()


def test_codewords_count_and_order():
    F = make_field(2, 1)
    code = codes.LinearCode(F, 3, [[1, 0, 1], [0, 1, 1]])
    words = list(code.codewords())
    assert len(words) == 4 and words[0] == (0, 0, 0)
    assert words == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]  # message-lexicographic
    assert len(set(words)) == 4


# -- enumeration against the element-at-a-time references ------------------


def ref_codewords(code):
    """Every codeword, message-lexicographic order, one cell at a time."""
    F = code.field
    for msg in itertools.product(range(F.q), repeat=code.k):
        word = [0] * code.n
        for coef, row in zip(msg, code.generator):
            if coef:
                for c in range(code.n):
                    word[c] = F.add(word[c], F.mul(coef, row[c]))
        yield tuple(word)


@st.composite
def small_codes(draw):
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 8)]))
    F = make_field(p, k)
    n = draw(st.integers(1, 7))
    dim = draw(st.integers(0, max(i for i in range(n + 1) if F.q**i <= 700)))
    elem = st.integers(0, F.q - 1)
    rows = draw(st.lists(st.lists(elem, min_size=n, max_size=n), min_size=dim, max_size=dim))
    return codes.LinearCode(F, n, rows)


@settings(max_examples=150, deadline=None)
@given(small_codes(), st.sampled_from([1, 2, 9, 1 << 10]))
def test_codewords_and_distance_match_full_enumeration(code, block):
    # a small block size makes the leading rows run as an outer message loop
    saved, codes._BLOCK = codes._BLOCK, block
    try:
        words = list(code.codewords())
        assert words == list(ref_codewords(code))
        weights = [sum(1 for v in w if v) for w in words if any(w)]
        assert code.min_distance_bruteforce() == (min(weights) if code.k else None)
    finally:
        codes._BLOCK = saved


@settings(max_examples=150, deadline=None)
@given(small_codes(), st.data())
def test_contains_matches_rank(code, data):
    F = code.field
    if data.draw(st.booleans()) and code.k:
        word = data.draw(st.sampled_from(list(code.codewords())))
    else:
        word = data.draw(st.lists(st.integers(0, F.q - 1), min_size=code.n, max_size=code.n))
    aug = [list(r) for r in code.generator] + [list(word)]
    assert code.contains(word) == (rank(aug, F) == code.k)


def test_enumeration_memory_is_bounded():
    F = make_field(2, 2)
    n = 16
    rows = [[1 if j in (i, i + 4) else 0 for j in range(n)] for i in range(12)]
    code = codes.LinearCode(F, n, rows)
    assert F.q**code.k == 1 << 24  # at the cap, still searchable
    tracemalloc.start()
    try:
        start = time.perf_counter()
        it = iter(code.codewords())
        assert next(it) == (0,) * n
        assert time.perf_counter() - start < 1.0
        for _ in range(5000):  # past the first block
            next(it)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    bigger = codes.LinearCode(F, n, rows + [[0] * 15 + [1]])
    with pytest.raises(SearchTooLarge):
        bigger.min_distance_bruteforce()


# -- evaluation codes -------------------------------------------------------


def test_evaluation_points(c2, c3):
    """The code support is every affine point but (0, 0), lexicographic."""
    pts2 = c2.points[1:]
    assert len(pts2) == 7 == c2.n and (0, 0) not in pts2
    assert list(pts2) == sorted(pts2)
    assert len(c3.points[1:]) == 26 == c3.n


def test_build_E_examples(c2):
    e21 = codes.build_E(c2, 2, 1)
    assert (e21.n, e21.k) == (7, 3)
    assert codes.build_E(c2, 3, 2).k == 5
    assert codes.build_E(c2, 0, 1).k == 1
    with pytest.raises(MBelowLambda):
        codes.build_E(c2, 2, 0)
    for build in (codes.build_E, codes.build_C):
        with pytest.raises(NegativeEll, match="ell = -5 < 0"):
            build(c2, -5, 1)
        with pytest.raises(MBelowLambda):  # m is checked first
            build(c2, -5, 0)


def test_build_C_examples(c2):
    c21 = codes.build_C(c2, 2, 1)
    assert (c21.n, c21.k) == (7, 4)
    assert c21.min_distance_bruteforce() == 3
    e21 = codes.build_E(c2, 2, 1)
    assert e21.k + c21.k == 7
    for row in e21.generator:
        for drow in c21.generator:
            assert c2.field.dot(row, drow) == 0


@st.composite
def dual_cells(draw):
    """ell small, mid-range, or past saturation, where the dual divisor's
    ell, n + 2*genus - 1 - ell, is negative."""
    q = draw(st.sampled_from([2, 3, 4]))
    curve = SMALL_CURVES[q]
    n, g = q**3 - 1, curve.genus
    lam = curve.profile_closed_form().lambda_sigma
    m = draw(st.integers(lam, lam + 2 * q + 1))
    ell = draw(st.one_of(st.integers(0, 3), st.integers(0, n + 2 * g),
                         st.integers(n + 2 * g - 1, n + 2 * g + 20)))
    return q, ell, m


@settings(max_examples=80, deadline=None)
@given(dual_cells())
@example((2, 10**8, 1))
@example((4, 10**8, 11))
@example((3, 0, 10**8))
@example((4, 2, 10**8))
@example((4, 11, 60))  # C = {0}, three below ell + m = n + 2*genus - 1
@example((4, 0, 11))
def test_build_C_is_the_nullspace_dual(cell):
    """C_ell^m built at the dual divisor is the row-reduced nullspace of
    E_ell^m, and its counted dimension is n - dim E_ell^m."""
    q, ell, m = cell
    curve = SMALL_CURVES[q]
    n, g = q**3 - 1, curve.genus
    e, c = codes.build_E(curve, ell, m), codes.build_C(curve, ell, m)
    assert c == ref_dual(e)
    assert e.k + c.k == n == e.n == c.n
    assert c.k == codes.dimension(curve, n + 2 * g - 1 - ell, -m - 1)


def test_nesting(c2):
    for m in (1, 2):
        prev_e = codes.build_E(c2, 0, m)
        prev_c = codes.build_C(c2, 0, m)
        for ell in range(1, 7):
            e = codes.build_E(c2, ell, m)
            c = codes.build_C(c2, ell, m)
            for row in prev_e.generator:
                assert e.contains(row)  # E grows
            for row in c.generator:
                assert prev_c.contains(row)  # C shrinks
            prev_e, prev_c = e, c


def test_saturation_index(c2):
    assert codes.saturation_index(c2, 1) == 6
    assert codes.saturation_index(c2, 2) == 6
    assert codes.saturation_index(SMALL_CURVES[4], 60) == 11  # README's example
    # rank is monotone in ell and full exactly from the saturation index on
    from nordcodes.linalg import rank

    ranks = [
        rank(codes.evaluation_matrix(c2, ell, 1), c2.field) for ell in range(9)
    ]
    assert ranks == sorted(ranks)
    assert ranks[6] == 7 and ranks[5] < 7


def _scanned_saturation_index(curve, m):
    """The oracle: the least ell whose counted dimension is n."""
    n = len(curve.points) - 1
    return next(ell for ell in range(n + 2 * curve.genus) if codes.dimension(curve, ell, m) == n)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_saturation_index_matches_the_scan(q):
    curve = HermitianCurve(q)
    lam = 2 * curve.genus - 1
    for m in range(lam, lam + 3 * q**3):
        assert codes.saturation_index(curve, m) == _scanned_saturation_index(curve, m)


@st.composite
def code_cells(draw):
    q = draw(st.sampled_from([2, 3]))
    curve = SMALL_CURVES[q]
    n, g = q**3 - 1, curve.genus
    lam = curve.profile_closed_form().lambda_sigma
    return q, draw(st.integers(-12, n + 2 * g + 1)), draw(st.integers(lam, lam + 39))


@settings(max_examples=120, deadline=None)
@given(code_cells())
@example((4, 10, 60))
@example((4, 11, 60))  # saturated below ell + m = n + 2*genus - 1 = 74
@example((4, 12, 60))
@example((4, 13, 60))
@example((4, 14, 60))
@example((4, 0, 3))
@example((4, 40, 20))
def test_dimension_is_the_rank_of_the_listed_matrix(cell):
    q, ell, m = cell
    curve = SMALL_CURVES[q]
    assert codes.dimension(curve, ell, m) == rank(codes.evaluation_matrix(curve, ell, m), curve.field)


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([2, 3]), m_up=st.integers(0, 36), past=st.integers(-4, 5))
@example(q=2, m_up=0, past=-2)  # E_5^1 is not yet F^7
def test_saturated_build_E_is_the_listed_code(q, m_up, past):
    """Around ell + m = n + 2*genus - 1, the evaluation code equals the RREF
    of the listed evaluation matrix; that code is the full space exactly
    when the counted dimension is n, and then it is the identity unlisted.
    At large m this ell is negative: the private builder takes it (the dual
    divisor needs it) and the public build_E refuses it."""
    curve = SMALL_CURVES[q]
    n, g = curve.n, curve.genus
    m = curve.profile_closed_form().lambda_sigma + m_up
    ell = n + 2 * g - 1 + past - m
    listed = codes.LinearCode(curve.field, n, codes.evaluation_matrix(curve, ell, m))
    assert codes._evaluation_code(curve, ell, m) == listed
    if ell < 0:
        with pytest.raises(NegativeEll):
            codes.build_E(curve, ell, m)
    else:
        assert codes.build_E(curve, ell, m) == listed
    assert (listed.k == n) == (codes.dimension(curve, ell, m) == n)
    if past >= 0:
        assert listed.k == n
    assert codes.saturation_index(curve, m) <= max(0, n + 2 * g - 1 - m)


def test_huge_m_is_counted_not_listed():
    """At m = 10^8 every code is saturated: the index is counted, and the
    layer test reads C_l^m = {0} with no evaluation matrix listed."""
    curve = HermitianCurve(2)
    start = time.perf_counter()
    assert codes.saturation_index(curve, 10**8) == 0
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(WordNotInLayer):
        codes.verify_prop63(curve, 0, 10**8, (1,) + (0,) * 6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("q,ms", [(2, (1, 2, 3)), (3, (5, 6, 8))])
def test_caches_match_direct_evaluation(q, ms):
    curve = HermitianCurve(q)
    pts = curve.points[1:]
    for m in ms:
        # saturation: the least ell at which a fresh evaluation matrix has full rank
        ref = next(ell for ell in range(200)
                   if rank([[monomial(curve, a, b).evaluate(p) for p in pts]
                            for a, b in curve.riemann_roch_basis(ell, m)], curve.field) == len(pts))
        assert codes.saturation_index(curve, m) == ref
        for ell in (0, ref - 1, ref):
            assert codes.evaluation_matrix(curve, ell, m) == [
                [monomial(curve, a, b).evaluate(p) for p in pts]
                for a, b in curve.riemann_roch_basis(ell, m)
            ]
    assert [list(curve.image(curve.good_basis_function(t))) for t in range(9)] == [
        [monomial(curve, *curve.good_basis_function(t)).evaluate(p) for p in pts]
        for t in range(9)
    ]


# -- syndromes --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3]), data=st.data())
def test_syndrome_matrix_matches_cellwise(q, data):
    curve = HermitianCurve(q)
    F, pts = curve.field, curve.points[1:]
    word = data.draw(st.lists(st.integers(0, F.q - 1), min_size=len(pts), max_size=len(pts)))
    L = data.draw(st.integers(0, 8))
    h = [[monomial(curve, *curve.good_basis_function(t)).evaluate(p) for p in pts]
         for t in range(L + 1)]
    ref = []
    for i in range(L + 1):
        row = []
        for j in range(L + 1):
            total = 0
            for c in range(len(pts)):
                total = F.add(total, F.mul(F.mul(h[i][c], h[j][c]), word[c]))
            row.append(total)
        ref.append(tuple(row))
    assert codes.syndrome_matrix(curve, 1, word, L).entries == tuple(ref)


def test_syndrome_of_zero_word(c2):
    n = c2.n
    S = codes.syndrome_matrix(c2, 1, [0] * n, 3)
    assert all(v == 0 for row in S.entries for v in row)
    assert S.rank(c2.field) == 0


def test_syndrome_weight_one_rank(c2):
    n = c2.n
    for pos in range(n):
        word = [0] * n
        word[pos] = 1
        S = codes.syndrome_matrix(c2, 1, word, 3)
        assert S.rank(c2.field) <= 1


def test_syndrome_is_symmetric_bilinear(c2):
    n = c2.n
    word = [1, 0, 2, 0, 3, 0, 1]
    assert len(word) == n
    S = codes.syndrome_matrix(c2, 1, word, 4)
    for i in range(5):
        for j in range(5):
            assert S.entries[i][j] == S.entries[j][i]


def _layer_words(curve, ell, m):
    c_ell = codes.build_C(curve, ell, m)
    c_next = codes.build_C(curve, ell + 1, m)
    return [w for w in c_ell.codewords() if not c_next.contains(w)]


def test_verify_prop63(c2):
    words = _layer_words(c2, 2, 1)
    assert len(words) == 192
    for word in words[:8]:
        rep = codes.verify_prop63(c2, 2, 1, word)
        assert rep["verdict"] == "PASS"
        assert rep["rank"] >= rep["n_set_size"] == 3
    with pytest.raises(WordNotInLayer):
        codes.verify_prop63(c2, 2, 1, (0,) * 7)
    # the last layer C_5^1 \ C_6^1: from the saturation index 6 on, C_l^1 = {0}
    last = _layer_words(c2, 5, 1)
    assert len(last) == 3
    assert all(codes.verify_prop63(c2, 5, 1, w)["verdict"] == "PASS" for w in last)


@settings(max_examples=60, deadline=None)
@given(ell=st.integers(0, 8), m=st.integers(1, 4), pick=st.integers(0, 63),
       noise=st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=7, max_size=7)))
@example(ell=5, m=1, pick=1, noise=None)  # the last layer before the saturation index 6
def test_layer_test_matches_the_built_codes(c2, ell, m, pick, noise):
    """verify_prop63 refuses a word exactly when the built codes put it
    outside C_ell^m minus C_{ell+1}^m."""
    c_ell, c_next = codes.build_C(c2, ell, m), codes.build_C(c2, ell + 1, m)
    words = list(itertools.islice(c_ell.codewords(), 64))
    word = noise if noise is not None else words[pick % len(words)]
    if c_ell.contains(word) and not c_next.contains(word):
        assert codes.verify_prop63(c2, ell, m, word)["verdict"] == "PASS"
    else:
        with pytest.raises(WordNotInLayer):
            codes.verify_prop63(c2, ell, m, word)


_NOT_VECTORS = {
    "row-too-short": lambda F, c, w: codes.LinearCode(F, 3, [[1, 1]]),  # was d = 3
    "ragged-rows": lambda F, c, w: codes.LinearCode(F, 3, [[1, 1, 0], [1]]),
    "entry-out-of-field": lambda F, c, w: codes.LinearCode(F, 3, [[1, 2, 0]]),
    "row-not-a-sequence": lambda F, c, w: codes.LinearCode(F, 3, [1, 1, 0]),
    "contains-short": lambda F, c, w: codes.build_C(c, 2, 1).contains(w[:-1]),
    "contains-negative": lambda F, c, w: codes.build_C(c, 2, 1).contains(w[:-1] + [-1]),
    "prop63-long": lambda F, c, w: codes.verify_prop63(c, 2, 1, w + [0]),  # was PASS
    "prop63-short": lambda F, c, w: codes.verify_prop63(c, 2, 1, w[:-1]),
    "prop63-iterator": lambda F, c, w: codes.verify_prop63(c, 2, 1, iter(w)),
    "prop63-float": lambda F, c, w: codes.verify_prop63(c, 2, 1, w[:-1] + [1.0]),
    "syndrome-short": lambda F, c, w: codes.syndrome_matrix(c, 1, w[:3], 3),
    "syndrome-out-of-field": lambda F, c, w: codes.syndrome_matrix(c, 1, w[:-1] + [4], 3),
}


@pytest.mark.parametrize("call", list(_NOT_VECTORS.values()), ids=list(_NOT_VECTORS))
def test_vectors_are_checked(c2, call):
    """Each vector of F^n entering the code layer is checked: zip used to
    truncate a word or row of another length, and an entry outside the
    field raised IndexError."""
    w = list(_layer_words(c2, 2, 1)[0])
    assert codes.verify_prop63(c2, 2, 1, w)["verdict"] == "PASS"
    with pytest.raises(NotAVector):
        call(make_field(2, 1), c2, w)


def test_verify_prop63_checks_the_cell_first(c2):
    """m, then ell, as in the builds, before any basis is listed: ell = -1
    used to list R(-1, m) and answer WordNotInLayer."""
    w = _layer_words(c2, 2, 1)[0]
    start = time.perf_counter()
    with pytest.raises(NegativeEll):
        codes.verify_prop63(c2, -1, 10**9, w)
    with pytest.raises(MBelowLambda):
        codes.verify_prop63(c2, -1, 0, w)
    assert time.perf_counter() - start < 1.0


def test_profile_built_only_where_it_is_read(monkeypatch, capsys):
    """The builds take lambda_sigma = 2*genus - 1 and build no profile; the
    Prop 6.3 sweep and Thm 6.1 build it once per curve and keep it."""
    builds = []
    post_init = GoodBasisProfile.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)

    monkeypatch.setattr(GoodBasisProfile, "__post_init__", counted)
    curve = HermitianCurve(2)
    codes.build_E(curve, 2, 1)
    codes.build_C(curve, 2, 1)
    codes.saturation_index(curve, 1)
    for action in ("build", "distance"):
        assert main(["code", action, "--q", "2", "--ell", "2", "--m", "1"]) == 0
    assert len(builds) == 0
    words = _layer_words(curve, 2, 1)
    assert len(words) == 192
    assert all(codes.verify_prop63(curve, 2, 1, w)["verdict"] == "PASS" for w in words)
    assert codes.verify_thm61(curve, 2, 1)["verdict"] == "PASS"
    assert len(builds) == 1
    other = HermitianCurve(2)
    codes.verify_thm61(other, 2, 1)
    assert len(builds) == 2


def test_verify_prop63_reports_pattern_violations(c2, monkeypatch):
    """A syndrome matrix with a nonzero entry at N-set pair (0, 1) and a zero
    diagonal entry at (1, 1) fails both pattern checks, each with its entry."""
    pairs = bounds.n_set(c2.profile_closed_form(), 2, 1).pairs
    real = codes.syndrome_matrix

    def broken(curve, m, word, L):
        entries = [list(row) for row in real(curve, m, word, L).entries]
        entries[pairs[0][0]][pairs[1][1]] = 1
        entries[pairs[1][0]][pairs[1][1]] = 0
        return codes.SyndromeMatrix(tuple(map(tuple, entries)))

    monkeypatch.setattr(codes, "syndrome_matrix", broken)
    rep = codes.verify_prop63(c2, 2, 1, _layer_words(c2, 2, 1)[0])
    assert rep["verdict"] == "FAIL"
    assert not rep["zero_pattern"] and not rep["diagonal_nonzero"]
    assert rep["violations"] == [{"u": 0, "v": 1, "value": 1}, {"u": 1, "v": 1, "value": 0}]


def test_verify_prop63_rank_gives_weight_bound(c2):
    # rank of the syndrome matrix never exceeds the weight of the word
    for word in _layer_words(c2, 1, 1)[:12]:
        wt = sum(1 for v in word if v)
        S = codes.syndrome_matrix(c2, 1, word, codes.saturation_index(c2, 1))
        assert S.rank(c2.field) <= wt


def test_verify_thm61(c2):
    rep = codes.verify_thm61(c2, 2, 1)
    assert rep["verdict"] == "PASS"
    assert rep["d_true"] == 3 and rep["d_true"] >= rep["d_nord"]
    assert rep["goppa_ok"]
    rep = codes.verify_thm61(c2, 2, 3)
    assert rep["d_true"] == 5 and rep["d_nord"] == 4


def test_code_json(c2):
    payload = json.loads(codes.code_to_json(c2, 2, 1))
    assert payload["q"] == 2 and payload["ell"] == 2 and payload["m"] == 1
    assert payload["n"] == 7 and payload["k"] == 3
    assert len(payload["generator"]) == 3
    assert len(payload["parity_check"]) == 4
    for row in payload["generator"]:
        for hrow in payload["parity_check"]:
            assert c2.field.dot(row, hrow) == 0
    again = codes.LinearCode(
        c2.field, 7, tuple(tuple(r) for r in payload["generator"])
    )
    assert again.generator == codes.build_E(c2, 2, 1).generator
