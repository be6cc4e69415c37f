import time
from functools import reduce
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nordcodes.errors import (
    ClosureViolation,
    NegativeGenerator,
    NotCoprime,
    ProfileBijectionViolation,
    SemigroupTooLarge,
    ZeroExcludedViolation,
)
from nordcodes.semigroup import (
    MAX_LARGEST_GAP,
    GoodBasisProfile,
    NumericalSemigroup,
    TwoPointSemigroup,
    hyperelliptic_profile,
    ns_from_generators,
)

HERMITIAN_Q2_GAPSET = {(0, 1), (1, 0)}


def brute_gaps(gens, bound):
    """Reachability oracle: which n in [1, bound] are not sums of generators."""
    reach = {0}
    for n in range(1, bound + 1):
        if any(n - g in reach for g in gens):
            reach.add(n)
    return {n for n in range(1, bound + 1) if n not in reach}


def test_from_generators_examples():
    assert ns_from_generators([2, 3]).gaps == {1}
    assert ns_from_generators([3, 4]).gaps == brute_gaps([3, 4], 12) == {1, 2, 5}
    assert ns_from_generators([1]).gaps == frozenset()
    with pytest.raises(NotCoprime):
        ns_from_generators([4, 6])


def test_negative_generator_refused():
    """A monoid holding -1 is no numerical semigroup: -1 is refused, where it
    used to be dropped silently; 0 generates nothing and is kept."""
    with pytest.raises(NegativeGenerator, match=r"^generators must be >= 0, got \[-1\]$"):
        ns_from_generators([-1, 2, 3])
    with pytest.raises(NegativeGenerator):  # before the Schur bound of <100000, 100001>
        ns_from_generators([100000, 100001, -5])
    assert ns_from_generators([0, 2, 3]).gaps == {1}


def test_queries():
    S = ns_from_generators([2, 3])
    assert 1 not in S
    assert S.largest_gap == 1
    assert S.genus == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 15), min_size=2, max_size=4))
def test_generators_match_oracle(gens):
    if reduce(gcd, gens) != 1:
        with pytest.raises(NotCoprime):
            ns_from_generators(gens)
        return
    S = ns_from_generators(gens)
    bound = max(S.largest_gap + max(gens), max(gens) * 2)
    assert S.gaps == brute_gaps(gens, bound)
    # closure on the oracle side too
    for x in range(1, bound):
        for y in range(1, bound - x):
            if x in S and y in S:
                assert x + y in S


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=12))
@example([6, 10, 15, 12, 20, 30])  # redundant generators
@example([5, 7] + list(range(25, 40)))  # generators past the Schur bound 24
def test_many_generators_match_oracle(gens):
    """The bit-shift build against the reachability oracle on longer lists:
    redundant generators and generators past the Schur bound change nothing."""
    if reduce(gcd, gens) != 1:
        with pytest.raises(NotCoprime):
            ns_from_generators(gens)
        return
    assert ns_from_generators(gens).gaps == brute_gaps(gens, max(gens) ** 2)


def test_closure_violation_detected():
    with pytest.raises(ClosureViolation):
        NumericalSemigroup(frozenset({4}))  # 2 + 2 = 4 with 2 a nongap
    with pytest.raises(ZeroExcludedViolation):
        NumericalSemigroup(frozenset({0, 1}))


def closure_witness_oracle(gaps):
    """The O(lambda^2) double loop: the first nongaps x <= y summing to a gap."""
    lam = max(gaps, default=0)
    for x in range(1, lam + 1):
        if x in gaps:
            continue
        for y in range(x, lam + 1 - x):
            if y not in gaps and (x + y) in gaps:
                return (x, y, x + y)
    return None


@st.composite
def perturbed_semigroups(draw):
    """Gap sets of small semigroups with a few entries toggled (maybe none)."""
    gens = draw(st.lists(st.integers(2, 12), min_size=2, max_size=3))
    g = reduce(gcd, gens)
    if g != 1:
        gens.append(g + 1)
    gaps = ns_from_generators(gens).gaps
    flips = draw(st.frozensets(st.integers(1, max(gaps, default=0) + 3), max_size=3))
    return frozenset(gaps ^ flips)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.frozensets(st.integers(1, 24), max_size=14), perturbed_semigroups()))
@example(frozenset({1, 2, 5, 8, 11}))  # 4 + 4 = 8: only the Apery shift by 4 sees it
@example(frozenset({1, 3, 4, 5, 7, 9}))  # 2 + 2 = 4: the shift by m1 = 2 sees it
@example(ns_from_generators([7, 9, 11]).gaps)
def test_closure_check_matches_double_loop(gaps):
    expected = closure_witness_oracle(gaps)
    try:
        NumericalSemigroup(gaps)
    except ClosureViolation as exc:
        assert expected is not None
        x, y, total = exc.witness
        assert x > 0 and y > 0 and x + y == total
        assert x not in gaps and y not in gaps and total in gaps
    else:
        assert expected is None


def test_size_cap():
    # every input here is refused before any table of its size is built
    with pytest.raises(SemigroupTooLarge):
        ns_from_generators([100000, 100001])
    with pytest.raises(SemigroupTooLarge):
        NumericalSemigroup(frozenset({1, MAX_LARGEST_GAP + 1}))
    with pytest.raises(SemigroupTooLarge):
        GoodBasisProfile({10**12: 1}.items())
    # the shortest coprime prefix bounds the gaps, not the largest generator
    assert ns_from_generators([3, 5, 10**9]).gaps == {1, 2, 4, 7}


def test_cap_admits_1000_1001():
    S = ns_from_generators([1000, 1001])
    assert S.largest_gap == 1000 * 1001 - 1000 - 1001
    assert S.genus == 999 * 1000 // 2


# -- two-point semigroups ---------------------------------------------------


def closure_oracle(gapset, box):
    for xa in range(box + 1):
        for xb in range(box + 1):
            if (xa, xb) in gapset or (xa, xb) == (0, 0):
                continue
            for ya in range(box + 1 - xa):
                for yb in range(box + 1 - xb):
                    if (ya, yb) in gapset:
                        continue
                    if (xa + ya, xb + yb) in gapset:
                        return (xa, xb), (ya, yb)
    return None


def test_tps_examples():
    T = TwoPointSemigroup(frozenset(HERMITIAN_Q2_GAPSET))
    assert closure_oracle(T.gapset, 4) is None
    with pytest.raises(ClosureViolation):
        TwoPointSemigroup(frozenset({(2, 0)}))  # (1,0) + (1,0)
    with pytest.raises(ZeroExcludedViolation):
        TwoPointSemigroup(frozenset({(0, 0)}))
    with pytest.raises(ZeroExcludedViolation, match="^gap pairs must be nonnegative$"):
        TwoPointSemigroup(frozenset({(-1, 2)}))


def full_walk_witness(gapset):
    """The first failing decomposition of the walk over every cell of the box
    below each gap, gaps in sorted order: the reference for the half walk
    of `TwoPointSemigroup`."""
    for ga, gb in sorted(gapset):
        for xa in range(ga + 1):
            for xb in range(gb + 1):
                if (xa, xb) == (0, 0) or (xa, xb) == (ga, gb):
                    continue
                if (xa, xb) not in gapset and (ga - xa, gb - xb) not in gapset:
                    return (xa, xb), (ga - xa, gb - xb), (ga, gb)
    return None


@st.composite
def perturbed_hermitian_gapsets(draw):
    """Hermitian two-point gap sets (q = 2..4) with a pair dropped or added,
    or neither."""
    from nordcodes.hermitian import HermitianCurve

    gaps = set(HermitianCurve(draw(st.integers(2, 4))).two_point_semigroup().gapset)
    box = max(max(p) for p in gaps) + 1
    drop = draw(st.sampled_from([None, *sorted(gaps)]))
    add = draw(st.tuples(st.integers(0, box), st.integers(0, box)))
    return frozenset(gaps - {drop} | ({add} - {(0, 0)}))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any), max_size=12),
    perturbed_hermitian_gapsets(),
))
@example(frozenset({(2, 0)}))
@example(frozenset({(2, 2), (1, 1), (0, 1), (1, 0)}))
def test_closure_witness_matches_the_full_walk(gapset):
    expected = full_walk_witness(gapset)
    try:
        TwoPointSemigroup(gapset)
    except ClosureViolation as exc:
        assert exc.witness == expected
    else:
        assert expected is None


def test_closure_witness_does_not_depend_on_the_listing():
    # (2, 2) and (3, 0) both fail; the least failing gap is the one reported
    witnesses = set()
    for listing in permutations([[0, 3], [3, 0], [0, 1], [2, 2]]):
        with pytest.raises(ClosureViolation) as exc:
            TwoPointSemigroup.from_json({"gaps": list(listing)})
        witnesses.add((exc.value.witness, str(exc.value)))
    assert witnesses == {(((0, 2), (2, 0), (2, 2)),
                          "(0, 2) + (2, 0) = (2, 2) is a gap but both summands are nongaps")}


def test_tps_contains():
    T = TwoPointSemigroup(frozenset(HERMITIAN_Q2_GAPSET))
    assert (0, 0) in T
    assert (1, 0) not in T
    assert (1, 1) in T  # realized by x^2/y on the curve


def column_min_oracle(gapset, i, box):
    return next(t for t in range(box + 2) if (i, t) not in gapset)


def test_profile_hermitian_q2():
    T = TwoPointSemigroup(frozenset(HERMITIAN_Q2_GAPSET))
    prof = T.profile()
    assert dict(prof.entries) == {1: 1}
    assert prof.genus == 1 and prof.lambda_sigma == 1 and prof.s_index == 1


def test_profile_hermitian_q3():
    from nordcodes.hermitian import HermitianCurve

    T = HermitianCurve(3).two_point_semigroup()
    prof = T.profile()
    # column-minimum oracle over the [0,12]^2 box
    expected = {
        i: column_min_oracle(T.gapset, i, 12)
        for i in {a for a, b in T.gapset if b == 0}
    }
    assert dict(prof.entries) == expected == {1: 5, 2: 2, 5: 1}
    assert prof.lambda_sigma == 5 and prof.s_index == 1


def test_profile_empty():
    prof = TwoPointSemigroup(frozenset()).profile()
    assert prof.genus == 0 and prof.entries == ()
    assert prof.lambda_sigma == 0 and prof.lambda_rho == 0 and prof.s_index == 0


def test_rows_and_columns_meet_semigroup():
    T = TwoPointSemigroup(frozenset(HERMITIAN_Q2_GAPSET))
    box = (max(a for a, _ in T.gapset), max(b for _, b in T.gapset))
    for i in range(box[0] + 2):
        assert any((i, t) in T for t in range(box[1] + 2))
        assert any((t, i) in T for t in range(box[0] + 2))


# -- profiles ---------------------------------------------------------------


def test_hyperelliptic_profile():
    p1 = hyperelliptic_profile(1)
    assert dict(p1.entries) == {1: 1}
    p2 = hyperelliptic_profile(2)
    assert dict(p2.entries) == {1: 1, 2: 2}
    assert p2.lambda_sigma == 2 and p2.s_index == 2
    p5 = hyperelliptic_profile(5)
    assert len(p5.entries) == 5 and p5.lambda_rho == 5


def test_gap_bijection_report():
    # construction is the check: every violation found, joined in one message
    assert GoodBasisProfile({1: 1, 2: 2}.items()) == hyperelliptic_profile(2)
    with pytest.raises(ProfileBijectionViolation, match=r"^values repeated: \[1\]$"):
        GoodBasisProfile({1: 1, 2: 1}.items())
    with pytest.raises(ProfileBijectionViolation) as exc:
        GoodBasisProfile(((0, 1), (2, 1), (2, 3)))
    assert str(exc.value) == ("entries must have positive keys and values; "
                              "values repeated: [1]; keys repeated: [2]")
    with pytest.raises(ProfileBijectionViolation,
                       match=r"^complement of H\(rho\) gaps is not a semigroup"):
        GoodBasisProfile(((2, 1),))


def test_malformed_profile_refused_at_once():
    # the refusal reads the entries alone: nothing is built up to the key 10**6
    start = time.perf_counter()
    with pytest.raises(ProfileBijectionViolation):
        GoodBasisProfile({10**6: 1, 5: 1}.items())
    assert time.perf_counter() - start < 0.05


def test_profile_json_roundtrip():
    prof = hyperelliptic_profile(3)
    again = GoodBasisProfile.from_json(prof.to_json())
    assert again == prof


def test_semigroup_json_roundtrip():
    S = ns_from_generators([3, 5])
    assert NumericalSemigroup.from_json(S.to_json()) == S
    T = TwoPointSemigroup(frozenset(HERMITIAN_Q2_GAPSET))
    assert TwoPointSemigroup.from_json(T.to_json()) == T
