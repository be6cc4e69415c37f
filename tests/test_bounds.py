from bisect import bisect_right
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from nordcodes import bounds
from nordcodes.errors import (HypothesisNotMet, MBelowLambda, NegativeEll, NordError,
                              TableTooLarge)
from nordcodes.hermitian import HermitianCurve
from nordcodes.semigroup import (GoodBasisProfile, TwoPointSemigroup, hyperelliptic_profile,
                                 ns_from_generators)

HYPER2 = hyperelliptic_profile(2)
HYPER1 = hyperelliptic_profile(1)
EMPTY = GoodBasisProfile(())
HERMITIAN3 = GoodBasisProfile({1: 5, 2: 2, 5: 1}.items())


def d_nord_oracle(profile, ell, m, window=50):
    """Extended-window minimum, independent of the Cor-6.3 shortcut."""
    return min(
        len(bounds.n_set(profile, r, m))
        for r in range(ell, ell + profile.genus + window + 1)
    )


def abc_decomposition(profile, r, m):
    """Split the interior indices of N_r^m into the nongap part A, the
    saturated-gap part B and the boundary-gap part C.

    #N_r^m = 2 + #A + #B + #C (the endpoints (0, r+1), (r+1, 0) always
    qualify since m >= lambda_sigma).
    """
    s = profile.s_index
    lam = profile.lambda_sigma
    gaps = profile.rho_gaps
    a_set = {i for i in range(1, r + 1) if i not in gaps}
    b_set = {i for i in gaps if 1 <= i <= r + 1 - s and profile.sigma(i) + lam <= m}
    c_set = {
        i
        for i in gaps
        if r + 2 - s <= i <= r
        and profile.sigma(i) + bounds.capital_sigma(profile, r + 1 - i) <= m
    }
    return a_set, b_set, c_set


def _gap_bijections(gens):
    """Profiles mapping the gaps of <gens> onto themselves in random order."""
    gaps = sorted(ns_from_generators(gens).gaps)
    return st.permutations(gaps).map(lambda vals: GoodBasisProfile(zip(gaps, vals)))


PROFILES = st.one_of(
    *(_gap_bijections(gens) for gens in ([3, 5], [4, 7], [5, 6, 7])),
    st.sampled_from(
        [hyperelliptic_profile(g) for g in (1, 2, 3, 6)]
        + [HermitianCurve(q).profile_closed_form() for q in (2, 3, 4, 5)]
    ),
)


def _two_point_profiles():
    """Profiles of every two-point semigroup whose gap pairs are, for some
    bijection tau between the gaps of two numerical semigroups of genus <= 4,
    the pairs (a, b) with b < tau(a) on a gap a of the first, or a <
    tau^-1(b) on a gap b of the second; the candidates that are not closed
    are dropped."""
    by_genus = {}
    for gens in ([2, 3], [2, 5], [3, 4, 5], [2, 7], [3, 4], [3, 5, 7], [4, 5, 6, 7],
                 [2, 9], [3, 5], [3, 7, 8], [4, 5, 6], [4, 5, 7], [4, 6, 7, 9]):
        gaps = sorted(ns_from_generators(gens).gaps)
        by_genus.setdefault(len(gaps), []).append(gaps)
    out = set()
    for family in by_genus.values():
        for rho_gaps in family:
            for sigma_gaps in family:
                for tau in permutations(sigma_gaps):
                    pairs = {(a, b) for a, t in zip(rho_gaps, tau) for b in range(t)}
                    pairs |= {(x, t) for a, t in zip(rho_gaps, tau) for x in range(a)}
                    try:
                        out.add(TwoPointSemigroup(frozenset(pairs)).profile())
                    except NordError:
                        continue
    return sorted(out, key=lambda p: p.entries)


TWO_POINT_PROFILES = _two_point_profiles()
THRESHOLD_PROFILES = st.one_of(
    st.sampled_from([hyperelliptic_profile(g) for g in (1, 2, 5, 13, 40)]),
    st.sampled_from([HermitianCurve(q).profile_closed_form() for q in (2, 3, 4, 5)]),
    st.sampled_from(TWO_POINT_PROFILES),
)


def capital_sigma_scan(profile, s):
    """Sigma(s) by rescanning the profile, as before the prefix array."""
    return max((v for i, v in profile.entries if i <= s), default=0)


def test_capital_sigma():
    assert bounds.capital_sigma(HYPER2, 0) == 0
    assert bounds.capital_sigma(HYPER2, 1) == 1
    assert bounds.capital_sigma(HYPER2, 7) == 2
    # nondecreasing
    vals = [bounds.capital_sigma(HYPER2, s) for s in range(10)]
    assert vals == sorted(vals)


def test_n_set_examples():
    ns = bounds.n_set(HYPER2, 2, 3)
    assert ns.pairs == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert len(bounds.n_set(HYPER2, 3, 3)) == 4
    ns0 = bounds.n_set(HERMITIAN3, 0, 5)
    assert ns0.pairs == ((0, 1), (1, 0))
    with pytest.raises(MBelowLambda):
        bounds.n_set(HYPER2, 2, 1)


@settings(max_examples=200, deadline=None)
@given(profile=PROFILES, data=st.data())
def test_n_set_size_matches_enumeration(profile, data):
    r = data.draw(st.integers(0, 3 * profile.lambda_rho), label="r")
    m = data.draw(st.integers(profile.lambda_sigma, 2 * profile.lambda_sigma + 4), label="m")
    assert bounds.n_set_size(profile, r, m) == len(bounds.n_set(profile, r, m))


@settings(max_examples=300, deadline=None)
@given(profile=THRESHOLD_PROFILES, data=st.data())
def test_threshold_count_is_the_n_set_size(profile, data):
    """(r + 2) minus the failure thresholds up to r is the listed #N_r^m."""
    g, lam = profile.genus, profile.lambda_sigma
    r = data.draw(st.integers(0, 3 * g + 7), label="r")
    m = data.draw(st.integers(lam, lam + 2 * g + 2), label="m")
    size = len(bounds.n_set(profile, r, m))
    assert r + 2 - bisect_right(bounds._fail_thresholds(profile, m), r) == size
    assert bounds.n_set_size(profile, r, m) == size


@settings(max_examples=100, deadline=None)
@given(profile=PROFILES, data=st.data())
def test_capital_sigma_matches_scan(profile, data):
    s = data.draw(st.integers(-2, profile.lambda_rho + 3), label="s")
    assert bounds.capital_sigma(profile, s) == capital_sigma_scan(profile, s)


@settings(max_examples=100, deadline=None)
@given(profile=st.one_of(PROFILES, st.sampled_from(TWO_POINT_PROFILES)), data=st.data())
def test_profile_ignores_entry_order(profile, data):
    again = GoodBasisProfile(data.draw(st.permutations(profile.entries), label="entries"))
    assert again == profile and again.entries == profile.entries
    assert again.genus == profile.genus == len(profile.entries)
    assert again.sigma_steps == profile.sigma_steps


@settings(max_examples=60, deadline=None)
@given(profile=PROFILES, data=st.data())
def test_d_nord_matches_extended_window(profile, data):
    ell = data.draw(st.integers(0, 3 * profile.lambda_rho), label="ell")
    m = data.draw(st.integers(profile.lambda_sigma, 2 * profile.lambda_sigma + 4), label="m")
    assert bounds.d_nord(profile, ell, m) == d_nord_oracle(profile, ell, m)


def test_d_nord_huge_ell():
    # below 2*lambda_sigma the gap i = 2 never qualifies; at it, every pair does
    assert bounds.d_nord(HYPER2, 10**9, 3) == 10**9 + 1
    assert bounds.d_nord(HYPER2, 10**9, 4) == 10**9 + 2


def test_negative_ell_rejected():
    calls = [
        lambda: bounds.n_set(HYPER2, -1, 3),
        lambda: bounds.n_set_size(HYPER2, -1, 3),
        lambda: bounds.d_nord(HYPER2, -5, 3),
        lambda: bounds.bound_table(HYPER2, range(-1, 2), [3]),
        lambda: bounds.lemma62_diagnostic(EMPTY, -1, 0),
    ]
    for call in calls:
        with pytest.raises(NegativeEll):
            call()


def test_n_set_monotone_structure():
    for r in range(8):
        pairs = bounds.n_set(HYPER2, r, 3).pairs
        i_parts = [i for i, _ in pairs]
        j_parts = [j for _, j in pairs]
        assert i_parts == sorted(i_parts) and len(set(i_parts)) == len(i_parts)
        assert j_parts == sorted(j_parts, reverse=True)
        assert pairs[0] == (0, r + 1) and pairs[-1] == (r + 1, 0)


def test_d_nord_examples():
    assert bounds.d_nord(HYPER2, 2, 3) == d_nord_oracle(HYPER2, 2, 3) == 4
    assert bounds.d_nord(HYPER1, 1, 1) == d_nord_oracle(HYPER1, 1, 1) == 2
    # saturation: m >= 2*lambda_sigma forces ell + 2
    for ell in range(8):
        assert bounds.d_nord(HYPER2, ell, 4) == ell + 2
        assert bounds.d_nord(HERMITIAN3, ell, 10) == ell + 2


def test_d_goppa():
    assert bounds.d_goppa(2, 3, 2) == 3
    assert bounds.d_goppa(0, 0, 0) == 2
    assert bounds.d_goppa(1, 1, 1) == 2
    assert bounds.d_goppa(0, 0, 3) == -4  # raw value, never clamped


def test_abc_decomposition():
    a, b, c = abc_decomposition(HYPER2, 4, 3)
    assert (a, b, c) == ({3, 4}, {1}, set())
    assert 2 + len(a) + len(b) + len(c) == len(bounds.n_set(HYPER2, 4, 3)) == 5
    a2, b2, c2 = abc_decomposition(HYPER2, 2, 3)
    assert a2 == set() and (b2 | c2) == {1, 2}
    assert 2 + len(b2) + len(c2) == len(bounds.n_set(HYPER2, 2, 3)) == 4
    # gap-free profile: A fills the interior
    a3, b3, c3 = abc_decomposition(EMPTY, 5, 0)
    assert a3 == set(range(1, 6)) and not b3 and not c3


@settings(max_examples=50, deadline=None)
@given(
    profile=st.sampled_from([HYPER1, HYPER2, hyperelliptic_profile(3), HERMITIAN3]),
    r=st.integers(0, 15),
    m_off=st.integers(0, 6),
)
def test_abc_identity_property(profile, r, m_off):
    m = profile.lambda_sigma + m_off
    a, b, c = abc_decomposition(profile, r, m)
    assert len(bounds.n_set(profile, r, m)) == 2 + len(a) + len(b) + len(c)
    assert a.isdisjoint(b) and a.isdisjoint(c) and b.isdisjoint(c)


def test_size_bounds_and_floor():
    for profile in (HYPER1, HYPER2, HERMITIAN3):
        gamma = profile.genus
        rho_gaps = profile.rho_gaps
        for m in range(profile.lambda_sigma, 2 * profile.lambda_sigma + 4):
            for r in range(0, 16):
                size = len(bounds.n_set(profile, r, m))
                assert size <= r + 2
                assert size >= len([i for i in range(1, r + 2) if i not in rho_gaps])
                if r >= gamma:
                    assert size >= r - gamma + 1


def test_lemma62_diagnostic():
    rep = bounds.lemma62_diagnostic(HYPER2, 4, 3)
    assert rep["verdict"] == "DISAGREE" and rep["direct"] == 5 and rep["formula"] == 6
    rep = bounds.lemma62_diagnostic(HYPER2, 3, 3)
    assert rep["verdict"] == "AGREE" and rep["direct"] == 4
    # gamma = 1: claim (3) equality holds since lambda_sigma = genus
    rep = bounds.lemma62_diagnostic(HYPER1, 1, 1)
    assert rep["claim3"]["lambda_sigma_equals_genus"]
    assert rep["claim3"]["direct_equals_goppa"]
    with pytest.raises(HypothesisNotMet):
        bounds.lemma62_diagnostic(HYPER2, 4, 4)  # m not below 2*lambda_sigma
    with pytest.raises(HypothesisNotMet):
        bounds.lemma62_diagnostic(HYPER2, 1, 3)  # ell too small


@settings(max_examples=200, deadline=None)
@given(profile=THRESHOLD_PROFILES, data=st.data())
def test_diagnostic_counts_a_without_listing_it(profile, data):
    """The diagnostic's #A, the nongaps in [1, ell], is len(A) of the listed
    decomposition."""
    lam, least = profile.lambda_sigma, profile.lambda_rho + profile.s_index - 1
    ell = data.draw(st.integers(least, least + 3 * profile.genus + 5), label="ell")
    m = data.draw(st.integers(lam, 2 * lam - 1), label="m")
    a_set = abc_decomposition(profile, ell, m)[0]
    rep = bounds.lemma62_diagnostic(profile, ell, m)
    assert rep["formula"] == ell + 2 - profile.genus + len(a_set)


def test_bound_table():
    rows = bounds.bound_table(HYPER2, range(2, 5), [3])
    assert [r[3] for r in rows] == [4, 4, 5]
    assert bounds.bound_table(HYPER2, range(0), [3]) == []
    rows = bounds.bound_table(EMPTY, range(0, 5), [0])
    assert all(r[3] == r[0] + 2 for r in rows)


def bound_table_per_cell(profile, ell_range, m_range):
    """The table cell by cell, one d_nord per cell, as before the shared counts."""
    rows = []
    for ell in ell_range:
        for m in m_range:
            nsz = bounds.n_set_size(profile, ell, m)
            dn = bounds.d_nord(profile, ell, m)
            dg = bounds.d_goppa(ell, m, profile.genus)
            rows.append((ell, m, nsz, dn, dg, dn - dg))
    return rows


def _outcome(fn):
    try:
        return fn()
    except NordError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(profile=PROFILES, data=st.data())
def test_bound_table_matches_per_cell(profile, data):
    # unsorted, repeated and sparse ranges, negative ell and m < lambda_sigma
    lam = profile.lambda_sigma
    ells = data.draw(st.lists(st.integers(-3, 2 * profile.lambda_rho + 2), max_size=6),
                     label="ells")
    ms = data.draw(st.lists(st.integers(lam - 2, 2 * lam + 2), max_size=4), label="ms")
    assert _outcome(lambda: bounds.bound_table(profile, ells, ms)) == _outcome(
        lambda: bound_table_per_cell(profile, ells, ms)
    )


def test_bound_table_error_is_first_failing_cell():
    # ell-major order: the first bad ell, or the first bad m if ell[0] is good
    with pytest.raises(NegativeEll, match="ell = -1 <"):
        bounds.bound_table(HYPER2, [0, -1, -2], [3])
    with pytest.raises(MBelowLambda, match="m = 1 <"):
        bounds.bound_table(HYPER2, [0, -1], [3, 1, 0])
    with pytest.raises(NegativeEll):
        bounds.bound_table(HYPER2, [-1, 0], [1])


def test_bound_table_too_large_is_refused_before_listing():
    """Rows (#ell x #m) and N-set counts ((ell span + genus + 1) x #m) are
    capped at 2^20, read from the sizes: a range of 10^18 is never walked."""
    with pytest.raises(TableTooLarge, match=r"^table has 10{18} rows \(> 1048576\)$"):
        bounds.bound_table(HYPER2, range(10**18), [3])
    with pytest.raises(TableTooLarge, match=r"^table has 2000000 rows"):
        bounds.bound_table(HYPER2, range(1000), range(3, 2003))
    with pytest.raises(TableTooLarge, match=r"^table needs 100000003 N-set counts \(> 1048576\)$"):
        bounds.bound_table(HYPER2, [0, 10**8], [3])
    with pytest.raises(TableTooLarge, match=r"^table needs 1049600 N-set counts"):
        bounds.bound_table(HYPER2, range(1023), range(3, 1027))
    # at the cap: 2^20 counts (ell span 2^20 - 3, genus 2)
    assert len(bounds.bound_table(HYPER2, [0, 2**20 - 3], [3])) == 2
    with pytest.raises(TableTooLarge):
        bounds.bound_table(HYPER2, [0, 2**20 - 2], [3])


def test_csv_format():
    text = bounds.bound_table_csv(bounds.bound_table(HYPER2, [2], [3]))
    lines = text.splitlines()
    assert lines[0] == "ell,m,n_set_size,d_nord,d_goppa,delta"
    assert lines[1] == "2,3,4,4,3,1"
