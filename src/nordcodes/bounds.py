"""The n-order minimum-distance bound and its companions.

Everything here is a pure function of a GoodBasisProfile: the running maximum
Sigma(s), the sets N_r^m, the bound d_nord, the Goppa bound, their difference
delta, the A/B/C decomposition of N_r^m and a diagnostic that compares the
closed formula d_nord = l + 2 - genus + #A against direct enumeration.

d_nord, delta and bound_table count #N_r^m with n_set_size, in O(genus) per
set, and bound_table counts each set once for the whole table; n_set lists
the pairs themselves and is the reference the count is tested against.
"""

from __future__ import annotations

from .errors import HypothesisNotMet, MBelowLambda, NegativeEll
from .semigroup import GoodBasisProfile
from .value import Value

CSV_HEADER = ["ell", "m", "n_set_size", "d_nord", "d_goppa", "delta"]


def _require_ell(ell: int):
    if ell < 0:
        raise NegativeEll(f"ell = {ell} < 0")


def _require_m(profile: GoodBasisProfile, m: int):
    if m < profile.lambda_sigma:
        raise MBelowLambda(f"m = {m} < lambda_sigma = {profile.lambda_sigma}")


def capital_sigma(profile: GoodBasisProfile, s: int) -> int:
    """Sigma(s) = max of sigma(f_0..f_s); nondecreasing in s."""
    if s < 0:
        return 0
    prefix = profile.sigma_prefix
    return prefix[min(s, len(prefix) - 1)]


class NSet(Value):
    _fields = ("r", "m", "pairs")  # pairs lexicographic; i+j = r+1 throughout

    def __len__(self):
        return len(self.pairs)


def n_set(profile: GoodBasisProfile, r: int, m: int) -> NSet:
    """Pairs (i, j) with i + j = r + 1 and sigma(f_i) + Sigma(j) <= m."""
    _require_ell(r)
    _require_m(profile, m)
    pairs = tuple(
        (i, r + 1 - i)
        for i in range(r + 2)
        if profile.sigma(i) + capital_sigma(profile, r + 1 - i) <= m
    )
    return NSet(r, m, pairs)


def n_set_size(profile: GoodBasisProfile, r: int, m: int) -> int:
    """#N_r^m in O(genus), by counting the pairs that fail.

    Of the r + 2 pairs (i, r + 1 - i), the end i = 0 always qualifies since
    sigma(f_0) = 0 and Sigma(r + 1) <= lambda_sigma <= m, and so does the end
    i = r + 1 since Sigma(0) = 0.  Every nongap i qualifies as well, because
    sigma(f_i) = 0 there.  Only a gap i in [1, r] can fail, so

        #N_r^m = (r + 2) - #{gap i <= r : sigma(f_i) + Sigma(r + 1 - i) > m}.
    """
    _require_ell(r)
    _require_m(profile, m)
    prefix = profile.sigma_prefix
    top = len(prefix) - 1
    failing = 0
    for i, v in profile.entries:  # sorted by i
        if i > r:
            break
        j = r + 1 - i
        if v + prefix[j if j < top else top] > m:
            failing += 1
    return r + 2 - failing


def d_nord(profile: GoodBasisProfile, ell: int, m: int) -> int:
    """min #N_r^m over r >= ell; the window r in [ell, ell+genus] suffices."""
    _require_ell(ell)
    _require_m(profile, m)
    return min(n_set_size(profile, r, m) for r in range(ell, ell + profile.genus + 1))


def d_goppa(ell: int, m: int, genus: int) -> int:
    """ell + m - 2*genus + 2, returned raw (may be nonpositive)."""
    return ell + m - 2 * genus + 2


def delta(profile: GoodBasisProfile, ell: int, m: int) -> int:
    return d_nord(profile, ell, m) - d_goppa(ell, m, profile.genus)


def abc_decomposition(profile: GoodBasisProfile, r: int, m: int):
    """Split the interior indices of N_r^m into the nongap part A, the
    saturated-gap part B and the boundary-gap part C.

    #N_r^m = 2 + #A + #B + #C (the endpoints (0, r+1), (r+1, 0) always
    qualify since m >= lambda_sigma).
    """
    _require_m(profile, m)
    s = profile.s_index
    lam = profile.lambda_sigma
    gaps = profile.rho_gaps
    a_set = {i for i in range(1, r + 1) if i not in gaps}
    b_set = {
        i for i in gaps if 1 <= i <= r + 1 - s and profile.sigma(i) + lam <= m
    }
    c_set = {
        i
        for i in gaps
        if r + 2 - s <= i <= r
        and profile.sigma(i) + capital_sigma(profile, r + 1 - i) <= m
    }
    return a_set, b_set, c_set


def lemma62_diagnostic(profile: GoodBasisProfile, ell: int, m: int) -> dict:
    """Compare the closed formula ell + 2 - genus + #A_ell^m (and its equality
    claims against the Goppa bound) with direct enumeration.

    Reports AGREE or DISAGREE; never asserts either side as ground truth.
    Requires lambda_sigma <= m < 2*lambda_sigma and ell >= lambda_rho + s - 1.
    """
    _require_ell(ell)
    lam = profile.lambda_sigma
    if not (lam <= m < 2 * lam):
        raise HypothesisNotMet(f"need lambda_sigma <= m < 2*lambda_sigma, got m={m}, lambda_sigma={lam}")
    if ell < profile.lambda_rho + profile.s_index - 1:
        raise HypothesisNotMet(
            f"need ell >= lambda_rho + s - 1 = {profile.lambda_rho + profile.s_index - 1}, got {ell}"
        )
    direct = d_nord(profile, ell, m)
    a_set, _, _ = abc_decomposition(profile, ell, m)
    formula = ell + 2 - profile.genus + len(a_set)
    dg = d_goppa(ell, m, profile.genus)
    return {
        "ell": ell,
        "m": m,
        "direct": direct,
        "formula": formula,
        "verdict": "AGREE" if direct == formula else "DISAGREE",
        "claim2": {
            "applicable": lam >= profile.genus + 1,
            "formula_says_below_goppa": formula < dg,
            "direct_below_goppa": direct < dg,
        },
        "claim3": {
            "lambda_sigma_equals_genus": lam == profile.genus,
            "direct_equals_goppa": direct == dg,
        },
    }


def bound_table(profile: GoodBasisProfile, ell_range, m_range) -> list[tuple]:
    """Rows (ell, m, #N_ell^m, d_nord, d_goppa, delta) in ell-major order.

    Each #N_r^m is counted once, for r from the least ell to the largest
    ell + genus; d_nord is the minimum of those counts over the window
    [ell, ell + genus], as in d_nord itself.
    """
    ells, ms = list(ell_range), list(m_range)
    if not ells or not ms:
        return []
    # raise what the first failing cell in ell-major order would raise
    _require_ell(ells[0])
    for m in ms:
        _require_m(profile, m)
    for ell in ells:
        _require_ell(ell)
    genus = profile.genus
    lo = min(ells)
    counts = {
        m: [n_set_size(profile, r, m) for r in range(lo, max(ells) + genus + 1)]
        for m in ms
    }
    rows = []
    for ell in ells:
        for m in ms:
            window = counts[m][ell - lo : ell - lo + genus + 1]
            dn = min(window)
            dg = d_goppa(ell, m, genus)
            rows.append((ell, m, window[0], dn, dg, dn - dg))
    return rows


def bound_table_csv(rows) -> str:
    """The table as CSV text; every cell is an int, so none needs quoting."""
    return "".join(",".join(map(str, row)) + "\n" for row in [CSV_HEADER, *rows])
