"""The n-order minimum-distance bound and its companions.

Everything here is a pure function of a GoodBasisProfile: the running maximum
Sigma(s), the sets N_r^m, the bound d_nord, the Goppa bound, a table of both
with their difference, and a diagnostic that compares the closed formula
d_nord = l + 2 - genus + #A against direct enumeration.

n_set_size, d_nord and bound_table count #N_r^m from one sorted list of
failure thresholds per (profile, m), built in O(genus log genus): a bisect
per set, so d_nord costs O(genus log genus) whatever ell is.  n_set lists
the pairs themselves and is the reference the count is tested against.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import HypothesisNotMet, TableTooLarge, require_ell, require_m
from .semigroup import GoodBasisProfile
from .value import Value

CSV_HEADER = ["ell", "m", "n_set_size", "d_nord", "d_goppa", "delta"]

_TABLE_CAP = 1 << 20  # rows, and N-set counts, of one bound table


def capital_sigma(profile: GoodBasisProfile, s: int) -> int:
    """Sigma(s) = max of sigma(f_0..f_s), nondecreasing in s: the value of
    the last step (i, v) of `profile.sigma_steps` with i <= s."""
    if s < 0:
        return 0
    steps = profile.sigma_steps
    return steps[bisect_right(steps, s, key=lambda step: step[0]) - 1][1]


class NSet(Value):
    _fields = ("r", "m", "pairs")  # pairs lexicographic; i+j = r+1 throughout

    def __len__(self):
        return len(self.pairs)


def n_set(profile: GoodBasisProfile, r: int, m: int) -> NSet:
    """Pairs (i, j) with i + j = r + 1 and sigma(f_i) + Sigma(j) <= m."""
    require_ell(r)
    require_m(m, profile.lambda_sigma)
    pairs = tuple(
        (i, r + 1 - i)
        for i in range(r + 2)
        if profile.sigma(i) + capital_sigma(profile, r + 1 - i) <= m
    )
    return NSet(r, m, pairs)


def _fail_thresholds(profile: GoodBasisProfile, m: int) -> list[int]:
    """Sorted r at which each failing pair of N_r^m starts to fail.

    Of the r + 2 pairs (i, r + 1 - i), the end i = 0 always qualifies since
    sigma(f_0) = 0 and Sigma(r + 1) <= lambda_sigma <= m, and so does the end
    i = r + 1 since Sigma(0) = 0.  Every nongap i qualifies as well, because
    sigma(f_i) = 0 there.  A gap i with sigma(f_i) = v fails once Sigma(r + 1
    - i) > m - v, that is for r >= i + s_i - 1, with s_i the least s where
    Sigma(s) > m - v: the key of the first step above m - v, if any.  So

        #N_r^m = (r + 2) - #{thresholds <= r}.
    """
    steps = profile.sigma_steps
    values = [v for _, v in steps]  # strictly rising
    out = []
    for i, v in profile.entries:
        k = bisect_right(values, m - v)
        if k < len(steps):
            out.append(i + steps[k][0] - 1)
    out.sort()
    return out


def n_set_size(profile: GoodBasisProfile, r: int, m: int) -> int:
    """#N_r^m in O(genus log genus), from the failure thresholds."""
    require_ell(r)
    require_m(m, profile.lambda_sigma)
    return r + 2 - bisect_right(_fail_thresholds(profile, m), r)


def _n_set_sizes(thresholds: list[int], lo: int, hi: int) -> list[int]:
    """#N_r^m for r in [lo, hi], from the thresholds of m."""
    return [r + 2 - bisect_right(thresholds, r) for r in range(lo, hi + 1)]


def d_nord(profile: GoodBasisProfile, ell: int, m: int) -> int:
    """min #N_r^m over r >= ell; the window r in [ell, ell+genus] suffices."""
    require_ell(ell)
    require_m(m, profile.lambda_sigma)
    return min(_n_set_sizes(_fail_thresholds(profile, m), ell, ell + profile.genus))


def d_goppa(ell: int, m: int, genus: int) -> int:
    """ell + m - 2*genus + 2, returned raw (may be nonpositive)."""
    return ell + m - 2 * genus + 2


def lemma62_diagnostic(profile: GoodBasisProfile, ell: int, m: int) -> dict:
    """Compare the closed formula ell + 2 - genus + #A_ell^m (and its equality
    claims against the Goppa bound) with direct enumeration.

    Reports AGREE or DISAGREE; never asserts either side as ground truth.
    Requires lambda_sigma <= m < 2*lambda_sigma and ell >= lambda_rho + s - 1.
    """
    require_ell(ell)
    lam = profile.lambda_sigma
    if not (lam <= m < 2 * lam):
        raise HypothesisNotMet(f"need lambda_sigma <= m < 2*lambda_sigma, got m={m}, lambda_sigma={lam}")
    if ell < profile.lambda_rho + profile.s_index - 1:
        raise HypothesisNotMet(
            f"need ell >= lambda_rho + s - 1 = {profile.lambda_rho + profile.s_index - 1}, got {ell}"
        )
    direct = d_nord(profile, ell, m)
    n_a = ell - sum(i <= ell for i, _ in profile.entries)  # #A: the nongaps in [1, ell]
    formula = ell + 2 - profile.genus + n_a
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
    try:
        n_ell, n_m = len(ell_range), len(m_range)
    except OverflowError:  # a range longer than sys.maxsize
        raise TableTooLarge("a range has more than sys.maxsize values") from None
    if not n_ell or not n_m:
        return []
    # refused from the sizes before anything is listed; the rows first, so
    # that the ell span is read off at most _TABLE_CAP values
    if n_ell * n_m > _TABLE_CAP:
        raise TableTooLarge(f"table has {n_ell * n_m} rows (> {_TABLE_CAP})")
    n_counts = (max(ell_range) - min(ell_range) + profile.genus + 1) * n_m
    if n_counts > _TABLE_CAP:
        raise TableTooLarge(f"table needs {n_counts} N-set counts (> {_TABLE_CAP})")
    ells, ms = list(ell_range), list(m_range)
    # raise what the first failing cell in ell-major order would raise
    require_ell(ells[0])
    for m in ms:
        require_m(m, profile.lambda_sigma)
    for ell in ells:
        require_ell(ell)
    genus = profile.genus
    lo = min(ells)
    counts = {m: _n_set_sizes(_fail_thresholds(profile, m), lo, max(ells) + genus) for m in ms}
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
