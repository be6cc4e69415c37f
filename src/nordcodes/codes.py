"""Two-point evaluation codes E_l^m, their duals C_l^m, syndrome matrices and
brute-force ground truth for the minimum distance.

The evaluation support is every affine point of the curve except the base
point (0, 0), in lexicographic (x-index, y-index) order, so n = q^3 - 1 and
all matrices are bit-reproducible.

The dimension of E_l^m is counted from two Riemann-Roch dimensions
(`dimension`), and that count alone decides saturation in `build_E`,
`build_C` and the layer test of `verify_prop63`.  The dual C_l^m is
itself an evaluation code, E at the dual divisor (n + 2g - 1 - l, -m - 1),
so both codes come from one elimination of one evaluation matrix.

Every row and syndrome is read off the curve's monomial images
(`HermitianCurve.image`): S(y) dots the word once per distinct key sum.
`saturation_index` is counted from one least pole order, in O(q).  The
verifiers read the curve's profile; the builds read only its lambda_sigma.
"""

from __future__ import annotations

import itertools
import json

from . import linalg
from .errors import NotAVector, SearchTooLarge, WordNotInLayer, require_ell, require_m
from .field import Field
from .hermitian import HermitianCurve
from .value import Value

_BRUTE_FORCE_CAP = 1 << 24


def _span(field: Field, rows, start):
    """start + sum c_i rows[i] for every c in GF(q)^len(rows), c in
    lexicographic order: each word from rows[:-1], then its sums with c rows[-1]
    for c = 1 .. q - 1.  A word is start or a new list; callers only read it."""
    if not rows:
        yield start
        return
    for word in _span(field, rows[:-1], start):
        yield word
        for c in range(1, field.q):
            yield field.add_scaled_row(word, c, rows[-1])


def _vector(field: Field, n: int, word) -> tuple[int, ...]:
    """word, a list or tuple of n field indices, as a tuple; else NotAVector."""
    if not (isinstance(word, (list, tuple)) and len(word) == n
            and all(type(v) is int and 0 <= v < field.q for v in word)):
        raise NotAVector(f"expected a list or tuple of {n} field indices 0..{field.q - 1}")
    return tuple(word)


class LinearCode(Value):
    """The row space of `generator`, stored as its RREF, so two codes are
    equal exactly when they span the same space; `pivots` holds the pivot
    column of each row.  Every row must be a vector of n field indices."""

    _fields = ("field", "n", "generator")

    def __post_init__(self):
        rows = [_vector(self.field, self.n, row) for row in self.generator]
        reduced, pivots = linalg.rref(rows, self.field)
        object.__setattr__(self, "generator", tuple(map(tuple, reduced)))
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def k(self) -> int:
        return len(self.generator)

    def contains(self, word) -> bool:
        word = _vector(self.field, self.n, word)
        return not any(linalg.reduce(word, self.generator, self.pivots, self.field))

    def codewords(self):
        """All codewords, message-lexicographic order; includes zero."""
        for word in _span(self.field, self.generator, (0,) * self.n):
            yield tuple(word)

    def min_distance_bruteforce(self) -> int | None:
        """Minimum Hamming weight over all nonzero codewords; None if k = 0.
        Scaling a word keeps its weight, so only the (q^k - 1) / (q - 1)
        messages whose leading nonzero coefficient is 1 are enumerated."""
        if self.k == 0:
            return None
        if self.field.q**self.k > _BRUTE_FORCE_CAP:
            raise SearchTooLarge(f"{self.field.q}^{self.k} messages exceed the cap")
        n, rows = self.n, self.generator
        best = n + 1
        for i, lead in enumerate(rows):
            for word in _span(self.field, rows[i + 1 :], lead):
                wt = n - word.count(0)
                if wt < best:
                    best = wt
                    if best == 1:
                        return best
        return best


# ---------------------------------------------------------------------------
# curve codes


def evaluation_matrix(curve: HermitianCurve, ell: int, m: int) -> list[tuple[int, ...]]:
    return [curve.image(key) for key in curve.riemann_roch_basis(ell, m)]


def dimension(curve: HermitianCurve, ell: int, m: int) -> int:
    """dim E_ell^m, counted.  x^(q^2) - x has divisor D + Q2 - q^3 Q1, D the
    n evaluation points, so the functions of L(ell Q1 + m Q2) that vanish on
    D are L((ell - q^3) Q1 + (m + 1) Q2) times x^(q^2) - x."""
    dim = curve.riemann_roch_dimension
    return dim(ell, m) - dim(ell - curve.q**3, m + 1)


def _evaluation_code(curve: HermitianCurve, ell: int, m: int) -> LinearCode:
    """E_ell^m for any ell and m; the identity, with nothing listed, once
    `dimension` says it is the full space F^n."""
    if dimension(curve, ell, m) == curve.n:
        rows = [[int(i == j) for j in range(curve.n)] for i in range(curve.n)]
    else:
        rows = evaluation_matrix(curve, ell, m)
    return LinearCode(curve.field, curve.n, rows)


def build_E(curve: HermitianCurve, ell: int, m: int) -> LinearCode:
    """E_ell^m for ell >= 0 and m >= lambda_sigma."""
    require_m(m, curve.lambda_sigma)
    require_ell(ell)
    return _evaluation_code(curve, ell, m)


def build_C(curve: HermitianCurve, ell: int, m: int) -> LinearCode:
    """C_ell^m, the dual of E_ell^m, as E at the dual divisor.  With
    eta = dx / (x^(q^2) - x), (dx) = (2g - 2) Q1 and the divisor of
    x^(q^2) - x above give D - G + (eta) = (n + 2g - 1 - ell) Q1 - (m + 1) Q2
    for G = ell Q1 + m Q2, and res_P eta = -1 at every P in D, so
    C_ell^m = E_{n+2g-1-ell}^{-m-1} exactly (Stichtenoth, Algebraic Function
    Fields and Codes, 2nd ed., 2.2 and 8.3)."""
    require_m(m, curve.lambda_sigma)
    require_ell(ell)
    return _evaluation_code(curve, curve.n + 2 * curve.genus - 1 - ell, -m - 1)


def saturation_index(curve: HermitianCurve, m: int) -> int:
    """Least L >= 0 with E_L^m = the full space F^n, counted.  For
    m >= lambda_sigma, dim C_L^m = l((n + 2g - 1 - L) Q1 - (m + 1) Q2), the
    dual divisor of `build_C`, which is 0 exactly when n + 2g - 1 - L < mu:
    mu is the least pole order at Q1 of a monomial x^a y^b with a zero of
    order >= m + 1 at Q2, b = ceil((m + 1 - a) / (q + 1))."""
    require_m(m, curve.lambda_sigma)
    q = curve.q
    mu = min(a * q - (q + 1) * ((a - m - 1) // (q + 1)) for a in range(q + 1))
    return max(0, curve.n + 2 * curve.genus - mu)


# ---------------------------------------------------------------------------
# syndromes


class SyndromeMatrix(Value):
    _fields = ("entries",)  # (L+1) x (L+1) field indices

    def rank(self, field: Field) -> int:
        return linalg.rank(self.entries, field)


def syndrome_matrix(curve: HermitianCurve, m: int, word, L: int) -> SyndromeMatrix:
    """S(y)_ij = sum_P y_P f_i(P) f_j(P), 0 <= i, j <= L, f_t the good-basis
    monomial of key k_t.  f_i f_j is the monomial of k_i + k_j, so S(y) has one
    dot of the word per distinct key sum."""
    F, word = curve.field, _vector(curve.field, curve.n, word)
    keys = [curve.good_basis_function(t) for t in range(L + 1)]
    sums = [[(a1 + a2, b1 + b2) for a2, b2 in keys] for a1, b1 in keys]
    dots = {key: F.dot(curve.image(key), word) for key in set(itertools.chain(*sums))}
    entries = tuple(tuple(dots[key] for key in row) for row in sums)
    return SyndromeMatrix(entries)


def verify_prop63(curve: HermitianCurve, ell: int, m: int, word) -> dict:
    """Check the zero/nonzero syndrome pattern for a word in the layer
    C_ell^m minus C_{ell+1}^m, and the rank bound rank S(y) >= #N_ell^m."""
    from . import bounds

    require_m(m, curve.lambda_sigma)
    require_ell(ell)
    F, word = curve.field, _vector(curve.field, curve.n, word)

    def in_dual(l):  # C_l^m = {0}, nothing listed, where `dimension` says E_l^m = F^n
        if dimension(curve, l, m) == curve.n:
            return not any(word)
        return all(F.dot(curve.image(k), word) == 0 for k in curve.riemann_roch_basis(l, m))

    if not in_dual(ell) or in_dual(ell + 1):
        raise WordNotInLayer(f"word not in C_{ell}^{m} \\ C_{ell + 1}^{m}")
    nset = bounds.n_set(curve.profile_closed_form(), ell, m)
    L = saturation_index(curve, m)
    S = syndrome_matrix(curve, m, word, L)
    zero_ok = True
    diag_ok = True
    pattern = []
    for u, (iu, _) in enumerate(nset.pairs):
        for v, (_, jv) in enumerate(nset.pairs):
            val = S.entries[iu][jv]
            if u < v and val != 0:
                zero_ok = False
                pattern.append({"u": u, "v": v, "value": val})
            if u == v and val == 0:
                diag_ok = False
                pattern.append({"u": u, "v": v, "value": 0})
    rank_s = S.rank(curve.field)
    rank_ok = rank_s >= len(nset)
    return {
        "ell": ell,
        "m": m,
        "n_set_size": len(nset),
        "rank": rank_s,
        "zero_pattern": zero_ok,
        "diagonal_nonzero": diag_ok,
        "rank_bound": rank_ok,
        "verdict": "PASS" if (zero_ok and diag_ok and rank_ok) else "FAIL",
        "violations": pattern,
    }


def verify_thm61(curve: HermitianCurve, ell: int, m: int) -> dict:
    """Brute-force d(C_ell^m) against the n-order and Goppa bounds."""
    from . import bounds

    code = build_C(curve, ell, m)
    d_true = code.min_distance_bruteforce()
    dn = bounds.d_nord(curve.profile_closed_form(), ell, m)
    dg = bounds.d_goppa(ell, m, curve.genus)
    ok = d_true is None or d_true >= dn
    return {
        "ell": ell,
        "m": m,
        "n": code.n,
        "k": code.k,
        "d_true": d_true,
        "d_nord": dn,
        "d_goppa": dg,
        "goppa_ok": d_true is None or dg <= 0 or d_true >= dg,
        "verdict": "PASS" if ok else "FAIL",
    }


def verify(curve: HermitianCurve, ell: int, m: int) -> dict:
    """The `code verify` report: Theorem 6.1 by brute force, and Prop 6.1's
    dim E_ell^m = ell + m + 1 - genus for ell + m < n, E eliminated, not counted."""
    thm = verify_thm61(curve, ell, m)
    code = build_E(curve, ell, m)
    expected = ell + m + 1 - curve.genus
    applies = ell + m < code.n
    prop = {"dim": code.k, "expected": expected, "applies": applies,
            "verdict": "PASS" if not applies or code.k == expected else "FAIL"}
    ok = thm["verdict"] == "PASS" and prop["verdict"] == "PASS"
    return {"thm61": thm, "prop61": prop, "verdict": "PASS" if ok else "FAIL"}


def code_to_json(curve: HermitianCurve, ell: int, m: int) -> str:
    code, dual = build_E(curve, ell, m), build_C(curve, ell, m)
    payload = {"q": curve.q, "ell": ell, "m": m, "n": code.n, "k": code.k,
               "generator": code.generator, "parity_check": dual.generator}
    return json.dumps(payload, sort_keys=True)
