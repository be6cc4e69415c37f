"""Numerical semigroups, two-point semigroups and good-basis profiles.

A numerical semigroup is stored by its finite gap set; a two-point semigroup
by its finite set of gap pairs in N0^2.  The good-basis profile maps each gap
i of the first projection to the minimal second value attainable over the
column i; it is the only input the bound engine needs.
"""

from __future__ import annotations

import json
from math import gcd

from .errors import (
    ClosureViolation,
    MalformedProfile,
    MalformedSemigroup,
    NegativeGenerator,
    NotCoprime,
    ProfileBijectionViolation,
    SemigroupTooLarge,
    ZeroExcludedViolation,
)
from .value import Value


# ---------------------------------------------------------------------------
# numerical semigroups


MAX_LARGEST_GAP = 1 << 20  # admits <1000, 1001>, whose largest gap is 998999
MAX_CLOSURE_CELLS = 1 << 20  # the Hermitian semigroups need 4 (q=2) to 4003 (q=5)


def _require_size(largest_gap: int):
    """Refuse a semigroup whose tables would need more than the cap."""
    if largest_gap > MAX_LARGEST_GAP:
        raise SemigroupTooLarge(
            f"largest gap can reach {largest_gap}, above the cap {MAX_LARGEST_GAP}"
        )


def _parse_json(data, error):
    """data parsed if it is JSON text (str or bytes), else as given; text
    that is not UTF-8 JSON, nests past the recursion limit or repeats a key
    in an object raises error."""
    def unique_keys(pairs):  # json.loads alone keeps the last of repeated keys
        obj = {}
        for k, v in pairs:
            if k in obj:
                raise error(f"key {k!r} is repeated")
            obj[k] = v
        return obj

    if isinstance(data, (str, bytes)):
        try:
            return json.loads(data, object_pairs_hook=unique_keys)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise error(f"not JSON: {exc}") from None
        except RecursionError:
            raise error("JSON nested too deeply") from None
    return data


def _gaps_field(data) -> list:
    data = _parse_json(data, MalformedSemigroup)
    gaps = data.get("gaps") if isinstance(data, dict) else None
    if not isinstance(gaps, list):
        raise MalformedSemigroup('expected an object with a "gaps" list')
    return gaps


def _set_bits(v: int):
    """Positions of the set bits of v >= 0, ascending."""
    bits = bin(v)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class NumericalSemigroup(Value):
    _fields = ("gaps",)  # frozenset[int]

    def __post_init__(self):
        if 0 in self.gaps or any(g < 0 for g in self.gaps):
            raise ZeroExcludedViolation("gaps must be positive integers")
        lam = self.largest_gap
        _require_size(lam)
        # Closure through the Apery set of the multiplicity m1: S is closed
        # iff S + m1 lies in S and w + w' lies in S for all Apery elements
        # w, w' (the least element of S in each class mod m1).  Sums above
        # lam always lie in S, so only x = m1 and Apery x up to lam / 2 need
        # testing.  `gaps` and `nongaps` are bit sets of [0, lam]; one shift
        # tests x + y for every nongap y at once, so the check costs O(lam)
        # plus one lam-bit shift for each of at most m1 values of x.
        buf = bytearray(lam // 8 + 1)
        for g in self.gaps:
            buf[g >> 3] |= 1 << (g & 7)
        gaps = int.from_bytes(buf, "little")
        nongaps = gaps ^ ((1 << (lam + 1)) - 1)
        positive = nongaps >> 1
        m1 = (positive & -positive).bit_length() or lam + 1
        apery = nongaps & (gaps << m1)  # the Apery elements in [1, lam]
        for x in _set_bits(apery | (1 << m1)):
            if 2 * x > lam:
                break
            hit = (nongaps << x) & gaps
            if hit:
                total = (hit & -hit).bit_length() - 1
                raise ClosureViolation(x, total - x, total)

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def largest_gap(self) -> int:
        return max(self.gaps) if self.gaps else 0

    def __contains__(self, n: int) -> bool:
        return n >= 0 and n not in self.gaps

    def to_json(self) -> dict:
        return {"gaps": sorted(self.gaps)}

    @classmethod
    def from_json(cls, data) -> "NumericalSemigroup":
        """Semigroup from its JSON form, given parsed or as text; anything
        but an object whose "gaps" is a list of integers raises
        MalformedSemigroup."""
        gaps = _gaps_field(data)
        bad = next((g for g in gaps if type(g) is not int), None)
        if bad is not None:
            raise MalformedSemigroup(f"gap {bad!r} is not an integer")
        return cls(frozenset(gaps))


def ns_from_generators(gens: list[int]) -> NumericalSemigroup:
    """Semigroup generated by gens; requires gens >= 0 and gcd(gens) = 1."""
    negative = [g for g in gens if g < 0]
    if negative:
        raise NegativeGenerator(f"generators must be >= 0, got {negative}")
    gens = sorted(set(gens) - {0})
    if not gens:
        raise NotCoprime("need at least one positive generator")
    g = 0
    for k, x in enumerate(gens):
        g = gcd(g, x)
        if g == 1:
            break
    if g != 1:
        raise NotCoprime(f"gcd of generators is {g}, not 1")
    # Schur: a coprime subset a < ... < b puts every gap below (a-1)(b-1);
    # the shortest coprime prefix gives the tightest such bound
    bound = (gens[0] - 1) * (gens[k] - 1)
    _require_size(bound - 1)
    # bit n of reach is set iff n <= bound is a sum of gens; shifts by x, 2x, 4x, ... add N*x
    reach, full = 1, (1 << (bound + 1)) - 1
    for x in gens:
        if x <= bound and not reach >> x & 1:
            while x <= bound:
                reach |= (reach << x) & full
                x *= 2
    return NumericalSemigroup(frozenset(_set_bits(reach ^ full)))


# ---------------------------------------------------------------------------
# two-point semigroups


class TwoPointSemigroup(Value):
    _fields = ("gapset",)  # frozenset[tuple[int, int]]

    def __post_init__(self):
        if (0, 0) in self.gapset:
            raise ZeroExcludedViolation("(0, 0) must be a nongap")
        if any(a < 0 or b < 0 for a, b in self.gapset):
            raise ZeroExcludedViolation("gap pairs must be nonnegative")
        # componentwise closure: every decomposition of a gap must use a gap.
        # Summands of a gap are dominated by it, so checking below each gap
        # is exhaustive; the boxes below the gaps are counted before the walk.
        cells = sum((ga + 1) * (gb + 1) for ga, gb in self.gapset)
        if cells > MAX_CLOSURE_CELLS:
            raise SemigroupTooLarge(
                f"the closure check would walk {cells} cells below the gap pairs, "
                f"above the cap {MAX_CLOSURE_CELLS}"
            )
        # Least gap first; x fails exactly when g - x does, so the lexicographically
        # first failing x has x <= g - x; x = (0, 0) and x = g never fail: g is a gap.
        for ga, gb in sorted(self.gapset):
            for xa in range(ga // 2 + 1):
                for xb in range(gb + 1 if 2 * xa < ga else gb // 2 + 1):
                    if (xa, xb) not in self.gapset and (ga - xa, gb - xb) not in self.gapset:
                        raise ClosureViolation((xa, xb), (ga - xa, gb - xb), (ga, gb))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return a >= 0 and b >= 0 and (a, b) not in self.gapset

    def profile(self) -> "GoodBasisProfile":
        """Column minima over the gap columns: i -> min{t : (i, t) in H}.
        The gap set is finite, so each column's walk ends."""
        entries = {}
        for i in sorted({a for a, _ in self.gapset}):
            t = 0
            while (i, t) in self.gapset:
                t += 1
            if t > 0:
                entries[i] = t
        return GoodBasisProfile(entries.items())

    def to_json(self) -> dict:
        return {"gaps": [list(p) for p in sorted(self.gapset)]}

    @classmethod
    def from_json(cls, data) -> "TwoPointSemigroup":
        """Two-point semigroup from its JSON form, given parsed or as text;
        anything but an object whose "gaps" is a list of integer pairs
        raises MalformedSemigroup."""
        gaps = _gaps_field(data)
        for p in gaps:
            if not (isinstance(p, (list, tuple)) and len(p) == 2
                    and all(type(x) is int for x in p)):
                raise MalformedSemigroup(f"gap {p!r} is not a pair of integers")
        return cls(frozenset(tuple(p) for p in gaps))


def semigroup_from_json(data) -> NumericalSemigroup | TwoPointSemigroup:
    """The semigroup of a JSON object given parsed or as text: a "gaps" list
    that starts with a pair makes a TwoPointSemigroup, any other a
    NumericalSemigroup."""
    data = _parse_json(data, MalformedSemigroup)
    gaps = _gaps_field(data)
    two_point = bool(gaps) and isinstance(gaps[0], list)
    return (TwoPointSemigroup if two_point else NumericalSemigroup).from_json(data)


# ---------------------------------------------------------------------------
# good-basis profiles


class GoodBasisProfile(Value):
    """The map i -> sigma(f_i), stored sparsely on its nonzero entries.

    Built from (i, sigma(f_i)) pairs in any order, kept sorted by i.  Keys
    are the gaps of H(rho), values the gaps of H(sigma), bijectively, and
    construction refuses anything else with ProfileBijectionViolation; the
    genus is the number of entries.  `sigma_steps` holds Sigma(s) =
    max sigma(f_0..f_s) as its steps: (0, 0), then each (i, sigma(f_i)), in
    key order, above every earlier value (at most genus + 1).  Sigma(s) is
    the value of the last step with i <= s, and the last step is
    (s_index, lambda_sigma).
    """

    _fields = ("entries",)  # sorted (i, sigma(f_i)) pairs

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted((i, v) for i, v in self.entries)))
        _require_size(self.lambda_rho)
        violations = []
        keys = [i for i, _ in self.entries]
        vals = [v for _, v in self.entries]
        if any(i <= 0 for i in keys) or any(v <= 0 for v in vals):
            violations.append("entries must have positive keys and values")
        for label, xs in (("values", sorted(vals)), ("keys", keys)):  # keys are sorted
            dup = sorted({x for x, y in zip(xs, xs[1:]) if x == y})
            if dup:
                violations.append(f"{label} repeated: {dup}")
        if not violations:
            for label, gaps in (("H(rho)", keys), ("H(sigma)", vals)):
                try:
                    NumericalSemigroup(frozenset(gaps))
                except (ClosureViolation, ZeroExcludedViolation) as exc:
                    violations.append(f"complement of {label} gaps is not a semigroup: {exc}")
        if violations:
            raise ProfileBijectionViolation("; ".join(violations))
        object.__setattr__(self, "genus", len(self.entries))
        object.__setattr__(self, "_map", dict(self.entries))
        steps = [(0, 0)]
        for i, v in self.entries:
            if v > steps[-1][1]:
                steps.append((i, v))
        object.__setattr__(self, "sigma_steps", tuple(steps))

    def sigma(self, i: int) -> int:
        """sigma(f_i); zero off the stored support."""
        return self._map.get(i, 0)

    @property
    def lambda_sigma(self) -> int:
        return self.sigma_steps[-1][1]

    @property
    def lambda_rho(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    @property
    def s_index(self) -> int:
        """Smallest index attaining lambda_sigma (0 for the empty profile)."""
        return self.sigma_steps[-1][0]

    def to_json(self) -> dict:
        return {"genus": self.genus, "entries": {str(i): v for i, v in self.entries}}

    @classmethod
    def from_json(cls, data) -> "GoodBasisProfile":
        """Profile from its JSON form, given parsed or as text; anything but
        an object whose "entries" map canonical integer strings (as to_json
        writes them) to integers, with a "genus", if present, equal to the
        number of entries, raises MalformedProfile.  A key such as "01" or
        " 1" would otherwise merge silently with "1"."""
        data = _parse_json(data, MalformedProfile)
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, dict):
            raise MalformedProfile('expected an object with an "entries" object')
        parsed = {}
        for k, v in entries.items():
            try:
                i = int(k)
            except ValueError:
                i = None
            if str(i) != k:
                raise MalformedProfile(f"entry key {k!r} is not a canonical integer")
            if type(v) is not int:
                raise MalformedProfile(f"entry {k!r}: {v!r} is not an integer")
            parsed[i] = v
        genus = data.get("genus", len(parsed))
        if type(genus) is not int or genus != len(parsed):
            raise MalformedProfile(f"genus {genus!r} is not the number of entries, {len(parsed)}")
        return cls(parsed.items())

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def hyperelliptic_profile(genus: int) -> GoodBasisProfile:
    """Profile with sigma(f_i) = i for i = 1..genus (hyperelliptic shape)."""
    if genus < 1:
        raise ProfileBijectionViolation("genus must be >= 1")
    _require_size(genus)  # lambda_rho = genus: refused before the entries are built
    return GoodBasisProfile((i, i) for i in range(1, genus + 1))
