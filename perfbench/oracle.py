"""Semantic checks of job outputs, computed without nordcodes.

The N-set is enumerated pair by pair from the profile, and the Hermitian
profile comes from the closed form of the canonical good basis, so these
checks do not share code with the program they check.
"""

from __future__ import annotations

import csv
import io
import json
import re


def hermitian_profile(q: int) -> dict[int, int]:
    """sigma(f_i) for the gaps i of <q, q+1>; f_i = x^a y^b with pole order i."""
    genus = q * (q - 1) // 2
    nongaps = {a * q + b * (q + 1) for a in range(2 * genus + 1) for b in range(2 * genus + 1)}
    out = {}
    for i in range(1, 2 * genus):
        if i in nongaps:
            continue
        a = (-i) % (q + 1)
        b = (i - a * q) // (q + 1)
        out[i] = max(0, -(a + b * (q + 1)))
    return out


def n_set_size(sigma: dict[int, int], r: int, m: int) -> int:
    """#{(i, j) : i + j = r + 1, sigma(f_i) + Sigma(j) <= m} by enumeration."""
    top = max(sigma, default=0)
    prefix, run = [], 0
    for s in range(min(r + 1, top) + 1):
        run = max(run, sigma.get(s, 0))
        prefix.append(run)

    def big_sigma(s):
        return prefix[s] if s <= top else run

    return sum(1 for i in range(r + 2) if sigma.get(i, 0) + big_sigma(r + 1 - i) <= m)


def d_nord(sigma: dict[int, int], ell: int, m: int) -> int:
    genus = len(sigma)
    return min(n_set_size(sigma, r, m) for r in range(ell, ell + genus + 1))


def _arg(inst, flag) -> str:
    return inst[inst.index(flag) + 1]


def _load_profile(path) -> dict[int, int]:
    with open(path) as fh:
        return {int(k): v for k, v in json.load(fh)["entries"].items()}


def _bound_line(sigma, ell, m, text):
    got = re.match(r"d_nord=(-?\d+) d_goppa=(-?\d+) delta=(-?\d+)", text)
    if not got:
        return ["no d_nord line"], None
    dn = d_nord(sigma, ell, m)
    dg = ell + m - 2 * len(sigma) + 2
    want = (dn, dg, dn - dg)
    have = tuple(int(x) for x in got.groups())
    return ([] if have == want else [f"bound line {have} != {want}"]), dn


def check(family: str, inst, argv, stdout: str, out_text: str | None) -> list[str]:
    """Problems found in one job's output; an empty list means it passes."""
    errors: list[str] = []
    if family.startswith("bound-table"):
        sigma = _load_profile(argv[argv.index("--profile") + 1])
        rows = list(csv.reader(io.StringIO(out_text or "")))[1:]
        if not rows:
            return ["empty bound table"]
        for row in (rows[0], rows[len(rows) // 3], rows[2 * len(rows) // 3], rows[-1]):
            ell, m, nsz, dn, dg, dl = (int(x) for x in row)
            want = (n_set_size(sigma, ell, m), d_nord(sigma, ell, m), ell + m - 2 * len(sigma) + 2)
            if (nsz, dn, dg) != want or dl != dn - dg:
                errors.append(f"table row {row} != {want}")
    elif family in ("bound-large-ell", "bound-diagnose"):
        sigma = _load_profile(argv[argv.index("--profile") + 1])
        ell, m = int(_arg(inst, "--ell")), int(_arg(inst, "--m"))
        errors, dn = _bound_line(sigma, ell, m, stdout)
        if family == "bound-diagnose" and f" direct={dn} " not in stdout:
            errors.append("diagnostic direct value differs from d_nord")
    elif family.startswith("code-distance"):
        q, ell, m = (int(_arg(inst, f)) for f in ("--q", "--ell", "--m"))
        res = json.loads(stdout)
        if res["n"] != q**3 - 1:
            errors.append(f"n = {res['n']} != {q**3 - 1}")
        dn = d_nord(hermitian_profile(q), ell, m)
        if res["d"] < dn:
            errors.append(f"d = {res['d']} < d_nord = {dn}")
    elif family.startswith("code-verify"):
        q, ell, m = (int(_arg(inst, f)) for f in ("--q", "--ell", "--m"))
        res = json.loads(stdout)
        thm = res["thm61"]
        if res["verdict"] != "PASS" or thm["d_true"] < d_nord(hermitian_profile(q), ell, m):
            errors.append("code verify does not pass")
    elif family.startswith("axioms-laurent"):
        verdicts = {e["axiom"]: e["verdict"] for e in json.loads(stdout)["results"]}
        if any(verdicts[f"N{i}"] != "PASS" for i in range(6)):
            errors.append("a near-weight axiom fails on the Laurent model")
        if verdicts["O3"] == "PASS" and verdicts["O4"] == "PASS":
            errors.append("the Laurent model passes both order axioms")
    elif family == "syndrome-sweep":
        res = json.loads(stdout)
        if res["rank_ok"] != res["words"] or res["prop63_ok"] != res["layer"]:
            errors.append(f"syndrome sweep failures: {res}")
    elif family == "semigroup-generators":
        a, b = (int(x) for x in _arg(inst, "--generators").split(","))
        gaps = json.loads(stdout)["gaps"]
        if len(gaps) != (a - 1) * (b - 1) // 2 or gaps[-1] != a * b - a - b:
            errors.append("semigroup genus or Frobenius number is wrong")
    elif family == "profile-hyperelliptic":
        g = int(_arg(inst, "--hyperelliptic-gamma"))
        if json.loads(stdout)["entries"] != {str(i): i for i in range(1, g + 1)}:
            errors.append("hyperelliptic profile entries are wrong")
    return errors
