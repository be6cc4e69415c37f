"""End-to-end acceptance checks.

Each test prints exactly one `ACCEPTANCE n: PASS|FAIL` line (to the real
stdout, so the line survives pytest's capture) and then asserts, so a FAIL
line is always accompanied by a failing test.
"""

import json
import sys
import time

import curve_reference as ref
from nordcodes import bounds, codes, models
from nordcodes.cli import main as cli_main
from nordcodes.field import make_field
from nordcodes.hermitian import HermitianCurve
from nordcodes.semigroup import hyperelliptic_profile


def _report(capsys, n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, file=sys.stdout, flush=True)
    assert ok, line


def test_acceptance_1_laurent_axioms(capsys):
    """Laurent model over GF(2)/GF(4): near-weight axioms hold exhaustively,
    order axioms fail with a recorded witness. Budget 60 s."""
    t0 = time.monotonic()
    ok = True
    witnessed = False
    for p, k in ((2, 1), (2, 2)):
        rep = models.axiom_check(models.LaurentModel(make_field(p, k)), 3)
        ok &= rep.all_near_weight_pass()
        o_fail = not rep.order_axioms_pass()
        ok &= o_fail
        if o_fail and (rep.entries["O3"]["witness"] or rep.entries["O4"]["witness"]):
            witnessed = True
    elapsed = time.monotonic() - t0
    ok &= witnessed and elapsed < 60
    _report(capsys, 1, ok, f"{elapsed:.1f}s")


def test_acceptance_2_curve_adapters(capsys):
    """Hermitian q=2 pole-order adapters at both base points: near-weight
    axioms on the degree-6 sample, and the common unit part is exactly the
    constants. Budget 120 s."""
    t0 = time.monotonic()
    curve = HermitianCurve(2)
    ok = True
    unit_sets = []
    for side in ("rho", "sigma"):
        model = models.CurveValuationModel(curve, side)
        rep = models.axiom_check(model, 6)
        ok &= rep.all_near_weight_pass()
        sample = model.elements(6)
        unit_sets.append(
            {f for f in sample if not model.is_zero(f) and model.in_unit_part(f)}
        )
    common = unit_sets[0] & unit_sets[1]
    constants = {
        ref.one(curve).scale(lam).support for lam in range(1, curve.field.q)
    }
    ok &= common == constants
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120
    _report(capsys, 2, ok, f"{elapsed:.1f}s, common units = field constants: {common == constants}")


def test_acceptance_3_profile_agreement(capsys):
    """Closed-form profiles match the semigroup-derived ones for q in {2,3},
    with a valid gap bijection and the right genus. Budget 10 s."""
    t0 = time.monotonic()
    expected = {2: ({1: 1}, 1), 3: ({1: 5, 2: 2, 5: 1}, 3)}
    ok = True
    for q, (entries, genus) in expected.items():
        curve = HermitianCurve(q)
        closed = curve.profile_closed_form()
        derived = curve.two_point_semigroup().profile()
        ok &= dict(closed.entries) == dict(derived.entries) == entries
        ok &= closed.genus == derived.genus == genus == curve.genus
        ok &= closed.check_gap_bijection()["ok"]
        ok &= derived.check_gap_bijection()["ok"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    _report(capsys, 3, ok, f"{elapsed:.1f}s")


def test_acceptance_4_bound_identities(capsys):
    """Hyperelliptic profiles gamma in {1,2,3,5}: N-set closed form, the
    saturation value ell+2 for large m, the short-window minimum matching a
    much longer window, and the size floor. Budget 10 s."""
    t0 = time.monotonic()
    ok = True
    for gamma in (1, 2, 3, 5):
        prof = hyperelliptic_profile(gamma)
        for m in range(gamma, 2 * gamma):
            for r in range(gamma, gamma + 13):
                size = len(bounds.n_set(prof, r, m))
                closed = r + m - 2 * gamma + 2 if r + 1 > m else r + 2
                ok &= size == closed
                ok &= size >= r - gamma + 1
        for m in (2 * gamma, 2 * gamma + 1):
            for ell in range(0, 21):
                ok &= bounds.d_nord(prof, ell, m) == ell + 2
        for m in range(gamma, 2 * gamma + 2):
            for ell in range(0, 13):
                short = bounds.d_nord(prof, ell, m)
                long = min(
                    len(bounds.n_set(prof, r, m))
                    for r in range(ell, ell + gamma + 51)
                )
                ok &= short == long
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10
    _report(capsys, 4, ok, f"{elapsed:.1f}s")


def test_acceptance_5_improvement_instance(capsys):
    """Genus-2 hyperelliptic profile at (ell, m) = (2, 3): the new bound is 4
    against a designed distance of 3."""
    prof = hyperelliptic_profile(2)
    dn = bounds.d_nord(prof, 2, 3)
    dg = bounds.d_goppa(2, 3, 2)
    ok = (dn, dg, dn - dg) == (4, 3, 1)
    _report(capsys, 5, ok, f"d_nord={dn} d_goppa={dg} delta={dn - dg}")


def test_acceptance_6_formula_diagnostic(capsys):
    """The direct-count vs closed-formula diagnostic reports DISAGREE at
    (4, 3) (5 vs 6) and AGREE at (3, 3) (4 = 4); both are recorded verdicts,
    not ground-truth claims."""
    prof = hyperelliptic_profile(2)
    d1 = bounds.lemma62_diagnostic(prof, 4, 3)
    d2 = bounds.lemma62_diagnostic(prof, 3, 3)
    ok = (
        d1["verdict"] == "DISAGREE"
        and (d1["direct"], d1["formula"]) == (5, 6)
        and d2["verdict"] == "AGREE"
        and d2["direct"] == d2["formula"] == 4
    )
    _report(capsys, 6, ok, f"(4,3): {d1['direct']} vs {d1['formula']}; (3,3): {d2['direct']}")


def test_acceptance_7_code_ground_truth(capsys):
    """Hermitian q=2, n=7: brute-force minimum distances dominate both bounds
    over the full (ell, m) grid with 1 <= dim C <= 6, and dim E matches
    ell + m + 1 - genus while ell + m < n. Budget 5 min."""
    t0 = time.monotonic()
    curve = HermitianCurve(2)
    ok = True
    checked = 0
    for m in (1, 2, 3):
        ell = 0
        while True:
            c = codes.build_C(curve, ell, m)
            if not (1 <= c.k <= 6):
                break
            rep = codes.verify_thm61(curve, ell, m)
            ok &= rep["verdict"] == "PASS" and rep["goppa_ok"]
            e = codes.build_E(curve, ell, m)
            if ell + m < 7:
                ok &= e.k == ell + m + 1 - curve.genus
            checked += 1
            ell += 1
    elapsed = time.monotonic() - t0
    ok &= checked >= 12 and elapsed < 300
    _report(capsys, 7, ok, f"{checked} codes, {elapsed:.1f}s")


def test_acceptance_8_syndrome_rank(capsys):
    """q=2, (ell, m) in {(2,1), (1,1)}: every codeword's weight dominates its
    syndrome rank, and every layer word shows the expected zero/nonzero
    pattern with rank at least the N-set size. Budget 2 min."""
    t0 = time.monotonic()
    curve = HermitianCurve(2)
    ok = True
    counts = []
    for ell, m in ((2, 1), (1, 1)):
        L = codes.saturation_index(curve, m)
        c_ell = codes.build_C(curve, ell, m)
        c_next = codes.build_C(curve, ell + 1, m)
        layer = 0
        for word in c_ell.codewords():
            wt = sum(1 for v in word if v)
            S = codes.syndrome_matrix(curve, m, word, L)
            ok &= wt >= S.rank(curve.field)
            if any(word) and not c_next.contains(word):
                layer += 1
                ok &= codes.verify_prop63(curve, ell, m, word)["verdict"] == "PASS"
        counts.append(layer)
    elapsed = time.monotonic() - t0
    ok &= counts == [192, 768] and elapsed < 120
    _report(capsys, 8, ok, f"layer sizes {counts}, {elapsed:.1f}s")


def test_acceptance_9_reproducibility(tmp_path, monkeypatch, capsys):
    """Repeated CLI runs are byte-identical, independent of NORD_THREADS."""
    prof_path = tmp_path / "prof.json"
    cli_main(["profile", "--hyperelliptic-gamma", "2", "--out", str(prof_path)])
    capsys.readouterr()
    ok = True
    table_runs = []
    build_runs = []
    for i, threads in enumerate(("1", "4", "1", "4")):
        monkeypatch.setenv("NORD_THREADS", threads)
        csv_path = tmp_path / f"table{i}.csv"
        code = cli_main([
            "bound", "--profile", str(prof_path), "--ell", "0", "--m", "0",
            "--table", "--ell-range", "0..8", "--m-range", "2..4",
            "--csv", str(csv_path),
        ])
        capsys.readouterr()
        ok &= code == 0
        table_runs.append(csv_path.read_bytes())
        out_path = tmp_path / f"code{i}.json"
        code = cli_main([
            "code", "build", "--q", "2", "--ell", "2", "--m", "1",
            "--out", str(out_path),
        ])
        capsys.readouterr()
        ok &= code == 0
        build_runs.append(out_path.read_bytes())
    ok &= len(set(table_runs)) == 1 and len(set(build_runs)) == 1
    ok &= json.loads(build_runs[0])["n"] == 7
    _report(capsys, 9, ok)
