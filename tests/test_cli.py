import ast
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import nordcodes
from nordcodes.cli import main
from nordcodes.semigroup import (
    GoodBasisProfile,
    NumericalSemigroup,
    TwoPointSemigroup,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def hyper2_profile(tmp_path, capsys):
    path = tmp_path / "hyper2.json"
    code = main(["profile", "--hyperelliptic-gamma", "2", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


def test_semigroup_generators(capsys):
    code, out, err = run(capsys, "semigroup", "--generators", "3,4")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert sorted(data["gaps"]) == [1, 2, 5]
    assert NumericalSemigroup.from_json(data).genus == 3


def test_semigroup_negative_generator(capsys):
    # -1 used to be dropped, answering for <2, 3>; 0 generates nothing
    assert run(capsys, "semigroup", "--generators=-1,2,3") == (
        1, "", "error NegativeGenerator: generators must be >= 0, got [-1]\n")
    assert run(capsys, "semigroup", "--generators", "0,2,3") == (0, '{"gaps": [1]}\n', "")


def test_semigroup_curve(capsys):
    code, out, _ = run(capsys, "semigroup", "--curve-q", "2")
    assert code == 0
    data = json.loads(out)
    assert sorted(map(tuple, data["gaps"])) == [(0, 1), (1, 0)]
    assert len(TwoPointSemigroup.from_json(data).gapset) == 2


def test_semigroup_from_file(tmp_path, capsys):
    path = tmp_path / "sg.json"
    path.write_text(json.dumps({"gaps": [1, 2, 5]}))
    code, out, _ = run(capsys, "semigroup", "--from-file", str(path))
    assert code == 0
    assert sorted(json.loads(out)["gaps"]) == [1, 2, 5]
    # a non-closed gap set is rejected with exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gaps": [4]}))
    code, _, err = run(capsys, "semigroup", "--from-file", str(bad))
    assert code == 1 and "ClosureViolation" in err


def test_profile_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "profile", "--curve-q", "3")
    assert code == 0
    prof = GoodBasisProfile.from_json(json.loads(out))
    assert dict(prof.entries) == {1: 5, 2: 2, 5: 1}

    sg = tmp_path / "tp.json"
    run(capsys, "semigroup", "--curve-q", "2", "--out", str(sg))
    code, out, _ = run(capsys, "profile", "--semigroup", str(sg))
    assert code == 0
    assert json.loads(out)["entries"] == {"1": 1}


def test_bound_single(hyper2_profile, capsys):
    code, out, err = run(
        capsys, "bound", "--profile", hyper2_profile, "--ell", "2", "--m", "3"
    )
    assert code == 0 and err == ""
    assert out == "d_nord=4 d_goppa=3 delta=1\n"


def test_bound_diagnose(hyper2_profile, capsys):
    code, out, _ = run(
        capsys,
        "bound", "--profile", hyper2_profile,
        "--ell", "4", "--m", "3", "--diagnose",
    )
    assert code == 0
    assert out.splitlines()[1] == "lemma62=DISAGREE direct=5 formula=6"


def test_bound_m_too_small(hyper2_profile, capsys):
    code, _, err = run(
        capsys, "bound", "--profile", hyper2_profile, "--ell", "2", "--m", "1"
    )
    assert code == 1 and "MBelowLambda" in err


def test_bound_table_csv(hyper2_profile, tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, _, _ = run(
        capsys,
        "bound", "--profile", hyper2_profile,
        "--ell", "0", "--m", "0",
        "--table", "--ell-range", "2..4", "--m-range", "3..3",
        "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "ell,m,n_set_size,d_nord,d_goppa,delta"
    assert lines[1] == "2,3,4,4,3,1"
    assert len(lines) == 4


def test_bound_table_single_value_ranges(hyper2_profile, capsys):
    # a range without ".." is the one value
    ranged = run(capsys, "bound", "--profile", hyper2_profile, "--ell", "0", "--m", "2",
                 "--table", "--ell-range", "5", "--m-range", "3")
    plain = run(capsys, "bound", "--profile", hyper2_profile, "--ell", "5", "--m", "3",
                "--table")
    assert ranged == plain and plain[0] == 0 and plain[1].count("\n") == 2


def test_bound_table_with_diagnose_is_a_usage_error(hyper2_profile, tmp_path, capsys):
    # --diagnose reports on the one cell --ell, --m; --table would drop it
    csv_path = tmp_path / "table.csv"
    code, out, err = run(capsys, "bound", "--profile", hyper2_profile, "--ell", "4", "--m", "3",
                         "--table", "--diagnose", "--csv", str(csv_path))
    assert code == 2 and out == "" and "not allowed with argument --table" in err
    assert not csv_path.exists()


def test_bound_table_out(hyper2_profile, tmp_path, capsys):
    argv = ("bound", "--profile", hyper2_profile, "--ell", "0", "--m", "0",
            "--table", "--ell-range", "2..4", "--m-range", "3..3")
    code, table, _ = run(capsys, *argv)
    assert code == 0 and table.startswith("ell,m,")
    out_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == table


def test_curve_info(capsys):
    code, out, _ = run(capsys, "curve", "info", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q=2" and "genus=1" in lines and "affine_points=8" in lines


def test_curve_points(capsys):
    code, out, _ = run(capsys, "curve", "points", "--q", "2")
    assert code == 0
    rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert len(rows) == 8 and rows == sorted(rows)


def test_code_build_and_distance(capsys):
    code, out, _ = run(capsys, "code", "build", "--q", "2", "--ell", "2", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert (data["n"], data["k"]) == (7, 3)

    code, out, _ = run(capsys, "code", "distance", "--q", "2", "--ell", "2", "--m", "1")
    assert code == 0
    assert json.loads(out) == {"d": 3, "k": 4, "n": 7}


def test_code_verify(capsys):
    code, out, _ = run(capsys, "code", "verify", "--q", "2", "--ell", "2", "--m", "1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "PASS"
    assert report["thm61"]["d_true"] == 3


def test_code_verify_builds_E_once(capsys, monkeypatch):
    """Thm 6.1 builds C at its own divisor; only Prop 6.1's eliminated
    dimension needs E."""
    from nordcodes import codes

    calls = []
    build_E = codes.build_E
    monkeypatch.setattr(codes, "build_E", lambda *a: calls.append(a) or build_E(*a))
    code, out, _ = run(capsys, "code", "verify", "--q", "3", "--ell", "19", "--m", "5")
    assert code == 0 and json.loads(out)["prop61"]["dim"] == 22
    assert len(calls) == 1


@pytest.mark.parametrize("argv,field_flags", [
    (("--model", "curve-rho", "--q", "2", "--bound", "1"), ("--p", "4")),
    (("--model", "curve-sigma", "--q", "3"), ("--k", "9")),
])
def test_axioms_curve_models_ignore_field_flags(capsys, argv, field_flags):
    """A curve model runs over the curve's GF(q^2), so a --p that is not
    prime or a --k past the field cap changes nothing."""
    code, out, err = run(capsys, "axioms", *argv, *field_flags)
    assert (code, err) == (0, "") and (code, out, err) == run(capsys, "axioms", *argv)


def test_axioms_laurent(capsys):
    code, out, _ = run(
        capsys, "axioms", "--model", "laurent", "--p", "2", "--k", "2", "--bound", "2"
    )
    assert code == 0
    report = json.loads(out)
    results = {e["axiom"]: e["verdict"] for e in report["results"]}
    assert results["N5"] == "PASS"
    assert "FAIL" in (results["O3"], results["O4"])


@pytest.mark.parametrize("c", [10**400, -10**400], ids=["plus", "minus"])
def test_axioms_constant_past_the_float_range(capsys, c):
    # rho = c was copied to a float, which overflowed with a traceback
    code, out, err = run(capsys, "axioms", "--model", "constant", "--p", "3", "--c", str(c),
                         "--bound", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["model"] == f"constant(c={c})"


def test_negative_ell(hyper2_profile, capsys):
    code, out, err = run(capsys, "bound", "--profile", hyper2_profile, "--ell", "-5", "--m", "3")
    assert code == 1 and out == "" and err.startswith("error NegativeEll:")


@pytest.mark.parametrize("model", ["constant", "ideal", "laurent", "curve-rho", "curve-sigma"])
def test_axioms_negative_bound(capsys, model):
    # it used to sample zero alone and report a spurious order_classification FAIL
    got = run(capsys, "axioms", "--model", model, "--bound", "-1")
    assert got == (1, "", "error NegativeBound: bound = -1 < 0\n")


@pytest.mark.parametrize("argv,err", [
    (("code", "build", "--q", "2", "--ell", "-1", "--m", "0"),
     "error MBelowLambda: m = 0 < lambda_sigma = 1\n"),
    (("code", "distance", "--q", "3", "--ell", "-2", "--m", "1"),
     "error MBelowLambda: m = 1 < lambda_sigma = 5\n"),
    (("bound", "--profile", "{profile}", "--ell", "-1", "--m", "0"),
     "error NegativeEll: ell = -1 < 0\n"),
], ids=["code build", "code distance", "bound"])
def test_doubly_invalid_cells_keep_their_check_order(tmp_path, capsys, argv, err):
    """A cell with ell < 0 and m < lambda_sigma: `code` checks m first,
    `bound` checks ell first."""
    profile = tmp_path / "q2.json"
    assert main(["profile", "--curve-q", "2", "--out", str(profile)]) == 0
    argv = [a.format(profile=profile) for a in argv]
    assert run(capsys, *argv) == (1, "", err)


def test_semigroup_too_large(capsys):
    # refused from the generators alone, before any table is built
    code, out, err = run(capsys, "semigroup", "--generators", "100000,100001")
    assert code == 1 and out == "" and err.startswith("error SemigroupTooLarge:")


@pytest.mark.parametrize("command", [("semigroup", "--from-file"), ("profile", "--semigroup")],
                         ids=["semigroup", "profile"])
def test_two_point_semigroup_too_large(tmp_path, capsys, command):
    # the boxes below the gap pairs hold about 8 million cells: refused
    # before the closure check walks them
    path = tmp_path / "gaps.json"
    path.write_text(json.dumps({"gaps": [[i, 0] for i in range(1, 4001)]}))
    start = time.perf_counter()
    code, out, err = run(capsys, *command, str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.startswith("error SemigroupTooLarge:")


def test_redundant_generators_are_cheap(capsys):
    # 4000 generators above the Schur bound 999000 of <1000, 1001> change
    # nothing; the reachability scan tried each of them per gap (25 s)
    extra = ",".join(map(str, range(999001, 1003001)))
    start = time.perf_counter()
    result = run(capsys, "semigroup", "--generators", f"1000,1001,{extra}")
    assert time.perf_counter() - start < 1.0
    assert result[0] == 0 and result[2] == ""
    assert result == run(capsys, "semigroup", "--generators", "1000,1001")


def test_repeated_profile_value_refused_at_once(tmp_path, capsys):
    # one repeated value among 200000 entries: counting the occurrences of
    # each value took 16 s at 40000 entries
    entries = {str(i): i for i in range(1, 200000)}
    entries["200000"] = 1
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"entries": entries}))
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "--profile", str(path), "--ell", "0", "--m", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error ProfileBijectionViolation: values repeated: [1]\n")


@pytest.mark.parametrize("field", [
    ("--p", "257"),
    ("--p", "2", "--k", "9"),
    ("--p", "999999999999989"),  # a prime: trial division would take seconds
])
def test_axioms_field_too_large(capsys, field):
    # refused in the Field constructor, before any table or sample is built
    start = time.perf_counter()
    code, out, err = run(capsys, "axioms", "--model", "constant", *field, "--bound", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and err.startswith("error FieldTooLarge:")


@pytest.mark.parametrize("argv", [
    ("--model", "constant", "--bound", "2000"),
    ("--model", "laurent", "--p", "3", "--bound", "2000"),
    ("--model", "constant", "--bound", str(10**20)),
])
def test_axioms_sample_too_large(capsys, argv):
    # the sample size is computed in closed form and refused before the
    # sample is built
    start = time.perf_counter()
    code, out, err = run(capsys, "axioms", *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 1 and out == "" and err.startswith("error SampleTooLarge:")


def test_axioms_two_key_sample_below_the_cap(capsys):
    # the full span has 4096 elements, above the cap: the two-key sample has 154
    code, out, err = run(capsys, "axioms", "--model", "curve-rho", "--q", "2", "--bound", "3")
    assert code == 0 and err == "" and json.loads(out)["sample_size"] == 154


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bound", "--profile", "x.json")[0] == 2  # missing --ell/--m
    assert run(capsys)[0] == 2


@pytest.mark.parametrize("argv", [
    (),
    ("nonsense",),
    ("bound", "--profile", "x.json"),
    ("semigroup", "--generators", "3,x"),
    ("axioms", "--model", "foo"),
    # bound's table-only options: ignored without --table, or two files for one table
    ("bound", "--profile", "x.json", "--ell", "30", "--m", "19", "--csv", "t.csv"),
    ("bound", "--profile", "x.json", "--ell", "2", "--m", "3", "--ell-range", "0..3"),
    ("bound", "--profile", "x.json", "--ell", "2", "--m", "3", "--m-range", "3..4"),
    ("bound", "--profile", "x.json", "--ell", "0", "--m", "0", "--table", "--csv", "A",
     "--out", "B"),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_errors_exit_2_from_the_module(argv):
    """`python -m nordcodes.cli` exits 2 with a usage message, no traceback."""
    proc = subprocess.run([sys.executable, "-m", "nordcodes.cli", *argv], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr


def test_missing_file(capsys):
    code, _, err = run(
        capsys, "bound", "--profile", "/nonexistent.json", "--ell", "2", "--m", "3"
    )
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--profile", "{dir}", "--ell", "2", "--m", "3"),
    ("curve", "info", "--q", "2", "--out", "{dir}"),
    ("bound", "--profile", "{profile}", "--ell", "0", "--m", "3", "--out", ""),
    ("bound", "--profile", "{profile}", "--ell", "0", "--m", "3", "--table", "--ell-range", "0..1",
     "--csv", ""),
    ("curve", "info", "--q", "2", "--out", ""),
])
def test_directory_as_path(tmp_path, hyper2_profile, capsys, argv):
    # a directory or an empty path, as input, --out or --csv, is an OSError,
    # not a traceback and not stdout
    code, out, err = run(capsys, *(a.format(dir=tmp_path, profile=hyper2_profile) for a in argv))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_byte_reproducible(hyper2_profile):
    """One command in fresh interpreters under three hash seeds prints the
    same bytes, so no output follows the order of a str-keyed set or dict."""
    argv = ["bound", "--profile", hyper2_profile, "--ell", "2", "--m", "3"]
    outs = []
    for seed in ("0", "1", "2"):
        proc = subprocess.run([sys.executable, "-m", "nordcodes.cli", *argv],
                              env=dict(_child_env(), PYTHONHASHSEED=seed), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(set(outs)) == 1 and outs[0]


def test_reproducible_json_outputs(capsys):
    first = run(capsys, "semigroup", "--curve-q", "3")[1]
    second = run(capsys, "semigroup", "--curve-q", "3")[1]
    assert first == second


def test_generators_not_integers(capsys):
    code, out, err = run(capsys, "semigroup", "--generators", "3,x")
    assert code == 2 and out == "" and "Traceback" not in err
    assert "comma-separated list of integers" in err


@pytest.mark.parametrize("text", [
    "not json {",  # JSONDecodeError
    b"\xff\xfe\x00",  # not UTF-8 either
    '{"entries": {"1": "x"}}',  # TypeError at the seed
    '{"entries": {"x": 1}}',
    '{"entries": [1, 2]}',
    "[1, 2]",
    '{"entries": {"1": true}}',
    '{"entries": {"1": 2, "01": 1}}',  # once merged into the genus-1 profile {1: 1}
    '{"entries": {"1_0": 1}}',
    '{"entries": {" 1": 1}}',
    '{"genus": 7, "entries": {"1": 1}}',  # a genus the entries contradict
    '{"entries": {"1": 2, "1": 1}}',  # json keeps the last of repeated keys
    '{"genus": 1, "genus": 1, "entries": {"1": 1}}',
    pytest.param("[" * 100000 + "]" * 100000, id="list nested 100000 deep"),  # RecursionError
    pytest.param('{"entries": [' + "[" * 100000 + "]" * 100000 + "]}",
                 id="entries nested 100000 deep"),
])
def test_bound_malformed_profile(tmp_path, capsys, text):
    path = tmp_path / "profile.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, out, err = run(capsys, "bound", "--profile", str(path), "--ell", "2", "--m", "3")
    assert code == 1 and out == "" and err.startswith("error MalformedProfile:")


@pytest.mark.parametrize("argv", [
    ("semigroup", "--from-file"),
    ("profile", "--semigroup"),
])
@pytest.mark.parametrize("text", [
    "not json {",  # each of these once ended in a traceback: JSONDecodeError,
    b"\xff\xfe\x00",
    '{"gaps": ["a"]}',  # TypeError or ValueError,
    '{"gaps": [[1, "x"]]}',  # TypeError,
    '{"nogaps": 1}',  # KeyError,
    "[1, 2]",  # TypeError
    '{"gaps": [[1, 2, 3]]}',
    '{"gaps": [true]}',
    '{"gaps": [1, 2], "gaps": [1]}',  # once read as {"gaps": [1]}
    pytest.param("[" * 100000 + "]" * 100000, id="list nested 100000 deep"),  # RecursionError
    pytest.param('{"gaps": [' + "[" * 100000 + "]" * 100000 + "]}", id="gaps nested 100000 deep"),
])
def test_semigroup_file_malformed(tmp_path, capsys, argv, text):
    path = tmp_path / "sg.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == "" and err.startswith("error MalformedSemigroup:")


@pytest.mark.parametrize("argv", [("semigroup", "--from-file"), ("profile", "--semigroup")])
def test_negative_gap_pair_refused(tmp_path, capsys, argv):
    path = tmp_path / "sg.json"
    path.write_text('{"gaps": [[-1, 2]]}')
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err == "error ZeroExcludedViolation: gap pairs must be nonnegative\n"


def _child_env():
    """The environment of a child process that imports nordcodes from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def test_benchmark_library_calls():
    """The library-call jobs of perfbench/libcalls.py run on the current
    API: a deleted or renamed name they use fails here."""
    libcalls = Path(__file__).resolve().parents[1] / "perfbench" / "libcalls.py"

    def job(*argv):
        proc = subprocess.run([sys.executable, str(libcalls), *argv], env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    sweep = job("syndrome_sweep", "2", "2", "1")
    assert sweep["words"] == 256 and sweep["prop63_ok"] == sweep["layer"] and sweep["L"] == 6
    assert job("saturation_index", "2", "1")["L"] == 6


def test_benchmark_in_process_outputs(tmp_path, monkeypatch):
    """perfbench/inproc.py, as the traced benchmark run starts it, on every
    instance of every workload: the plain run reproduces the exit codes and
    output hashes of perfbench/reference.json, the traced run the plain
    records, and the probes report every metric.  A deleted layer module or
    name, a call shape the tracer hooks no longer read, or state that leaks
    from one in-process job to the next fails here first."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    refs = json.loads((bench / "reference.json").read_text())["instances"]
    jobs = [[None, inst] for inst in workloads.all_instances()]  # the family is the oracle's

    def child(mode):
        spec, result = tmp_path / f"{mode}.spec.json", tmp_path / f"{mode}.result.json"
        spec.write_text(json.dumps({"mode": mode, "jobs": jobs, "workdir": str(tmp_path),
                                    "result": str(result), "timeout": 30.0}))
        proc = subprocess.run([sys.executable, str(bench / "inproc.py"), str(spec)],
                              env=dict(_child_env(), PYTHONHASHSEED="0"), cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(result.read_text())

    def outputs(result):
        return [(r["exit"], r["stdout"], r["out"]) for r in result["records"]]

    plain = outputs(child("plain"))
    assert len(plain) == len(jobs) == len(refs)
    for (_, inst), got in zip(jobs, plain):
        ref = refs[workloads.instance_id(inst)]
        assert got == (ref["exit"], ref["stdout"], ref["out"]), inst
    # the self-checks of a traced benchmark run: the job outputs, counts that
    # repeat from one traced run to the next, and span times that add up to
    # each job's wall (perfbench/run.py's bound)
    traced = [child("traced") for _ in range(2)]
    for result in traced:
        assert outputs(result) == plain
        for rec, gap in zip(result["records"], result["unaccounted_s"]):
            assert -1e-6 <= gap <= 0.002 + 0.01 * rec["wall"], (gap, rec["wall"])
    counts = [{k: v for k, v in r["metrics"].items() if isinstance(v, int)} for r in traced]
    assert counts[0] == counts[1] and counts[0]
    probes = child("probes")["metrics"]
    assert sorted(probes) == sorted(
        [f"bounds.d_nord_s.{n}" for n in ("g10", "g20", "g40", "ell1e3", "ell1e5")]
        + [f"codes.min_distance_s.k{k}" for k in (3, 4, 5)]
        + [f"models.axiom_check_s.b{b}" for b in (2, 3)])
    assert all(v > 0 for v in probes.values())


def test_axioms_curve_basis_counted_not_listed():
    """The Riemann-Roch basis of a huge curve bound is counted, not listed,
    before the sample is refused: fast and with little memory."""
    # VmHWM is the peak RSS of the child's own address space; getrusage's
    # ru_maxrss would also hold the parent's RSS at the fork
    script = (
        "import re, time\n"
        "from nordcodes.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['axioms', '--model', 'curve-rho', '--bound', '1000000'])\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = re.search(r'VmHWM:\\s*(\\d+)', fh.read()).group(1)\n"
        "print(code, time.perf_counter() - start, int(kb) // 1024)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True)
    code, seconds, rss_mb = proc.stdout.split()
    assert code == "1" and proc.stderr.startswith("error SampleTooLarge:")
    assert float(seconds) < 1.0 and int(rss_mb) < 64


def test_startup_without_numpy(tmp_path):
    """No command imports numpy, the axiom checker included."""
    script = (
        "import sys\n"
        "{}\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    job = (
        "from nordcodes.cli import main\n"
        "assert main(['code', 'distance', '--q', '2', '--ell', '2', '--m', '1',"
        f" '--out', {str(tmp_path / 'd.json')!r}]) == 0"
    )
    axioms_job = (
        "from nordcodes.cli import main\n"
        "assert main(['axioms', '--model', 'curve-rho', '--q', '2', '--bound', '2',"
        f" '--out', {str(tmp_path / 'a.json')!r}]) == 0"
    )
    for body in ("import nordcodes", job, axioms_job):
        proc = subprocess.run([sys.executable, "-c", script.format(body)], env=_child_env(),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "d.json").read_text())["d"] == 3
    assert json.loads((tmp_path / "a.json").read_text())["model"] == "curve(q=2, rho)"


# Every branch of every subcommand, as a fresh interpreter would run it;
# {tmp} is the directory of the input files written by `_startup_inputs`.
STARTUP_BRANCHES = [
    ("semigroup", "--generators", "3,4"),
    ("semigroup", "--curve-q", "2"),
    ("semigroup", "--from-file", "{tmp}/ns.json"),
    ("profile", "--curve-q", "2"),
    ("profile", "--hyperelliptic-gamma", "2"),
    ("profile", "--semigroup", "{tmp}/tps.json"),
    ("bound", "--profile", "{tmp}/prof.json", "--ell", "2", "--m", "3"),
    ("bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "2", "--table",
     "--ell-range", "0..4", "--m-range", "2..3"),
    ("bound", "--profile", "{tmp}/prof.json", "--ell", "4", "--m", "3", "--diagnose"),
    ("curve", "info", "--q", "2"),
    ("curve", "points", "--q", "2"),
    ("code", "build", "--q", "2", "--ell", "2", "--m", "1"),
    ("code", "distance", "--q", "2", "--ell", "2", "--m", "1"),
    ("code", "verify", "--q", "2", "--ell", "2", "--m", "1"),
    ("axioms", "--model", "constant", "--c", "1", "--bound", "2"),
    ("axioms", "--model", "ideal", "--bound", "2"),
    ("axioms", "--model", "laurent", "--bound", "2"),
    ("axioms", "--model", "curve-rho", "--bound", "2"),
    ("axioms", "--model", "curve-sigma", "--bound", "2"),
]

# The child runs one command and then names, on its last stderr line, the
# nordcodes modules it loaded and any of the modules no command may load.
STARTUP_CHILD = (
    "import sys\n"
    "from nordcodes.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = [m for m in sys.modules if m.partition('.')[0] == 'nordcodes'"
    " or m in ('dataclasses', 'inspect', 'csv')]\n"
    "print(code, *sorted(loaded), file=sys.stderr)\n"
)


def _startup_inputs(tmp_path):
    for name, argv in (("ns.json", ["semigroup", "--generators", "4,5,7"]),
                       ("tps.json", ["semigroup", "--curve-q", "3"]),
                       ("prof.json", ["profile", "--hyperelliptic-gamma", "2"])):
        assert main([*argv, "--out", str(tmp_path / name)]) == 0


@pytest.mark.parametrize("argv", STARTUP_BRANCHES, ids=" ".join)
def test_startup_loads_only_the_command_layers(tmp_path, capsys, argv):
    """Each command, in a fresh interpreter, prints what it prints in-process
    and loads only the layers it runs: never dataclasses, inspect or csv."""
    _startup_inputs(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, *argv], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == expected, proc.stderr
    child_code, *loaded = proc.stderr.split("\n")[-2].split()
    assert child_code == "0"
    assert not {"dataclasses", "inspect", "csv"} & set(loaded)
    layers = {m.removeprefix("nordcodes.") for m in loaded} - {"nordcodes", "cli", "errors"}
    if argv[1] == "--curve-q" or argv[:2] == ["curve", "info"]:
        assert layers == {"field", "hermitian", "semigroup", "value"}
    elif argv[:2] == ["curve", "points"]:
        assert layers == {"field", "hermitian"}
    elif argv[0] in ("semigroup", "profile"):
        assert layers == {"semigroup", "value"}
    elif argv[0] == "bound":
        assert layers == {"semigroup", "value", "bounds"}
    elif argv[0] == "axioms" and not argv[2].startswith("curve"):
        assert layers == {"field", "models"}
    elif argv[0] == "axioms":
        assert layers == {"field", "hermitian", "models"}
    elif argv[:2] in (["code", "build"], ["code", "distance"]):
        assert layers == {"codes", "field", "hermitian", "linalg", "value"}
    elif argv[:2] == ["code", "verify"]:
        assert layers == {"codes", "field", "hermitian", "linalg", "value", "bounds", "semigroup"}
    else:
        pytest.fail(f"no layer set pinned for {argv}")


def test_package_exports_resolve_lazily():
    """`import nordcodes` loads no submodule; each export loads its own on
    first use, and submodules import as before."""
    script = (
        "import sys\n"
        "import nordcodes as n\n"
        "assert [m for m in sys.modules if m.startswith('nordcodes.')] == []\n"
        "assert n.HermitianCurve(2).genus == 1\n"
        "assert 'nordcodes.codes' not in sys.modules\n"
        "from nordcodes import codes, models, d_nord, hyperelliptic_profile\n"
        "assert d_nord(hyperelliptic_profile(2), 2, 3) == 4\n"
        "for name in n.__all__:\n"
        "    module = sys.modules[getattr(n, name).__module__]\n"
        "    assert getattr(module, name) is getattr(n, name), name\n"
        "try:\n"
        "    n.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _guarded_raises(node) -> list[str]:
    """Each NegativeEll, MBelowLambda, NegativeBound or NotAVector that a
    `raise` statement under node raises, by name."""
    names = []
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            names.append(getattr(exc, "id", getattr(exc, "attr", None)))
    guarded = {"NegativeEll", "MBelowLambda", "NegativeBound", "NotAVector"}
    return [name for name in names if name in guarded]


def _raises_by_function(path) -> dict[str, list[str]]:
    return {f.name: names for f in ast.parse(path.read_text()).body
            if isinstance(f, ast.FunctionDef) and (names := _guarded_raises(f))}


def test_boundary_errors_are_raised_only_by_the_checks():
    """Each boundary error is raised once, in its `require_*` check in
    `errors`, so no layer keeps a copy of the check; every vector of F^n
    is checked by `codes._vector` alone."""
    src = Path(nordcodes.__file__).parent
    raised = {path.name: names for path in sorted(src.glob("*.py"))
              if (names := _guarded_raises(ast.parse(path.read_text())))}
    assert list(raised) == ["codes.py", "errors.py"] and len(raised["errors.py"]) == 3
    assert raised["codes.py"] == ["NotAVector"]
    assert _raises_by_function(src / "errors.py") == {
        "require_ell": ["NegativeEll"], "require_m": ["MBelowLambda"],
        "require_bound": ["NegativeBound"]}
    assert _raises_by_function(src / "codes.py") == {"_vector": ["NotAVector"]}


@pytest.mark.parametrize("argv,expected", [
    (("code", "distance", "--q", "2", "--ell", "3000000", "--m", "1"), '"k": 0'),
    (("code", "verify", "--q", "2", "--ell", "3000000", "--m", "1"), '"verdict": "PASS"'),
    (("code", "build", "--q", "2", "--ell", "100000000", "--m", "1"), '"k": 7'),
    (("code", "build", "--q", "2", "--ell", "1", "--m", "100000000"), '"k": 7'),
    (("code", "build", "--q", "4", "--ell", "11", "--m", "60"), '"k": 63'),
])
def test_code_on_saturated_sizes(capsys, argv, expected):
    """Codes whose counted dimension is n are the full space and are built
    at once, however large ell or m; q = 4, ell = 11, m = 60 is three below
    the Riemann-Roch line ell + m = n + 2*genus - 1."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and expected in out
    assert time.perf_counter() - start < 2.0


# -- robustness guard: every argv ends in exit 0, 1 or 2, in bounded time ---

# a bound on work, not a timing target: the slowest argv drawn here (an
# `axioms` sample of about 1000 elements over GF(2)) takes under 2 s
GUARD_SECONDS = 10.0


class _RanTooLong(Exception):
    pass


def _alarm(signum, frame):
    raise _RanTooLong


@pytest.fixture(scope="module")
def guard_dir(tmp_path_factory):
    """Input files for path options: valid, malformed, a directory, missing."""
    d = tmp_path_factory.mktemp("guard")
    _startup_inputs(d)
    assert main(["profile", "--hyperelliptic-gamma", "20000", "--out", str(d / "g20000.json")]) == 0
    (d / "text.json").write_text("not json")
    (d / "gaps.json").write_text('{"gaps": [1, "a"], "entries": {"1": -4}}')
    return d


_INT = st.one_of(st.integers(-2, 9), st.sampled_from([10**3, 10**8])).map(str)
_RANGE = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(-1, 12)).map(lambda r: f"{r[0]}..{r[1]}"),
    st.sampled_from(["0..100000000", "0..99999999999999999999"]))  # past sys.maxsize
_PATH = st.sampled_from(["ns.json", "tps.json", "prof.json", "text.json", "gaps.json",
                         "missing.json", ""]).map(lambda name: "{tmp}/" + name)
_GENERATORS = st.lists(st.integers(-1, 12), min_size=1, max_size=3).map(
    lambda g: ",".join(map(str, g)))
_MODEL = st.sampled_from(["constant", "ideal", "laurent", "curve-rho", "curve-sigma", "x"])
# per subcommand, groups of alternatives (argument, value strategy or None for
# a bare flag or an action)
_GUARD_OPTIONS = {
    "semigroup": [[("--generators", _GENERATORS), ("--curve-q", _INT), ("--from-file", _PATH)]],
    "profile": [[("--curve-q", _INT), ("--hyperelliptic-gamma", _INT), ("--semigroup", _PATH)]],
    "bound": [[("--profile", _PATH)], [("--ell", _INT)], [("--m", _INT)],
              [("--table", None), ("--diagnose", None)], [("--ell-range", _RANGE)],
              [("--m-range", _RANGE)]],
    "curve": [[("info", None), ("points", None)], [("--q", _INT)]],
    "code": [[("build", None), ("distance", None), ("verify", None)], [("--q", _INT)],
             [("--ell", _INT)], [("--m", _INT)]],
    "axioms": [[("--model", _MODEL)], [("--p", _INT)], [("--k", _INT)], [("--q", _INT)],
               [("--c", _INT)], [("--bound", _INT)]],
}


@st.composite
def _guard_argv(draw):
    """A subcommand with, from each group, mostly one alternative and
    sometimes none or two: small, zero, negative and huge integers and
    every kind of file."""
    command = draw(st.sampled_from(sorted(_GUARD_OPTIONS)))
    argv = [command]
    for group in _GUARD_OPTIONS[command]:
        size = draw(st.sampled_from([1] * 8 + [0, 2]))
        for arg, value in draw(st.permutations(group))[:size]:
            argv += [arg] if value is None else [arg, draw(value)]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_guard_argv())
@example(argv=["semigroup", "--curve-q", "0"])
@example(argv=["profile", "--curve-q", "0"])
@example(argv=["profile", "--hyperelliptic-gamma", "0"])
@example(argv=["profile", "--hyperelliptic-gamma", "100000000"])
@example(argv=["axioms", "--model", "ideal", "--p", "7", "--bound", "6"])
@example(argv=["bound", "--profile", "{tmp}/g20000.json", "--ell", "0", "--m", "20000"])
@example(argv=["bound", "--profile", "{tmp}/prof.json", "--ell", "100000000", "--m", "3",
               "--diagnose"])
@example(argv=["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
               "--ell-range", "0..100000000"])
@example(argv=["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
               "--m-range", "3..100000000"])
@example(argv=["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
               "--ell-range", "0..99999999999999999999"])
@example(argv=["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
               "--m-range", "3..99999999999999999999"])
def test_every_argv_ends_in_an_exit_code(guard_dir, capsys, argv):
    """cli.main in-process: exit 0, 1 or 2, no exception, and at most
    GUARD_SECONDS of wall time."""
    argv = [a.format(tmp=guard_dir) for a in argv]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, GUARD_SECONDS)
    try:
        code = main(argv)
    except _RanTooLong:
        pytest.fail(f"{argv} ran over {GUARD_SECONDS} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in capsys.readouterr().err


LONG_OR_RAISED = [
    (["semigroup", "--curve-q", "0"], 1, "UnsupportedQ", 1.0),
    (["profile", "--curve-q", "0"], 1, "UnsupportedQ", 1.0),
    (["profile", "--hyperelliptic-gamma", "0"], 1, "ProfileBijectionViolation", 1.0),
    (["profile", "--hyperelliptic-gamma", "100000000"], 1, "SemigroupTooLarge", 1.0),
    (["axioms", "--model", "ideal", "--p", "7", "--bound", "6"], 0, None, 2.0),  # 799 elements
    # d_nord of genus 20000 (29 s when each window count walked every gap)
    (["bound", "--profile", "{tmp}/g20000.json", "--ell", "0", "--m", "20000"], 0, None, 2.0),
    (["bound", "--profile", "{tmp}/prof.json", "--ell", "100000000", "--m", "3", "--diagnose"],
     0, None, 2.0),
    (["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
      "--ell-range", "0..100000000"], 1, "TableTooLarge", 2.0),
    (["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
      "--m-range", "3..100000000"], 1, "TableTooLarge", 2.0),
    # len() of a range past sys.maxsize raised OverflowError
    (["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
      "--ell-range", "0..99999999999999999999"], 1, "TableTooLarge", 1.0),
    (["bound", "--profile", "{tmp}/prof.json", "--ell", "0", "--m", "3", "--table",
      "--m-range", "3..99999999999999999999"], 1, "TableTooLarge", 1.0),
    # one ell >= 0 rule for every code action (build and distance printed k = 0)
    (["code", "build", "--q", "2", "--ell", "-5", "--m", "1"], 1, "NegativeEll", 1.0),
    (["code", "distance", "--q", "2", "--ell", "-5", "--m", "1"], 1, "NegativeEll", 1.0),
    (["code", "verify", "--q", "2", "--ell", "-5", "--m", "1"], 1, "NegativeEll", 1.0),
    (["code", "verify", "--q", "5", "--ell", "-5", "--m", "19"], 1, "NegativeEll", 1.0),
    # the dual divisor of these cells lists no basis: C = {0}, nothing eliminated
    (["code", "distance", "--q", "5", "--ell", "100000000", "--m", "19"], 0, None, 2.0),
    (["code", "build", "--q", "5", "--ell", "0", "--m", "100000000"], 0, None, 2.0),
]


@pytest.mark.parametrize("argv,code,error,seconds", LONG_OR_RAISED,
                         ids=[" ".join(case[0]) for case in LONG_OR_RAISED])
def test_inputs_that_ran_long_or_raised(guard_dir, capsys, argv, code, error, seconds):
    """A 0 is a value, not "not given"; the hyperelliptic cap comes before
    the profile is built; the ideal model runs on weight rows; d_nord counts
    from thresholds, the diagnostic counts #A without listing it, and a
    table is refused from its sizes; every code action refuses ell < 0, and
    the dual code is counted at its divisor before anything is listed."""
    argv = [a.format(tmp=guard_dir) for a in argv]
    start = time.perf_counter()
    got, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert got == code
    assert err.startswith(f"error {error}:") if error else err == ""
