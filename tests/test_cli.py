import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


def test_semigroup_curve(capsys):
    code, out, _ = run(capsys, "semigroup", "--curve-q", "2")
    assert code == 0
    data = json.loads(out)
    assert sorted(map(tuple, data["gaps"])) == [(0, 1), (1, 0)]
    assert TwoPointSemigroup.from_json(data).genus2 == 2


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


def test_axioms_laurent(capsys):
    code, out, _ = run(
        capsys, "axioms", "--model", "laurent", "--p", "2", "--k", "2", "--bound", "2"
    )
    assert code == 0
    report = json.loads(out)
    results = {e["axiom"]: e["verdict"] for e in report["results"]}
    assert results["N5"] == "PASS"
    assert "FAIL" in (results["O3"], results["O4"])


def test_negative_ell(hyper2_profile, capsys):
    code, out, err = run(capsys, "bound", "--profile", hyper2_profile, "--ell", "-5", "--m", "3")
    assert code == 1 and out == "" and err.startswith("error NegativeEll:")


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


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bound", "--profile", "x.json")[0] == 2  # missing --ell/--m
    assert run(capsys)[0] == 2


def test_missing_file(capsys):
    code, _, err = run(
        capsys, "bound", "--profile", "/nonexistent.json", "--ell", "2", "--m", "3"
    )
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ("bound", "--profile", "{dir}", "--ell", "2", "--m", "3"),
    ("curve", "info", "--q", "2", "--out", "{dir}"),
])
def test_directory_as_path(tmp_path, capsys, argv):
    # a directory as input or as --out is an OSError, not a traceback
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_byte_reproducible(hyper2_profile, capsys, monkeypatch):
    argv = ["bound", "--profile", hyper2_profile, "--ell", "2", "--m", "3"]
    outs = []
    for threads in (None, "1", "4"):
        if threads is None:
            monkeypatch.delenv("NORD_THREADS", raising=False)
        else:
            monkeypatch.setenv("NORD_THREADS", threads)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert len(set(outs)) == 1


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
])
def test_semigroup_file_malformed(tmp_path, capsys, argv, text):
    path = tmp_path / "sg.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1 and out == "" and err.startswith("error MalformedSemigroup:")


def _child_env():
    """The environment of a child process that imports nordcodes from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


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
    if argv[:2] == ["semigroup", "--generators"]:
        assert layers == {"semigroup", "value"}
    elif argv[0] == "bound":
        assert layers == {"semigroup", "value", "bounds"}
    elif argv[0] == "axioms" and not argv[2].startswith("curve"):
        assert layers == {"field", "models"}
    elif argv[0] == "axioms":
        assert "semigroup" not in layers
    elif argv[:2] in (["code", "build"], ["code", "distance"]):
        assert "bounds" not in layers


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


@pytest.mark.parametrize("argv,expected", [
    (("code", "distance", "--q", "2", "--ell", "3000000", "--m", "1"), '"k": 0'),
    (("code", "verify", "--q", "2", "--ell", "3000000", "--m", "1"), '"verdict": "PASS"'),
    (("code", "build", "--q", "2", "--ell", "100000000", "--m", "1"), '"k": 7'),
    (("code", "build", "--q", "2", "--ell", "1", "--m", "100000000"), '"k": 7'),
])
def test_code_on_saturated_sizes(capsys, argv, expected):
    """Codes with ell + m >= n + 2*genus - 1 are the full space: built at once
    from Riemann-Roch, however large ell or m."""
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
    st.just("0..100000000"))
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
]


@pytest.mark.parametrize("argv,code,error,seconds", LONG_OR_RAISED,
                         ids=[" ".join(case[0]) for case in LONG_OR_RAISED])
def test_inputs_that_ran_long_or_raised(guard_dir, capsys, argv, code, error, seconds):
    """A 0 is a value, not "not given"; the hyperelliptic cap comes before
    the profile is built; the ideal model runs on weight rows; d_nord counts
    from thresholds, the diagnostic counts #A without listing it, and a
    table is refused from its sizes."""
    argv = [a.format(tmp=guard_dir) for a in argv]
    start = time.perf_counter()
    got, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert got == code
    assert err.startswith(f"error {error}:") if error else err == ""
