"""Every benchmark instance, run in-process, against the exit code and the
sha256 of stdout and of the output file recorded in
`perfbench/reference.json`, so that a changed output byte shows in the test
suite and not only when the benchmark runs.  The perfbench modules are read,
never changed."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from nordcodes.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, libcalls = _load("workloads"), _load("libcalls")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["instances"]
INSTANCES = list(workloads.all_instances())


def _sha(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def test_every_instance_has_a_reference():
    assert sorted(map(workloads.instance_id, INSTANCES)) == sorted(REFERENCE)


@pytest.mark.parametrize("inst", INSTANCES, ids=workloads.instance_id)
def test_instance_matches_the_reference(inst, tmp_path):
    out_path = tmp_path / "job.out"
    argv, writes = workloads.expand(inst, PERFBENCH / "inputs", out_path)
    stdout = io.StringIO()
    if inst[0] == "cli":
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    else:
        stdout.write(libcalls.CALLS[argv[0]](*argv[1:]))
        code = 0
    out = out_path.read_bytes() if writes and out_path.exists() else None
    got = {"exit": code, "stdout": _sha(stdout.getvalue().encode()), "out": _sha(out)}
    assert got == REFERENCE[workloads.instance_id(inst)]
