"""Child process of the traced benchmark run.

    python3 perfbench/inproc.py SPEC.json

SPEC gives ``mode`` ("plain", "traced" or "probes"), the job list and the
paths to use.  "plain" and "traced" run every job in this interpreter
through ``nordcodes.cli.main(argv)`` or the library call, write each job's
stdout next to its output file and record hashes and wall times.  A job
that runs past ``SPEC["timeout"]`` seconds is stopped and recorded with exit
code None.  "traced" first installs the tracer and also reports the
per-layer figures.  "probes"
times public calls at growing input size.  The result is written as JSON to
``SPEC["result"]``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _sha(data: bytes | None):
    return None if data is None else hashlib.sha256(data).hexdigest()


class JobTimeout(BaseException):
    """Raised in a job that runs past its timeout.  A BaseException, so that
    the program's own ``except Exception`` handlers let it through."""


def _on_alarm(signum, frame):
    raise JobTimeout


def _run_one(inst, argv, cli, libcalls, timeout):
    """(exit code, stdout) of one job; the exit code is None on timeout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if inst[0] == "cli":
                code = cli.main(argv)
            else:
                code = 0
                stdout.write(libcalls.CALLS[argv[0]](*argv[1:]))
    except JobTimeout:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, stdout.getvalue()


def run_jobs(spec, tracer=None):
    import workloads
    from nordcodes import cli

    import libcalls

    work = Path(spec["workdir"])
    records = []
    for i, (family, inst) in enumerate(spec["jobs"]):
        out_path = work / f"{spec['mode']}-{i}.out"
        out_path.unlink(missing_ok=True)
        argv, writes = workloads.expand(inst, HERE / "inputs", out_path)
        call = lambda: _run_one(inst, argv, cli, libcalls, spec["timeout"])  # noqa: E731
        # the wall is taken outside the tracer, as a check on its own job clock
        start = time.perf_counter()
        code, text = call() if tracer is None else tracer.run_job(call)
        wall = time.perf_counter() - start
        data = text.encode()
        (work / f"{spec['mode']}-{i}.stdout").write_bytes(data)
        out = out_path.read_bytes() if writes and out_path.exists() else None
        records.append({"exit": code, "stdout": _sha(data), "out": _sha(out), "wall": wall,
                        "bytes": len(data) + (len(out) if out else 0)})
    return records


def traced_metrics(tr, records, jobs) -> dict:
    from tracer import LAYERS

    self_s = dict.fromkeys(LAYERS, 0.0)
    unaccounted = []  # per job: outer wall minus (self times + root remainder)
    for j, rec in enumerate(records):
        per_layer, covered = tr.job_self_times(j)
        unaccounted.append(rec["wall"] - covered)
        for layer, v in per_layer.items():
            self_s[layer] += v
    x = tr.extra
    field_ops = sum(tr.count(f".Field.{op}", "field")
                    for op in ("add", "sub", "neg", "mul", "inv", "pow"))
    enum_s = tr.inclusive("codes.LinearCode.codewords")
    m = {
        "field.ops": field_ops,
        "field.make_field_s": tr.inclusive("field.make_field"),
        "linalg.rref_calls": tr.count("linalg.rref", "linalg"),
        "linalg.rref_cells": x["rref_cells"],
        "linalg.pivot_ratio": x["rref_pivots"] / x["rref_rows"] if x["rref_rows"] else 0.0,
        "semigroup.calls": sum(c for n, c in zip(tr.names, tr.calls)
                               if n.startswith("semigroup.")),
        "bounds.capital_sigma_calls": tr.count("bounds.capital_sigma", "bounds"),
        "bounds.n_set_calls": tr.count("bounds.n_set", "bounds"),
        "bounds.nset_pairs_scanned": x["nset_pairs"],
        "hermitian.evaluate_calls": tr.count(".TwoPointFunction.evaluate", "hermitian"),
        "hermitian.rr_basis_calls": tr.count(".HermitianCurve.riemann_roch_basis", "hermitian"),
        "hermitian.function_make_calls": tr.count(".TwoPointFunction.make", "hermitian"),
        "hermitian.curve_init_s": tr.inclusive("hermitian.HermitianCurve.__init__"),
        "codes.messages": x["messages"],
        "codes.messages_per_s": x["messages"] / enum_s if enum_s else 0.0,
        "codes.evaluation_matrix_calls": tr.count("codes.evaluation_matrix", "codes"),
        "codes.syndrome_matrix_calls": tr.count("codes.syndrome_matrix", "codes"),
        "models.sample_size": x["sample_size"],
        "models.rho_calls": tr.count(".rho", "models"),
        "models.mul_calls": tr.count(".mul", "models"),
        "models.add_calls": tr.count(".add", "models"),
        "cli.out_bytes": sum(r["bytes"] for r, (_, inst) in zip(records, jobs)
                             if inst[0] == "cli"),
    }
    for layer, v in self_s.items():
        m[f"{layer}.self_s"] = v
    return {"metrics": m, "unaccounted_s": unaccounted, "spans": len(tr.spans)}


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes() -> dict:
    """Work per input: public calls timed at growing input size."""
    from nordcodes import HermitianCurve, codes, d_nord, hyperelliptic_profile, make_field, models

    out = {}
    for g in (10, 20, 40):
        prof = hyperelliptic_profile(g)
        out[f"bounds.d_nord_s.g{g}"] = _median_time(lambda: d_nord(prof, 60, g), 5)
    prof2 = hyperelliptic_profile(2)
    out["bounds.d_nord_s.ell1e3"] = _median_time(lambda: d_nord(prof2, 1000, 3), 5)
    out["bounds.d_nord_s.ell1e5"] = _median_time(lambda: d_nord(prof2, 100000, 3), 3)
    curve = HermitianCurve(3)
    # C_ell^5 over GF(9) with dimension k = 3, 4, 5
    for k, ell, reps in ((3, 20, 5), (4, 19, 3), (5, 18, 1)):
        code = codes.build_C(curve, ell, 5)
        if code.k != k:
            raise RuntimeError(f"C_{ell}^5 has dimension {code.k}, expected {k}")
        out[f"codes.min_distance_s.k{k}"] = _median_time(code.min_distance_bruteforce, reps)
    gf2 = make_field(2, 1)
    for b, reps in ((2, 5), (3, 3)):
        out[f"models.axiom_check_s.b{b}"] = _median_time(
            lambda: models.axiom_check(models.model_laurent(gf2), b), reps)
    return out


def main(spec_path: str):
    spec = json.loads(Path(spec_path).read_text())
    signal.signal(signal.SIGALRM, _on_alarm)
    result = {}
    if spec["mode"] == "probes":
        result["metrics"] = probes()
    elif spec["mode"] == "traced":
        from tracer import Tracer

        tr = Tracer()
        tr.install()
        result["records"] = run_jobs(spec, tr)
        result.update(traced_metrics(tr, result["records"], spec["jobs"]))
        tr.dump(Path(spec["workdir"]) / "trace-spans.json")
    else:
        result["records"] = run_jobs(spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
