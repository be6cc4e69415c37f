"""nordcodes benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/nordcodes``.  The seed
picks one instance per job family and the job order (see workloads.py).

--trace 0 (end to end): a closed loop with one client.  Each pass runs every
job once, one at a time, each in a fresh interpreter (``python -m
nordcodes.cli`` with PYTHONPATH=src, or a library call).  Passes repeat until
the next one would overrun S seconds.  Reported: medians over passes of the
summed job wall time (wall_s) and child CPU time (cpu_s), the largest
per-child max-RSS (peak_rss_mb), the median of fresh set-up interpreters,
two before each pass and at least 7 (setup_s), and the share of jobs whose
exit code and output bytes match the recorded reference (pass_ratio).

--trace 1 (per layer): runs the job list in-process twice per round, once
plain and once under the tracer (tracer.py), plus scaling probes, and
reports the per-layer figures named in BENCHMARK.json.  It makes at least
two rounds, even past S seconds, so that counts are compared across two
traced runs.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT = 30.0  # seconds; each job takes under 2 s at the reference commit
HARD_LIMIT = 150.0  # seconds after start; no job or child runs past it
TRACED_ROUNDS = 2  # at least this many traced rounds, even past --seconds
ACCOUNTING_SLACK = 0.002  # s; tracer bookkeeping outside its job frame
SETUP_RUNS = 7  # at least this many set-up samples per run
SETUP_PER_PASS = 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # one thread per job process; a fixed hash seed for steadier timings
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def job_command(inst, argv) -> list[str]:
    if inst[0] == "cli":
        return [sys.executable, "-m", "nordcodes.cli", *argv]
    return [sys.executable, str(HERE / "libcalls.py"), *argv]


def sha(data: bytes | None):
    return None if data is None else hashlib.sha256(data).hexdigest()


def read_outputs(i: int, writes: bool, prefix: str):
    out_path = WORK / f"{prefix}-{i}.out"
    stdout = (WORK / f"{prefix}-{i}.stdout").read_bytes()
    out = out_path.read_bytes() if writes and out_path.exists() else None
    return stdout, out


def matches(ref: dict, exit_code: int, stdout_sha, out_sha) -> bool:
    return (ref["exit"], ref["stdout"], ref["out"]) == (exit_code, stdout_sha, out_sha)


def semantic_errors(jobs, prefix: str) -> list[str]:
    errors = []
    for i, (family, inst) in enumerate(jobs):
        argv, writes = workloads.expand(inst, HERE / "inputs", WORK / f"{prefix}-{i}.out")
        stdout, out = read_outputs(i, writes, prefix)
        try:
            problems = oracle.check(family, inst, argv, stdout.decode(),
                                    out.decode() if out is not None else None)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        errors += [f"{workloads.instance_id(inst)}: {p}" for p in problems]
    return errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spawn(cmd, stdout_path, timeout: float, env=None, cwd=None) -> dict:
    """Run cmd to completion (or kill it at timeout); stdout and stderr go
    to files.  Returns its wall time and its own rusage CPU time and max RSS.

    At exec, Linux carries the spawning process's RSS high-water mark into
    the child's max-RSS, so this process keeps its own memory small."""
    stdout_path = Path(stdout_path)
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "timed_out": not ready}


# -- end-to-end run ---------------------------------------------------------


def run_end_to_end(workload, jobs, refs, seconds, start, env):
    setup_cmd = [sys.executable, "-c", workloads.SETUP[workload]]
    setup = []

    def measure_setup():
        res = spawn(setup_cmd, WORK / "setup.stdout", JOB_TIMEOUT, env, ROOT)
        if res["exit"] != 0:
            raise SystemExit("set-up interpreter failed; see .perfbench_work/setup.stderr")
        setup.append(res)

    measure_setup()  # fills __pycache__; not counted
    setup.clear()
    passes, per_job, attempted, failed = [], [], 0, 0
    measure_start = time.perf_counter()
    while True:
        # set-up samples are spread over the run so they see the same machine
        for _ in range(SETUP_PER_PASS):
            measure_setup()
        sums = dict.fromkeys(("wall", "cpu"), 0.0)
        rss = 0.0
        complete = True
        for i, (family, inst) in enumerate(jobs):
            remaining = HARD_LIMIT - (time.perf_counter() - start)
            if remaining <= 0:
                complete = False
                break
            out_path = WORK / f"e2e-{i}.out"
            out_path.unlink(missing_ok=True)
            argv, writes = workloads.expand(inst, HERE / "inputs", out_path)
            res = spawn(job_command(inst, argv), WORK / f"e2e-{i}.stdout",
                        min(JOB_TIMEOUT, remaining), env, ROOT)
            stdout, out = read_outputs(i, writes, "e2e")
            attempted += 1
            ok = not res["timed_out"] and matches(
                refs[workloads.instance_id(inst)], res["exit"], sha(stdout), sha(out))
            if not ok:
                failed += 1
                print(f"# FAILED {workloads.instance_id(inst)}: exit {res['exit']}"
                      f"{' (timeout)' if res['timed_out'] else ''}", file=sys.stderr)
            per_job.append({"job": i, **res})
            sums["wall"] += res["wall"]
            sums["cpu"] += res["cpu"]
            rss = max(rss, res["rss_mb"])
        if complete:
            passes.append({**sums, "rss": rss})
        elapsed = time.perf_counter() - measure_start
        typical = statistics.median(p["wall"] for p in passes) if passes else sums["wall"]
        if not complete or elapsed + typical > seconds:
            break

    while len(setup) < SETUP_RUNS and time.perf_counter() - start < HARD_LIMIT:
        measure_setup()
    (WORK / "e2e-jobs.json").write_text(json.dumps({"setup": setup, "jobs": per_job}))
    errors = semantic_errors(jobs, "e2e") if passes else ["no complete pass"]
    series = {
        "wall_s": [p["wall"] for p in passes], "cpu_s": [p["cpu"] for p in passes],
        "peak_rss_mb": [p["rss"] for p in passes],
        "setup_s": [s["wall"] for s in setup],
    }
    for name, values in series.items():
        if values:
            lo, hi = quartiles(values)
            print(f"# {name}: median {statistics.median(values):.4f} "
                  f"q1 {lo:.4f} q3 {hi:.4f} n={len(values)}")
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in series.items()}
    metrics["pass_ratio"] = 1.0 - failed / attempted if attempted else 0.0
    return metrics, attempted, failed, errors


# -- traced run -------------------------------------------------------------


def run_child(mode, jobs, start, env) -> dict | None:
    spec_path = WORK / f"{mode}.spec.json"
    result_path = WORK / f"{mode}.result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "mode": mode, "jobs": jobs, "workdir": str(WORK), "result": str(result_path),
        "timeout": JOB_TIMEOUT}))
    res = spawn([sys.executable, str(HERE / "inproc.py"), str(spec_path)],
                WORK / f"{mode}.child.stdout", HARD_LIMIT - (time.perf_counter() - start),
                env, ROOT)
    if res["exit"] != 0 or not result_path.exists():
        print(f"# {mode} child failed (exit {res['exit']}); see .perfbench_work/{mode}.child.stderr",
              file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def src_lines() -> dict:
    from tracer import LAYERS

    lines = {}
    for layer in LAYERS:
        lines[f"{layer}.src_lines"] = len((SRC / "nordcodes" / f"{layer}.py").read_text().splitlines())
    lines["src_lines.total"] = sum(
        len(p.read_text().splitlines()) for p in (SRC / "nordcodes").glob("*.py"))
    return lines


def run_traced(jobs, refs, seconds, start, env):
    probe_res = run_child("probes", jobs, start, env)
    if probe_res is None:
        return {}, 0, 0, ["probe child failed"]
    plain_runs, traced_runs, errors = [], [], []
    attempted = failed = 0
    while True:
        round_start = time.perf_counter()
        for mode, runs in (("plain", plain_runs), ("traced", traced_runs)):
            res = run_child(mode, jobs, start, env)
            attempted += len(jobs)
            if res is None:
                failed += len(jobs)
                errors.append(f"{mode} child failed")
                continue
            runs.append(res)
            for rec, (_, inst) in zip(res["records"], jobs):
                if rec["exit"] is None:
                    failed += 1
                    errors.append(f"{mode}: timed out: {workloads.instance_id(inst)}")
                elif not matches(refs[workloads.instance_id(inst)], rec["exit"],
                                 rec["stdout"], rec["out"]):
                    failed += 1
                    errors.append(f"{mode}: output differs: {workloads.instance_id(inst)}")
        if errors:
            break
        spent = time.perf_counter() - round_start
        if len(traced_runs) >= TRACED_ROUNDS and time.perf_counter() - start + spent > seconds:
            break
    if errors:
        return {}, attempted, failed, errors

    # self-checks: byte-identical outputs, self-time accounting, repeatable counts
    for run in plain_runs + traced_runs:
        if [(r["exit"], r["stdout"], r["out"]) for r in run["records"]] != \
                [(r["exit"], r["stdout"], r["out"]) for r in plain_runs[0]["records"]]:
            errors.append("traced and plain runs differ in job outputs")
    # The self times add up to the tracer's own job clock by construction;
    # compare them with the wall taken around the job outside the tracer.
    for run in traced_runs:
        for rec, gap in zip(run["records"], run["unaccounted_s"]):
            if not -1e-6 <= gap <= ACCOUNTING_SLACK + 0.01 * rec["wall"]:
                errors.append(f"span self times miss the job wall by {gap:.2e} s")
    errors += semantic_errors(jobs, "traced")

    metrics = {}
    first = traced_runs[0]["metrics"]
    for name, value in first.items():
        values = [run["metrics"][name] for run in traced_runs]
        if isinstance(value, int):
            if len(set(values)) != 1:
                errors.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(values)
    plain_wall = statistics.median(sum(r["wall"] for r in run["records"]) for run in plain_runs)
    traced_wall = statistics.median(sum(r["wall"] for r in run["records"]) for run in traced_runs)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics.update(probe_res["metrics"])
    metrics.update(src_lines())
    print(f"# traced rounds: {len(traced_runs)}, spans per traced run: {traced_runs[0]['spans']}, "
          f"plain wall {plain_wall:.3f} s, traced wall {traced_wall:.3f} s")
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    ref_path = HERE / "reference.json"
    if not (SRC / "nordcodes" / "cli.py").is_file():
        print(f"error: no nordcodes sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    refs = json.loads(ref_path.read_text())["instances"]

    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    jobs = workloads.pick_jobs(args.workload, args.seed)
    env = child_env()
    print(f"# workload {args.workload} seed {args.seed}: "
          + ", ".join(workloads.instance_id(inst) for _, inst in jobs))

    if args.trace:
        metrics, attempted, failed, errors = run_traced(jobs, refs, args.seconds, start, env)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed, errors = run_end_to_end(
            args.workload, jobs, refs, args.seconds, start, env)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not errors:
        errors.append(f"metrics missing: {missing}")
    for e in errors:
        print(f"# ERROR {e}", file=sys.stderr)
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errors and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
