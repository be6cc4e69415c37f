"""Record the reference outputs every benchmark job is checked against.

    python3 perfbench/record.py

Writes the profile inputs under perfbench/inputs/ and, for every instance of
every menu in workloads.py, its exit code and the sha256 of its stdout and of
its --out/--csv file into perfbench/reference.json.  Run it only on the
commit whose outputs are the reference; later commits must reproduce them
byte for byte.  It prints each instance's wall time, which is how menus are
kept to instances of similar cost.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def main() -> int:
    if run.WORK.exists():
        shutil.rmtree(run.WORK)
    run.WORK.mkdir()
    env = run.child_env()
    inputs = run.HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, argv in workloads.INPUTS.items():
        res = run.spawn([sys.executable, "-m", "nordcodes.cli", *argv], inputs / f"{name}.json",
                        run.JOB_TIMEOUT, env, run.ROOT)
        if res["exit"] != 0:
            raise SystemExit(f"input {name} failed")
        (inputs / f"{name}.stderr").unlink()

    refs = {}
    for inst in workloads.all_instances():
        out_path = run.WORK / "rec-0.out"
        out_path.unlink(missing_ok=True)
        argv, writes = workloads.expand(inst, inputs, out_path)
        res = run.spawn(run.job_command(inst, argv), run.WORK / "rec-0.stdout",
                        run.JOB_TIMEOUT, env, run.ROOT)
        stdout, out = run.read_outputs(0, writes, "rec")
        if res["exit"] != 0 or res["timed_out"]:
            raise SystemExit(f"{workloads.instance_id(inst)} failed with exit {res['exit']}")
        refs[workloads.instance_id(inst)] = {
            "exit": res["exit"], "stdout": run.sha(stdout), "out": run.sha(out)}
        print(f"{res['wall']:7.3f} s  {workloads.instance_id(inst)}", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    (run.HERE / "reference.json").write_text(
        json.dumps({"commit": commit, "instances": refs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
