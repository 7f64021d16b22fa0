"""Layered benchmark of the etseek simulator.

    python3 perfbench/run.py --workload {run-long,sweep,monte-carlo}
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; no install is needed, the worker puts
`src` on its path. The inputs are made from --seed. Set-up is measured in
several fresh worker processes and reported as their median; one more
worker then runs the workload for --seconds in a closed loop and checks its
outputs against the loop's equations. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones from a run whose operations alternate
between untraced and traced. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. Exits 2, printing no
result, when the tree holds no etseek package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import ckernel  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9          # worker starts per run, the timed worker included
# nothing from the caller's environment reaches the worker; a fixed hash seed
# keeps dict and set layouts, and so their speed, the same in every process
WORKER_ENV = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def _metric_units(section):
    """(name, unit) of every metric BENCHMARK.json lists in section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _spawn(wdir, job, name, timeout):
    """Run one worker on job; return its result dict."""
    job = dict(job, result=str(wdir / f"{name}.result.json"))
    job_path = wdir / f"{name}.job.json"
    job_path.write_text(json.dumps(job))
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), str(job_path),
           job["workload"]]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], stdout=subprocess.DEVNULL,
                              env=WORKER_ENV, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {name} did not finish in {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited {proc.returncode}")
    return json.loads(Path(job["result"]).read_text())


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "etseek" / "__init__.py").is_file():
        raise BenchError(f"no etseek package under {ROOT / 'src'}")
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    so_path, so_note = ckernel.build(ROOT, WORK)

    inputs = workloads.make(workload, seed)
    job = {
        "workload": workload,
        "inputs": inputs,
        "seconds": seconds,
        "trace": trace,
        "setup_only": True,
        "out": str(wdir / "out"),
        "offset_constant": workloads.OFFSET_CONSTANT,
        "ckernel": str(so_path) if so_path else None,
        "ckernel_note": so_note,
    }
    if workload != "monte-carlo":
        job["config"] = str(wdir / "config.cfg")
        Path(job["config"]).write_text(workloads.config_text(inputs["params"]))

    samples = [_spawn(wdir, job, f"setup{i}", SETUP_TIMEOUT_S)
               for i in range(SETUP_SAMPLES - 1)]
    result = _spawn(wdir, dict(job, setup_only=False), "run", RUN_TIMEOUT_S)
    samples.append(result)

    def median(key):
        return statistics.median(s[key] for s in samples)

    m = result["metrics"]
    if trace:
        m["import_s"] = median("import_s")
        m["cli.parse_config_s"] = (
            median("prepare_s") if workload != "monte-carlo" else 0.0)
        wanted = _metric_units("per_layer")
    else:
        steps = m["completed"] * workloads.steps_per_op(workload, inputs)
        m["steps_per_s"] = steps / m["wall_s"]
        m["setup_s"] = median("setup_s")
        wanted = _metric_units("end_to_end")
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in wanted}
    for note in result["notes"]:
        print(f"note: {note}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, unit in wanted:
        print(f"{workload} {name} = {m[name]!r} {unit}")
    print(f"{workload} attempted = {result['attempted']} "
          f"failed = {result['failed']}")
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Layered benchmark of the etseek simulator.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
