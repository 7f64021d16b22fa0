"""One workload in one fresh single-threaded process.

Usage: python3 -s perfbench/worker.py JOB_JSON WORKLOAD SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
process (the same clock on both sides), so set-up time covers interpreter
start. The order below is the set-up measurement: import etseek (timed),
read the benchmark's inputs (not timed: that is the benchmark's own work),
then parse the config or construct the specs (timed). The process is ready
after that. A full run then repeats whole rounds of operations, in a closed
loop, for the requested seconds, records peak RSS, checks the outputs and
writes its result as JSON to the job's result path.
"""

import sys
import time


def _import_package(root, workload):
    sys.path.insert(0, root + "/src")
    start = time.monotonic()
    import etseek  # noqa: F401  the import is what is timed
    if workload == "monte-carlo":
        import etseek.analysis
        import etseek.average
        import etseek.escore
        import etseek.trigger  # noqa: F401
    else:
        import etseek.cli  # noqa: F401
    return start, time.monotonic()


def main(argv):
    job_path, workload, spawned = argv[1], argv[2], float(argv[3])
    import os
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    import_start, import_end = _import_package(root, workload)

    import json
    sys.path.insert(0, here)
    with open(job_path) as fh:
        job = json.load(fh)
    inputs = job["inputs"]
    config_text = None
    if workload != "monte-carlo":
        with open(job["config"]) as fh:
            config_text = fh.read()

    prep_start = time.monotonic()
    state = _prepare(workload, inputs, config_text)
    ready = time.monotonic()

    result = {
        "setup_s": (import_end - spawned) + (ready - prep_start),
        "import_s": import_end - import_start,
        "prepare_s": ready - prep_start,
    }
    if not job["setup_only"]:
        result.update(_run(job, state))
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _prepare(workload, inputs, config_text):
    """Parse the config (cli workloads) or construct the specs (library calls)."""
    if workload != "monte-carlo":
        import etseek.cli
        return etseek.cli.parse_config(config_text)
    import etseek.escore
    import etseek.trigger
    specs = []
    for p in inputs["draws"]:
        specs.append((
            etseek.escore.MapSpec(q_star=p["q_star"], h_star=p["h_star"],
                                  theta_star=p["theta_star"]),
            etseek.escore.LoopSpec(amplitude_a=p["a"], omega=p["omega"],
                                   epsilon=p["epsilon"], gain_k=p["k"]),
            etseek.trigger.TriggerSpec(sigma=p["sigma"], alpha=p["alpha"]),
            p["theta_hat0"], p["theta_hat0"] - p["theta_star"], p["n_iters"]))
    return specs


# --- operations ---------------------------------------------------------------

def _library_pipeline(spec, offset_constant):
    """Every library call of one monte-carlo draw, through module attributes."""
    from etseek import analysis, average, escore, trigger
    map_spec, loop, trig, theta_hat0, theta_tilde0, n_iters = spec
    traj, log = escore.run(map_spec, loop, trig, theta_hat0, n_iters)
    avg = average.avg_run(map_spec, loop, trig, theta_tilde0, n_iters)
    assumption = trigger.validate_assumption(map_spec, loop, trig)
    stats = analysis.event_statistics(log)
    env_true = analysis.convergence_envelopes(traj, map_spec, loop, trig,
                                              offset_constant)
    env_avg = analysis.convergence_envelopes(avg, map_spec, loop, trig)
    decay = analysis.check_decay(analysis.lyapunov_sequence(avg), map_spec,
                                 loop, trig)
    return traj, log, avg, assumption, stats, env_true, env_avg, decay


def _fingerprint(out):
    traj, log, avg, _, _, env_true, env_avg, decay = out
    return (traj.records[-1].theta_hat, len(log.entries), avg.records[-1].g_av,
            decay.passed, env_true.passed, env_avg.passed)


def _round(job, state):
    """The operations of one round, each a callable returning a fingerprint."""
    workload = job["workload"]
    if workload == "monte-carlo":
        offset = job["offset_constant"]
        return [
            (lambda spec=spec: _fingerprint(_library_pipeline(spec, offset)))
            for spec in state]
    import etseek.cli
    if workload == "run-long":
        argv = ["run", "--config", job["config"], "--mode", "both",
                "--out", job["out"]]
    else:
        argv = ["sweep", "--config", job["config"],
                "--param", job["inputs"]["param"],
                "--values", ",".join(job["inputs"]["tokens"]),
                "--out", job["out"]]

    def op():
        code = etseek.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"etseek {argv[0]} exited {code}")
        return None

    return [op]


class _Loop:
    """Closed loop over rounds; counts operations and keeps fingerprints."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.fingerprints = [None] * len(ops)
        self.nondeterministic = []

    def call(self, i, run_op):
        self.attempted += 1
        try:
            fp = run_op(self.ops[i])
        except Exception:  # an operation that fails is counted, not fatal
            if self.failed == 0:
                import traceback
                traceback.print_exc()
            self.failed += 1
            return
        self.completed += 1
        if self.fingerprints[i] is None:
            self.fingerprints[i] = fp
        elif fp != self.fingerprints[i]:
            self.nondeterministic.append(i)


def _run(job, state):
    import resource
    ops = _round(job, state)
    loop = _Loop(ops)
    seconds = job["seconds"]
    metrics, notes, problems = {}, [], []
    if job["trace"]:
        metrics, notes, problems = _traced_phase(job, loop, seconds)
    else:
        start = time.monotonic()
        while True:
            for i in range(len(ops)):
                loop.call(i, lambda op: op())
            wall = time.monotonic() - start
            if wall >= seconds:
                break
        metrics["wall_s"] = wall
        metrics["completed"] = loop.completed
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    problems += _check(job, state, loop)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "problems": problems, "metrics": metrics, "notes": notes}


# --- traced phase ---------------------------------------------------------------

def _output_bytes(out):
    import os
    total = 0
    for dirpath, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _traced_phase(job, loop, seconds):
    """Alternate untraced and traced rounds; per-layer figures per operation."""
    from tracer import Tracer
    tracer = Tracer()
    untraced_s = 0.0
    untraced_ops = 0
    traced_ops = 0
    bytes_written = 0
    cli_workload = job["workload"] != "monte-carlo"

    def untraced(op):
        nonlocal untraced_s, untraced_ops
        t0 = time.perf_counter()
        fp = op()
        untraced_s += time.perf_counter() - t0
        untraced_ops += 1
        return fp

    def traced(op):
        nonlocal traced_ops, bytes_written
        fp = tracer.span("op", op)
        traced_ops += 1
        if cli_workload:
            bytes_written += _output_bytes(job["out"])
        return fp

    start = time.monotonic()
    # a first round, timed by neither side, pays the one-off costs (first
    # files in a fresh directory, heap growth) that would bias the overhead
    for i in range(len(loop.ops)):
        loop.call(i, lambda op: op())
    while True:
        for i in range(len(loop.ops)):
            loop.call(i, untraced)
        tracer.install()
        try:
            for i in range(len(loop.ops)):
                loop.call(i, traced)
        finally:
            tracer.uninstall()
        if time.monotonic() - start >= seconds:
            break

    n = max(traced_ops, 1)
    self_s = {k: v / n for k, v in tracer.self_s.items()}
    total_s = {k: v / n for k, v in tracer.total_s.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    kernel_s = total_s.get("kernel.run_loop", 0.0) + total_s.get("kernel.avg_loop", 0.0)
    kernel_steps = counts.get("kernel.steps", 0.0)
    run_exp_self = self_s.get("cli.run_experiment", 0.0)
    written = bytes_written / n
    true_steps = counts.get("escore.steps", 0.0)
    m = {
        "kernel.run_loop_s": total_s.get("kernel.run_loop", 0.0),
        "kernel.avg_loop_s": total_s.get("kernel.avg_loop", 0.0),
        "kernel.ns_per_step": kernel_s / kernel_steps * 1e9 if kernel_steps else 0.0,
        "escore.run.self_s": self_s.get("escore.run", 0.0),
        "average.avg_run.self_s": self_s.get("average.avg_run", 0.0),
        "escore.records": counts.get("escore.records", 0.0),
        "average.records": counts.get("average.records", 0.0),
        "analysis.convergence_envelopes_s": self_s.get("analysis.convergence_envelopes", 0.0),
        "analysis.check_decay_s": self_s.get("analysis.check_decay", 0.0),
        "analysis.event_statistics_s": self_s.get("analysis.event_statistics", 0.0),
        "analysis.lyapunov_sequence_s": self_s.get("analysis.lyapunov_sequence", 0.0),
        "trigger.validate_assumption_s": self_s.get("trigger.validate_assumption", 0.0),
        "trigger.events": counts.get("trigger.events", 0.0),
        "trigger.updates_per_step": (counts.get("trigger.events", 0.0) / true_steps
                                     if true_steps else 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.run_experiment.self_s": run_exp_self,
        "cli.bytes_written": written,
        "cli.write_mb_per_s": written / run_exp_self / 1e6 if run_exp_self else 0.0,
        "cli.sweep.self_s": self_s.get("cli.sweep", 0.0),
        "cli.sweep.bytes_read": counts.get("cli.bytes_read", 0.0),
        "trace.unattributed_s": self_s.get("op", 0.0),
        "trace.overhead_s": total_s.get("op", 0.0) - untraced_s / max(untraced_ops, 1),
    }
    notes = [
        f"traced {traced_ops} and untraced {untraced_ops} operations; per "
        f"operation: traced wall {total_s.get('op', 0.0):.6f} s = sum of self "
        f"times {sum(self_s.values()):.6f} s, untraced wall "
        f"{untraced_s / max(untraced_ops, 1):.6f} s"]
    compiled, compiled_notes, problems = _compiled_reference(job)
    m.update(compiled)
    notes += compiled_notes
    return m, notes, problems


def _kernel_calls(job):
    """(run_loop args, avg_loop args) of every kernel call one operation makes."""
    import checks
    inputs = job["inputs"]
    if job["workload"] == "monte-carlo":
        params = inputs["draws"]
    elif job["workload"] == "sweep":
        name = inputs["param"].split(".", 1)[1]
        params = [dict(inputs["params"], **{name: float(t)})
                  for t in inputs["tokens"]]
    else:
        params = [inputs["params"]]
    calls = []
    for p in params:
        c_g, c_t = checks.coefficients(p)
        calls.append((
            (p["q_star"], p["h_star"], p["theta_star"], p["a"], p["omega"],
             p["epsilon"], p["k"], p["sigma"], p["alpha"], p["theta_hat0"],
             p["n_iters"]),
            (p["h_star"], c_g, c_t, p["sigma"], p["alpha"],
             p["theta_hat0"] - p["theta_star"], p["n_iters"])))
    return calls


def _bits(result):
    """Exact bit pattern of a kernel's (rows, events)."""
    import struct
    rows, events = result
    flat = [float(x) for row in rows for x in row]
    flat += [float(x) for ev in events for x in ev]
    return struct.pack(f"<{len(flat)}d", *flat)


def _compiled_reference(job):
    """Compiled kernel seconds per operation, and its bit-identity to the pure one."""
    import statistics
    zero = {"kernel.compiled.run_loop_s": 0.0, "kernel.compiled.avg_loop_s": 0.0}
    path = job.get("ckernel")
    if not path:
        return zero, [f"compiled kernel skipped: {job['ckernel_note']}"], []
    import ckernel
    try:
        from etseek import _kernel as pure
    except ImportError:
        return zero, ["compiled kernel skipped: etseek._kernel is gone"], []
    compiled = ckernel.load(path)
    calls = _kernel_calls(job)
    # a monte-carlo operation is one draw; the others make every call
    scale = 1.0 / len(calls) if job["workload"] == "monte-carlo" else 1.0
    out, problems = {}, []
    for name, idx in (("run_loop", 0), ("avg_loop", 1)):
        c_fn, p_fn = getattr(compiled, name), getattr(pure, name)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for call in calls:
                c_fn(*call[idx])
            times.append(time.perf_counter() - t0)
        out[f"kernel.compiled.{name}_s"] = statistics.median(times) * scale
        for call in calls:
            if _bits(c_fn(*call[idx])) != _bits(p_fn(*call[idx])):
                problems.append(f"compiled {name} differs from the pure "
                                f"kernel on {call[idx]}")
                break
    return out, [f"compiled kernel loaded from {path}"], problems


# --- output checks (outside every timed region) ----------------------------------

def _library_rows(out):
    traj, log, avg, assumption, stats, env_true, env_avg, decay = out
    rows = [(r.k, r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control,
             r.triggered) for r in traj.records]
    events = [(e.index, e.k, e.gradient, e.control) for e in log.entries]
    avg_rows = [(r.k, r.g_av, r.theta_tilde_av, r.error, r.triggered)
                for r in avg.records]
    results = {
        "rho0": assumption.rho0,
        "alpha_min": assumption.alpha_min,
        "event_count": stats.count,
        "mean_gap_seconds": stats.mean_gap_seconds,
        "decay_passed": decay.passed,
        "decay_checked": decay.checked,
    }
    for report in (env_true, env_avg):
        for check in report.checks:
            results[check.name] = None if check.passed else check.first_violation_k
    return rows, events, avg_rows, results


def _check(job, state, loop):
    import checks
    import workloads
    inputs = job["inputs"]
    offset = job["offset_constant"]
    problems = [f"operation {i} gave different results on repeats"
                for i in sorted(set(loop.nondeterministic))]
    if loop.completed == 0:
        return problems + ["no operation completed"]
    if job["workload"] == "run-long":
        problems += checks.check_run_dir(
            inputs["params"], job["out"], offset,
            tail_radius=workloads.RUN_LONG_TAIL_RADIUS)
    elif job["workload"] == "sweep":
        problems += checks.check_sweep_dir(
            inputs["params"], inputs["param"], inputs["tokens"], job["out"],
            offset)
    else:
        for i, (p, spec) in enumerate(zip(inputs["draws"], state)):
            out = _library_pipeline(spec, offset)
            if _fingerprint(out) != loop.fingerprints[i]:
                problems.append(f"draw {i}: checked run differs from timed runs")
            problems += [f"draw {i}: {msg}" for msg in
                         checks.check_library(p, *_library_rows(out), offset)]
            if len(problems) >= checks.MAX_PROBLEMS:
                break
    return problems


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
