"""Acceptance gate: the quantitative bars for the bundled reference setup.

One test per criterion; each prints a single PASS/FAIL line with the
measured numbers (visible with -s, and in the assertion message on failure)
and then asserts at exactly the stated tolerance.

Criteria 1 and 2 fail with this loop as specified, and are left failing
rather than weakened: with the origin as the initial triggering instant the
held gradient is the k = 0 demodulation sample, which is exactly zero (zero
dither sample), so the measurement error always equals the current estimate
in magnitude; with sqrt(0.7) > 0.74 the strict condition
sqrt(sigma)*|g| - alpha*|e| < 0 is then unsatisfiable and the hold never
refreshes. The estimate stays at 0.5, giving one event and no convergence.
The run report records the measured count and mean gap next to the target
pair (19 updates, 9.47 s) for the same parameters.
"""

import math
import random
import time

from etseek import (
    TriggerSpec,
    avg_run,
    check_decay,
    closed_form_between_events,
    decay_rate,
    escore,
    event_statistics,
    gradient_expansion,
    lyapunov_sequence,
    min_inter_event_estimate,
    should_trigger,
    validate_assumption,
)
from helpers import (
    REFERENCE_N_ITERS,
    REFERENCE_THETA_HAT0,
    assert_event_errors_reset_to_zero,
    assert_hold_constant_between_events,
    assert_non_events_satisfy_condition,
    finite_true_runs,
    reference_specs,
)

_cache = {}


def _reference_run():
    if "true" not in _cache:
        specs = reference_specs()
        start = time.perf_counter()
        traj, log = escore.run(*specs, REFERENCE_THETA_HAT0, REFERENCE_N_ITERS)
        _cache["true"] = (traj, log, time.perf_counter() - start)
    return _cache["true"]


def _reference_avg_run():
    if "avg" not in _cache:
        _cache["avg"] = avg_run(*reference_specs(), -2.5, REFERENCE_N_ITERS)
    return _cache["avg"]


def _emit(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_reference_convergence():
    map_spec, _, _ = reference_specs()
    traj, _, runtime = _reference_run()
    tail = traj.records[800:]
    theta_err = max(abs(r.theta - map_spec.theta_star) for r in tail)
    y_err = max(abs(r.y - map_spec.q_star) for r in tail)
    ok = theta_err <= 0.30 and y_err <= 0.05 and runtime < 1.0
    _emit("criterion 1 (reference convergence)", ok,
          f"max |theta-3| on k in [800,1000] = {theta_err:.4f}, bound 0.30; "
          f"max |y-2| = {y_err:.4f}, bound 0.05; "
          f"runtime {runtime:.4f} s, bound 1 s")


def test_criterion_02_reference_update_economy():
    _, log, _ = _reference_run()
    stats = event_statistics(log)
    mean = stats.mean_gap_seconds
    ok = 10 <= stats.count <= 40 and mean is not None and 4.5 <= mean <= 18.0
    _emit("criterion 2 (reference update economy)", ok,
          f"event count = {stats.count}, band [10, 40]; "
          f"mean gap = {'n/a' if mean is None else f'{mean:.2f} s'}, "
          f"band [4.5, 18] s; targets 19 and 9.47 s")


def test_criterion_03_expansion_oracle_over_reference_run():
    map_spec, loop, _ = reference_specs()
    traj, _, _ = _reference_run()
    worst = max(
        abs(gradient_expansion(map_spec, loop, r.k,
                               r.theta_hat - map_spec.theta_star).total()
            - r.gradient)
        for r in traj.records)
    ok = worst <= 1e-12
    _emit("criterion 3 (gradient expansion oracle)", ok,
          f"max |demodulated - expansion total| over {len(traj)} steps = "
          f"{worst:.3e}, bound 1e-12")


def test_criterion_04_average_lyapunov_decay():
    map_spec, loop, trig = reference_specs()
    traj = _reference_avg_run()
    report = check_decay(lyapunov_sequence(traj), map_spec, loop, trig)
    rho_ok = abs(report.rho - 0.958069) <= 1e-6
    ok = report.passed and rho_ok
    _emit("criterion 4 (average-loop Lyapunov decay)", ok,
          f"V[k+1] <= rho*V[k] + 1e-12 checked on {report.checked} pairs, "
          f"violations: {0 if report.passed else report.first_violation_k}; "
          f"rho = {report.rho:.9f}, target 0.958069 +- 1e-6")


def test_criterion_05_geometric_envelopes():
    map_spec, _, _ = reference_specs()
    traj = _reference_avg_run()
    rho = decay_rate(*reference_specs())
    g0 = abs(traj.records[0].g_av)
    worst_env = max(
        abs(r.g_av) - (rho ** (0.5 * r.k) * g0 + 1e-12) for r in traj.records)
    worst_prop = max(
        abs(abs(r.theta_tilde_av) - abs(r.g_av) / abs(map_spec.h_star))
        for r in traj.records)
    ok = worst_env <= 0.0 and worst_prop <= 1e-12
    _emit("criterion 5 (geometric envelopes)", ok,
          f"max envelope excess = {worst_env:.3e} (bound 0); "
          f"max | |theta_tilde_av| - |g_av|/|H| | = {worst_prop:.3e}, "
          f"bound 1e-12")


def test_criterion_06_closed_form_equivalence():
    map_spec, loop, _ = reference_specs()
    traj = _reference_avg_run()
    ks = [e.k for e in traj.events.entries] + [len(traj.records)]
    worst = 0.0
    for entry, start, end in zip(traj.events.entries, ks, ks[1:]):
        for n in range(end - start):
            rec = traj.records[start + n]
            cf_g, cf_e = closed_form_between_events(map_spec, loop,
                                                    entry.gradient, n)
            # post-reset error: at the event instant itself it is exactly 0,
            # which is what the closed form describes
            post_e = 0.0 if rec.triggered else rec.error
            for got, want in ((rec.g_av, cf_g), (post_e, cf_e)):
                scale = max(abs(got), abs(want))
                if scale == 0.0:
                    assert got == want
                else:
                    worst = max(worst, abs(got - want) / scale)
    ok = worst <= 1e-12
    _emit("criterion 6 (closed-form equivalence)", ok,
          f"max relative error over all inter-event stretches = {worst:.3e}, "
          f"bound 1e-12")


def test_criterion_07_gap_estimate():
    map_spec, loop, trig = reference_specs()
    k_star = min_inter_event_estimate(map_spec, loop, trig, 1.0)
    traj = _reference_avg_run()
    _, log, _ = _reference_run()
    observed = []
    for entries in (traj.events.entries, log.entries):
        ks = [e.k for e in entries]
        observed.extend(b - a for a, b in zip(ks, ks[1:]))
    for _, _, rlog in finite_true_runs(seed=77, count=100):
        ks = [e.k for e in rlog.entries]
        observed.extend(b - a for a, b in zip(ks, ks[1:]))
    min_gap = min(observed)
    ok = k_star == 4 and min_gap >= 1
    _emit("criterion 7 (minimum gap estimate)", ok,
          f"k* = {k_star}, expected 4; observed min gap across runs = "
          f"{min_gap}, bound >= 1")


def test_criterion_08_assumption_diagnostics():
    report = validate_assumption(*reference_specs())
    traj, _, _ = _reference_run()
    ok = (abs(report.rho0 - 0.8488) <= 1e-4
          and abs(report.alpha_min - 1.8805) <= 1e-3
          and not report.alpha_satisfies
          and len(traj) == REFERENCE_N_ITERS)
    _emit("criterion 8 (assumption diagnostics)", ok,
          f"rho0 = {report.rho0:.6f} (target 0.8488 +- 1e-4); "
          f"alpha_min = {report.alpha_min:.6f} (target 1.8805 +- 1e-3); "
          f"alpha = {report.alpha} flagged "
          f"{'violating' if not report.alpha_satisfies else 'satisfying'}; "
          f"run completed {len(traj)} iterations")


def test_criterion_09_property_suites():
    rng = random.Random(501)
    scale_cases = 0
    for _ in range(1000):
        trig = TriggerSpec(sigma=rng.uniform(0.01, 0.99),
                           alpha=rng.uniform(0.01, 10.0))
        g = rng.uniform(-10.0, 10.0)
        e = rng.uniform(-10.0, 10.0)
        c = math.exp(rng.uniform(-6.0, 6.0))
        assert should_trigger(trig, c * g, c * e) == should_trigger(trig, g, e)
        scale_cases += 1

    runs = finite_true_runs(seed=502, count=1000)
    for (_, loop, trig), traj, log in runs:
        assert_hold_constant_between_events(loop, traj, log)
        assert_event_errors_reset_to_zero(trig, traj, log)
        assert_non_events_satisfy_condition(trig, traj)

    _emit("criterion 9 (property suites)", True,
          f"{scale_cases} scale-invariance cases; {len(runs)} randomized "
          f"runs checked for hold constancy, zero event error, and the "
          f"non-event condition")
