"""Expansion oracle, Lyapunov decay, envelopes, and event statistics."""

import math
import random
import tracemalloc
from array import array

import pytest

from etseek import (
    EventLog,
    MapSpec,
    avg_run,
    check_decay,
    decay_rate,
    dither,
    escore,
    eval_map,
    event_statistics,
    gradient_expansion,
    lyapunov_sequence,
    convergence_envelopes,
)
from helpers import draw_specs, reference_specs

# Frozen from a decimal evaluation of (a*h/2)*sin(1.26)*0.1^2 at the
# reference parameters.
QUADRATIC_K1_TT01 = -0.0003332316195566805


def _demodulated(map_spec, loop, k, theta_tilde):
    theta = map_spec.theta_star + theta_tilde + dither(loop, k)
    return dither(loop, k) * eval_map(map_spec, theta)


def test_expansion_vanishes_at_origin_iteration():
    map_spec, loop, _ = reference_specs()
    terms = gradient_expansion(map_spec, loop, 0, -2.5)
    assert terms.linear_term == 0.0
    assert terms.quadratic_term == 0.0
    assert terms.delta_k == 0.0
    assert terms.total() == 0.0
    assert _demodulated(map_spec, loop, 0, -2.5) == 0.0


def test_expansion_zero_error_reduces_to_residue():
    map_spec, loop, _ = reference_specs()
    for k in (1, 7, 113):
        terms = gradient_expansion(map_spec, loop, k, 0.0)
        assert terms.linear_term == 0.0
        assert terms.quadratic_term == 0.0
        assert terms.total() == terms.delta_k


def test_expansion_matches_demodulation_at_reference_point():
    map_spec, loop, _ = reference_specs()
    total = gradient_expansion(map_spec, loop, 1, -2.5).total()
    assert total == pytest.approx(_demodulated(map_spec, loop, 1, -2.5),
                                  abs=1e-12)


def test_expansion_rejects_negative_iteration():
    map_spec, loop, _ = reference_specs()
    with pytest.raises(ValueError, match="k >= 0"):
        gradient_expansion(map_spec, loop, -1, 0.0)


def test_expansion_exactness_property():
    # the decomposition is an algebraic identity for the quadratic map:
    # sin^2 and sin^3 reduced to harmonics, nothing truncated
    map_spec, loop, _ = reference_specs()
    rng = random.Random(301)
    for _ in range(1500):
        k = rng.randrange(0, 10_001)
        tt = rng.uniform(-10.0, 10.0)
        g = _demodulated(map_spec, loop, k, tt)
        total = gradient_expansion(map_spec, loop, k, tt).total()
        assert abs(total - g) <= 1e-12 * max(1.0, abs(g))
    for _ in range(500):
        m, l, _ = draw_specs(rng)
        k = rng.randrange(0, 10_001)
        tt = rng.uniform(-10.0, 10.0)
        g = _demodulated(m, l, k, tt)
        total = gradient_expansion(m, l, k, tt).total()
        assert abs(total - g) <= 1e-12 * max(1.0, abs(g))


def _truncated(terms):
    """The expansion without its term quadratic in the parameter error."""
    return terms.linear_term + terms.delta_k


def test_truncation_drops_only_the_quadratic_term():
    map_spec, loop, _ = reference_specs()
    for k, tt in ((9, 0.0), (0, 3.3)):
        terms = gradient_expansion(map_spec, loop, k, tt)
        assert _truncated(terms) == terms.total()
    terms = gradient_expansion(map_spec, loop, 1, 0.1)
    assert terms.quadratic_term == pytest.approx(QUADRATIC_K1_TT01, rel=1e-12)
    residual = terms.total() - _truncated(terms)
    assert residual == pytest.approx(QUADRATIC_K1_TT01, rel=1e-10)


def test_truncation_residual_property():
    map_spec, loop, _ = reference_specs()
    rng = random.Random(302)
    for _ in range(1000):
        k = rng.randrange(0, 10_001)
        tt = rng.uniform(-10.0, 10.0)
        full = gradient_expansion(map_spec, loop, k, tt)
        residual = full.total() - _truncated(full)
        formula = (0.5 * loop.amplitude_a * map_spec.h_star
                   * math.sin(loop.omega * loop.epsilon * k) * (tt * tt))
        assert abs(residual - formula) <= 1e-14


def test_lyapunov_sequence_examples():
    # h_star = 1 seeds g_av[0] = theta_tilde0 exactly, and 0 is a fixed point
    map_spec = MapSpec(q_star=2.0, h_star=1.0, theta_star=3.0)
    _, loop, trig = reference_specs()
    for theta_tilde0, n_iters, expected in ((0.0, 3, [0.0, 0.0, 0.0]),
                                            (2.0, 1, [4.0]), (-3.0, 1, [9.0])):
        assert lyapunov_sequence(avg_run(map_spec, loop, trig, theta_tilde0,
                                         n_iters)) == expected


def test_lyapunov_sequence_from_avg_trajectory():
    traj = avg_run(*reference_specs(), -2.5, 20)
    seq = lyapunov_sequence(traj)
    assert seq == [r.g_av * r.g_av for r in traj.records]
    assert seq[0] == 1.75 * 1.75


def test_decay_rate_reference_value():
    map_spec, loop, trig = reference_specs()
    rho = decay_rate(map_spec, loop, trig)
    # 1 - (1 - 0.8488^2)(1 - 0.7)/2, frozen by decimal evaluation
    assert rho == pytest.approx(0.958069216, abs=1e-15)
    assert rho < 1.0


def test_check_decay_trivial_and_fabricated_cases():
    map_spec, loop, trig = reference_specs()
    report = check_decay([0.0] * 10, map_spec, loop, trig)
    assert report.passed and report.checked == 9
    assert report.first_violation_k is None

    report = check_decay([1.0, 1.0], map_spec, loop, trig)
    assert not report.passed
    assert report.first_violation_k == 0
    assert report.max_excess == pytest.approx(1.0 - 0.958069216, rel=1e-9)

    report = check_decay([4.0, 2.0, 1.0], map_spec, loop, trig)
    assert report.passed

    # NaN compares false both ways: the pairs on either side of it fail,
    # and the worst overshoot stays what the finite pairs gave
    report = check_decay([4.0, 2.0, math.nan, 1.0], map_spec, loop, trig)
    assert not report.passed
    assert report.first_violation_k == 1
    assert report.max_excess == 0.0


def test_check_decay_reference_average_run():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, -2.5, 1000)
    report = check_decay(lyapunov_sequence(traj), map_spec, loop, trig)
    assert report.passed
    assert report.checked == 999


def test_envelopes_reference_average_run():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, -2.5, 1000)
    report = convergence_envelopes(traj, map_spec, loop, trig)
    assert report.passed
    assert [c.name for c in report.checks] == ["g_av", "theta_tilde_av"]


def test_envelopes_true_run_reports_the_frozen_loop():
    # the reference true loop never updates its hold, so the estimate stays
    # at its initial error and the geometric envelope is violated once the
    # bound has contracted below it; the report carries that, nothing raises
    map_spec, loop, trig = reference_specs()
    traj, _ = escore.run(map_spec, loop, trig, 0.5, 1000)
    report = convergence_envelopes(traj, map_spec, loop, trig,
                                   offset_constant=0.3)
    assert not report.passed
    theta_check = report.checks[0]
    assert theta_check.name == "theta"
    assert theta_check.first_violation_k == 8
    assert theta_check.max_excess == pytest.approx(2.3, abs=0.01)


def test_checks_fail_on_nan_rows():
    # theta_hat0 = 1e200 is finite, but y overflows at k = 0 and 0 * inf
    # makes the gradient NaN: every true-loop row from then on holds NaN.
    # The averaged loop stays finite, but its Lyapunov values overflow to
    # inf, and inf - rho * inf is NaN.
    map_spec, loop, trig = reference_specs()
    traj, _ = escore.run(map_spec, loop, trig, 1e200, 1000)
    assert all(math.isnan(g) for g in traj.columns.gradient)
    report = convergence_envelopes(traj, map_spec, loop, trig,
                                   offset_constant=0.3)
    assert [(c.name, c.passed, c.first_violation_k, c.max_excess)
            for c in report.checks] == [("theta", False, 1, 0.0),
                                        ("y", False, 0, 0.0)]
    avg = avg_run(map_spec, loop, trig, 1e200 - map_spec.theta_star, 1000)
    decay = check_decay(lyapunov_sequence(avg), map_spec, loop, trig)
    assert not decay.passed
    assert decay.first_violation_k == 0


def test_true_envelopes_hold_no_per_row_lists():
    # the bounds' powers stream row by row: a list of them would take
    # about 1.3 MB at this horizon
    map_spec, loop, trig = reference_specs()
    traj, _ = escore.run(map_spec, loop, trig, 0.5, 20_000)
    tracemalloc.start()
    try:
        convergence_envelopes(traj, map_spec, loop, trig, offset_constant=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_envelopes_overflowing_bound_reads_inf():
    # gain sign opposite the curvature gives rho > 1; at rho ~ 3476 the power
    # rho ** (k/2) overflows a float from k = 175, and the bound reads inf
    map_spec, loop, trig = reference_specs()
    loop = loop._replace(gain_k=240000.0)
    traj, _ = escore.run(map_spec, loop, trig, 0.5, 300)
    report = convergence_envelopes(traj, map_spec, loop, trig,
                                   offset_constant=0.3)
    assert report.rho == pytest.approx(3475.576)
    with pytest.raises(OverflowError):
        report.rho ** (0.5 * 299)
    assert report.passed
    avg = avg_run(map_spec, loop, trig, -2.5, 300)
    assert convergence_envelopes(avg, map_spec, loop, trig).rho == report.rho


def test_checks_with_a_huge_or_infinite_rho():
    # a gain of -1e150 gives rho = 5.95e292 and one of -1e300 overflows
    # rho0 ** 2, so rho = inf; started at the optimum, each envelope's initial
    # magnitude and every V is 0, and inf * 0.0 is NaN. A bound whose power
    # of rho is inf reads inf, whatever it multiplies, so every check passes.
    map_spec, loop, trig = reference_specs()
    for gain_k in (-1e150, -1e300):
        fast = loop._replace(gain_k=gain_k)
        traj, _ = escore.run(map_spec, fast, trig, map_spec.theta_star, 50)
        avg = avg_run(map_spec, fast, trig, 0.0, 50)
        true_env = convergence_envelopes(traj, map_spec, fast, trig,
                                         offset_constant=0.3)
        avg_env = convergence_envelopes(avg, map_spec, fast, trig)
        decay = check_decay(lyapunov_sequence(avg), map_spec, fast, trig)
        rho = decay.rho
        assert rho == true_env.rho == avg_env.rho
        assert rho == (math.inf if gain_k == -1e300
                       else pytest.approx(5.95e292, rel=1e-3))
        assert true_env.passed and avg_env.passed
        assert (decay.passed, decay.checked) == (True, 49)
    # a NaN row still fails: V[1] is NaN, so its pair fails, and the pair
    # after it has an inf bound
    report = check_decay([0.0, math.nan, 1.0, 0.0], map_spec, fast, trig)
    assert (report.passed, report.first_violation_k, report.max_excess) == \
        (False, 0, 0.0)
    # y[0] = -inf, so the y envelope's row 0, whose bound is finite, is NaN;
    # theta is NaN from row 1, past the last finite power, and a NaN row
    # fails against an inf bound too
    traj, _ = escore.run(map_spec, fast, trig, 1e200, 50)
    theta_check, y_check = convergence_envelopes(traj, map_spec, fast, trig,
                                                 offset_constant=0.3).checks
    assert math.isnan(traj.columns.theta[1])
    assert theta_check == ("theta", False, 1, 0.0)
    assert (y_check.name, y_check.passed, y_check.first_violation_k) == \
        ("y", False, 0)


def test_envelope_bound_sequence_non_increasing():
    map_spec, loop, trig = reference_specs()
    rho = decay_rate(map_spec, loop, trig)
    bounds = [rho ** (0.5 * k) * 1.75 for k in range(500)]
    assert all(b >= c for b, c in zip(bounds, bounds[1:]))


def test_envelopes_reject_negative_offset():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, -2.5, 10)
    for offset in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="offset_constant >= 0"):
            convergence_envelopes(traj, map_spec, loop, trig,
                                  offset_constant=offset)


def _log(ks, epsilon=0.18):
    return EventLog(ks=array("q", ks), gradients=array("d", [0.1] * len(ks)),
                    gain_k=-240.0, epsilon=epsilon)


def test_event_statistics_example():
    stats = event_statistics(_log([0, 100, 300]))
    assert stats.count == 3
    assert stats.mean_gap_iters == 150.0
    assert stats.mean_gap_seconds == pytest.approx(27.0, rel=1e-15)
    assert stats.min_gap_iters == 100
    assert stats.max_gap_iters == 200


def test_event_statistics_single_event():
    stats = event_statistics(_log([0]))
    assert stats.count == 1
    assert stats.mean_gap_iters is None
    assert stats.mean_gap_seconds is None
    assert stats.min_gap_iters is None
    assert stats.max_gap_iters is None


def test_event_log_invariants():
    with pytest.raises(ValueError, match="initial event"):
        _log([])
    with pytest.raises(ValueError, match="start at k = 0"):
        _log([5, 10])
    with pytest.raises(ValueError, match="strictly increasing"):
        _log([0, 7, 7])
