"""True-loop operations, stepping order, and run-level invariants."""

import math

import pytest

from etseek import (
    LoopSpec,
    MapSpec,
    TriggerSpec,
    dither,
    escore,
    eval_map,
    initial_state,
    run,
    step,
)
from helpers import (
    REFERENCE_N_ITERS,
    REFERENCE_THETA_HAT0,
    assert_event_errors_reset_to_zero,
    assert_hold_constant_between_events,
    assert_non_events_satisfy_condition,
    column_bytes,
    finite_true_runs,
    reference_specs,
)

# Frozen from an independent high-precision sine evaluation (decimal Taylor
# series with argument reduction): sin(1.26) and sin(6.3).
DITHER_K1 = 0.09520903415905158
DITHER_K5 = 0.0016813900484349714


def test_eval_map_examples():
    map_spec = MapSpec(q_star=2.0, h_star=-0.7, theta_star=3.0)
    assert eval_map(map_spec, 3.0) == 2.0
    assert eval_map(map_spec, 4.0) == 1.65
    assert eval_map(map_spec, 2.0) == 1.65  # symmetry about theta_star


def test_dither_examples():
    _, loop, _ = reference_specs()
    assert dither(loop, 0) == 0.0
    assert dither(loop, 1) == DITHER_K1
    assert dither(loop, 5) == DITHER_K5


def _gradient_row(loop, k, y):
    """step's row at iteration k, from an estimate whose dithered input
    theta sits at the optimum of a map of value y there."""
    theta = 0.0 + dither(loop, k)  # 0.0 + s is s exactly
    map_spec = MapSpec(q_star=y, h_star=-0.7, theta_star=theta)
    trig = TriggerSpec(sigma=0.7, alpha=0.74)
    state = escore.SimState(k=k, theta_hat=0.0, held_gradient=1.0)
    return step(map_spec, loop, trig, state)[1]


def test_demodulate_examples():
    # step demodulates: the gradient is the dither value at k times y
    _, loop, _ = reference_specs()
    rec = _gradient_row(loop, 0, -5.0)
    assert (rec.y, rec.gradient) == (-5.0, 0.0)
    rec = _gradient_row(loop, 1, 2.0)
    assert rec.y == 2.0
    assert rec.gradient == 2.0 * DITHER_K1
    assert rec.gradient == pytest.approx(0.19041806831810315, abs=0)
    # omega*eps*k = pi/2 makes the sine exactly 1 in double precision
    quarter = LoopSpec(amplitude_a=0.1, omega=math.pi / 2.0, epsilon=1.0,
                       gain_k=1.0)
    rec = _gradient_row(quarter, 1, 1.65)
    assert rec.y == 1.65
    assert rec.gradient == pytest.approx(0.165, abs=1e-16)


def _integrated(theta_hat, u):
    """theta_hat after a reference-loop step that applied control u."""
    map_spec, loop, _ = reference_specs()
    loop = loop._replace(gain_k=-1.0)  # the control is the held gradient
    # k = 1 has a nonzero gradient, which so small an alpha never fires on
    trig = TriggerSpec(sigma=0.7, alpha=1e-300)
    state = escore.SimState(k=1, theta_hat=theta_hat, held_gradient=u)
    nxt, rec = step(map_spec, loop, trig, state)
    assert (rec.triggered, rec.control) == (False, u)
    return nxt.theta_hat


def test_integrate_examples():
    # step integrates: theta_hat + epsilon * u, with epsilon = 0.18
    assert _integrated(0.5, 0.0) == 0.5
    assert _integrated(0.5, 1.0) == pytest.approx(0.68, abs=1e-15)
    assert _integrated(0.0, -5.0) == pytest.approx(-0.9, abs=1e-15)


def test_initial_state_seeds_hold_from_origin():
    map_spec, loop, trig = reference_specs()
    state = initial_state(map_spec, loop, REFERENCE_THETA_HAT0)
    g0 = dither(loop, 0) * eval_map(map_spec, REFERENCE_THETA_HAT0)
    assert state.k == 0
    assert state.held_gradient == g0
    assert step(map_spec, loop, trig, state)[1].control == -loop.gain_k * g0


def test_first_step_has_zero_error_and_no_fire():
    map_spec, loop, trig = reference_specs()
    state = initial_state(map_spec, loop, REFERENCE_THETA_HAT0)
    nxt, rec = step(map_spec, loop, trig, state)
    assert rec.k == 0
    assert rec.error == 0.0
    assert rec.triggered is False  # strict inequality cannot fire on e = 0
    assert rec.control == -loop.gain_k * state.held_gradient
    assert nxt.k == 1
    assert nxt.theta_hat == state.theta_hat + loop.epsilon * rec.control


def test_step_composes_the_documented_operations():
    map_spec, loop, trig = reference_specs()
    state = escore.SimState(k=7, theta_hat=1.3, held_gradient=0.02)
    nxt, rec = step(map_spec, loop, trig, state)
    theta = state.theta_hat + dither(loop, 7)
    y = eval_map(map_spec, theta)
    g = dither(loop, 7) * y
    assert rec.theta == theta
    assert rec.y == y
    assert rec.gradient == g
    assert rec.error == state.held_gradient - g
    assert rec.theta_hat == state.theta_hat
    assert rec.control == -loop.gain_k * (g if rec.triggered else 0.02)
    assert nxt.theta_hat == state.theta_hat + loop.epsilon * rec.control


def test_run_single_iteration():
    map_spec, loop, trig = reference_specs()
    traj, log = run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 1)
    assert len(traj) == 1
    assert traj.records[0].k == 0
    assert len(log.entries) == 1 and log.entries[0].k == 0


def test_run_rejects_empty_horizon():
    map_spec, loop, trig = reference_specs()
    for n_iters in (0, -1):
        with pytest.raises(ValueError, match="n_iters >= 1"):
            run(map_spec, loop, trig, REFERENCE_THETA_HAT0, n_iters)


def test_run_is_deterministic():
    map_spec, loop, trig = reference_specs()
    (traj, log), (again, log_again) = (
        run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 300) for _ in range(2))
    assert column_bytes(traj.columns) == column_bytes(again.columns)
    assert (column_bytes((log.ks, log.gradients))
            == column_bytes((log_again.ks, log_again.gradients)))


def test_reference_params_hold_never_refires():
    # Regression pin: with the reference parameters and this initialization
    # the k = 0 gradient estimate is zero (zero dither sample), the error
    # equals the current estimate in magnitude, and sqrt(sigma) > alpha, so
    # the strict condition never fires again: the estimate stays frozen.
    map_spec, loop, trig = reference_specs()
    traj, log = run(map_spec, loop, trig, REFERENCE_THETA_HAT0,
                    REFERENCE_N_ITERS)
    assert len(log.entries) == 1
    assert all(r.theta_hat == REFERENCE_THETA_HAT0 for r in traj.records)
    assert all(not r.triggered for r in traj.records)


def test_overflowing_start_reaches_the_trigger_as_nan():
    # Regression pin: theta_hat0 = 1e200 is finite, so run accepts it, but
    # the squared offset overflows and y[0] = -inf; the k = 0 dither sample
    # is 0, so g[0] = 0 * -inf is NaN, and NaN then fills every gradient.
    # The trigger never fires on NaN, leaving only the seed event, whose
    # held gradient is that NaN.
    map_spec, loop, trig = reference_specs()
    for alpha in (0.74, 2.0):
        traj, log = run(map_spec, loop, trig._replace(alpha=alpha), 1e200, 200)
        cols = traj.columns
        assert cols.y[0] == -math.inf
        assert all(math.isnan(g) for g in cols.gradient)
        assert not any(cols.triggered)
        assert list(log.ks) == [0]
        assert math.isnan(log.gradients[0])


_RUNS = None


def _runs():
    global _RUNS
    if _RUNS is None:
        _RUNS = finite_true_runs(seed=20260817, count=1000)
    return _RUNS


def test_property_hold_constant_between_events():
    for (_, loop, _), traj, log in _runs():
        assert_hold_constant_between_events(loop, traj, log)


def test_property_event_error_resets_to_zero():
    for (_, _, trig), traj, log in _runs():
        assert_event_errors_reset_to_zero(trig, traj, log)


def test_property_non_events_satisfy_condition():
    for (_, _, trig), traj, _ in _runs():
        assert_non_events_satisfy_condition(trig, traj)


def test_property_event_gaps_at_least_one():
    for _, _, log in _runs():
        ks = [e.k for e in log.entries]
        assert all(b - a >= 1 for a, b in zip(ks, ks[1:]))
