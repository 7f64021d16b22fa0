"""Averaged loop: stepping, closed form, gap estimate, run-level invariants."""

import math
import random
import struct
from dataclasses import replace

import pytest

from etseek import (
    TriggerSpec,
    ZenoEstimate,
    avg_run,
    avg_step,
    closed_form_between_events,
    contraction_increment,
    min_inter_event_estimate,
    validate_assumption,
)
from etseek.average import AvgState
from helpers import draw_specs, reference_specs


def _event_state(g):
    # state right at a triggering instant: hold equals the current value
    return AvgState(k=0, g_av=g, held_g_av=g, last_event_k=0)


def _bits(x):
    return struct.pack("<d", x)


def test_contraction_increment_matches_assumption_report():
    map_spec, loop, trig = reference_specs()
    c_g = contraction_increment(map_spec, loop)
    assert c_g == pytest.approx(0.1512, abs=1e-15)
    # one expression, one rounding: rho0 must be exactly 1 - c_g
    assert validate_assumption(map_spec, loop, trig).rho0 == 1.0 - c_g


def test_avg_step_contracts_at_event_instant():
    map_spec, loop, trig = reference_specs()
    c_g = contraction_increment(map_spec, loop)
    for g in (1.75, -0.3, 1e-9):
        nxt = avg_step(map_spec, loop, trig, _event_state(g))
        assert nxt.g_av == (1.0 - c_g) * g
        assert nxt.g_av == pytest.approx(0.8488 * g, rel=1e-12)
        assert nxt.k == 1
        assert nxt.held_g_av == g


def test_avg_step_origin_is_fixed_point():
    map_spec, loop, trig = reference_specs()
    state = AvgState(k=0, g_av=0.0, held_g_av=0.0, last_event_k=0)
    nxt = avg_step(map_spec, loop, trig, state)
    assert nxt.g_av == 0.0
    assert nxt.held_g_av == 0.0


def test_avg_step_two_iterations_by_hand():
    map_spec, loop, trig = reference_specs()
    state = _event_state(1.0)
    state = avg_step(map_spec, loop, trig, state)
    state = avg_step(map_spec, loop, trig, state)
    assert state.g_av == pytest.approx(0.6976, abs=1e-15)
    assert state.held_g_av - state.g_av == pytest.approx(0.3024, abs=1e-15)


def test_avg_step_keeps_proportionality():
    # the averaged recursion and its trigger are homogeneous in g_av: a state
    # scaled by a power of two, or negated, stays scaled by exactly that
    # factor, with the same firing instants
    rng = random.Random(202)
    for _ in range(300):
        map_spec, loop, trig = draw_specs(rng)
        g = rng.uniform(-3.0, 3.0)
        factor = rng.choice([-1.0, 0.5, -4.0, 1024.0])
        state, scaled = _event_state(g), _event_state(factor * g)
        for _ in range(20):
            state = avg_step(map_spec, loop, trig, state)
            scaled = avg_step(map_spec, loop, trig, scaled)
            assert scaled.g_av == factor * state.g_av
            assert scaled.held_g_av == factor * state.held_g_av
            assert scaled.last_event_k == state.last_event_k


def test_closed_form_examples():
    map_spec, loop, _ = reference_specs()
    assert closed_form_between_events(map_spec, loop, 0.37, 0) == (0.37, 0.0)
    g_av, e_av = closed_form_between_events(map_spec, loop, 1.0, 2)
    assert g_av == pytest.approx(0.6976, abs=1e-15)
    assert e_av == pytest.approx(0.3024, abs=1e-15)
    with pytest.raises(ValueError, match="n >= 0"):
        closed_form_between_events(map_spec, loop, 1.0, -1)


def test_closed_form_telescopes_to_the_event_value():
    rng = random.Random(203)
    for _ in range(500):
        map_spec, loop, _ = draw_specs(rng)
        g = rng.uniform(-5.0, 5.0)
        n = rng.randrange(0, 50)
        g_av, e_av = closed_form_between_events(map_spec, loop, g, n)
        assert g_av + e_av == pytest.approx(g, rel=1e-14, abs=1e-300)


def test_closed_form_matches_stepping():
    map_spec, loop, trig = reference_specs()
    state = _event_state(1.0)
    for n in range(1, 4):  # stretch before the first refire
        state = avg_step(map_spec, loop, trig, state)
        g_av, e_av = closed_form_between_events(map_spec, loop, 1.0, n)
        assert state.g_av == pytest.approx(g_av, rel=1e-13)
        assert state.held_g_av - state.g_av == pytest.approx(e_av, rel=1e-13)


def test_min_gap_estimate_reference_scan():
    map_spec, loop, trig = reference_specs()
    est = min_inter_event_estimate(map_spec, loop, trig, 1.0)
    assert est == ZenoEstimate(k_star=4, epsilon_term=0.0)


def test_min_gap_estimate_small_sigma_is_one():
    map_spec, loop, _ = reference_specs()
    trig = TriggerSpec(sigma=1e-12, alpha=0.74)
    assert min_inter_event_estimate(map_spec, loop, trig, 1.0).k_star == 1
    assert min_inter_event_estimate(map_spec, loop, trig, -7.3).k_star == 1


def test_min_gap_estimate_zero_gradient_is_one():
    map_spec, loop, trig = reference_specs()
    assert min_inter_event_estimate(map_spec, loop, trig, 0.0).k_star == 1


def test_min_gap_estimate_rejects_negative_slack():
    map_spec, loop, trig = reference_specs()
    with pytest.raises(ValueError, match="epsilon_term >= 0"):
        min_inter_event_estimate(map_spec, loop, trig, 1.0, epsilon_term=-0.1)


def test_min_gap_estimate_unsatisfiable_is_reported():
    # alpha far below sqrt(sigma): both bound sequences grow at matched
    # slopes with the trigger side behind, so no finite n qualifies
    map_spec, loop, _ = reference_specs()
    trig = TriggerSpec(sigma=0.99, alpha=0.01)
    with pytest.raises(RuntimeError, match="no iteration count"):
        min_inter_event_estimate(map_spec, loop, trig, 1.0)


def test_zeno_estimate_invariant():
    with pytest.raises(ValueError, match="k_star must be >= 1"):
        ZenoEstimate(k_star=0, epsilon_term=0.0)


def test_avg_state_invariant():
    with pytest.raises(ValueError, match="last_event_k"):
        AvgState(k=2, g_av=0.0, held_g_av=0.0, last_event_k=5)


def test_avg_run_zero_start_stays_zero():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, 0.0, 200)
    assert all(r.g_av == 0.0 and r.theta_tilde_av == 0.0 for r in traj.records)


def test_avg_run_rejects_empty_horizon():
    map_spec, loop, trig = reference_specs()
    with pytest.raises(ValueError, match="n_iters >= 1"):
        avg_run(map_spec, loop, trig, -2.5, 0)


def test_avg_run_reference_fires_every_four_iterations():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, -2.5, 1000)
    ks = [e.k for e in traj.events.entries]
    assert ks == list(range(0, 1000, 4))
    # observed minimum gap equals the integer-scan estimate
    est = min_inter_event_estimate(map_spec, loop, trig,
                                   traj.events.entries[0].gradient)
    assert min(b - a for a, b in zip(ks, ks[1:])) == est.k_star


def test_avg_run_seeds_gradient_from_theta_tilde():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, -2.5, 10)
    assert traj.records[0].g_av == map_spec.h_star * -2.5 == 1.75
    assert traj.records[0].theta_tilde_av == -2.5
    assert traj.events.entries[0].k == 0


def test_avg_run_proportionality_along_trajectory():
    # theta_tilde_av is read off g_av, so the ratio is exact on every draw,
    # contractive (0 < c_g < 1) or not
    rng = random.Random(204)
    for _ in range(200):
        map_spec, loop, trig = draw_specs(rng)
        traj = avg_run(map_spec, loop, trig, rng.uniform(-5.0, 5.0), 80)
        scale = max(1.0, max(abs(r.g_av) for r in traj.records))
        for r in traj.records:
            assert _bits(r.theta_tilde_av) == _bits(r.g_av / map_spec.h_star)
            assert abs(r.g_av - map_spec.h_star * r.theta_tilde_av) <= 1e-12 * scale


def test_theta_tilde_av_tracks_g_av_when_rho0_exceeds_one():
    # gain 240 has the curvature's sign wrong (rho0 = 1.1512) and never
    # fires: g_av grows linearly to about 1e4, and theta_tilde_av must follow
    # it instead of compounding its own rounding error to inf
    map_spec, loop, trig = reference_specs()
    loop = replace(loop, gain_k=240.0)
    assert validate_assumption(map_spec, loop, trig).rho0 > 1.0
    traj = avg_run(map_spec, loop, trig, -2.5, 40000)
    cols = traj.columns
    assert len(traj.events.ks) == 1
    assert all(map(math.isfinite, cols.theta_tilde_av))
    assert all(_bits(t) == _bits(g / map_spec.h_star)
               for g, t in zip(cols.g_av, cols.theta_tilde_av))
