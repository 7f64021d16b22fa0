"""Averaged loop: stepping, closed form, gap estimate, run-level invariants."""

import math
import random
from fractions import Fraction

import pytest

from etseek import (
    TriggerSpec,
    avg_run,
    avg_run_blocks,
    avg_step,
    closed_form_between_events,
    contraction_increment,
    min_inter_event_estimate,
    run_blocks,
    validate_assumption,
)
from etseek.average import AvgState
from helpers import draw_specs, float_bits, reference_specs


def _event_state(g):
    # state right at a triggering instant: hold equals the current value
    return AvgState(k=0, g_av=g, held_g_av=g)


def test_contraction_increment_matches_assumption_report():
    map_spec, loop, trig = reference_specs()
    c_g = contraction_increment(map_spec, loop)
    assert c_g == pytest.approx(0.1512, abs=1e-15)
    # one expression, one rounding: rho0 must be exactly 1 - c_g
    assert validate_assumption(map_spec, loop, trig).rho0 == 1.0 - c_g


def test_avg_step_contracts_at_event_instant():
    # the hold equals the current value: the record shows a zero error, no
    # fire and the hold kept
    map_spec, loop, trig = reference_specs()
    c_g = contraction_increment(map_spec, loop)
    for g in (1.75, -0.3, 1e-9):
        nxt, rec = avg_step(map_spec, loop, trig, _event_state(g))
        assert nxt.g_av == (1.0 - c_g) * g
        assert nxt.g_av == pytest.approx(0.8488 * g, rel=1e-12)
        assert nxt.k == 1
        assert nxt.held_g_av == g
        assert (rec.k, rec.g_av, rec.theta_tilde_av) == (
            0, g, g / map_spec.h_star)
        assert rec.triggered is False
        assert rec.error == 0.0


def test_avg_step_record_of_a_fire():
    # the hold is far from the current value: the trigger fires, the record
    # keeps the pre-fire error, and the update then runs with a zero error
    # from the refreshed hold
    map_spec, loop, trig = reference_specs()
    c_g = contraction_increment(map_spec, loop)
    state = AvgState(k=5, g_av=0.25, held_g_av=1.0)
    nxt, rec = avg_step(map_spec, loop, trig, state)
    assert rec.k == 5
    assert rec.triggered is True
    assert rec.error == state.held_g_av - state.g_av
    assert nxt == AvgState(k=6, g_av=(1.0 - c_g) * state.g_av,
                           held_g_av=state.g_av)


def test_avg_step_origin_is_fixed_point():
    map_spec, loop, trig = reference_specs()
    state = AvgState(k=0, g_av=0.0, held_g_av=0.0)
    nxt, _ = avg_step(map_spec, loop, trig, state)
    assert nxt.g_av == 0.0
    assert nxt.held_g_av == 0.0


def test_avg_step_two_iterations_by_hand():
    map_spec, loop, trig = reference_specs()
    state = _event_state(1.0)
    state, _ = avg_step(map_spec, loop, trig, state)
    state, _ = avg_step(map_spec, loop, trig, state)
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
            state, rec = avg_step(map_spec, loop, trig, state)
            scaled, scaled_rec = avg_step(map_spec, loop, trig, scaled)
            assert scaled.g_av == factor * state.g_av
            assert scaled.held_g_av == factor * state.held_g_av
            assert scaled_rec.triggered == rec.triggered


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
        state, _ = avg_step(map_spec, loop, trig, state)
        g_av, e_av = closed_form_between_events(map_spec, loop, 1.0, n)
        assert state.g_av == pytest.approx(g_av, rel=1e-13)
        assert state.held_g_av - state.g_av == pytest.approx(e_av, rel=1e-13)


def _scan(map_spec, loop, trig, g_at_event, stop, start=1, number=float):
    """Integer-scan oracle of min_inter_event_estimate: the first n in
    [start, stop] at which the closed form passes the loop's strict firing
    test, or None. With number=Fraction it scans the same floats in exact
    arithmetic."""
    c_g, root_sigma, alpha, g0 = map(number, (
        contraction_increment(map_spec, loop), math.sqrt(trig.sigma),
        trig.alpha, g_at_event))
    for n in range(start, stop + 1):
        nc = n * c_g
        if alpha * abs(nc * g0) > root_sigma * abs((1 - nc) * g0):
            return n
    return None


def _k_star(map_spec, loop, trig, g_at_event):
    try:
        return min_inter_event_estimate(map_spec, loop, trig, g_at_event)
    except RuntimeError:
        return None


def test_min_gap_estimate_reference_scan():
    map_spec, loop, trig = reference_specs()
    k_star = min_inter_event_estimate(map_spec, loop, trig, 1.0)
    assert type(k_star) is int and k_star == 4
    assert _scan(map_spec, loop, trig, 1.0, 10) == 4


def test_min_gap_estimate_matches_the_scan_oracle():
    # gains flipped so that c_g < 0, alpha within 1e-12 of sqrt(sigma) on
    # either side, and event gradients from zero to 1e3 in magnitude; each
    # count found is also where exact arithmetic first crosses
    rng = random.Random(205)
    limit = 2000
    outcomes = {"found": 0, "beyond limit": 0, "raised": 0}
    for _ in range(4000):
        map_spec, loop, trig = draw_specs(rng)
        if rng.random() < 0.3:
            loop = loop._replace(gain_k=-loop.gain_k)
        if rng.random() < 0.2:
            trig = trig._replace(alpha=math.sqrt(trig.sigma)
                                 * rng.choice([1.0, 1.0 + 1e-12, 1.0 - 1e-12]))
        g0 = rng.choice([0.0, 1.0, -7.3, 1e-300, rng.uniform(-1e3, 1e3)])
        k_star = _k_star(map_spec, loop, trig, g0)
        if k_star is None:
            outcomes["raised"] += 1
            assert _scan(map_spec, loop, trig, g0, limit) is None
        elif k_star <= limit:
            outcomes["found"] += 1
            assert _scan(map_spec, loop, trig, g0, limit) == k_star
            assert _scan(map_spec, loop, trig, g0, k_star, number=Fraction) == k_star
        else:
            outcomes["beyond limit"] += 1
            assert _scan(map_spec, loop, trig, g0, limit) is None
            for number in (float, Fraction):
                assert _scan(map_spec, loop, trig, g0, k_star, k_star - 1,
                             number) == k_star
    assert all(outcomes.values()), outcomes
    # nonzero subnormal event gradients of 1 to 52 bits: their products keep
    # few bits, so floats and exact arithmetic can first cross at different
    # n, and a count returned must be where both first cross
    for _ in range(1000):
        map_spec, loop, trig = draw_specs(rng)
        if rng.random() < 0.3:
            loop = loop._replace(gain_k=-loop.gain_k)
        bits = rng.getrandbits(rng.randint(1, 52)) | 1
        g0 = rng.choice([-1.0, 1.0]) * math.ldexp(bits, -1074)
        k_star = _k_star(map_spec, loop, trig, g0)
        if k_star is not None:
            for number in (float, Fraction):
                assert _scan(map_spec, loop, trig, g0, k_star, number=number) == k_star


def test_min_gap_estimate_rounding_moves_the_crossing_one_step():
    # the crossing n*c_g = r/(r + alpha) or r/(r - alpha) falls within a
    # rounding of an integer, and the strict test settles on the other side:
    # at n = 13, below the computed 13.000000000000002, and at n = 41, past
    # the computed 40.0
    map_spec, loop, _ = reference_specs()
    for gain_k, trig, g0, k_star in (
            (-65.74621959237345, TriggerSpec(0.49, 0.6), 1.0, 13),
            (-21.645021645021647, TriggerSpec(0.36, 0.5), 3.0, 41)):
        case_loop = loop._replace(gain_k=gain_k)
        assert min_inter_event_estimate(map_spec, case_loop, trig, g0) == k_star
        assert _scan(map_spec, case_loop, trig, g0, 100) == k_star


def test_min_gap_estimate_past_the_old_scan_cap():
    # loop.k = -0.0001 gives c_g = 6.3e-08: the bound first holds at
    # n = 8,423,071, past the 1e6 iterations the scan looked at
    map_spec, loop, trig = reference_specs()
    loop = loop._replace(gain_k=-0.0001)
    assert contraction_increment(map_spec, loop) == pytest.approx(6.3e-08, rel=1e-12)
    k_star = min_inter_event_estimate(map_spec, loop, trig, 1.0)
    assert k_star == 8_423_071
    assert _scan(map_spec, loop, trig, 1.0, k_star, k_star - 1) == k_star


def test_min_gap_estimate_small_sigma_is_one():
    map_spec, loop, _ = reference_specs()
    trig = TriggerSpec(sigma=1e-12, alpha=0.74)
    assert min_inter_event_estimate(map_spec, loop, trig, 1.0) == 1
    assert min_inter_event_estimate(map_spec, loop, trig, -7.3) == 1


def test_min_gap_estimate_does_not_fire_on_a_tie():
    # with g0 = 0 both sides of the test are 0 at every n, and the loop
    # logs only the origin
    map_spec, loop, trig = reference_specs()
    for g0 in (0.0, -0.0):
        with pytest.raises(RuntimeError, match="no iteration count"):
            min_inter_event_estimate(map_spec, loop, trig, g0)
        ks = [e.k for e in avg_run(map_spec, loop, trig, g0, 1000).events.entries]
        assert ks == [0]
    # the sides tie at n = 47, so the test first holds at n = 48
    tie = loop._replace(gain_k=67.5447483958122)
    assert min_inter_event_estimate(map_spec, tie, TriggerSpec(0.25, 0.75),
                                    0.1) == 48


def test_min_gap_estimate_unsatisfiable_is_reported():
    # alpha far below sqrt(sigma): the bound holds only for n*c_g between
    # 0.990 and 1.010, and multiples of c_g = 0.1512 step over that stretch
    map_spec, loop, _ = reference_specs()
    trig = TriggerSpec(sigma=0.99, alpha=0.01)
    with pytest.raises(RuntimeError, match="no iteration count"):
        min_inter_event_estimate(map_spec, loop, trig, 1.0)
    assert _scan(map_spec, loop, trig, 1.0, 1000) is None


def test_min_gap_estimate_degenerate_increments():
    map_spec, loop, trig = reference_specs()
    # a = 1e-200 underflows c_g to 0: e stays 0, so the test never holds
    flat = loop._replace(amplitude_a=1e-200)
    assert contraction_increment(map_spec, flat) == 0.0
    for g0 in (0.0, 1.0):
        with pytest.raises(RuntimeError, match="no iteration count"):
            min_inter_event_estimate(map_spec, flat, trig, g0)
    # a = 1e-160 gives a subnormal c_g: the crossing lies past float range,
    # even with alpha = 0.9 above sqrt(sigma)
    tiny = loop._replace(amplitude_a=1e-160)
    assert 0.0 < contraction_increment(map_spec, tiny) < 1e-300
    with pytest.raises(RuntimeError, match="no iteration count"):
        min_inter_event_estimate(map_spec, tiny, TriggerSpec(0.5, 0.9), 1.0)
    # with c_g < 0 the bound needs alpha > sqrt(sigma)
    flipped = loop._replace(gain_k=-loop.gain_k)
    with pytest.raises(RuntimeError, match="no iteration count"):
        min_inter_event_estimate(map_spec, flipped, TriggerSpec(0.5, 0.7), 1.0)
    assert min_inter_event_estimate(map_spec, flipped, TriggerSpec(0.5, 0.9),
                                    1.0) == _scan(
        map_spec, flipped, TriggerSpec(0.5, 0.9), 1.0, 100)


def test_min_gap_estimate_refuses_what_rounding_decides():
    map_spec, loop, trig = reference_specs()
    # NaN never passes the test
    with pytest.raises(RuntimeError, match="no iteration count"):
        min_inter_event_estimate(map_spec, loop, trig, math.nan)
    # a subnormal event gradient rounds its products to a few bits: with
    # c_g < 0 the test first holds at n = 3 in exact arithmetic, yet it
    # holds at n = 2 in floats
    flipped = loop._replace(gain_k=-loop.gain_k)
    skew = TriggerSpec(sigma=0.2165032151681615, alpha=1.96019617945352)
    assert _scan(map_spec, flipped, skew, 2.5e-323, 10) == 2
    with pytest.raises(RuntimeError, match="rounding"):
        min_inter_event_estimate(map_spec, flipped, skew, 2.5e-323)
    # every subnormal one is refused: here a step moves the sides 46 ulps
    # apart, 15 times the noise model's 3, yet the crossing lies at
    # n = 1.0036, and in floats the test holds at n = 1 (39 against 38
    # ulps) but in exact arithmetic first at n = 2
    wide = TriggerSpec(sigma=0.05, alpha=1.25)
    assert _scan(map_spec, loop, wide, 1e-321, 10) == 1
    assert _scan(map_spec, loop, wide, 1e-321, 10, number=Fraction) == 2
    with pytest.raises(RuntimeError, match="rounding"):
        min_inter_event_estimate(map_spec, loop, wide, 1e-321)
    # c_g < 0 and alpha a hair above sqrt(sigma): the crossing is near
    # n = 1e10, where one step moves the sides less than their rounding
    close = TriggerSpec(sigma=0.5, alpha=math.sqrt(0.5) * (1.0 + 1e-9))
    with pytest.raises(RuntimeError, match="rounding"):
        min_inter_event_estimate(map_spec, flipped, close, 1.0)


def test_avg_run_zero_start_stays_zero():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, 0.0, 200)
    assert all(r.g_av == 0.0 and r.theta_tilde_av == 0.0 for r in traj.records)


def test_avg_run_rejects_empty_horizon():
    map_spec, loop, trig = reference_specs()
    for n_iters in (0, -1):
        with pytest.raises(ValueError, match="n_iters >= 1"):
            avg_run(map_spec, loop, trig, -2.5, n_iters)


def test_avg_run_reference_fires_every_four_iterations():
    map_spec, loop, trig = reference_specs()
    traj = avg_run(map_spec, loop, trig, -2.5, 1000)
    ks = [e.k for e in traj.events.entries]
    assert ks == list(range(0, 1000, 4))
    # observed minimum gap equals the closed-form estimate
    k_star = min_inter_event_estimate(map_spec, loop, trig,
                                      traj.events.entries[0].gradient)
    assert min(b - a for a, b in zip(ks, ks[1:])) == k_star


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
            assert float_bits(r.theta_tilde_av) == float_bits(r.g_av / map_spec.h_star)
            assert abs(r.g_av - map_spec.h_star * r.theta_tilde_av) <= 1e-12 * scale


def test_theta_tilde_av_tracks_g_av_when_rho0_exceeds_one():
    # gain 240 has the curvature's sign wrong (rho0 = 1.1512) and never
    # fires: g_av grows linearly to about 1e4, and theta_tilde_av must follow
    # it instead of compounding its own rounding error to inf
    map_spec, loop, trig = reference_specs()
    loop = loop._replace(gain_k=240.0)
    assert validate_assumption(map_spec, loop, trig).rho0 > 1.0
    traj = avg_run(map_spec, loop, trig, -2.5, 40000)
    cols = traj.columns
    assert len(traj.events.ks) == 1
    assert all(map(math.isfinite, cols.theta_tilde_av))
    assert all(float_bits(t) == float_bits(g / map_spec.h_star)
               for g, t in zip(cols.g_av, cols.theta_tilde_av))


def _tracking_gap(map_spec, loop, trig, theta_hat0):
    """max over k of |theta_hat - theta_star - theta_tilde_av| over the
    horizon round(8 / c_g), both loops stepped in blocks side by side."""
    n_iters = round(8.0 / contraction_increment(map_spec, loop))
    theta_tilde0 = theta_hat0 - map_spec.theta_star
    gap = 0.0
    for true_block, avg_block in zip(
            run_blocks(map_spec, loop, trig, theta_hat0, n_iters),
            avg_run_blocks(map_spec, loop, trig, theta_tilde0, n_iters)):
        gap = max(gap, max(abs(th - map_spec.theta_star - tt) for th, tt in
                           zip(true_block.theta_hat, avg_block.theta_tilde_av)))
    return gap


def test_averaged_loop_is_the_first_order_average_of_the_true_loop():
    # Discrete-time averaging: as the gain shrinks, the true loop tracks its
    # averaged twin with an error of first order in c_g, so halving the gain
    # halves the gap. With q_star = 0 the dither ripple adds no constant,
    # and alpha = 1e300 fires on (nearly) every row in both loops; the
    # triggered loops are not first order (README "Library use").
    map_spec, loop, trig = reference_specs()
    map_spec = map_spec._replace(q_star=0.0)
    trig = trig._replace(alpha=1e300)
    gaps = [_tracking_gap(map_spec, loop._replace(gain_k=gain_k), trig, 2.0)
            for gain_k in (-2.5, -1.25, -0.625)]
    ratios = [big / small for big, small in zip(gaps, gaps[1:])]
    assert all(1.9 <= ratio <= 2.1 for ratio in ratios), (gaps, ratios)
