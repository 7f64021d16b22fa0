"""Kernel agreement: the stepping kernels against step-by-step composition.

escore.run and average.avg_run step in etseek._kernel; escore.step and
average.avg_step are the readable definition. The two must agree bit for
bit, not merely within tolerance: golden files and cross-machine
reproducibility depend on identical operation order. Comparisons go through
repr so that NaN, infinities, and signed zeros are compared by identity
rather than IEEE equality.
"""

import math
import random
import struct
from dataclasses import replace

from etseek import escore
from etseek.average import AvgRecord, AvgState, avg_run, avg_step
from etseek.escore import initial_state, step
from etseek.trigger import measurement_error
from helpers import (
    REFERENCE_THETA_HAT0,
    draw_specs,
    finite_true_runs,
    reference_specs,
)


def _r(rows):
    return [tuple(repr(c) for c in row) for row in rows]


def _bits(x):
    return struct.pack("<d", x)


def _recompose_true(map_spec, loop, trig, theta0, n):
    state = initial_state(map_spec, loop, theta0)
    records = []
    event_ks = [0]
    for _ in range(n):
        state, rec = step(map_spec, loop, trig, state)
        records.append(rec)
        if rec.triggered:
            event_ks.append(rec.k)
    return records, event_ks


def test_run_matches_step_composition_on_reference():
    map_spec, loop, trig = reference_specs()
    traj, log = escore.run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 500)
    records, event_ks = _recompose_true(map_spec, loop, trig,
                                        REFERENCE_THETA_HAT0, 500)
    assert _r([(r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control,
                r.triggered) for r in traj.records]) == \
        _r([(r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control,
             r.triggered) for r in records])
    assert [e.k for e in log.entries] == event_ks


def test_run_matches_step_composition_on_random_draws():
    for specs, traj, log in finite_true_runs(seed=403, count=30):
        records, event_ks = _recompose_true(*specs, traj.records[0].theta_hat,
                                            len(traj.records))
        assert [e.k for e in log.entries] == event_ks
        for a, b in zip(traj.records, records):
            assert repr(a) == repr(b)


def test_avg_run_matches_avg_step_composition():
    rng = random.Random(404)
    cases = [(reference_specs(), -2.5)]
    for _ in range(30):
        cases.append((draw_specs(rng), rng.uniform(-5.0, 5.0)))
    for (map_spec, loop, trig), tt0 in cases:
        traj = avg_run(map_spec, loop, trig, tt0, 120)
        g0 = map_spec.h_star * tt0
        state = AvgState(k=0, g_av=g0, held_g_av=g0, last_event_k=0)
        for rec in traj.records:
            e = measurement_error(state.held_g_av, state.g_av)
            nxt = avg_step(map_spec, loop, trig, state)
            fired = nxt.last_event_k == state.k and state.k > 0
            assert repr(rec.g_av) == repr(state.g_av)
            assert repr(rec.theta_tilde_av) == repr(state.g_av / map_spec.h_star)
            assert repr(rec.held_g_av) == repr(nxt.held_g_av)
            assert repr(rec.error) == repr(e)
            assert rec.triggered == fired
            state = nxt


def test_rows_match_step_composition_on_diverging_run():
    # alpha = 2.0 fires 13 times, then the loop overflows: the rows carry
    # -0.0, inf and -inf cells, which repr compares by identity
    map_spec, loop, trig = reference_specs()
    trig = replace(trig, alpha=2.0)
    traj, log = escore.run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 1000)
    records, event_ks = _recompose_true(map_spec, loop, trig,
                                        REFERENCE_THETA_HAT0, 1000)
    assert [e.k for e in log.entries] == event_ks
    assert len(event_ks) > 10
    assert [repr(r) for r in traj.records] == [repr(r) for r in records]
    cells = {repr(c) for r in records
             for c in (r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control)}
    assert {"-0.0", "inf", "-inf"} <= cells


def test_avg_rows_match_avg_step_composition():
    # rho0 > 1 (gain 240): g_av grows linearly and theta_tilde_av follows it
    map_spec, loop, trig = reference_specs()
    cases = [(loop, trig, 200), (loop, replace(trig, alpha=2.0), 200),
             (replace(loop, gain_k=240.0), trig, 6000)]
    for case_loop, case_trig, n in cases:
        traj = avg_run(map_spec, case_loop, case_trig, -2.5, n)
        g0 = map_spec.h_star * -2.5
        state = AvgState(k=0, g_av=g0, held_g_av=g0, last_event_k=0)
        expected = []
        for _ in range(n):
            e = measurement_error(state.held_g_av, state.g_av)
            nxt = avg_step(map_spec, case_loop, case_trig, state)
            fired = nxt.last_event_k == state.k and state.k > 0
            expected.append(repr(AvgRecord(
                k=state.k, g_av=state.g_av,
                theta_tilde_av=state.g_av / map_spec.h_star,
                held_g_av=nxt.held_g_av, error=e, triggered=fired)))
            state = nxt
        assert [repr(r) for r in traj.records] == expected
    # the gain-240 case: theta_tilde_av stays finite and tracks g_av / h_star
    assert all(math.isfinite(r.theta_tilde_av) and
               _bits(r.theta_tilde_av) == _bits(r.g_av / map_spec.h_star)
               for r in traj.records)
