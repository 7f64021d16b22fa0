"""Loop agreement: each run's inlined loop against step-by-step composition.

escore.run_blocks and average.avg_run_blocks each step their loop inline on
local floats, and escore.run and average.avg_run are their one block;
escore.step and average.avg_step are the readable definition of one
iteration. The two must agree bit for bit, not merely within tolerance:
golden files and cross-machine reproducibility depend on identical
operation order. Comparisons go through repr so that NaN, infinities, and
signed zeros are compared by identity rather than IEEE equality.
"""

import math
import random

from etseek import escore
from etseek.average import AvgState, avg_run, avg_step
from etseek.escore import initial_state, step
from helpers import (
    REFERENCE_THETA_HAT0,
    draw_specs,
    finite_true_runs,
    float_bits,
    reference_specs,
)


def _r(rows):
    return [tuple(repr(c) for c in row) for row in rows]


def _events(log):
    """An EventLog's iterations and the bits of its held gradients."""
    return list(log.ks), [float_bits(g) for g in log.gradients]


def _recompose_true(map_spec, loop, trig, theta0, n):
    """Records of n steps and the (ks, gradient bits) of their events."""
    state = initial_state(map_spec, loop, theta0)
    records = []
    events = ([0], [float_bits(state.held_gradient)])
    for _ in range(n):
        state, rec = step(map_spec, loop, trig, state)
        records.append(rec)
        if rec.triggered:
            events[0].append(rec.k)
            events[1].append(float_bits(rec.gradient))
    return records, events


def test_run_matches_step_composition_on_reference():
    # the reference set never fires; gain 240 has the curvature's sign wrong;
    # a single row is only the hold seeding
    map_spec, loop, trig = reference_specs()
    for case_loop, n in ((loop, 500), (loop._replace(gain_k=240.0), 500),
                         (loop, 1)):
        traj, log = escore.run(map_spec, case_loop, trig,
                               REFERENCE_THETA_HAT0, n)
        records, events = _recompose_true(map_spec, case_loop, trig,
                                          REFERENCE_THETA_HAT0, n)
        assert _r([(r.theta_hat, r.theta, r.y, r.gradient, r.error,
                    r.control, r.triggered) for r in traj.records]) == \
            _r([(r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control,
                 r.triggered) for r in records])
        assert _events(log) == events


def test_run_matches_step_composition_on_random_draws():
    for specs, traj, log in finite_true_runs(seed=403, count=30):
        records, events = _recompose_true(*specs, traj.records[0].theta_hat,
                                          len(traj.records))
        assert _events(log) == events
        for a, b in zip(traj.records, records):
            assert repr(a) == repr(b)


def _recompose_avg(map_spec, loop, trig, theta_tilde0, n):
    """AvgRecord reprs of n averaged steps and the (ks, gradient bits) of
    their events."""
    g0 = map_spec.h_star * theta_tilde0
    state = AvgState(k=0, g_av=g0, held_g_av=g0)
    rows = []
    events = ([0], [float_bits(g0)])
    for _ in range(n):
        state, rec = avg_step(map_spec, loop, trig, state)
        rows.append(repr(rec))
        if rec.triggered:
            events[0].append(rec.k)
            events[1].append(float_bits(rec.g_av))
    return rows, events


def test_avg_run_matches_avg_step_composition():
    rng = random.Random(404)
    # theta_tilde0 = 0.0 with h_star < 0 seeds the event log with -0.0; a
    # NaN start makes every row's error NaN, so no row fires
    cases = [(reference_specs(), -2.5), (reference_specs(), 0.0),
             (reference_specs(), math.nan)]
    for _ in range(30):
        cases.append((draw_specs(rng), rng.uniform(-5.0, 5.0)))
    fired = 0
    for (map_spec, loop, trig), tt0 in cases:
        traj = avg_run(map_spec, loop, trig, tt0, 120)
        rows, events = _recompose_avg(map_spec, loop, trig, tt0, 120)
        assert [repr(r) for r in traj.records] == rows
        assert _events(traj.events) == events
        fired += len(events[0]) - 1
    assert fired > 100


def test_rows_match_step_composition_on_diverging_run():
    # alpha = 2.0 fires 13 times, then the loop overflows: the rows carry
    # -0.0, inf and -inf cells, which repr compares by identity
    map_spec, loop, trig = reference_specs()
    trig = trig._replace(alpha=2.0)
    traj, log = escore.run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 1000)
    records, events = _recompose_true(map_spec, loop, trig,
                                      REFERENCE_THETA_HAT0, 1000)
    assert _events(log) == events
    assert len(events[0]) > 10
    assert [repr(r) for r in traj.records] == [repr(r) for r in records]
    cells = {repr(c) for r in records
             for c in (r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control)}
    assert {"-0.0", "inf", "-inf"} <= cells


def test_avg_rows_match_avg_step_composition():
    # a single row is only the hold seeding; rho0 > 1 (gain 240, last): g_av
    # grows linearly and theta_tilde_av follows it
    map_spec, loop, trig = reference_specs()
    cases = [(loop, trig, 1), (loop, trig, 200),
             (loop, trig._replace(alpha=2.0), 200),
             (loop._replace(gain_k=240.0), trig, 6000)]
    for case_loop, case_trig, n in cases:
        traj = avg_run(map_spec, case_loop, case_trig, -2.5, n)
        rows, events = _recompose_avg(map_spec, case_loop, case_trig, -2.5, n)
        assert [repr(r) for r in traj.records] == rows
        assert _events(traj.events) == events
    # the gain-240 case: theta_tilde_av stays finite and tracks g_av / h_star
    assert all(math.isfinite(r.theta_tilde_av) and
               float_bits(r.theta_tilde_av) == float_bits(r.g_av / map_spec.h_star)
               for r in traj.records)
