"""Exact symmetries of the two loops: scaled inputs give scaled columns, bit
for bit.

With q_star = theta_star = 0 the loop equations are homogeneous, and the
firing test sqrt(sigma)*|g| - alpha*|e| < 0 is scale invariant. Scaling
inputs by powers of 2 then scales every product by a power of 2, which
rounding preserves, so each cell moves by that power exactly and no fired
flag moves:

- amplitude: a x 2, K / 4, theta_hat0 x 2 doubles theta_hat, theta and u,
  quadruples y, and multiplies g_hat and e by 8;
- curvature: h x 2, K / 2 doubles y, g_hat and e, and leaves the rest;
- time: epsilon x 2, omega / 2, K / 2 halves u, and leaves the rest;
- averaged loop: theta_tilde0 x 2 doubles g_av, theta_tilde_av and e_av,
  and a x 2, K / 4 leaves c_g, so every column, as it is.

These are metamorphic relations (Chen, Cheung & Yiu, 1998): an oracle that
no regeneration of the golden files can hide. Each case runs through
run_blocks / avg_run_blocks and through the step / avg_step composition, so
both definitions of each loop are held to it. With theta_star != 0 rounding
breaks the relations, so only these exact cases are pinned.
"""

import random
from array import array
from itertools import chain

from etseek import LoopSpec, MapSpec, TriggerSpec
from etseek.average import AvgState, avg_run_blocks, avg_step
from etseek.escore import initial_state, run_blocks, step

N_ROWS = 3000
# The averaged loop decays into subnormals (ROADMAP item 18), where rounding
# is absolute and doubling is no longer exact. While every cell of a row is
# 0 or at least this large, each product of the step, c_g * e included, is
# still normal, so the doubling is checked on the rows before the first cell
# below it.
_NORMAL_MARGIN = 1e-290


def _draws(count=20, seed=1601):
    """Seeded (map, loop, trigger, theta_hat0) with q_star = theta_star = 0;
    the gain puts the averaged contraction increment c_g in (0.01, 0.4)."""
    rng = random.Random(seed)
    for _ in range(count):
        h = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        a = rng.uniform(0.05, 0.5)
        epsilon = rng.uniform(0.01, 0.5)
        gain = rng.uniform(0.01, 0.4) * 2.0 / (epsilon * a * a * h)
        yield (MapSpec(q_star=0.0, h_star=h, theta_star=0.0),
               LoopSpec(amplitude_a=a, omega=rng.uniform(0.5, 20.0),
                        epsilon=epsilon, gain_k=gain),
               TriggerSpec(sigma=rng.uniform(0.05, 0.95),
                           alpha=rng.uniform(0.05, 3.0)),
               rng.uniform(-3.0, 3.0))


DRAWS = list(_draws())


def _joined(blocks):
    """A run's columns, its blocks joined: one list per field."""
    return [list(chain.from_iterable(column)) for column in zip(*blocks)]


def _true_paths(map_spec, loop, trig, theta_hat0):
    """The true loop's columns from run_blocks and from step composition."""
    state = initial_state(map_spec, loop, theta_hat0)
    records = []
    for _ in range(N_ROWS):
        state, record = step(map_spec, loop, trig, state)
        records.append(record[1:])  # without k
    return (_joined(run_blocks(map_spec, loop, trig, theta_hat0, N_ROWS)),
            [list(column) for column in zip(*records)])


def _avg_paths(map_spec, loop, trig, theta_tilde0):
    """The averaged loop's columns from avg_run_blocks and from avg_step
    composition."""
    g0 = map_spec.h_star * theta_tilde0
    state = AvgState(k=0, g_av=g0, held_g_av=g0)
    records = []
    for _ in range(N_ROWS):
        state, record = avg_step(map_spec, loop, trig, state)
        records.append(record[1:])  # without k
    return (_joined(avg_run_blocks(map_spec, loop, trig, theta_tilde0, N_ROWS)),
            [list(column) for column in zip(*records)])


def _assert_scaled(label, base, scaled, factors, rows=N_ROWS):
    """Each float column of scaled is its factor times base's, bit for bit,
    and the fired flags, the last column, are equal, on the first rows."""
    *base_floats, base_fired = base
    *floats, fired = scaled
    assert list(map(bool, fired[:rows])) == \
        list(map(bool, base_fired[:rows])), label
    for index, (factor, b, s) in enumerate(zip(factors, base_floats, floats,
                                               strict=True)):
        assert array("d", s[:rows]).tobytes() == \
            array("d", [factor * x for x in b[:rows]]).tobytes(), (label, index)


# each relation: the scaled (map, loop, theta_hat0), and the factors of
# theta_hat, theta, y, g_hat, e and u
TRUE_RELATIONS = {
    "amplitude": (lambda m, lp, x: (m, lp._replace(
        amplitude_a=2.0 * lp.amplitude_a, gain_k=lp.gain_k / 4.0), 2.0 * x),
        (2.0, 2.0, 4.0, 8.0, 8.0, 2.0)),
    "curvature": (lambda m, lp, x: (m._replace(h_star=2.0 * m.h_star),
                                    lp._replace(gain_k=lp.gain_k / 2.0), x),
                  (1.0, 1.0, 2.0, 2.0, 2.0, 1.0)),
    "time": (lambda m, lp, x: (m, lp._replace(
        epsilon=2.0 * lp.epsilon, omega=lp.omega / 2.0,
        gain_k=lp.gain_k / 2.0), x),
        (1.0, 1.0, 1.0, 1.0, 1.0, 0.5)),
}


def test_true_loop_scales_exactly():
    fired = 0
    for map_spec, loop, trig, theta_hat0 in DRAWS:
        base = _true_paths(map_spec, loop, trig, theta_hat0)
        for relation, (scale, factors) in TRUE_RELATIONS.items():
            scaled_map, scaled_loop, scaled_theta_hat0 = scale(map_spec, loop,
                                                               theta_hat0)
            scaled = _true_paths(scaled_map, scaled_loop, trig,
                                 scaled_theta_hat0)
            for path in range(2):
                _assert_scaled((relation, path), base[path], scaled[path],
                               factors)
        fired += sum(base[0][-1])
    # the flags are no formality: the draws fire and hold in about equal parts
    assert 0.2 * len(DRAWS) * N_ROWS < fired < 0.8 * len(DRAWS) * N_ROWS


def _normal_rows(columns):
    """Rows before the first float cell that is nonzero and below
    _NORMAL_MARGIN in magnitude."""
    small = (k for k, row in enumerate(zip(*columns[:-1]))
             if any(0.0 < abs(x) < _NORMAL_MARGIN for x in row))
    return next(small, N_ROWS)


def test_averaged_loop_scales_exactly():
    checked = fired = 0
    for map_spec, loop, trig, theta_tilde0 in DRAWS:
        base = _avg_paths(map_spec, loop, trig, theta_tilde0)
        doubled = _avg_paths(map_spec, loop, trig, 2.0 * theta_tilde0)
        same_c_g = _avg_paths(map_spec, loop._replace(
            amplitude_a=2.0 * loop.amplitude_a, gain_k=loop.gain_k / 4.0),
            trig, theta_tilde0)
        rows = _normal_rows(base[0])
        for path in range(2):
            _assert_scaled(("theta_tilde0", path), base[path], doubled[path],
                           (2.0, 2.0, 2.0), rows)
            _assert_scaled(("c_g", path), base[path], same_c_g[path],
                           (1.0, 1.0, 1.0))
        checked += rows
        fired += sum(base[0][-1][:rows])
    assert checked > 0.5 * len(DRAWS) * N_ROWS
    assert fired > 10000
