"""Shared test fixtures: the reference parameter set and randomized draws.

The reference set is read from configs/reference.cfg, which a test checks
against cli._REFERENCE_PARAMS, the one place it is written down.

The randomized draws keep the averaged contraction increment c = eps*a^2*H*K/2
in a tame band by solving for the gain, so most trajectories stay finite; the
rest (the true loop can still diverge and overflow) are rejected by the
finiteness filter. Draws are seeded, never time-dependent.
"""

import math
import random
from itertools import chain
from pathlib import Path

from etseek import LoopSpec, MapSpec, TriggerSpec, escore
from etseek.cli import parse_config

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
_REFERENCE = parse_config(REFERENCE_CFG.read_text())
REFERENCE_THETA_HAT0 = _REFERENCE.theta_hat0
REFERENCE_N_ITERS = _REFERENCE.n_iters


def column_bytes(columns):
    """Typecode and bytes of each array: two runs' columns give equal lists
    only if every cell has the same bits, as their CSV cells would."""
    return [(col.typecode, col.tobytes()) for col in columns]


def reference_specs():
    """Parameter set of the bundled reference configuration."""
    return _REFERENCE.map_spec, _REFERENCE.loop_spec, _REFERENCE.trigger_spec


def draw_specs(rng):
    """One random (map, loop, trigger) triple satisfying all type invariants."""
    h = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
    map_spec = MapSpec(q_star=rng.uniform(-5.0, 5.0), h_star=h,
                       theta_star=rng.uniform(-5.0, 5.0))
    a = rng.uniform(0.1, 0.5)
    epsilon = rng.uniform(0.01, 0.5)
    c = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.4)
    gain = c * 2.0 / (epsilon * a * a * h)
    loop = LoopSpec(amplitude_a=a, omega=rng.uniform(0.5, 20.0),
                    epsilon=epsilon, gain_k=gain)
    trig = TriggerSpec(sigma=rng.uniform(0.05, 0.95),
                       alpha=rng.uniform(0.05, 3.0))
    return map_spec, loop, trig


def _finite(traj):
    cols = traj.columns
    return all(map(math.isfinite, chain(cols.theta_hat, cols.gradient, cols.error)))


def finite_true_runs(seed, count, n_iters=120):
    """(specs, trajectory, event log) for draws whose rows stay finite."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts <= count * 20, "draw ranges reject too many runs"
        specs = draw_specs(rng)
        theta0 = rng.uniform(-8.0, 8.0)
        traj, log = escore.run(*specs, theta0, n_iters)
        if _finite(traj):
            out.append((specs, traj, log))
    return out


# Run-level invariant assertions, shared between the module property tests
# and the acceptance suite. All comparisons are exact: the invariants hold
# by construction, not within tolerance.

def assert_hold_constant_between_events(loop, traj, log):
    assert log.gain_k == loop.gain_k  # so each event held -gain_k * gradient
    control = traj.columns.control
    boundaries = [*log.ks, len(traj)]
    for gradient, start, end in zip(log.gradients, boundaries, boundaries[1:]):
        held = -loop.gain_k * gradient
        for k in range(start, end):
            assert control[k] == held


def assert_event_errors_reset_to_zero(trig, traj, log):
    cols = traj.columns
    assert cols.error[0] == 0.0
    for k, gradient in zip(log.ks, log.gradients):
        assert cols.gradient[k] == gradient
        if k > 0:
            assert cols.triggered[k]
            # pre-reset error satisfies the fired condition; the reset makes
            # the recomputed error exactly zero
            assert (math.sqrt(trig.sigma) * abs(cols.gradient[k])
                    - trig.alpha * abs(cols.error[k]) < 0.0)
            assert gradient - cols.gradient[k] == 0.0


def assert_non_events_satisfy_condition(trig, traj):
    root_sigma = math.sqrt(trig.sigma)
    cols = traj.columns
    for g, e, fired in zip(cols.gradient, cols.error, cols.triggered):
        if not fired:
            assert root_sigma * abs(g) - trig.alpha * abs(e) >= 0.0
