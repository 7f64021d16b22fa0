"""Verification oracles and diagnostics for the seeking loops.

The demodulated gradient of a quadratic map decomposes exactly: sin^2 and
sin^3 of the dither reduce to first and third harmonics, leaving a term
linear in the parameter error, one quadratic in it, and a parameter-free
residue. That decomposition is the independent oracle for the simulator.
The rest of the module turns the stability argument into executable checks:
Lyapunov decay of the averaged gradient, geometric envelopes, and event
statistics.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, islice
from typing import Iterator, NamedTuple, Sequence

from etseek.average import AvgTrajectory
from etseek.escore import EventLog, LoopSpec, MapSpec, Trajectory
from etseek.trigger import TriggerSpec, contraction_increment

DECAY_SLACK = 1e-12


class ExpansionTerms(NamedTuple):
    """Exact decomposition of the demodulated gradient at one iteration.

    delta_k is the parameter-free dither residue. The three additive pieces
    (linear, quadratic, residue) sum to the demodulated gradient estimate
    exactly, up to roundoff.
    """

    delta_k: float
    linear_term: float
    quadratic_term: float

    def total(self) -> float:
        return self.linear_term + self.quadratic_term + self.delta_k


class EventStats(NamedTuple):
    """Gap statistics of an event log; gap fields are None for single-event logs."""

    count: int
    mean_gap_iters: float | None
    mean_gap_seconds: float | None
    min_gap_iters: int | None
    max_gap_iters: int | None


class DecayReport(NamedTuple):
    """Outcome of the per-step Lyapunov decay check."""

    rho: float
    checked: int
    passed: bool
    first_violation_k: int | None
    max_excess: float


class EnvelopeCheck(NamedTuple):
    name: str
    passed: bool
    first_violation_k: int | None
    max_excess: float


class EnvelopeReport(NamedTuple):
    rho: float
    checks: tuple[EnvelopeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def gradient_expansion(map_spec: MapSpec, loop: LoopSpec, k: int,
                       theta_tilde: float) -> ExpansionTerms:
    """Decompose the demodulated gradient at iteration k, parameter error theta_tilde.

    linear = (a^2*h/2)(1 - cos(2*w*eps*k)) * theta_tilde
    quadratic = (a*h/2) sin(w*eps*k) * theta_tilde^2
    residue = (a*q + 3a^3*h/8) sin(w*eps*k) - (a^3*h/8) sin(3*w*eps*k)

    The sum equals the demodulated dither(k) * eval_map(theta) with theta =
    theta_star + theta_tilde + dither(k); the identity is algebraically
    exact for the quadratic map, so disagreement beyond roundoff is a
    simulator defect.
    """
    if k < 0:
        raise ValueError("gradient_expansion requires k >= 0")
    a = loop.amplitude_a
    h = map_spec.h_star
    x = loop.omega * loop.epsilon * k
    s = math.sin(x)
    linear = 0.5 * a * a * h * (1.0 - math.cos(2.0 * x)) * theta_tilde
    quadratic = 0.5 * a * h * s * (theta_tilde * theta_tilde)
    residue = (a * map_spec.q_star + 0.375 * (a * a * a) * h) * s \
        - 0.125 * (a * a * a) * h * math.sin(3.0 * x)
    return ExpansionTerms(delta_k=residue, linear_term=linear,
                          quadratic_term=quadratic)


def lyapunov_sequence(avg_traj: AvgTrajectory) -> list[float]:
    """Elementwise square of an averaged trajectory's g_av column."""
    return [g * g for g in avg_traj.columns.g_av]


def decay_rate(map_spec: MapSpec, loop: LoopSpec, trig: TriggerSpec) -> float:
    """Per-step contraction factor of the averaged Lyapunov sequence.

    rho = 1 - (1 - rho0^2)(1 - sigma)/2, with rho0 = 1 - c_g from the one
    contraction increment, the same bits the assumption check reports.
    """
    rho0 = 1.0 - contraction_increment(map_spec, loop)
    return 1.0 - (1.0 - rho0 * rho0) * (1.0 - trig.sigma) / 2.0


def check_decay(v_sequence: Sequence[float], map_spec: MapSpec,
                loop: LoopSpec, trig: TriggerSpec) -> DecayReport:
    """Verify V[k+1] <= rho*V[k] + slack for every consecutive pair.

    Violations become report entries, never exceptions; max_excess is the
    worst signed overshoot of V[k+1] - rho*V[k] over the slack. An infinite
    rho makes every bound inf, which only a NaN or infinite V[k+1] fails.
    """
    rho = decay_rate(map_spec, loop, trig)
    pairs = range(len(v_sequence) - 1)
    if rho < math.inf:
        excesses = (v_sequence[k + 1] - rho * v_sequence[k] - DECAY_SLACK
                    for k in pairs)
    else:  # the bound is inf, even where V[k] is 0 and inf * 0 is NaN
        excesses = (v_sequence[k + 1] - math.inf for k in pairs)
    check = _check_envelope("V", excesses)
    return DecayReport(rho=rho, checked=len(pairs), passed=check.passed,
                       first_violation_k=check.first_violation_k,
                       max_excess=check.max_excess)


def _powers(rho: float, exponents) -> Iterator[float]:
    """rho ** x for each x in order, ending before the first that is inf.

    A finite rho > 1 overflows (OverflowError), an infinite rho gives inf
    from x > 0, and every later power does the same. The envelope bound is
    inf from there on, whatever the power multiplies, so the caller checks
    each later row against inf: a finite row passes, a NaN or infinite one
    fails.
    """
    inf = math.inf
    try:
        for x in exponents:
            power = rho ** x
            if power == inf:
                return
            yield power
    except OverflowError:
        return


def _check_envelope(name, excesses) -> EnvelopeCheck:
    """Verdict from each row's signed excess over its bound, in order of k.

    A NaN excess is a violation too; it leaves max_excess as it is.
    """
    first = None
    worst = 0.0
    for k, excess in enumerate(excesses):
        if not excess <= 0.0:
            if first is None:
                first = k
            if excess > worst:
                worst = excess
    return EnvelopeCheck(name=name, passed=first is None,
                         first_violation_k=first, max_excess=worst)


def _envelope(name, column, center, powers, factor, offset) -> EnvelopeCheck:
    """Check |x[k] - center| <= p[k] * factor * |x[0] - center| + offset.

    Each row past the last power is checked against an inf bound.
    """
    scale = factor * abs(column[0] - center)
    rows = iter(column)  # zip takes a power first, so no row is skipped
    return _check_envelope(name, chain(
        (abs(x - center) - (p * scale + offset) for p, x in zip(powers, rows)),
        (abs(x - center) - math.inf for x in rows)))


def convergence_envelopes(traj: Trajectory | AvgTrajectory,
                          map_spec: MapSpec, loop: LoopSpec,
                          trig: TriggerSpec,
                          offset_constant: float = 0.0) -> EnvelopeReport:
    """Check the geometric convergence envelopes along a trajectory.

    For an averaged trajectory the envelopes are exact and offset-free:
    |g_av[k]| and |theta_tilde_av[k]| against rho^(k/2) times their initial
    magnitudes, with roundoff slack only. For a true trajectory the caller
    supplies offset_constant, the residual-neighborhood radius the analysis
    leaves symbolic: the input envelope carries it additively and the output
    envelope its square. A bound whose power of rho overflows or is inf
    reads inf, and its rows are still checked.
    """
    if not 0 <= offset_constant < math.inf:
        raise ValueError(
            "convergence_envelopes requires a finite offset_constant >= 0")
    rho = decay_rate(map_spec, loop, trig)
    n = len(traj)
    cols = traj.columns
    # rows: (name, column, center, powers of rho, factor, offset)
    half = _powers(rho, (0.5 * k for k in range(n)))
    if isinstance(traj, AvgTrajectory):
        half = list(half)  # both checks read these: computing them once is faster
        table = (("g_av", cols.g_av, 0.0, half, 1.0, DECAY_SLACK),
                 ("theta_tilde_av", cols.theta_tilde_av, 0.0, half, 1.0, DECAY_SLACK))
    else:
        table = (("theta", cols.theta, map_spec.theta_star, half, 1.0, offset_constant),
                 ("y", cols.y, map_spec.q_star, _powers(rho, range(n)), 2.0,
                  offset_constant * offset_constant))
    return EnvelopeReport(rho=rho, checks=tuple(_envelope(*row) for row in table))


def event_statistics(log: EventLog) -> EventStats:
    """Count and gap statistics of a run's triggering instants.

    Gaps are differences of consecutive event iterations; seconds scale by
    the sampling step. A single-event log has no gaps, reported as None.
    """
    ks = log.ks
    count = len(ks)
    if count < 2:
        return EventStats(count=count, mean_gap_iters=None,
                          mean_gap_seconds=None, min_gap_iters=None,
                          max_gap_iters=None)
    gaps = list(map(operator.sub, islice(ks, 1, None), ks))
    mean_iters = sum(gaps) / len(gaps)
    return EventStats(
        count=count,
        mean_gap_iters=mean_iters,
        mean_gap_seconds=mean_iters * log.epsilon,
        min_gap_iters=min(gaps),
        max_gap_iters=max(gaps),
    )
