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
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence, Union

from etseek.average import AvgTrajectory
from etseek.escore import EventEntry, EventLog, LoopSpec, MapSpec, Trajectory
from etseek.trigger import TriggerSpec, validate_assumption

__all__ = [
    "DECAY_SLACK",
    "DecayReport",
    "EnvelopeCheck",
    "EnvelopeReport",
    "EventEntry",
    "EventLog",
    "EventStats",
    "ExpansionTerms",
    "check_decay",
    "decay_rate",
    "event_statistics",
    "gradient_expansion",
    "lyapunov_sequence",
    "convergence_envelopes",
    "truncated_gradient",
]

DECAY_SLACK = 1e-12


@dataclass(frozen=True)
class ExpansionTerms:
    """Exact decomposition of the demodulated gradient at one iteration.

    delta_h is the curvature modulation -h_star*cos(2*omega*eps*k) riding on
    the linear term; delta_k is the parameter-free dither residue. The three
    additive pieces (linear, quadratic, residue) sum to the demodulated
    gradient estimate exactly, up to roundoff.
    """

    delta_h: float
    delta_k: float
    linear_term: float
    quadratic_term: float

    def total(self) -> float:
        return self.linear_term + self.quadratic_term + self.delta_k


@dataclass(frozen=True)
class EventStats:
    """Gap statistics of an event log; gap fields are None for single-event logs."""

    count: int
    mean_gap_iters: float | None
    mean_gap_seconds: float | None
    min_gap_iters: int | None
    max_gap_iters: int | None


@dataclass(frozen=True)
class DecayReport:
    """Outcome of the per-step Lyapunov decay check."""

    rho: float
    checked: int
    passed: bool
    first_violation_k: int | None
    max_excess: float


@dataclass(frozen=True)
class EnvelopeCheck:
    name: str
    passed: bool
    first_violation_k: int | None
    max_excess: float


@dataclass(frozen=True)
class EnvelopeReport:
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

    The sum equals demodulate(eval_map(theta)) with theta = theta_star +
    theta_tilde + dither(k); the identity is algebraically exact for the
    quadratic map, so disagreement beyond roundoff is a simulator defect.
    """
    if k < 0:
        raise ValueError("gradient_expansion requires k >= 0")
    a = loop.amplitude_a
    h = map_spec.h_star
    x = loop.omega * loop.epsilon * k
    s = math.sin(x)
    delta_h = -h * math.cos(2.0 * x)
    linear = 0.5 * a * a * h * (1.0 - math.cos(2.0 * x)) * theta_tilde
    quadratic = 0.5 * a * h * s * (theta_tilde * theta_tilde)
    residue = (a * map_spec.q_star + 0.375 * (a * a * a) * h) * s \
        - 0.125 * (a * a * a) * h * math.sin(3.0 * x)
    return ExpansionTerms(delta_h=delta_h, delta_k=residue,
                          linear_term=linear, quadratic_term=quadratic)


def truncated_gradient(map_spec: MapSpec, loop: LoopSpec, k: int,
                       theta_tilde: float) -> float:
    """Expansion total without the term quadratic in the parameter error."""
    terms = gradient_expansion(map_spec, loop, k, theta_tilde)
    return terms.linear_term + terms.delta_k


def lyapunov_sequence(g_av_trajectory: Union[AvgTrajectory, Iterable[float]]) -> list[float]:
    """Elementwise square of an averaged-gradient sequence."""
    if isinstance(g_av_trajectory, AvgTrajectory):
        return [g * g for g in g_av_trajectory.columns.g_av]
    return [float(v) * float(v) for v in g_av_trajectory]


def decay_rate(map_spec: MapSpec, loop: LoopSpec, trig: TriggerSpec) -> float:
    """Per-step contraction factor of the averaged Lyapunov sequence.

    Derives from the same rho0 the assumption check reports, keeping one
    source of truth: rho = 1 - (1 - rho0^2)(1 - sigma)/2.
    """
    rho0 = validate_assumption(map_spec, loop, trig).rho0
    return 1.0 - (1.0 - rho0 * rho0) * (1.0 - trig.sigma) / 2.0


def check_decay(v_sequence: Sequence[float], map_spec: MapSpec,
                loop: LoopSpec, trig: TriggerSpec) -> DecayReport:
    """Verify V[k+1] <= rho*V[k] + slack for every consecutive pair.

    Violations become report entries, never exceptions; max_excess is the
    worst signed overshoot of V[k+1] - rho*V[k] over the slack.
    """
    rho = decay_rate(map_spec, loop, trig)
    pairs = range(len(v_sequence) - 1)
    check = _check_envelope("V", (
        v_sequence[k + 1] - rho * v_sequence[k] - DECAY_SLACK for k in pairs))
    return DecayReport(rho=rho, checked=len(pairs), passed=check.passed,
                       first_violation_k=check.first_violation_k,
                       max_excess=check.max_excess)


def _powers(rho: float, exponents) -> list[float]:
    """rho ** x for each x in order, stopping before the first that overflows.

    Only rho > 1 overflows, and then every later power does too. The
    envelope bound is inf from there on and no row can exceed it, so the
    rows past the end of the returned powers need no check.
    """
    powers = []
    try:
        for x in exponents:
            powers.append(rho ** x)
    except OverflowError:
        pass
    return powers


def _check_envelope(name, excesses) -> EnvelopeCheck:
    """Verdict from each row's signed excess over its bound, in order of k."""
    first = None
    worst = 0.0
    for k, excess in enumerate(excesses):
        if excess > 0.0:
            if first is None:
                first = k
            if excess > worst:
                worst = excess
    return EnvelopeCheck(name=name, passed=first is None,
                         first_violation_k=first, max_excess=worst)


def convergence_envelopes(traj: Union[Trajectory, AvgTrajectory],
                          map_spec: MapSpec, loop: LoopSpec,
                          trig: TriggerSpec,
                          offset_constant: float = 0.0) -> EnvelopeReport:
    """Check the geometric convergence envelopes along a trajectory.

    For an averaged trajectory the envelopes are exact and offset-free:
    |g_av[k]| and |theta_tilde_av[k]| against rho^(k/2) times their initial
    magnitudes, with roundoff slack only. For a true trajectory the caller
    supplies offset_constant, the residual-neighborhood radius the analysis
    leaves symbolic: the input envelope carries it additively and the output
    envelope its square. A bound whose power of rho overflows reads inf.
    """
    if offset_constant < 0:
        raise ValueError("convergence_envelopes requires offset_constant >= 0")
    rho = decay_rate(map_spec, loop, trig)
    n = len(traj)
    half_powers = _powers(rho, (0.5 * k for k in range(n)))
    cols = traj.columns
    if isinstance(traj, AvgTrajectory):
        g0 = abs(cols.g_av[0])
        t0 = abs(cols.theta_tilde_av[0])
        checks = (
            _check_envelope("g_av", (
                abs(g) - (p * g0 + DECAY_SLACK)
                for g, p in zip(cols.g_av, half_powers))),
            _check_envelope("theta_tilde_av", (
                abs(t) - (p * t0 + DECAY_SLACK)
                for t, p in zip(cols.theta_tilde_av, half_powers))),
        )
    else:
        theta_star = map_spec.theta_star
        q_star = map_spec.q_star
        th0 = abs(cols.theta[0] - theta_star)
        y0 = abs(cols.y[0] - q_star)
        off2 = offset_constant * offset_constant
        checks = (
            _check_envelope("theta", (
                abs(theta - theta_star) - (p * th0 + offset_constant)
                for theta, p in zip(cols.theta, half_powers))),
            _check_envelope("y", (
                abs(y - q_star) - (2.0 * p * y0 + off2)
                for y, p in zip(cols.y, _powers(rho, range(n))))),
        )
    return EnvelopeReport(rho=rho, checks=checks)


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
