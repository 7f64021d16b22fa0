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
import sys
from bisect import bisect_left
from typing import NamedTuple, Sequence

from etseek.average import AvgColumns
from etseek.escore import EventLog, LoopSpec, MapSpec, Trajectory
from etseek.trigger import TriggerSpec, contraction_increment

__all__ = [
    "DecayAccumulator",
    "DecayReport",
    "EnvelopeAccumulator",
    "EnvelopeCheck",
    "EnvelopeReport",
    "EventAccumulator",
    "EventStats",
    "ExpansionTerms",
    "check_decay",
    "convergence_envelopes",
    "decay_rate",
    "event_statistics",
    "gradient_expansion",
    "lyapunov_sequence",
    "lyapunov_values",
]

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


def lyapunov_sequence(avg_traj: Trajectory) -> list[float]:
    """Elementwise square of an averaged trajectory's g_av column."""
    return lyapunov_values(avg_traj.columns.g_av)


def lyapunov_values(g_av) -> list[float]:
    """V = g_av ** 2 for each value of a g_av column, or of one block of it."""
    return [g * g for g in g_av]


def decay_rate(map_spec: MapSpec, loop: LoopSpec, trig: TriggerSpec) -> float:
    """Per-step contraction factor of the averaged Lyapunov sequence.

    rho = 1 - (1 - rho0^2)(1 - sigma)/2, with rho0 = 1 - c_g from the one
    contraction increment, the same bits the assumption check reports.
    """
    rho0 = 1.0 - contraction_increment(map_spec, loop)
    return 1.0 - (1.0 - rho0 * rho0) * (1.0 - trig.sigma) / 2.0


class DecayAccumulator:
    """The Lyapunov decay check of one run, fed its V values in order of k.

    Each pair V[k], V[k+1] is checked as soon as its second value arrives,
    so a pair may span two blocks; report() gives the verdict so far.
    """

    __slots__ = ("rho", "rows", "last", "first", "worst")

    def __init__(self, map_spec: MapSpec, loop: LoopSpec, trig: TriggerSpec):
        self.rho = decay_rate(map_spec, loop, trig)
        self.rows = 0  # V values fed so far
        self.last = None  # the last of them
        self.first = None
        self.worst = 0.0

    def feed(self, values: Sequence[float]) -> None:
        """Check the pairs that the next V values close."""
        rows = iter(values)
        start = self.rows
        prev = next(rows, None) if start == 0 else self.last  # None if no rows
        rho = self.rho
        finite = rho < math.inf
        first, worst = self.first, self.worst
        for k, v in enumerate(rows, max(start - 1, 0)):
            # an infinite rho makes the bound inf, even where V[k] is 0 and
            # inf * 0 is NaN. A NaN excess is a violation too; it leaves
            # worst as it is.
            excess = v - rho * prev - DECAY_SLACK if finite else v - math.inf
            if not excess <= 0.0:
                if first is None:
                    first = k
                if excess > worst:
                    worst = excess
            prev = v
        self.first, self.worst, self.last = first, worst, prev
        self.rows = start + len(values)

    def report(self) -> DecayReport:
        return DecayReport(rho=self.rho, checked=max(self.rows - 1, 0),
                           passed=self.first is None,
                           first_violation_k=self.first, max_excess=self.worst)


def check_decay(v_sequence: Sequence[float], map_spec: MapSpec,
                loop: LoopSpec, trig: TriggerSpec) -> DecayReport:
    """Verify V[k+1] <= rho*V[k] + slack for every consecutive pair.

    Violations become report entries, never exceptions; max_excess is the
    worst signed overshoot of V[k+1] - rho*V[k] over the slack. An infinite
    rho makes every bound inf, which only a NaN or infinite V[k+1] fails.
    DecayAccumulator fed the whole sequence as one block.
    """
    check = DecayAccumulator(map_spec, loop, trig)
    check.feed(v_sequence)
    return check.report()


def _power(rho: float, x: float) -> float:
    """rho ** x, or inf where that overflows a float."""
    try:
        return rho ** x
    except OverflowError:
        return math.inf


class _Envelope:
    """|x[k] - center| <= rho ** (step * k) * factor * |x[0] - center| + offset,
    checked row by row as a column's blocks arrive in order of k.

    A bound whose power of rho overflows or is inf reads inf, whatever the
    power multiplies: a finite row passes, a NaN or infinite one fails. Only
    a rho > 1 has such powers, and they grow with k, so inf_from, the first
    row whose power is inf, is found once by bisection; else it is sys.maxsize.

    Every bound is at least offset when rho >= 0 and the scale is in
    [0, inf), as a power times such a scale is >= 0; offset is then the
    floor, else -inf. A row with |x - center| - floor <= worst is skipped:
    by monotone rounding its exact excess is at most that, so it can fail
    no bound while worst is 0.0 and raise no worst after a failure.
    """

    __slots__ = ("name", "center", "step", "factor", "offset", "rho", "scale",
                 "inf_from", "first", "worst")

    def __init__(self, name, center, step, factor, offset, rho):
        self.name, self.center, self.step = name, center, step
        self.factor, self.offset, self.rho = factor, offset, rho
        self.scale = None  # factor * |x[0] - center|, from row 0
        self.inf_from = sys.maxsize if not rho > 1.0 else bisect_left(
            range(sys.maxsize), True,
            key=lambda k: _power(rho, step * k) == math.inf)
        self.first = None
        self.worst = 0.0

    def feed(self, column, start: int) -> None:
        """Check rows start, start + 1, ... of the column."""
        center, step, offset, rho = self.center, self.step, self.offset, self.rho
        if start == 0 and column:  # a zero-row block is not the run's first
            self.scale = self.factor * abs(column[0] - center)
        scale, inf_from = self.scale, self.inf_from
        floor = offset if 0.0 <= rho and scale is not None \
            and 0.0 <= scale < math.inf else -math.inf
        first, worst = self.first, self.worst
        for k, x in enumerate(column, start):
            distance = abs(x - center)
            if distance - floor <= worst:
                continue
            # a NaN excess is a violation too; it leaves worst as it is
            excess = distance - (rho ** (step * k) * scale + offset
                                 if k < inf_from else math.inf)
            if not excess <= 0.0:
                if first is None:
                    first = k
                if excess > worst:
                    worst = excess
        self.first, self.worst = first, worst

    def check(self) -> EnvelopeCheck:
        return EnvelopeCheck(name=self.name, passed=self.first is None,
                             first_violation_k=self.first,
                             max_excess=self.worst)


class EnvelopeAccumulator:
    """The convergence envelopes of one run, fed its column blocks in order of k.

    columns_type is the type of the blocks, AvgColumns for the averaged
    loop and StepColumns for the true loop; it picks the envelopes, as
    convergence_envelopes describes. report() gives the verdicts so far.
    offset_constant must be finite and >= 0; only the true envelopes read it.
    """

    __slots__ = ("rho", "rows", "envelopes")

    def __init__(self, columns_type: type, map_spec: MapSpec, loop: LoopSpec,
                 trig: TriggerSpec, offset_constant: float = 0.0):
        if not 0 <= offset_constant < math.inf:
            raise ValueError(
                "convergence_envelopes requires a finite offset_constant >= 0")
        self.rho = rho = decay_rate(map_spec, loop, trig)
        self.rows = 0
        # each envelope: (name of its column, center, step, factor, offset, rho)
        if issubclass(columns_type, AvgColumns):
            self.envelopes = (
                _Envelope("g_av", 0.0, 0.5, 1.0, DECAY_SLACK, rho),
                _Envelope("theta_tilde_av", 0.0, 0.5, 1.0, DECAY_SLACK, rho))
        else:
            self.envelopes = (
                _Envelope("theta", map_spec.theta_star, 0.5, 1.0,
                          offset_constant, rho),
                _Envelope("y", map_spec.q_star, 1.0, 2.0,
                          offset_constant * offset_constant, rho))

    def feed(self, columns) -> None:
        """Check the next rows of the run: one block of its columns."""
        for envelope in self.envelopes:
            envelope.feed(getattr(columns, envelope.name), self.rows)
        self.rows += len(columns[0])

    def report(self) -> EnvelopeReport:
        return EnvelopeReport(rho=self.rho, checks=tuple(
            envelope.check() for envelope in self.envelopes))


def convergence_envelopes(traj: Trajectory, map_spec: MapSpec, loop: LoopSpec,
                          trig: TriggerSpec,
                          offset_constant: float = 0.0) -> EnvelopeReport:
    """Check the geometric convergence envelopes along a trajectory.

    For an averaged trajectory the envelopes are exact and offset-free:
    |g_av[k]| and |theta_tilde_av[k]| against rho^(k/2) times their initial
    magnitudes, with roundoff slack only. For a true trajectory the caller
    supplies offset_constant, the residual-neighborhood radius the analysis
    leaves symbolic: the input envelope carries it additively and the output
    envelope its square; an averaged trajectory range-checks it, then
    ignores it. A bound whose power of rho overflows or is inf reads inf,
    and its rows are still checked. EnvelopeAccumulator fed the whole
    trajectory as one block.
    """
    check = EnvelopeAccumulator(type(traj.columns), map_spec, loop, trig,
                                offset_constant)
    check.feed(traj.columns)
    return check.report()


class EventAccumulator:
    """Count and gap statistics of a run's triggering instants, fed their
    iterations in increasing order, in blocks."""

    __slots__ = ("epsilon", "count", "first_k", "last_k", "min_gap", "max_gap")

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.count = 0
        self.first_k = self.last_k = None
        self.min_gap = math.inf
        self.max_gap = 0

    def feed(self, ks) -> None:
        """Count the next event iterations."""
        count, last, low, high = self.count, self.last_k, self.min_gap, self.max_gap
        for k in ks:
            if count:
                gap = k - last
                if gap < low:
                    low = gap
                if gap > high:
                    high = gap
            else:
                self.first_k = k
            count += 1
            last = k
        self.count, self.last_k, self.min_gap, self.max_gap = count, last, low, high

    def stats(self) -> EventStats:
        """Gaps are differences of consecutive event iterations; seconds
        scale by the sampling step. Fewer than two events have no gaps,
        reported as None."""
        count = self.count
        if count < 2:
            return EventStats(count=count, mean_gap_iters=None,
                              mean_gap_seconds=None, min_gap_iters=None,
                              max_gap_iters=None)
        # the gaps sum to last_k - first_k, an exact integer
        mean_iters = (self.last_k - self.first_k) / (count - 1)
        return EventStats(
            count=count,
            mean_gap_iters=mean_iters,
            mean_gap_seconds=mean_iters * self.epsilon,
            min_gap_iters=self.min_gap,
            max_gap_iters=self.max_gap,
        )


def event_statistics(log: EventLog) -> EventStats:
    """Count and gap statistics of a run's triggering instants: an
    EventAccumulator fed the log's iterations as one block."""
    stats = EventAccumulator(log.epsilon)
    stats.feed(log.ks)
    return stats.stats()
