"""True closed loop: quadratic map, dither, demodulation, held control.

The loop seeks the extremum of an unknown quadratic map by perturbing the
input estimate with a sinusoid, demodulating the measured output into a
gradient estimate, and integrating a gain times the gradient held from the
last triggering instant. The trigger module decides when the hold refreshes.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

from etseek import _kernel
from etseek import trigger as _trigger


def _require_finite(spec) -> None:
    for f in fields(spec):
        if not math.isfinite(getattr(spec, f.name)):
            raise ValueError(f"{type(spec).__name__}.{f.name} must be finite")


@dataclass(frozen=True)
class MapSpec:
    """The unknown quadratic map y = q_star + (h_star/2)(theta - theta_star)^2."""

    q_star: float
    h_star: float
    theta_star: float

    def __post_init__(self):
        _require_finite(self)
        if self.h_star == 0:
            raise ValueError("MapSpec.h_star must be nonzero")


@dataclass(frozen=True)
class LoopSpec:
    """Controller-side constants: dither (a, omega), step size, gain."""

    amplitude_a: float
    omega: float
    epsilon: float
    gain_k: float

    def __post_init__(self):
        _require_finite(self)
        if self.amplitude_a <= 0:
            raise ValueError("LoopSpec.amplitude_a must be > 0")
        if self.omega <= 0:
            raise ValueError("LoopSpec.omega must be > 0")
        if self.epsilon <= 0:
            raise ValueError("LoopSpec.epsilon must be > 0")
        if self.gain_k == 0:
            raise ValueError("LoopSpec.gain_k must be nonzero")

    @property
    def period(self) -> float:
        """Dither period 2*pi/omega in seconds."""
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class SimState:
    """Closed-loop state between iterations.

    held_control always equals -gain_k * held_gradient; step maintains the
    pair together so the applied input never drifts from the stored gradient.
    """

    k: int
    theta_hat: float
    held_gradient: float
    held_control: float
    last_event_k: int

    def __post_init__(self):
        if self.last_event_k > self.k:
            raise ValueError("SimState.last_event_k must not exceed k")


@dataclass(frozen=True)
class StepRecord:
    """Everything observed at one iteration; error is the pre-reset value."""

    k: int
    theta_hat: float
    theta: float
    y: float
    gradient: float
    error: float
    control: float
    triggered: bool


class StepColumns(NamedTuple):
    """The true loop's per-iteration values as columns; index k is iteration k.

    Fields follow StepRecord without k; triggered holds 0/1 flags.
    """

    theta_hat: array
    theta: array
    y: array
    gradient: array
    error: array
    control: array
    triggered: array


class RowView(Sequence):
    """Read-only rows of a columnar trajectory, each record built on demand.

    Row k is record_type(k, *values at k) with the last column, the fired
    flags, read as a bool. A slice gives a tuple of records. Two views are
    equal when they build the same record type from equal columns.
    """

    __slots__ = ("_record_type", "_columns")

    def __init__(self, record_type, columns):
        self._record_type = record_type
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(len(self))))
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("trajectory row index out of range")
        *values, fired = (col[k] for col in self._columns)
        return self._record_type(k, *values, triggered=bool(fired))

    def __iter__(self):
        make = self._record_type
        for k, (*values, fired) in enumerate(zip(*self._columns)):
            yield make(k, *values, triggered=bool(fired))

    def __eq__(self, other):
        if not isinstance(other, RowView):
            return NotImplemented
        return (self._record_type is other._record_type
                and self._columns == other._columns)

    __hash__ = None


def check_columns(owner: str, columns) -> None:
    """Raise ValueError unless every column has the same length."""
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"{owner} columns must have equal lengths")


@dataclass(frozen=True)
class Trajectory:
    """Per-iteration columns plus the specs that produced them."""

    columns: StepColumns
    map_spec: MapSpec
    loop_spec: LoopSpec
    trigger_spec: _trigger.TriggerSpec

    def __post_init__(self):
        check_columns("Trajectory", self.columns)

    @property
    def records(self) -> RowView:
        """StepRecord rows, built only when a row is read."""
        return RowView(StepRecord, self.columns)

    def __len__(self) -> int:
        return len(self.columns.theta_hat)


@dataclass(frozen=True)
class EventEntry:
    """One triggering instant: index l, iteration k_l, and the held pair."""

    index: int
    k: int
    gradient: float
    control: float


@dataclass(frozen=True)
class EventLog:
    """Ordered triggering instants of one run; the origin is always first."""

    entries: tuple[EventEntry, ...]
    horizon: int
    epsilon: float

    def __post_init__(self):
        if not self.entries:
            raise ValueError("EventLog must contain the initial event")
        if self.entries[0].k != 0:
            raise ValueError("EventLog must start at k = 0")
        for a, b in zip(self.entries, self.entries[1:]):
            if b.k <= a.k:
                raise ValueError("EventLog iterations must be strictly increasing")


def eval_map(map_spec: MapSpec, theta: float) -> float:
    """Evaluate the quadratic map at theta."""
    d = theta - map_spec.theta_star
    return map_spec.q_star + 0.5 * map_spec.h_star * (d * d)


def dither(loop: LoopSpec, k: int) -> float:
    """Perturbation a*sin(omega*epsilon*k) added to the estimate at iteration k."""
    return loop.amplitude_a * math.sin(loop.omega * loop.epsilon * k)


def demodulate(loop: LoopSpec, k: int, y: float) -> float:
    """Gradient estimate: the dither value at k times the measured output."""
    return dither(loop, k) * y


def integrate(loop: LoopSpec, theta_hat: float, u: float) -> float:
    """One explicit-Euler update of the estimate: theta_hat + epsilon*u."""
    return theta_hat + loop.epsilon * u


def initial_state(map_spec: MapSpec, loop: LoopSpec, theta_hat0: float) -> SimState:
    """Fresh state with the origin as a triggering instant.

    The hold is seeded with the gradient estimate the loop would observe at
    k = 0, so the first step sees a measurement error of exactly zero.
    """
    y0 = eval_map(map_spec, theta_hat0 + dither(loop, 0))
    g0 = demodulate(loop, 0, y0)
    return SimState(
        k=0,
        theta_hat=theta_hat0,
        held_gradient=g0,
        held_control=-loop.gain_k * g0,
        last_event_k=0,
    )


def step(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
         state: SimState) -> tuple[SimState, StepRecord]:
    """Advance the closed loop by one iteration.

    Fixed order: dither the estimate, measure the map, demodulate, form the
    measurement error against the held gradient, consult the trigger, apply
    the (possibly refreshed) held control, integrate. The returned record
    keeps the pre-reset error; after a fire the recomputed error is zero by
    construction.
    """
    k = state.k
    theta = state.theta_hat + dither(loop, k)
    y = eval_map(map_spec, theta)
    g = demodulate(loop, k, y)
    e = _trigger.measurement_error(state.held_gradient, g)
    fired = _trigger.should_trigger(trig, g, e)
    if fired:
        held_g = g
        held_u = -loop.gain_k * g
        last_event = k
    else:
        held_g = state.held_gradient
        held_u = state.held_control
        last_event = state.last_event_k
    next_state = SimState(
        k=k + 1,
        theta_hat=integrate(loop, state.theta_hat, held_u),
        held_gradient=held_g,
        held_control=held_u,
        last_event_k=last_event,
    )
    record = StepRecord(k=k, theta_hat=state.theta_hat, theta=theta, y=y,
                        gradient=g, error=e, control=held_u, triggered=fired)
    return next_state, record


def run(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
        theta_hat0: float, n_iters: int) -> tuple[Trajectory, EventLog]:
    """Run the closed loop for n_iters iterations from k = 0.

    Deterministic: identical inputs give bit-identical trajectories. The
    stepping itself runs in etseek._kernel; step() composes the same
    operations one iteration at a time and agrees exactly.
    """
    if n_iters < 1:
        raise ValueError("run requires n_iters >= 1")
    columns, event_columns = _kernel.run_loop(
        map_spec.q_star, map_spec.h_star, map_spec.theta_star,
        loop.amplitude_a, loop.omega, loop.epsilon, loop.gain_k,
        trig.sigma, trig.alpha, theta_hat0, n_iters)
    trajectory = Trajectory(columns=StepColumns(*columns), map_spec=map_spec,
                            loop_spec=loop, trigger_spec=trig)
    return trajectory, event_log(loop, event_columns, n_iters)


def event_log(loop: LoopSpec, event_columns, horizon: int) -> EventLog:
    """EventLog from a kernel's (ks, gradients) event columns."""
    entries = tuple(
        EventEntry(index=l, k=ev_k, gradient=ev_g, control=-loop.gain_k * ev_g)
        for l, (ev_k, ev_g) in enumerate(zip(*event_columns)))
    return EventLog(entries=entries, horizon=horizon, epsilon=loop.epsilon)
