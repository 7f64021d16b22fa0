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
from itertools import count, islice, repeat
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

    The applied input is not stored: step derives it as -gain_k *
    held_gradient, so it never drifts from the held gradient.
    """

    k: int
    theta_hat: float
    held_gradient: float
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


def same_bits(a, b) -> bool:
    """==, but arrays compare by typecode and bytes and tuples item by item:
    0.0 and -0.0 differ and a NaN equals itself, as their CSV cells do."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(same_bits, a, b))
    if isinstance(a, array) and isinstance(b, array):
        return a.typecode == b.typecode and a.tobytes() == b.tobytes()
    return a == b


def eq_by_bits(self, other):
    """__eq__ of the types that hold columns: same type, attributes same_bits."""
    if type(other) is not type(self):
        return NotImplemented
    return same_bits(tuple(vars(self).values()), tuple(vars(other).values()))


class RowView(Sequence):
    """Read-only rows over equal-length columns, each row built on demand.

    Row i is make(*fixed, i, *values at i): make is a module-level builder,
    fixed the per-view constants it takes (a record type, a gain). A slice
    gives a tuple of rows. Two views are equal when they share make and have
    equal fixed values and same_bits columns, so they build equal rows.
    """

    def __init__(self, make, fixed, columns):
        self._make = make
        self._fixed = fixed
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        i = range(len(self))[index]  # bounds and slices as for a tuple
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        return self._make(*self._fixed, i, *[col[i] for col in self._columns])

    def __iter__(self):
        return map(self._make, *map(repeat, self._fixed), count(),
                   *self._columns)

    __eq__ = eq_by_bits
    __hash__ = None


def trajectory_row(record_type, k, *values):
    """record_type at iteration k; the last value, the fired flag, as a bool."""
    *values, fired = values
    return record_type(k, *values, triggered=bool(fired))


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

    __eq__ = eq_by_bits

    @property
    def records(self) -> RowView:
        """StepRecord rows, built only when a row is read."""
        return RowView(trajectory_row, (StepRecord,), self.columns)

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
    """Triggering instants of one run as columns; the origin is always first.

    Event l happened at iteration ks[l] and held gradients[l] from then on,
    so the held control was -gain_k * gradients[l]. entries builds the
    matching EventEntry rows only when they are read. For a true-loop run
    both values are the trajectory's own gradient and control at row ks[l],
    which is how the CLI writes events.csv without formatting them again.
    """

    ks: array
    gradients: array
    gain_k: float
    horizon: int
    epsilon: float

    def __post_init__(self):
        check_columns("EventLog", (self.ks, self.gradients))
        if not self.ks:
            raise ValueError("EventLog must contain the initial event")
        if self.ks[0] != 0:
            raise ValueError("EventLog must start at k = 0")
        if not all(map(operator.lt, self.ks, islice(self.ks, 1, None))):
            raise ValueError("EventLog iterations must be strictly increasing")

    __eq__ = eq_by_bits

    @property
    def entries(self) -> RowView:
        """EventEntry rows, built only when a row is read."""
        return RowView(_event_entry, (self.gain_k,), (self.ks, self.gradients))


def _event_entry(gain_k, index, k, gradient):
    return EventEntry(index=index, k=k, gradient=gradient,
                      control=-gain_k * gradient)


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
    k = 0, so the first step sees a measurement error of exactly zero. The
    input it applies is -gain_k * g0, the control of that initial event.
    """
    y0 = eval_map(map_spec, theta_hat0 + dither(loop, 0))
    g0 = demodulate(loop, 0, y0)
    return SimState(k=0, theta_hat=theta_hat0, held_gradient=g0, last_event_k=0)


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
        last_event = k
    else:
        held_g = state.held_gradient
        last_event = state.last_event_k
    held_u = -loop.gain_k * held_g
    next_state = SimState(
        k=k + 1,
        theta_hat=integrate(loop, state.theta_hat, held_u),
        held_gradient=held_g,
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
    """EventLog over a kernel's (ks, gradients) event columns, kept as they are."""
    ks, gradients = event_columns
    return EventLog(ks=ks, gradients=gradients, gain_k=loop.gain_k,
                    horizon=horizon, epsilon=loop.epsilon)
