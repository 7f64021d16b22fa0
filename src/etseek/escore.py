"""True closed loop: quadratic map, dither, demodulation, held control.

The loop seeks the extremum of an unknown quadratic map by perturbing the
input estimate with a sinusoid, demodulating the measured output into a
gradient estimate, and integrating a gain times the gradient held from the
last triggering instant. The trigger module decides when the hold refreshes.
step defines one iteration readably; run_blocks steps the same iteration
inline, n_iters times, into blocks of columns, and run is its one block.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Sequence
from itertools import chain, compress, count, islice
from typing import NamedTuple

from etseek import trigger as _trigger

__all__ = [
    "EventEntry",
    "EventLog",
    "LoopSpec",
    "MapSpec",
    "SimState",
    "StepRecord",
    "Trajectory",
    "dither",
    "eval_map",
    "event_ks",
    "initial_state",
    "run",
    "run_blocks",
    "step",
]

# Rows of a run stepped, written and checked together: small enough that a
# block's columns and CSV text stay a few tens of kilobytes, large enough that
# the per-block calls cost nothing next to the rows.
_BLOCK_ROWS = 256


def _require_finite(spec) -> None:
    for name, value in zip(spec._fields, spec):
        if not math.isfinite(value):
            raise ValueError(f"{type(spec).__name__}.{name} must be finite")


@_trigger.checked
class MapSpec(NamedTuple):
    """The unknown quadratic map y = q_star + (h_star/2)(theta - theta_star)^2."""

    q_star: float
    h_star: float
    theta_star: float

    def _check(self):
        _require_finite(self)
        if self.h_star == 0:
            raise ValueError("MapSpec.h_star must be nonzero")


@_trigger.checked
class LoopSpec(NamedTuple):
    """Controller-side constants: dither (a, omega), step size, gain."""

    amplitude_a: float
    omega: float
    epsilon: float
    gain_k: float

    def _check(self):
        _require_finite(self)
        if self.amplitude_a <= 0:
            raise ValueError("LoopSpec.amplitude_a must be > 0")
        if self.omega <= 0:
            raise ValueError("LoopSpec.omega must be > 0")
        if self.epsilon <= 0:
            raise ValueError("LoopSpec.epsilon must be > 0")
        if self.gain_k == 0:
            raise ValueError("LoopSpec.gain_k must be nonzero")


class SimState(NamedTuple):
    """Closed-loop state between iterations.

    The applied input is not stored: step derives it as -gain_k *
    held_gradient, so it never drifts from the held gradient.
    """

    k: int
    theta_hat: float
    held_gradient: float


class StepRecord(NamedTuple):
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

    Fields follow StepRecord without k, the record type of their rows;
    triggered holds 0/1 flags.
    """

    record = StepRecord

    theta_hat: array
    theta: array
    y: array
    gradient: array
    error: array
    control: array
    triggered: array


class RowView(Sequence):
    """Read-only rows over equal-length columns, each row built on demand.

    Row i is make(i, *values at i); a slice gives a tuple of rows.
    """

    def __init__(self, make, columns):
        self._make = make
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        i = range(len(self))[index]  # bounds and slices as for a tuple
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        return self._make(i, *[col[i] for col in self._columns])

    def __iter__(self):
        return map(self._make, count(), *self._columns)


def check_columns(owner: str, columns) -> None:
    """Raise ValueError unless the columns have one length, and it is not 0."""
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"{owner} columns must have equal lengths")
    if 0 in lengths:
        raise ValueError(f"{owner} must have at least one row")


class EventEntry(NamedTuple):
    """One triggering instant: index l, iteration k_l, and the held pair."""

    index: int
    k: int
    gradient: float
    control: float


@_trigger.checked
class EventLog(NamedTuple):
    """Triggering instants of one run as columns; the origin is always first.

    Event l happened at iteration ks[l] and held gradients[l] from then on,
    so the held control was -gain_k * gradients[l]. entries builds the
    matching EventEntry rows only when they are read. A run's log comes
    from event_log, which takes gradients[l] from the gradient column at
    row ks[l], so for either loop it is the very float of that row; for the
    true loop -gain_k times it is the control there too. The CLI writes
    events.csv the same way, from the text of those rows, block by block.
    """

    ks: array
    gradients: array
    gain_k: float
    epsilon: float

    def _check(self):
        if not self.ks:
            raise ValueError("EventLog must contain the initial event")
        check_columns("EventLog", (self.ks, self.gradients))
        if self.ks[0] != 0:
            raise ValueError("EventLog must start at k = 0")
        if not all(map(operator.lt, self.ks, islice(self.ks, 1, None))):
            raise ValueError("EventLog iterations must be strictly increasing")

    @property
    def entries(self) -> RowView:
        """EventEntry rows, built only when a row is read."""
        gain_k = self.gain_k
        return RowView(lambda index, k, g: EventEntry(index, k, g, -gain_k * g),
                       (self.ks, self.gradients))


@_trigger.checked
class Trajectory(NamedTuple):
    """Per-iteration columns of either loop and its events; its len is its
    row count."""

    columns: StepColumns  # or average.AvgColumns
    events: EventLog

    def _check(self):
        check_columns("Trajectory", self.columns)

    @property
    def records(self) -> RowView:
        """Rows of the columns' record type, each built when read; triggered
        is a bool."""
        record = self.columns.record
        return RowView(lambda k, *cells: record(k, *cells[:-1], bool(cells[-1])),
                       self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])


def eval_map(map_spec: MapSpec, theta: float) -> float:
    """Evaluate the quadratic map at theta."""
    d = theta - map_spec.theta_star
    return map_spec.q_star + 0.5 * map_spec.h_star * (d * d)


def dither(loop: LoopSpec, k: int) -> float:
    """Perturbation a*sin(omega*epsilon*k) added to the estimate at iteration k."""
    return loop.amplitude_a * math.sin(loop.omega * loop.epsilon * k)


def finite_phase(loop: LoopSpec, n_iters: int) -> bool:
    """Whether the dither phase omega*epsilon*k is finite at every k < n_iters."""
    try:
        return math.isfinite(loop.omega * loop.epsilon * (n_iters - 1))
    except OverflowError:  # n_iters - 1 is too large for a float
        return False


def initial_state(map_spec: MapSpec, loop: LoopSpec, theta_hat0: float) -> SimState:
    """Fresh state with the origin as a triggering instant.

    The hold is seeded with the gradient estimate the loop would observe at
    k = 0, so the first step sees a measurement error of exactly zero. The
    input it applies is -gain_k * g0, the control of that initial event.
    """
    s0 = dither(loop, 0)
    g0 = s0 * eval_map(map_spec, theta_hat0 + s0)
    return SimState(k=0, theta_hat=theta_hat0, held_gradient=g0)


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
    s = dither(loop, k)
    theta = state.theta_hat + s
    y = eval_map(map_spec, theta)
    g = s * y  # demodulate
    e = state.held_gradient - g
    fired = _trigger.should_trigger(trig, g, e)
    held_g = g if fired else state.held_gradient
    held_u = -loop.gain_k * held_g
    next_state = SimState(
        k=k + 1,
        theta_hat=state.theta_hat + loop.epsilon * held_u,  # integrate
        held_gradient=held_g,
    )
    record = StepRecord(k=k, theta_hat=state.theta_hat, theta=theta, y=y,
                        gradient=g, error=e, control=held_u, triggered=fired)
    return next_state, record


def run(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
        theta_hat0: float, n_iters: int) -> tuple[Trajectory, EventLog]:
    """Run the closed loop for n_iters iterations from k = 0.

    The one block of run_blocks with n_iters rows, so the columns are not
    copied. The event log is read off its gradient and triggered columns;
    it is returned beside the trajectory that carries it.
    """
    columns, = run_blocks(map_spec, loop, trig, theta_hat0, n_iters, n_iters)
    traj = Trajectory(columns, event_log(loop, columns.gradient, columns.triggered))
    return traj, traj.events


def run_blocks(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
               theta_hat0: float, n_iters: int, block_rows: int = _BLOCK_ROWS):
    """Run the closed loop for n_iters iterations from k = 0, in blocks.

    Returns an iterator of StepColumns: rows 0 to block_rows - 1 of the run,
    then the next block_rows rows, and so on; the last block may be shorter.
    Bad arguments, a dither phase that overflows too, raise here, at the call.

    Each block's columns are allocated at its row count, the flags zeroed,
    and the loop fills them by index, setting a flag only on a fire.
    Deterministic: identical inputs give bit-identical rows, whatever the
    block size. The loop inlines step() on local floats, and
    tests/test_kernels.py holds its rows and events to those composed from
    step()'s records, bit for bit. Keep its expressions and their order as
    they are: golden files depend on them. The hold is seeded from
    initial_state before row 0, so row 0's error is 0.0, or NaN from a
    non-finite gradient, and it never fires.
    """
    if n_iters < 1 or block_rows < 1:
        raise ValueError("run requires n_iters >= 1 and block_rows >= 1")
    if not finite_phase(loop, n_iters):
        raise ValueError("run requires a finite dither phase omega*epsilon*(n_iters - 1)")
    q_star, h_star, theta_star = map_spec.q_star, map_spec.h_star, map_spec.theta_star
    a, epsilon, gain_k = loop.amplitude_a, loop.epsilon, loop.gain_k
    alpha = trig.alpha
    we = loop.omega * epsilon
    root_sigma = math.sqrt(trig.sigma)

    def blocks():
        sin = math.sin
        th = theta_hat0
        held = initial_state(map_spec, loop, theta_hat0).held_gradient
        zero = array("d", (0.0,))
        for start in range(0, n_iters, block_rows):
            rows = min(block_rows, n_iters - start)
            columns = StepColumns(zero * rows, zero * rows, zero * rows,
                                  zero * rows, zero * rows, zero * rows,
                                  array("b", bytes(rows)))
            th_col, theta_col, y_col, g_col, e_col, u_col, fired_col = columns
            for i, k in enumerate(range(start, start + rows)):
                s = a * sin(we * k)
                theta = th + s
                d = theta - theta_star
                y = q_star + 0.5 * h_star * (d * d)
                g = s * y
                e = held - g
                if root_sigma * abs(g) - alpha * abs(e) < 0.0:  # fired
                    held = g
                    fired_col[i] = 1
                u = -gain_k * held
                th_col[i] = th
                theta_col[i] = theta
                y_col[i] = y
                g_col[i] = g
                e_col[i] = e
                u_col[i] = u
                th = th + epsilon * u
            yield columns

    return blocks()


def event_ks(fired, start: int = 0):
    """Iterations of the events among rows start, start + 1, ... of a run.

    fired holds those rows' fired flags. The origin seeds the hold at k = 0,
    and every row whose fired flag is set is an event that holds that row's
    gradient. Row 0 itself never fires, because its error is 0.0 or NaN, so
    it is counted once. The one rule for reading events off a run's rows.
    """
    ks = compress(range(start, start + len(fired)), fired)
    return chain((0,), ks) if start == 0 and len(fired) else ks


def event_log(loop: LoopSpec, gradient: array, fired: array) -> EventLog:
    """EventLog of a run from its gradient and fired columns, by event_ks."""
    ks = array("q", event_ks(fired))
    return EventLog(ks=ks, gradients=array("d", map(gradient.__getitem__, ks)),
                    gain_k=loop.gain_k, epsilon=loop.epsilon)
