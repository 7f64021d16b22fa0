"""Averaged closed loop, its closed form between events, and the gap bound.

Averaging the dither out of the true loop leaves a scalar linear recursion
for the averaged gradient estimate, driven by the held-versus-current error.
Between events the recursion telescopes to a closed form, which gives an
integer-scan lower estimate for the spacing of triggering instants.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from etseek import _kernel
from etseek import trigger as _trigger
from etseek.escore import (EventLog, LoopSpec, MapSpec, RowView, check_columns,
                           event_log, eq_by_bits, trajectory_row)

_SCAN_LIMIT = 1_000_000


@dataclass(frozen=True)
class AvgState:
    """Averaged-loop state: gradient estimate and hold. The parameter error
    is g_av / h_star, so g_av = h_star * theta_tilde_av by construction."""

    k: int
    g_av: float
    held_g_av: float
    last_event_k: int

    def __post_init__(self):
        if self.last_event_k > self.k:
            raise ValueError("AvgState.last_event_k must not exceed k")


@dataclass(frozen=True)
class AvgRecord:
    """Per-iteration view of the averaged loop.

    error is the pre-fire value and held_g_av the post-fire hold, mirroring
    the true-loop record layout so the two trajectories compare row by row.
    """

    k: int
    g_av: float
    theta_tilde_av: float
    held_g_av: float
    error: float
    triggered: bool


class AvgColumns(NamedTuple):
    """The averaged loop's per-iteration values as columns; index k is iteration k.

    Fields follow AvgRecord without k; triggered holds 0/1 flags.
    """

    g_av: array
    theta_tilde_av: array
    held_g_av: array
    error: array
    triggered: array


@dataclass(frozen=True)
class AvgTrajectory:
    """Per-iteration columns of the averaged loop, its events and specs."""

    columns: AvgColumns
    events: EventLog
    map_spec: MapSpec
    loop_spec: LoopSpec
    trigger_spec: _trigger.TriggerSpec

    def __post_init__(self):
        check_columns("AvgTrajectory", self.columns)

    __eq__ = eq_by_bits

    @property
    def records(self) -> RowView:
        """AvgRecord rows, built only when a row is read."""
        return RowView(trajectory_row, (AvgRecord,), self.columns)

    def __len__(self) -> int:
        return len(self.columns.g_av)


@dataclass(frozen=True)
class ZenoEstimate:
    """Smallest guaranteed event spacing in iterations, with the slack used."""

    k_star: int
    epsilon_term: float

    def __post_init__(self):
        if self.k_star < 1:
            raise ValueError("ZenoEstimate.k_star must be >= 1")


def avg_step(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
             state: AvgState) -> AvgState:
    """Advance the averaged loop one iteration.

    Same ordering contract as the true loop: the trigger sees the pre-fire
    error, the state update uses the post-fire one. Only g_av is updated:
    the parameter error is g_av / h_star, with nothing to keep in step.
    """
    c_g = _trigger.contraction_increment(map_spec, loop)
    rho0 = 1.0 - c_g
    e = _trigger.measurement_error(state.held_g_av, state.g_av)
    fired = _trigger.should_trigger(trig, state.g_av, e)
    if fired:
        held = state.g_av
        last_event = state.k
        e_post = 0.0
    else:
        held = state.held_g_av
        last_event = state.last_event_k
        e_post = e
    return AvgState(
        k=state.k + 1,
        g_av=rho0 * state.g_av - c_g * e_post,
        held_g_av=held,
        last_event_k=last_event,
    )


def closed_form_between_events(map_spec: MapSpec, loop: LoopSpec,
                               g_at_event: float, n: int) -> tuple[float, float]:
    """Averaged gradient and error n iterations after an event, in closed form.

    The inter-event recursion telescopes: g_av = (1 - n*c_g)*g_at_event and
    e_av = n*c_g*g_at_event, so the pair always sums back to g_at_event.
    """
    if n < 0:
        raise ValueError("closed_form_between_events requires n >= 0")
    c_g = _trigger.contraction_increment(map_spec, loop)
    nc = n * c_g
    return (1.0 - nc) * g_at_event, nc * g_at_event


def min_inter_event_estimate(map_spec: MapSpec, loop: LoopSpec,
                             trig: _trigger.TriggerSpec, g_at_event: float,
                             epsilon_term: float = 0.0) -> ZenoEstimate:
    """Smallest n >= 1 at which the trigger must have fired, by integer scan.

    Plugs the closed form into the triggering condition with an additive
    slack epsilon_term >= 0 on both magnitudes. The scan is capped: when
    alpha < sqrt(sigma) the bound sequences can grow at matched slopes and
    the condition may never be met, which is reported instead of looping.
    """
    if epsilon_term < 0:
        raise ValueError("min_inter_event_estimate requires epsilon_term >= 0")
    c_g = _trigger.contraction_increment(map_spec, loop)
    root_sigma = math.sqrt(trig.sigma)
    for n in range(1, _SCAN_LIMIT + 1):
        nc = n * c_g
        lhs = trig.alpha * (abs(nc * g_at_event) + epsilon_term)
        rhs = root_sigma * abs(abs((1.0 - nc) * g_at_event) - epsilon_term)
        if lhs >= rhs:
            return ZenoEstimate(k_star=n, epsilon_term=epsilon_term)
    raise RuntimeError(
        "no iteration count up to {} satisfies the triggering bound; "
        "the condition is unsatisfiable when alpha is too far below "
        "sqrt(sigma)".format(_SCAN_LIMIT))


def avg_run(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
            theta_tilde0: float, n_iters: int) -> AvgTrajectory:
    """Run the averaged loop n_iters iterations from k = 0.

    Seeds g_av[0] = h_star * theta_tilde0 and makes the origin a triggering
    instant, mirroring the true loop's initialization. Deterministic.
    """
    if n_iters < 1:
        raise ValueError("avg_run requires n_iters >= 1")
    columns, event_columns = _kernel.avg_loop(
        map_spec.h_star, _trigger.contraction_increment(map_spec, loop),
        trig.sigma, trig.alpha, theta_tilde0, n_iters)
    return AvgTrajectory(columns=AvgColumns(*columns),
                         events=event_log(loop, event_columns, n_iters),
                         map_spec=map_spec, loop_spec=loop, trigger_spec=trig)
