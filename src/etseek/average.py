"""Averaged closed loop, its closed form between events, and the gap bound.

Averaging the dither out of the true loop leaves a scalar linear recursion
for the averaged gradient estimate, driven by the held-versus-current error.
Between events the recursion telescopes to a closed form, and where that
form first passes the loop's firing test is the smallest guaranteed
spacing of triggering instants. avg_step defines one iteration readably;
avg_run_blocks steps the same iteration inline, n_iters times, into blocks
of columns, and avg_run is its one block.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from etseek import trigger as _trigger
from etseek.escore import _BLOCK_ROWS, LoopSpec, MapSpec, Trajectory, event_log

__all__ = [
    "AvgRecord",
    "AvgState",
    "avg_run",
    "avg_run_blocks",
    "avg_step",
    "closed_form_between_events",
    "min_inter_event_estimate",
]


class AvgState(NamedTuple):
    """Averaged-loop state: gradient estimate and hold. The parameter error
    is g_av / h_star, so g_av = h_star * theta_tilde_av by construction."""

    k: int
    g_av: float
    held_g_av: float


class AvgRecord(NamedTuple):
    """The averaged loop at one iteration: its avg_trajectory.csv row.

    error is the pre-fire value, as in the true loop's StepRecord.
    """

    k: int
    g_av: float
    theta_tilde_av: float
    error: float
    triggered: bool


class AvgColumns(NamedTuple):
    """The averaged loop's per-iteration values as columns; index k is iteration k.

    Fields follow AvgRecord without k, the record type of their rows. As in
    escore.StepColumns, each float column is a list of the floats the loop
    computed and triggered is a bytearray of 0/1 flags.
    """

    record = AvgRecord

    g_av: list[float]
    theta_tilde_av: list[float]
    error: list[float]
    triggered: bytearray


def avg_step(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
             state: AvgState) -> tuple[AvgState, AvgRecord]:
    """Advance the averaged loop one iteration.

    Same ordering contract as the true loop: the trigger sees the pre-fire
    error, the state update uses the post-fire one. Only g_av is updated:
    the parameter error is g_av / h_star, with nothing to keep in step.
    The returned record is row state.k of avg_run's columns.
    """
    c_g = _trigger.contraction_increment(map_spec, loop)
    rho0 = 1.0 - c_g
    e = state.held_g_av - state.g_av
    fired = _trigger.should_trigger(trig, state.g_av, e)
    if fired:
        held = state.g_av
        e_post = 0.0
    else:
        held = state.held_g_av
        e_post = e
    next_state = AvgState(
        k=state.k + 1,
        g_av=rho0 * state.g_av - c_g * e_post,
        held_g_av=held,
    )
    record = AvgRecord(k=state.k, g_av=state.g_av,
                       theta_tilde_av=state.g_av / map_spec.h_star,
                       error=e, triggered=fired)
    return next_state, record


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
                             trig: _trigger.TriggerSpec,
                             g_at_event: float) -> int:
    """First n >= 1 at which the loop's firing test holds on the closed form.

    met(n) is trigger.should_trigger on closed_form_between_events at n, so
    a tie does not fire and g_at_event = 0 never does. At x = n*c_g, |e| =
    |x|*|g0| and |g| = |1 - x|*|g0|, so with r = sqrt(sigma) the test reads
    alpha*|x| > r*|1 - x|. It first holds past x = r/(r + alpha) for c_g > 0
    (and stops at r/(r - alpha) if alpha < r, a stretch a large c_g steps
    over), and past r/(r - alpha) for c_g < 0 if alpha > r; met checks the
    integer there and its neighbours.

    Raises RuntimeError when no n meets the test, g0 = 0 or NaN included,
    and when rounding rather than n decides where the test first holds:
    always for a nonzero subnormal g0, whose few bits can move that n.
    """
    c_g = _trigger.contraction_increment(map_spec, loop)
    root_sigma = math.sqrt(trig.sigma)
    alpha = trig.alpha

    def met(n):
        g, e = closed_form_between_events(map_spec, loop, g_at_event, n)
        return _trigger.should_trigger(trig, g, e)

    # alpha*|x| - r*|1 - x| grows by slope per unit of |x| at its crossing
    slope = alpha + root_sigma if c_g > 0.0 else alpha - root_sigma
    first = (root_sigma / slope / abs(c_g) if c_g and slope > 0.0
             and g_at_event else math.inf)
    # A step moves the sides apart by slope*rate. Each side carries up to
    # four roundings: relative, or absolute below the normal range. Unless
    # a step outgrows them twice over, and g0 is 0 or normal, the roundings
    # and not n decide where the test first holds.
    rate = abs(c_g * g_at_event)
    noise = (alpha + root_sigma + 2.0) * (
        4.0 * sys.float_info.epsilon * first * rate + math.ulp(0.0))
    if 0.0 < abs(g_at_event) < sys.float_info.min or (
            first < math.inf and slope * rate <= 2.0 * noise):
        raise RuntimeError(
            "rounding, not the iteration count, decides where the firing "
            "test first holds near n = {!r} (c_g = {!r}, g_at_event = {!r})"
            .format(first, c_g, g_at_event))
    if first < math.inf:
        n = max(2, math.ceil(first))
        before, at = met(n - 1), met(n)
        if before:
            n, before, at = n - 1, met(n - 2), True
        elif not at:
            n, at = n + 1, met(n + 1)
        if at and not before:
            return n
    raise RuntimeError(
        "no iteration count meets the loop's firing test sqrt(sigma)*|g| - "
        "alpha*|e| < 0: n*c_g reaches its first crossing at n = {!r} "
        "(c_g = {!r}, g_at_event = {!r})".format(first, c_g, g_at_event))


def avg_run(map_spec: MapSpec, loop: LoopSpec, trig: _trigger.TriggerSpec,
            theta_tilde0: float, n_iters: int) -> Trajectory:
    """Run the averaged loop n_iters iterations from k = 0.

    The one block of avg_run_blocks with n_iters rows, so the columns are
    not copied. As in escore.run, the events are read off the g_av and
    triggered columns.
    """
    columns, = avg_run_blocks(map_spec, loop, trig, theta_tilde0, n_iters,
                              n_iters)
    return Trajectory(columns, event_log(loop, columns.g_av, columns.triggered))


def avg_run_blocks(map_spec: MapSpec, loop: LoopSpec,
                   trig: _trigger.TriggerSpec, theta_tilde0: float,
                   n_iters: int, block_rows: int = _BLOCK_ROWS):
    """Run the averaged loop n_iters iterations from k = 0, in blocks.

    Returns an iterator of AvgColumns of block_rows rows each, as
    escore.run_blocks does; bad arguments raise here. Seeds g_av[0] =
    h_star * theta_tilde0 and makes the origin a triggering instant,
    mirroring the true loop's initialization, so row 0 never fires. As in
    run_blocks, each block's columns, lists of 0.0 and a zeroed bytearray,
    are allocated at its row count and filled by index. Deterministic,
    whatever the block size. The loop inlines avg_step() on local floats,
    and tests/test_kernels.py holds its rows and events to those composed
    from avg_step()'s records, bit for bit. Keep its expressions and their
    order as they are: golden files depend on them.
    """
    if n_iters < 1 or block_rows < 1:
        raise ValueError("avg_run requires n_iters >= 1 and block_rows >= 1")
    h_star = map_spec.h_star
    c_g = _trigger.contraction_increment(map_spec, loop)
    alpha = trig.alpha
    root_sigma = math.sqrt(trig.sigma)
    rho0 = 1.0 - c_g

    def blocks():
        g = h_star * theta_tilde0
        held = g
        for start in range(0, n_iters, block_rows):
            rows = min(block_rows, n_iters - start)
            columns = AvgColumns([0.0] * rows, [0.0] * rows, [0.0] * rows,
                                 bytearray(rows))
            g_col, tt_col, e_col, fired_col = columns
            for i in range(rows):
                e = held - g
                if root_sigma * abs(g) - alpha * abs(e) < 0.0:  # fired
                    held = g
                    e_post = 0.0
                    fired_col[i] = 1
                else:
                    e_post = e
                g_col[i] = g
                tt_col[i] = g / h_star
                e_col[i] = e
                g = rho0 * g - c_g * e_post
            yield columns

    return blocks()
