"""Runs and checks in blocks: every block size gives the one-block bytes.

escore.run_blocks and average.avg_run_blocks step a run into blocks of
columns, and the CLI writes and checks each block as it comes. The
concatenated blocks must hold the very bits of run / avg_run, and the
accumulators fed block by block must give the very report that the
one-block library call gives, whatever the block size: a first violation
in a later block, a NaN row on a block edge and rows past the last finite
power of rho included. Reports compare through repr, so -0.0, inf and the
order of every field count.
"""

import math
from array import array

import pytest

from etseek import (
    DecayAccumulator,
    EnvelopeAccumulator,
    EventAccumulator,
    avg_run,
    avg_run_blocks,
    check_decay,
    convergence_envelopes,
    event_ks,
    event_statistics,
    lyapunov_sequence,
    lyapunov_values,
    run,
    run_blocks,
)
from etseek.average import AvgColumns
from etseek.escore import _BLOCK_ROWS, StepColumns
from helpers import column_bytes, overflows, reference_specs

N_ITERS = 1000  # a multiple of none of the block sizes below but n_iters


def _block_sizes(n_iters):
    return (1, 7, _BLOCK_ROWS, n_iters)


def _cases():
    """(name, specs, theta_hat0, n_iters) of runs with a wide spread of rows."""
    map_spec, loop, trig = reference_specs()
    fires = (map_spec._replace(q_star=0.0), loop._replace(gain_k=-20.0),
             trig._replace(alpha=0.9))
    return [
        ("reference", (map_spec, loop, trig), 0.5, N_ITERS),
        ("one row", (map_spec, loop, trig), 0.5, 1),
        ("many fires", fires, 0.5, N_ITERS),
        ("diverging", (map_spec, loop, trig._replace(alpha=2.0)), 0.5, N_ITERS),
        ("nan rows", (map_spec, loop, trig), 1e200, N_ITERS),
        ("rho = inf", (map_spec, loop._replace(gain_k=-1e300), trig), 1e200,
         N_ITERS),
    ]


def _join(blocks):
    """The columns of a run's blocks, concatenated."""
    blocks = list(blocks)
    joined = type(blocks[0])(*(array(col.typecode) for col in blocks[0]))
    for block in blocks:
        for whole, part in zip(joined, block):
            whole.extend(part)
    return joined


def _split(columns, size):
    """(first row, block) of each block of size rows of the columns."""
    n = len(columns[0])
    return [(i, type(columns)(*(col[i:i + size] for col in columns)))
            for i in range(0, n, size)]


@pytest.mark.parametrize("name, specs, theta_hat0, n_iters", _cases())
def test_blocks_join_to_the_one_block_run(name, specs, theta_hat0, n_iters):
    traj, _ = run(*specs, theta_hat0, n_iters)
    avg = avg_run(*specs, theta_hat0 - specs[0].theta_star, n_iters)
    for size in _block_sizes(n_iters):
        blocks = list(run_blocks(*specs, theta_hat0, n_iters, size))
        assert [len(b.theta) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert 0 < len(blocks[-1].theta) <= size
        assert column_bytes(_join(blocks)) == column_bytes(traj.columns), size
        avg_blocks = avg_run_blocks(*specs, theta_hat0 - specs[0].theta_star,
                                    n_iters, size)
        assert column_bytes(_join(avg_blocks)) == column_bytes(avg.columns), size


def test_run_blocks_yield_256_rows_by_default():
    specs = reference_specs()
    for blocks in (run_blocks, avg_run_blocks):
        assert [len(b[0]) for b in blocks(*specs, 0.5, 600)] == \
            [_BLOCK_ROWS, _BLOCK_ROWS, 600 - 2 * _BLOCK_ROWS]


def test_bad_arguments_raise_at_the_call():
    specs = reference_specs()
    for blocks in (run_blocks, avg_run_blocks):
        for n_iters, size in ((0, _BLOCK_ROWS), (-1, _BLOCK_ROWS), (10, 0)):
            with pytest.raises(ValueError, match="n_iters >= 1"):
                blocks(*specs, 0.5, n_iters, size)  # no next() needed
    # omega * epsilon * k overflows from k = 2, and 10**400 - 1 has no float;
    # the averaged loop has no dither, so it steps these
    map_spec, loop, trig = specs
    fast = loop._replace(omega=1e308, epsilon=1.0)
    for loop_spec, n_iters in ((fast, 3), (loop, 10**400)):
        with pytest.raises(ValueError, match=r"^run requires a finite dither phase"):
            run_blocks(map_spec, loop_spec, trig, 0.5, n_iters)
        assert len(next(avg_run_blocks(map_spec, loop_spec, trig, 0.5, n_iters))[0])
    # the last row whose phase is finite runs
    assert len(next(run_blocks(map_spec, fast, trig, 0.5, 2))[0]) == 2


def _reports(specs, true_cols, avg_cols, size, offset=0.3):
    """Every report of a run's checks, fed blocks of size rows."""
    true_env = EnvelopeAccumulator(StepColumns, *specs, offset)
    avg_env = EnvelopeAccumulator(AvgColumns, *specs)
    decay = DecayAccumulator(*specs)
    events, avg_events = (EventAccumulator(specs[1].epsilon) for _ in range(2))
    for (i, block), (_, avg_block) in zip(_split(true_cols, size),
                                          _split(avg_cols, size)):
        true_env.feed(block)
        events.feed(event_ks(block.triggered, i))
        avg_env.feed(avg_block)
        decay.feed(lyapunov_values(avg_block.g_av))
        avg_events.feed(event_ks(avg_block.triggered, i))
    return [repr(r) for r in (true_env.report(), avg_env.report(),
                              decay.report(), events.stats(),
                              avg_events.stats())]


def _library_reports(specs, traj, log, avg, offset=0.3):
    return [repr(r) for r in (
        convergence_envelopes(traj, *specs, offset),
        convergence_envelopes(avg, *specs),
        check_decay(lyapunov_sequence(avg), *specs),
        event_statistics(log), event_statistics(avg.events))]


@pytest.mark.parametrize("name, specs, theta_hat0, n_iters", _cases())
def test_checks_fed_in_blocks_give_the_library_reports(name, specs, theta_hat0,
                                                       n_iters):
    traj, log = run(*specs, theta_hat0, n_iters)
    avg = avg_run(*specs, theta_hat0 - specs[0].theta_star, n_iters)
    expected = _library_reports(specs, traj, log, avg)
    for size in _block_sizes(n_iters):
        assert _reports(specs, traj.columns, avg.columns, size) == expected, size


def test_checks_fed_in_blocks_see_late_violations_and_edge_nans():
    # at offset_constant = 3.0 the reference true loop passes its envelopes,
    # and its averaged loop passes every check: corrupt both past the first
    # block, with NaN rows on either side of a block edge
    specs = reference_specs()
    traj, log = run(*specs, 0.5, N_ITERS)
    avg = avg_run(*specs, -2.5, N_ITERS)
    assert convergence_envelopes(traj, *specs, 3.0).passed
    cols = avg.columns
    cols.g_av[300] = 10.0
    cols.theta_tilde_av[_BLOCK_ROWS - 1] = math.nan
    cols.g_av[2 * _BLOCK_ROWS] = math.nan
    traj.columns.theta[_BLOCK_ROWS] = math.nan
    traj.columns.y[7 * 40 - 1] = math.nan
    env = convergence_envelopes(traj, *specs, 3.0)
    avg_env = convergence_envelopes(avg, *specs)
    decay = check_decay(lyapunov_sequence(avg), *specs)
    assert [c.first_violation_k for c in env.checks] == [_BLOCK_ROWS, 7 * 40 - 1]
    assert [c.first_violation_k for c in avg_env.checks] == [300, _BLOCK_ROWS - 1]
    assert decay.first_violation_k == 299
    expected = _library_reports(specs, traj, log, avg, 3.0)
    for size in _block_sizes(N_ITERS):
        assert _reports(specs, traj.columns, cols, size, 3.0) == expected, size


def test_rows_past_the_last_finite_power_are_checked_in_every_block():
    # rho ~ 1.0488 at gain 240: rho ** (k/2) overflows from k = 29_801 and
    # rho ** k from k = 14_901, inside a block of every size but 1 and the
    # whole run; a NaN row there fails against the inf bound
    specs = reference_specs()
    specs = (specs[0], specs[1]._replace(gain_k=240.0), specs[2])
    traj, log = run(*specs, 0.5, 40_000)
    avg = avg_run(*specs, -2.5, 40_000)
    rho = convergence_envelopes(avg, *specs).rho
    half_inf = next(k for k in range(40_000) if overflows(rho, 0.5 * k))
    full_inf = next(k for k in range(40_000) if overflows(rho, k))
    assert (half_inf, full_inf) == (29_801, 14_901)
    assert half_inf % 7 and half_inf % _BLOCK_ROWS
    traj.columns.theta[half_inf + 3] = math.nan
    expected = _library_reports(specs, traj, log, avg)
    theta_check = convergence_envelopes(traj, *specs, 0.3).checks[0]
    assert theta_check.first_violation_k == half_inf + 3
    for size in _block_sizes(40_000):
        assert _reports(specs, traj.columns, avg.columns, size) == expected, size


def _accumulator(name, specs):
    """One check that etseek run feeds: feed(i, block, avg_block) with the
    run's blocks whose first row is i, and the check's report()."""
    if name == "true envelopes":
        acc = EnvelopeAccumulator(StepColumns, *specs, 0.3)
        return lambda i, block, avg_block: acc.feed(block), acc.report
    if name == "average envelopes":
        acc = EnvelopeAccumulator(AvgColumns, *specs)
        return lambda i, block, avg_block: acc.feed(avg_block), acc.report
    if name == "decay":
        acc = DecayAccumulator(*specs)
        return (lambda i, block, avg_block:
                acc.feed(lyapunov_values(avg_block.g_av)), acc.report)
    acc = EventAccumulator(specs[1].epsilon)
    return (lambda i, block, avg_block:
            acc.feed(event_ks(block.triggered, i)), acc.stats)


@pytest.mark.parametrize("name", ["true envelopes", "average envelopes",
                                  "decay", "events"])
def test_a_zero_row_block_changes_no_report(name):
    # a zero-row block fed first holds no row 0: no envelope's scale and no
    # origin event; fed nothing else, a check reports as if never fed
    specs = _cases()[2][1]  # many fires: events with gaps
    traj, _ = run(*specs, 0.5, N_ITERS)
    avg = avg_run(*specs, 0.5 - specs[0].theta_star, N_ITERS)
    blocks = list(zip(_split(traj.columns, _BLOCK_ROWS),
                      (block for _, block in _split(avg.columns, _BLOCK_ROWS))))
    empty = tuple(cols._make(col[:0] for col in cols)
                  for cols in (traj.columns, avg.columns))

    def report(where=None):
        """The report of the run, with a zero-row block fed before block
        where, or after the last one if where is len(blocks)."""
        feed, report_of = _accumulator(name, specs)
        for at, ((i, block), avg_block) in enumerate(blocks):
            if at == where:
                feed(i, *empty)
            feed(i, block, avg_block)
        if where == len(blocks):
            feed(N_ITERS, *empty)
        return repr(report_of())

    expected = report()
    for where in range(len(blocks) + 1):
        assert report(where) == expected, where
    feed, report_of = _accumulator(name, specs)
    unfed = repr(report_of())
    feed(0, *empty)
    assert repr(report_of()) == unfed
