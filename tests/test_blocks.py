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
import random
from array import array
from fractions import Fraction
from itertools import cycle, islice

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
from etseek.analysis import _Envelope
from etseek.average import AvgColumns
from etseek.escore import _BLOCK_ROWS, StepColumns
from helpers import (
    column_bytes,
    finite_true_runs,
    float_bits,
    overflows,
    reference_specs,
)

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


# --- The envelope floor ---------------------------------------------------------
#
# _Envelope skips the power of rho on a row whose |x - center| minus a floor
# is at most the worst excess so far; the floor is offset, which every bound
# is at least where rho >= 0 and the scale is in [0, inf), and -inf
# elsewhere. The reference below is the check without it: every row pays its
# power. The skip must give the very first_violation_k, passed and
# max_excess bits, also after a first violation, when worst is no longer 0.

def _bound(envelope, scale, k):
    """Row k's bound, as the check without a floor computes it."""
    exponent = envelope.step * k
    if overflows(envelope.rho, exponent):
        return math.inf
    return envelope.rho ** exponent * scale + envelope.offset


def _row_by_row(envelope, column):
    """(first_violation_k, max_excess) of the column, row by row."""
    center = envelope.center
    scale = envelope.factor * abs(column[0] - center) if column else None
    first, worst = None, 0.0
    for k, x in enumerate(column):
        excess = abs(x - center) - _bound(envelope, scale, k)
        if not excess <= 0.0:
            if first is None:
                first = k
            if excess > worst:
                worst = excess
    return first, worst


_SIZES = (0, 1, 63, 64, 65, 256)


def _feeds(n):
    """Block sizes that feed n rows: one block, and each rotation of _SIZES
    repeated, so that blocks start at many different rows of the column."""
    yield [n]
    for turn in range(len(_SIZES)):
        sizes, fed = [], 0
        for size in islice(cycle(_SIZES), turn, None):
            if fed >= n:
                break
            sizes.append(min(size, n - fed))
            fed += sizes[-1]
        yield sizes


def _floored(envelope_args, column, sizes):
    envelope = _Envelope(*envelope_args)
    start = 0
    for size in sizes:
        envelope.feed(column[start:start + size], start)
        start += size
    check = envelope.check()
    return check.first_violation_k, check.passed, float_bits(check.max_excess)


def _expected(envelope_args, column):
    first, worst = _row_by_row(_Envelope(*envelope_args), column)
    return first, first is None, float_bits(worst)


# (name, center, step, factor, offset, rho), x[0], rows: each case puts some
# rule of the floor to the test
_FLOOR_CASES = [
    ("rho < 1", (0.0, 0.5, 1.0, 0.3, 0.9), 1.7, 300),
    ("rho < 1, slow", (0.0, 1.0, 2.0, 1e-12, 1.0 - 1e-7), -0.4, 300),
    ("rho near 1, off center", (2.5, 0.5, 1.0, 0.3, 0.9999), 3.1, 200),
    ("offset 0", (0.0, 1.0, 2.0, 0.0, 0.8), 5.0, 300),
    ("rho == 1", (0.0, 0.5, 1.0, 0.3, 1.0), 2.0, 200),
    ("rho > 1", (0.0, 1.0, 2.0, 0.09, 1.01), 0.5, 300),
    ("rho > 1, inf_from inside a chunk", (0.0, 1.0, 1.0, 0.3, 1e10), 0.5, 100),
    ("rho > 1, inf_from at row 617", (0.0, 0.5, 1.0, 0.3, 10.0), 0.5, 640),
    ("rho = inf", (0.0, 0.5, 1.0, 0.3, math.inf), 0.5, 100),
    ("rho = NaN", (0.0, 0.5, 1.0, 0.3, math.nan), 0.5, 100),
    ("power underflows", (0.0, 1.0, 1.0, 0.3, 1e-3), 0.5, 200),
    ("power underflows, offset 0", (0.0, 1.0, 1.0, 0.0, 1e-3), 0.5, 200),
    ("scale 0, power underflows", (0.0, 1.0, 2.0, 0.3, 1e-3), 0.0, 200),
    ("scale inf, power underflows", (0.0, 1.0, 2.0, 0.3, 1e-3), 1e308, 200),
    ("scale NaN, power underflows", (0.0, 1.0, 2.0, 0.3, 1e-3), math.nan, 200),
    ("scale inf, x[0] inf", (0.0, 0.5, 1.0, 0.3, 0.9), math.inf, 100),
    ("negative scale", (0.0, 0.5, -1.0, 0.3, 0.9), 1.0, 200),
    ("bound overflows, rho > 1", (0.0, 1.0, 1.0, 0.3, 4.0), 1e300, 300),
    ("bound overflows, rho < 1", (0.0, 0.5, 1.0, 1e308, 0.99), 1e308, 200),
    # row 1's bound is 0.5 and every later bound is offset, an ulp under 0.5
    ("offset + worst rounds up", (0.0, 1.0, 1.0, 0.5 - 2.0 ** -54, 2.0 ** -10),
     2.0 ** -44, 200),
]


def _base_column(rng, envelope, x0, n):
    """x[0] and n - 1 rows that each meet their bound: at it, an ulp under
    it, well under it, or a zero of either sign. A row whose bound is not
    finite gets a finite value at most offset, so that a floor of offset
    would skip it."""
    column = array("d", [x0])
    scale = envelope.factor * abs(x0 - envelope.center)
    for k in range(1, n):
        bound = _bound(envelope, scale, k)
        if math.isfinite(bound) and bound >= 0.0:
            d = rng.choice((bound, math.nextafter(bound, -math.inf),
                            bound * rng.random(), 0.0))
        else:
            d = rng.choice((0.0, envelope.offset * rng.random(), envelope.offset))
        x = rng.choice((-0.0, 0.0)) if d == 0.0 else rng.choice((d, -d))
        column.append(envelope.center + x)
    return column


def _violations(rng, envelope, column):
    """Each row that can fail its bound, put into copies of the column at
    both ends of every 64 rows, on block edges, on both sides of inf_from
    and at random rows."""
    n = len(column)
    scale = envelope.factor * abs(column[0] - envelope.center)
    inf_from = envelope.inf_from
    rows = {1, 2, n - 1, inf_from - 1, inf_from, *rng.sample(range(1, n), 4)}
    for edge in range(64, n, 64):
        rows.update({edge - 2, edge - 1, edge, edge + 1})
    for k in sorted(r for r in rows if 0 < r < n):
        bound = _bound(envelope, scale, k)
        over = [math.nan, math.inf, -math.inf]
        if math.isfinite(bound):
            over += [math.nextafter(bound, math.inf), bound * (1.0 + rng.random())]
        for value in over:
            bad = array("d", column)
            bad[k] = envelope.center + value
            yield bad


def _several_violations(rng, envelope, column):
    """Copies of the column that fail at several rows, the first of them
    past row n // 3: with excesses that rise, fall and rise again; with NaN
    and infinite rows after a first finite violation; and with a first
    violation whose excess, added to offset, rounds up, then a row at that
    rounded sum where the bound is offset. A finite excess over a bound of
    at least offset is a whole number of offset's ulps, so only such a sum
    across a power of two rounds."""
    n = len(column)
    center, offset = envelope.center, envelope.offset
    scale = envelope.factor * abs(column[0] - center)
    bounds = [_bound(envelope, scale, k) for k in range(n)]
    finite = [k for k in range(n // 3, n)
              if math.isfinite(bounds[k]) and bounds[k] >= 0.0]
    if len(finite) >= 6:
        rows = sorted(rng.sample(finite, 6))
        unit = 0.25 * max(bounds[k] for k in rows) or 1e-300
        for excesses in ((1.0, 3.0, 2.0, 5.0, 4.0, 6.0),
                         (1.0, math.nan, 2.0, math.inf, -math.inf, 3.0)):
            bad = array("d", column)
            for k, excess in zip(rows, excesses):
                bad[k] = center + (bounds[k] + excess * unit
                                   if math.isfinite(excess) else excess)
            yield bad
    k = next((k for k in range(1, n) if offset < bounds[k] < math.inf), n)
    later = [j for j in range(k + 1, n) if bounds[j] == offset]
    if not later:
        return
    d = bounds[k]
    for _ in range(8):
        d = math.nextafter(d, math.inf)
        worst = d - bounds[k]  # exact: d is within 8 ulps of the bound
        if Fraction(offset + worst) > Fraction(offset) + Fraction(worst):
            bad = array("d", column)
            bad[k] = center + d
            bad[rng.choice(later)] = center + (offset + worst)
            yield bad
            break


@pytest.mark.parametrize("name, envelope_args, x0, n", _FLOOR_CASES,
                         ids=[case[0] for case in _FLOOR_CASES])
def test_the_envelope_floor_moves_no_verdict_and_no_bit(name, envelope_args,
                                                          x0, n):
    args = (name, *envelope_args)
    rng = random.Random(f"floor:{name}")
    base = _base_column(rng, _Envelope(*args), x0, n)
    copies = [*_violations(rng, _Envelope(*args), base),
              *_several_violations(rng, _Envelope(*args), base)]
    failed = 0
    for column in (base, *copies):
        expected = _expected(args, column)
        failed += expected[0] is not None
        for sizes in _feeds(n):
            assert _floored(args, column, sizes) == expected, (column, sizes)
    # each copy fails at its row, or earlier; off center, x - center rounds
    assert failed >= len(copies) if envelope_args[0] == 0.0 else failed > 20


def test_envelope_accumulators_match_the_row_by_row_check():
    runs = [(specs, theta_hat0, n_iters)
            for _, specs, theta_hat0, n_iters in _cases()]
    runs += [(specs, traj.columns.theta_hat[0], len(traj))
             for specs, traj, _ in finite_true_runs(seed=405, count=8,
                                                   n_iters=300)]
    for specs, theta_hat0, n_iters in runs:
        traj, _ = run(*specs, theta_hat0, n_iters)
        avg = avg_run(*specs, theta_hat0 - specs[0].theta_star, n_iters)
        for columns in (traj.columns, avg.columns):
            for sizes in _feeds(n_iters):
                acc = EnvelopeAccumulator(type(columns), *specs, 0.3)
                start = 0
                for size in sizes:
                    acc.feed(type(columns)(*(col[start:start + size]
                                             for col in columns)))
                    start += size
                for envelope, check in zip(acc.envelopes, acc.report().checks):
                    first, worst = _row_by_row(envelope,
                                               getattr(columns, check.name))
                    assert (check.first_violation_k, check.passed,
                            float_bits(check.max_excess)) == \
                        (first, first is None, float_bits(worst)), sizes
