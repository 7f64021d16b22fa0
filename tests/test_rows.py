"""Columnar trajectories, the columnar event log, and their on-demand row views.

A Trajectory of either loop holds one column per recorded value and the
run's EventLog; records is a read-only sequence that builds a row of the
columns' record type, StepRecord or AvgRecord, only for the row asked for.
EventLog holds the (ks, gradients) event columns, which escore.event_log
reads off a run's gradient and fired columns; entries builds an EventEntry
the same way. These tests pin that records and entries behave as read-only
sequences (indexing, slicing, iteration, len), that each trajectory carries
the events of its own columns, and the reads the benchmark under perfbench/
makes of them; test_types.py pins the column invariants. Trajectories and
logs compare as the tuples of arrays they are.
"""

import math
from array import array

import pytest

from etseek import (AvgRecord, EventEntry, EventLog, StepRecord, average,
                    avg_run, escore, run)
from etseek.escore import event_log
from helpers import REFERENCE_THETA_HAT0, column_bytes, reference_specs


def _true_run(n, **trigger_changes):
    return _true_run_and_log(n, **trigger_changes)[0]


def _true_run_and_log(n, **trigger_changes):
    map_spec, loop, trig = reference_specs()
    return run(map_spec, loop, trig._replace(**trigger_changes),
               REFERENCE_THETA_HAT0, n)


def _avg_run(n):
    return avg_run(*reference_specs(), -2.5, n)


def test_row_view_indexing_slicing_iteration_and_len():
    for traj, record_type in ((_true_run(40, alpha=2.0), StepRecord),
                              (_avg_run(40), AvgRecord)):
        rows = traj.records
        listed = list(rows)
        assert len(rows) == len(traj) == len(listed) == 40
        assert all(type(r) is record_type for r in listed)
        assert [r.k for r in listed] == list(range(40))
        for k in (0, 1, 17, 39):
            assert rows[k] == listed[k]
            assert rows[k - 40] == listed[k]
        for bad in (40, 41, -41, 10**9):
            with pytest.raises(IndexError):
                rows[bad]
        with pytest.raises(TypeError):
            rows[1.0]
        assert rows[5:9] == tuple(listed[5:9])
        assert rows[-3:] == tuple(listed[-3:])
        assert rows[::-7] == tuple(listed[::-7])
        assert rows[50:] == ()
        assert list(reversed(rows)) == listed[::-1]
        assert listed[3] in rows


def test_row_view_fields_read_the_columns():
    traj = _true_run(30, alpha=2.0)
    cols = traj.columns
    fired = [r.k for r in traj.records if r.triggered]
    assert fired and fired == [k for k, f in enumerate(cols.triggered) if f]
    for r in traj.records:
        assert r.triggered is bool(cols.triggered[r.k])
        assert (r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control) == \
            tuple(col[r.k] for col in cols[:-1])


def test_benchmark_reads_of_the_library():
    # the reads perfbench/worker.py (_fingerprint, _library_rows) and
    # perfbench/tracer.py (_count_true_run, _count_avg_run) make of a run:
    # the row layer's whole contract, which the benchmark cannot follow if
    # it changes
    map_spec, loop, trig = reference_specs()
    map_spec = map_spec._replace(q_star=0.0)  # fires on many rows
    loop = loop._replace(gain_k=-20.0)
    trig = trig._replace(alpha=0.9)
    traj, log = escore.run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 500)
    avg = average.avg_run(map_spec, loop, trig, -2.5, 500)
    cols, acols = traj.columns, avg.columns
    assert len(traj) == len(avg) == 500
    assert traj.records[-1].theta_hat == cols.theta_hat[-1]
    assert avg.records[-1].g_av == acols.g_av[-1]
    rows = [(r.k, r.theta_hat, r.theta, r.y, r.gradient, r.error, r.control,
             r.triggered) for r in traj.records]
    assert StepRecord._fields == ("k", "theta_hat", "theta", "y", "gradient",
                                  "error", "control", "triggered")
    assert rows == [(k, *cells[:-1], bool(cells[-1]))
                    for k, cells in enumerate(zip(*cols))]
    assert all(type(row[-1]) is bool for row in rows)
    assert sum(row[-1] for row in rows) > 300
    avg_rows = [(r.k, r.g_av, r.theta_tilde_av, r.error, r.triggered)
                for r in avg.records]
    assert avg_rows == [(k, *cells[:-1], bool(cells[-1]))
                        for k, cells in enumerate(zip(*acols))]
    assert all(type(row[-1]) is bool for row in avg_rows)
    events = [(e.index, e.k, e.gradient, e.control) for e in log.entries]
    assert len(log.entries) == len(events) == 1 + sum(cols.triggered)
    for index, (l, k, gradient, control) in enumerate(events):
        assert (l, k, gradient) == (index, log.ks[index], cols.gradient[k])
        assert control == -loop.gain_k * gradient == cols.control[k]


def _event_log(ks, gradients=None, gain_k=-240.0):
    gradients = [0.5 * k for k in ks] if gradients is None else gradients
    return EventLog(ks=array("q", ks), gradients=array("d", gradients),
                    gain_k=gain_k, epsilon=0.18)


def _log_bytes(log):
    return column_bytes((log.ks, log.gradients))


def test_event_log_entries_are_built_on_demand_from_the_columns():
    log = _event_log([0, 3, 4, 9], gradients=[0.1, -0.0, 2.5, -1e300])
    entries = log.entries
    listed = list(entries)
    assert listed == [EventEntry(index=l, k=k, gradient=g, control=240.0 * g)
                      for l, (k, g) in enumerate(zip(log.ks, log.gradients))]
    assert len(entries) == 4
    assert entries[0] == listed[0] and entries[-1] == listed[3]
    assert entries[-4] == listed[0]
    assert entries[1:3] == tuple(listed[1:3])
    assert entries[::-1] == tuple(reversed(listed))
    assert entries[9:] == ()
    for bad in (4, -5):
        with pytest.raises(IndexError):
            entries[bad]
    assert repr(entries[1].control) == "-0.0"  # 240.0 * -0.0
    assert len(_event_log([0]).entries) == 1  # the origin alone is a valid log


def test_event_logs_of_identical_runs_compare_equal():
    traj, log = _true_run_and_log(300, alpha=2.0)
    _, again = _true_run_and_log(300, alpha=2.0)
    assert len(log.entries) > 2
    assert _log_bytes(log) == _log_bytes(again)
    assert list(log.entries) == list(again.entries)
    assert list(log.entries) != list(_true_run_and_log(300)[1].entries)
    assert (list(_event_log([0, 3]).entries)
            != list(_event_log([0, 3], gain_k=-20.0).entries))
    # each entry holds what the trajectory applied from its instant on
    for entry in log.entries:
        row = traj.records[entry.k]
        assert (entry.gradient, entry.control) == (row.gradient, row.control)


def test_both_loops_carry_the_events_of_their_columns():
    map_spec, loop, trig = reference_specs()
    trig = trig._replace(alpha=2.0)
    traj, log = run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 300)
    avg = avg_run(map_spec, loop, trig, -2.5, 300)
    assert log is traj.events
    for t, gradient in ((traj, traj.columns.gradient), (avg, avg.columns.g_av)):
        assert len(t.events.ks) > 2
        assert _log_bytes(t.events) == _log_bytes(
            event_log(loop, gradient, t.columns.triggered))
        assert (t.events.gain_k, t.events.epsilon) == (loop.gain_k, loop.epsilon)


def _derived_log(gradient, fired):
    return event_log(reference_specs()[1], array("d", gradient),
                     array("b", fired))


def test_event_log_is_the_seed_then_every_fired_row():
    loop = reference_specs()[1]
    log = _derived_log([1.5, 2.0, -3.0], [0, 0, 0])
    assert (list(log.ks), list(log.gradients)) == ([0], [1.5])
    # a fire on the last row is logged, each event holding its own row's value
    log = _derived_log([1.5, 2.0, -3.0, 4.0, 5.0], [0, 1, 0, 0, 1])
    assert list(log.ks) == [0, 1, 4]
    assert list(log.gradients) == [1.5, 2.0, 5.0]
    assert (log.ks.typecode, log.gradients.typecode) == ("q", "d")
    assert (log.gain_k, log.epsilon) == (loop.gain_k, loop.epsilon)
    # row 0 seeds the hold and cannot fire; a column claiming it did would
    # log k = 0 twice, which EventLog refuses
    with pytest.raises(ValueError, match="strictly increasing"):
        _derived_log([1.0, 2.0], [1, 0])


def test_event_log_keeps_the_bits_of_the_gradient_cells():
    negative_nan = -math.nan
    assert math.copysign(1.0, negative_nan) == -1.0
    gradient = array("d", [-0.0, 1.0, math.nan, 0.0, negative_nan])
    log = _derived_log(gradient, [0, 0, 1, 0, 1])
    assert list(log.ks) == [0, 2, 4]
    assert log.gradients.tobytes() == (
        gradient[0:1] + gradient[2:3] + gradient[4:5]).tobytes()
    assert math.copysign(1.0, log.gradients[0]) == -1.0


def _with_cell(traj, name, k, value):
    col = array("d", getattr(traj.columns, name))
    col[k] = value
    return traj._replace(columns=traj.columns._replace(**{name: col}))


def test_trajectories_and_logs_compare_as_tuples_of_arrays():
    # arrays compare cell by cell with ==: 0.0 equals -0.0 although their
    # CSV cells differ, and a NaN cell equals no other NaN; column_bytes
    # tells both apart
    zero, negative_zero = _event_log([0], [0.0]), _event_log([0], [-0.0])
    assert zero == negative_zero
    assert _log_bytes(zero) != _log_bytes(negative_zero)
    nan, other_nan = _event_log([0], [math.nan]), _event_log([0], [math.nan])
    assert nan != other_nan and _log_bytes(nan) == _log_bytes(other_nan)
    for traj, name in ((_true_run(20), "gradient"),
                       (_avg_run(20), "theta_tilde_av")):
        a = _with_cell(traj, name, 7, 0.0)
        b = _with_cell(traj, name, 7, -0.0)
        assert a == b and a != _with_cell(traj, name, 7, 1.0)
        assert column_bytes(a.columns) != column_bytes(b.columns)
        assert (_with_cell(traj, name, 7, math.nan)
                != _with_cell(traj, name, 7, math.nan))
