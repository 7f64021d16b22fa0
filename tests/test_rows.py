"""Columnar trajectories, the columnar event log, and their on-demand row views.

Trajectory and AvgTrajectory hold one column per recorded value; records is
a read-only sequence that builds a StepRecord or AvgRecord only for the row
asked for. EventLog holds the (ks, gradients) event columns; entries builds
an EventEntry the same way. These tests pin the sequence behaviour the old
tuples of records and entries had, and the column invariants.
"""

import math
from array import array
from dataclasses import replace

import pytest

from etseek import (AvgRecord, AvgTrajectory, EventEntry, EventLog, StepRecord,
                    Trajectory, avg_run, run)
from helpers import REFERENCE_THETA_HAT0, reference_specs


def _true_run(n, **trigger_changes):
    return _true_run_and_log(n, **trigger_changes)[0]


def _true_run_and_log(n, **trigger_changes):
    map_spec, loop, trig = reference_specs()
    return run(map_spec, loop, replace(trig, **trigger_changes),
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


def test_row_views_compare_by_value():
    assert _true_run(300).records == _true_run(300).records
    assert _avg_run(300).records == _avg_run(300).records
    assert _true_run(300).records != _true_run(301).records
    assert _true_run(300).records != _true_run(300, alpha=2.0).records
    assert _avg_run(5).records != _true_run(5).records


def test_trajectories_reject_columns_of_unequal_length():
    traj = _true_run(20)
    cols = traj.columns
    with pytest.raises(ValueError, match="Trajectory columns must have equal lengths"):
        Trajectory(columns=cols._replace(y=cols.y[:-1]), map_spec=traj.map_spec,
                   loop_spec=traj.loop_spec, trigger_spec=traj.trigger_spec)
    avg = _avg_run(20)
    acols = avg.columns
    with pytest.raises(ValueError, match="AvgTrajectory columns must have equal lengths"):
        AvgTrajectory(columns=acols._replace(triggered=acols.triggered[1:]),
                      events=avg.events, map_spec=avg.map_spec,
                      loop_spec=avg.loop_spec, trigger_spec=avg.trigger_spec)


def _event_log(ks, gradients=None, gain_k=-240.0):
    gradients = [0.5 * k for k in ks] if gradients is None else gradients
    return EventLog(ks=array("q", ks), gradients=array("d", gradients),
                    gain_k=gain_k, horizon=100, epsilon=0.18)


def test_event_log_rejects_bad_columns():
    with pytest.raises(ValueError, match="^EventLog must contain the initial event$"):
        _event_log([])
    with pytest.raises(ValueError, match="^EventLog must start at k = 0$"):
        _event_log([5, 10])
    for ks in ([0, 7, 7], [0, 7, 3], [0, 0]):
        with pytest.raises(ValueError,
                           match="^EventLog iterations must be strictly increasing$"):
            _event_log(ks)
    with pytest.raises(ValueError, match="^EventLog columns must have equal lengths$"):
        _event_log([0, 3], gradients=[0.1])
    assert len(_event_log([0]).entries) == 1


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


def test_event_logs_of_identical_runs_compare_equal():
    traj, log = _true_run_and_log(300, alpha=2.0)
    _, again = _true_run_and_log(300, alpha=2.0)
    assert len(log.entries) > 2
    assert log == again and log.entries == again.entries
    assert log != _true_run_and_log(301, alpha=2.0)[1]  # another horizon
    assert log.entries != _true_run_and_log(300)[1].entries
    assert (_event_log([0, 3]).entries
            != _event_log([0, 3], gain_k=-20.0).entries)
    # each entry holds what the trajectory applied from its instant on
    for entry in log.entries:
        row = traj.records[entry.k]
        assert (entry.gradient, entry.control) == (row.gradient, row.control)



def _with_cell(traj, name, k, value):
    col = array("d", getattr(traj.columns, name))
    col[k] = value
    return replace(traj, columns=traj.columns._replace(**{name: col}))


def test_columns_compare_by_their_bits():
    # 0.0 and -0.0 are == but write different CSV cells; a NaN is not == to
    # itself but writes the same cell every time
    zero, negative_zero = _event_log([0], [0.0]), _event_log([0], [-0.0])
    assert zero != negative_zero
    assert zero.entries != negative_zero.entries
    assert zero == _event_log([0], [0.0])
    assert _event_log([0], [math.nan]) == _event_log([0], [math.nan])
    assert zero != replace(zero, ks=array("l", [0]))  # same values, other typecode
    for traj, name in ((_true_run(20), "gradient"), (_avg_run(20), "theta_tilde_av")):
        a = _with_cell(traj, name, 7, 0.0)
        b = _with_cell(traj, name, 7, -0.0)
        assert a != b and a.records != b.records
        assert a == _with_cell(traj, name, 7, 0.0)
        assert a.records == _with_cell(traj, name, 7, 0.0).records
