"""Columnar trajectories and their on-demand row views.

Trajectory and AvgTrajectory hold one column per recorded value; records is
a read-only sequence that builds a StepRecord or AvgRecord only for the row
asked for. These tests pin the sequence behaviour the old tuple of records
had, and the column-length invariant.
"""

from dataclasses import replace

import pytest

from etseek import AvgRecord, AvgTrajectory, StepRecord, Trajectory, avg_run, run
from helpers import REFERENCE_THETA_HAT0, reference_specs


def _true_run(n, **trigger_changes):
    map_spec, loop, trig = reference_specs()
    traj, _ = run(map_spec, loop, replace(trig, **trigger_changes),
                  REFERENCE_THETA_HAT0, n)
    return traj


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
