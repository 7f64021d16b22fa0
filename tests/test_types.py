"""The package's value types are NamedTuples.

MapSpec, LoopSpec, TriggerSpec, Trajectory, AvgTrajectory and EventLog
check their values whenever one is made: by the constructor, by _make and
so by _replace, and by unpickling, which is how a forked `--mode both` run
sends its averaged half back. These tests pin that each path raises the
constructor's ValueError, and that results survive a pickle round trip.
"""

import math
import pickle
from array import array

import pytest

from etseek import analysis, avg_run, run
from helpers import REFERENCE_THETA_HAT0, reference_specs


def _rejected_changes():
    """(a valid value, field changes its constructor rejects, the message)."""
    map_spec, loop, trig = reference_specs()
    traj, log = run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 20)
    avg = avg_run(map_spec, loop, trig, -2.5, 20)
    cols, acols = traj.columns, avg.columns
    return [
        (map_spec, {"h_star": 0.0}, "MapSpec.h_star must be nonzero"),
        (map_spec, {"q_star": math.nan}, "MapSpec.q_star must be finite"),
        (loop, {"epsilon": 0.0}, "LoopSpec.epsilon must be > 0"),
        (loop, {"omega": math.inf}, "LoopSpec.omega must be finite"),
        (trig, {"sigma": 1.0}, r"TriggerSpec.sigma must lie in \(0,1\)"),
        (trig, {"alpha": math.nan}, "TriggerSpec.alpha must be finite"),
        (traj, {"columns": cols._replace(y=cols.y[:-1])},
         "Trajectory columns must have equal lengths"),
        (traj, {"columns": cols._make(col[:0] for col in cols)},
         "Trajectory must have at least one row"),
        (avg, {"columns": acols._replace(error=acols.error[1:])},
         "AvgTrajectory columns must have equal lengths"),
        (log, {"ks": array("q", [3])}, "EventLog must start at k = 0"),
        (log, {"ks": array("q"), "gradients": array("d")},
         "EventLog must contain the initial event"),
    ]


_CASES = _rejected_changes()


@pytest.mark.parametrize("value, changes, message", _CASES, ids=[
    f"{type(value).__name__}.{'+'.join(changes)}" for value, changes, _ in _CASES])
def test_every_construction_path_runs_the_checks(value, changes, message):
    cls = type(value)
    fields = value._asdict() | changes
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        value._replace(**changes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls._make(fields.values())
    # an instance made around the checks is still refused when unpickled
    unchecked = tuple.__new__(cls, fields.values())
    with pytest.raises(ValueError, match=f"^{message}$"):
        pickle.loads(pickle.dumps(unchecked))


def test_results_survive_a_pickle_round_trip():
    map_spec, loop, trig = reference_specs()
    traj, log = run(map_spec, loop, trig._replace(alpha=2.0),
                    REFERENCE_THETA_HAT0, 300)
    envelopes = analysis.convergence_envelopes(traj, map_spec, loop, trig, 0.3)
    assert len(log.ks) > 2 and not envelopes.passed
    for value in (map_spec, loop, trig, log, envelopes):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        assert copy == value and not copy != value
        assert repr(copy) == repr(value)
