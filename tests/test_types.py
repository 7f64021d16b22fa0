"""The package's value types are NamedTuples.

MapSpec, LoopSpec, TriggerSpec, Trajectory (over either loop's columns),
EventLog and the CLI's ExperimentConfig check their values whenever one is
made: by the constructor, by _make and so by _replace, and by unpickling.
These tests pin that each path raises the constructor's ValueError (a
config's ConfigError is one), and that results survive a pickle round trip.
A forked `--mode both` run sends its averaged half back pickled, but as
EventStats, DecayReport, EnvelopeReport and a Path, none of them checked.
"""

import math
import pickle
from array import array

import pytest

from etseek import analysis, avg_run, run
from etseek.cli import parse_config
from helpers import REFERENCE_CFG, REFERENCE_THETA_HAT0, reference_specs


def _case(value, changes, message, tag=""):
    """One rejected change, named by its type and changed fields, plus a tag
    that tells it from an earlier case that changes the same fields."""
    return pytest.param(value, changes, message,
                        id=f"{type(value).__name__}.{'+'.join(changes)}{tag}")


def _rejected_changes():
    """(a valid value, field changes its constructor rejects, the message)."""
    map_spec, loop, trig = reference_specs()
    traj, log = run(map_spec, loop, trig, REFERENCE_THETA_HAT0, 20)
    avg = avg_run(map_spec, loop, trig, -2.5, 20)
    cols, acols = traj.columns, avg.columns
    config = parse_config(REFERENCE_CFG.read_text())
    nan, inf = math.nan, math.inf
    return [
        _case(map_spec, {"h_star": 0.0}, "MapSpec.h_star must be nonzero"),
        _case(map_spec, {"q_star": nan}, "MapSpec.q_star must be finite"),
        *(_case(map_spec, {"q_star": bad}, "MapSpec.q_star must be finite", f"={bad!r}")
          for bad in (inf, -inf)),
        *(_case(map_spec, {"theta_star": bad}, "MapSpec.theta_star must be finite",
                f"={bad!r}") for bad in (nan, inf, -inf)),
        _case(loop, {"amplitude_a": 0.0}, "LoopSpec.amplitude_a must be > 0", "=0.0"),
        _case(loop, {"epsilon": 0.0}, "LoopSpec.epsilon must be > 0"),
        _case(loop, {"omega": inf}, "LoopSpec.omega must be finite"),
        *(_case(loop, {"omega": bad}, "LoopSpec.omega must be finite", f"={bad!r}")
          for bad in (nan, -inf)),
        _case(loop, {"omega": -1.0}, "LoopSpec.omega must be > 0", "=-1.0"),
        _case(loop, {"gain_k": 0.0}, "LoopSpec.gain_k must be nonzero", "=0.0"),
        *(_case(loop, {"gain_k": bad}, "LoopSpec.gain_k must be finite", f"={bad!r}")
          for bad in (nan, inf, -inf)),
        _case(trig, {"sigma": 1.0}, r"TriggerSpec.sigma must lie in \(0,1\)"),
        *(_case(trig, {"sigma": bad}, r"TriggerSpec.sigma must lie in \(0,1\)",
                f"={bad!r}") for bad in (0.0, nan, inf, -inf)),
        _case(trig, {"alpha": nan}, "TriggerSpec.alpha must be finite"),
        *(_case(trig, {"alpha": bad}, "TriggerSpec.alpha must be finite", f"={bad!r}")
          for bad in (inf, -inf)),
        _case(trig, {"alpha": 0.0}, "TriggerSpec.alpha must be > 0", "=0.0"),
        _case(traj, {"columns": cols._replace(y=cols.y[:-1])},
              "Trajectory columns must have equal lengths"),
        # zero rows: no first row to read an envelope's initial magnitude from
        _case(traj, {"columns": cols._make(col[:0] for col in cols)},
              "Trajectory must have at least one row"),
        _case(avg, {"columns": acols._replace(error=acols.error[1:])},
              "Trajectory columns must have equal lengths", "-averaged"),
        _case(avg, {"columns": acols._replace(triggered=acols.triggered[1:])},
              "Trajectory columns must have equal lengths", "-averaged-triggered"),
        _case(avg, {"columns": acols._make(col[:0] for col in acols)},
              "Trajectory must have at least one row", "-averaged-empty"),
        _case(log, {"ks": array("q", [3])}, "EventLog must start at k = 0"),
        _case(log, {"ks": array("q"), "gradients": array("d")},
              "EventLog must contain the initial event"),
        _case(log, {"ks": array("q", [0, 3]), "gradients": array("d", [0.1])},
              "EventLog columns must have equal lengths", "-unequal"),
        *(_case(log, {"ks": array("q", ks), "gradients": array("d", [0.5] * len(ks))},
                "EventLog iterations must be strictly increasing",
                "=" + ",".join(map(str, ks)))
          for ks in ([0, 7, 7], [0, 7, 3], [0, 0])),
        *(_case(config, {"theta_hat0": bad}, "run.theta_hat0 must be finite",
                f"={bad!r}") for bad in (nan, inf)),
        _case(config, {"n_iters": 0}, "run.n_iters must be >= 1"),
        _case(config, {"mode": "averaged"},
              "run.mode must be one of true-loop, average, both"),
        *(_case(config, {"offset_constant": bad},
                "run.offset_constant must be finite and >= 0", f"={bad!r}")
          for bad in (-1.0, inf)),
        # Path("") would be the working directory
        _case(config, {"out_dir": ""}, "run.out_dir must not be empty"),
        # omega * epsilon * k overflows from k = 2 of the 1000 rows
        _case(config, {"loop_spec": loop._replace(omega=1e308, epsilon=1.0)},
              r"the dither phase loop.omega \* loop.epsilon \* "
              r"\(run.n_iters - 1\) must be finite"),
    ]


_CASES = _rejected_changes()


@pytest.mark.parametrize("value, changes, message", _CASES)
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
