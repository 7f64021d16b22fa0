"""Event-triggered extremum seeking on a scalar quadratic map.

Simulates the discrete-time seeking loop with a static relative-error
trigger, its averaged counterpart, and the analysis checks (gradient
expansion, Lyapunov decay, convergence envelopes) that tie the two together.
Config files, experiment outputs and sweeps live in etseek.cli, which the
package does not import, so that `python -m etseek.cli` runs it fresh.
"""

from etseek.analysis import (
    DecayReport,
    EnvelopeCheck,
    EnvelopeReport,
    EventStats,
    ExpansionTerms,
    check_decay,
    convergence_envelopes,
    decay_rate,
    event_statistics,
    gradient_expansion,
    lyapunov_sequence,
    truncated_gradient,
)
from etseek.average import (
    AvgRecord,
    AvgState,
    AvgTrajectory,
    ZenoEstimate,
    avg_run,
    avg_step,
    closed_form_between_events,
    min_inter_event_estimate,
)
from etseek.escore import (
    EventEntry,
    EventLog,
    LoopSpec,
    MapSpec,
    SimState,
    StepRecord,
    Trajectory,
    demodulate,
    dither,
    eval_map,
    initial_state,
    integrate,
    run,
    step,
)
from etseek.trigger import (
    AssumptionReport,
    TriggerSpec,
    contraction_increment,
    measurement_error,
    should_trigger,
    validate_assumption,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AvgRecord",
    "AvgState",
    "AvgTrajectory",
    "DecayReport",
    "EnvelopeCheck",
    "EnvelopeReport",
    "EventEntry",
    "EventLog",
    "EventStats",
    "ExpansionTerms",
    "LoopSpec",
    "MapSpec",
    "SimState",
    "StepRecord",
    "Trajectory",
    "TriggerSpec",
    "ZenoEstimate",
    "avg_run",
    "avg_step",
    "check_decay",
    "closed_form_between_events",
    "contraction_increment",
    "convergence_envelopes",
    "decay_rate",
    "demodulate",
    "dither",
    "eval_map",
    "event_statistics",
    "gradient_expansion",
    "initial_state",
    "integrate",
    "lyapunov_sequence",
    "measurement_error",
    "min_inter_event_estimate",
    "run",
    "should_trigger",
    "step",
    "truncated_gradient",
    "validate_assumption",
    "__version__",
]
