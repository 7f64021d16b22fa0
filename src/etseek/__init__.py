"""Event-triggered extremum seeking on a scalar quadratic map.

Simulates the discrete-time seeking loop with a static relative-error
trigger, its averaged counterpart, and the analysis checks (gradient
expansion, Lyapunov decay, convergence envelopes) that tie the two together.
Config files, experiment outputs and sweeps live in etseek.cli, which the
package does not import, so that `python -m etseek.cli` runs it fresh.
"""

from etseek.analysis import (
    DecayAccumulator,
    DecayReport,
    EnvelopeAccumulator,
    EnvelopeCheck,
    EnvelopeReport,
    EventAccumulator,
    EventStats,
    ExpansionTerms,
    check_decay,
    convergence_envelopes,
    decay_rate,
    event_statistics,
    gradient_expansion,
    lyapunov_sequence,
    lyapunov_values,
)
from etseek.average import (
    AvgRecord,
    AvgState,
    avg_run,
    avg_run_blocks,
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
    dither,
    eval_map,
    event_ks,
    initial_state,
    run,
    run_blocks,
    step,
)
from etseek.trigger import (
    AssumptionReport,
    TriggerSpec,
    contraction_increment,
    should_trigger,
    validate_assumption,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AvgRecord",
    "AvgState",
    "DecayAccumulator",
    "DecayReport",
    "EnvelopeAccumulator",
    "EnvelopeCheck",
    "EnvelopeReport",
    "EventAccumulator",
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
    "avg_run",
    "avg_run_blocks",
    "avg_step",
    "check_decay",
    "closed_form_between_events",
    "contraction_increment",
    "convergence_envelopes",
    "decay_rate",
    "dither",
    "eval_map",
    "event_ks",
    "event_statistics",
    "gradient_expansion",
    "initial_state",
    "lyapunov_sequence",
    "lyapunov_values",
    "min_inter_event_estimate",
    "run",
    "run_blocks",
    "should_trigger",
    "step",
    "validate_assumption",
    "__version__",
]
