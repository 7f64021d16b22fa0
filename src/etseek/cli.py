"""Configuration parsing, experiment orchestration, and file outputs.

Configs are flat INI files with # comments and four sections: [map], [loop],
[trigger], [run]. Every run writes CSVs plus a plain-text report into its own
output directory; outputs are byte-deterministic for identical configs so
directories can be diffed or frozen as goldens.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from etseek import analysis, average, escore
from etseek.escore import LoopSpec, MapSpec
from etseek.trigger import TriggerSpec, validate_assumption

MODES = ("true-loop", "average", "both")

# Every config key in file order, and where ExperimentConfig holds its value:
# (spec attribute, field of that spec), or (None, field) for run-level keys.
_FIELDS = {
    "map.q_star": ("map_spec", "q_star"),
    "map.h_star": ("map_spec", "h_star"),
    "map.theta_star": ("map_spec", "theta_star"),
    "loop.a": ("loop_spec", "amplitude_a"),
    "loop.omega": ("loop_spec", "omega"),
    "loop.epsilon": ("loop_spec", "epsilon"),
    "loop.k": ("loop_spec", "gain_k"),
    "trigger.sigma": ("trigger_spec", "sigma"),
    "trigger.alpha": ("trigger_spec", "alpha"),
    "run.theta_hat0": (None, "theta_hat0"),
    "run.n_iters": (None, "n_iters"),
    "run.mode": (None, "mode"),
    "run.offset_constant": (None, "offset_constant"),
    "run.out_dir": (None, "out_dir"),
}
_SPECS = {"map_spec": MapSpec, "loop_spec": LoopSpec, "trigger_spec": TriggerSpec}
_DEFAULTS = {"run.mode": "true-loop", "run.offset_constant": 0.3, "run.out_dir": "out"}
_TEXT_KEYS = ("run.mode", "run.out_dir")

SWEEPABLE = tuple(key for key in _FIELDS if key not in _TEXT_KEYS)

# Reference study values the golden report compares against.
_REFERENCE_EVENT_COUNT = 19
_REFERENCE_MEAN_GAP_SECONDS = 9.47
_REFERENCE_PARAMS = {
    "map.q_star": 2.0, "map.h_star": -0.7, "map.theta_star": 3.0,
    "loop.a": 0.1, "loop.omega": 7.0, "loop.epsilon": 0.18, "loop.k": -240.0,
    "trigger.sigma": 0.7, "trigger.alpha": 0.74,
    "run.theta_hat0": 0.5, "run.n_iters": 1000,
}


class ConfigError(ValueError):
    """Invalid configuration text, key set, value, or invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    map_spec: MapSpec
    loop_spec: LoopSpec
    trigger_spec: TriggerSpec
    theta_hat0: float
    n_iters: int
    mode: str
    offset_constant: float
    out_dir: str

    def flat(self) -> dict:
        """Every dotted config key mapped to its value in this config."""
        return {key: getattr(getattr(self, part) if part else self, name)
                for key, (part, name) in _FIELDS.items()}


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    report_path: Path
    trajectory_path: Path | None
    events_path: Path | None
    avg_trajectory_path: Path | None
    event_stats: analysis.EventStats | None
    avg_event_stats: analysis.EventStats | None
    decay: analysis.DecayReport | None
    final_theta: float | None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text.

    Rejects unknown sections and keys, lists every missing required key at
    once, and names the offending key and constraint for bad values.
    """
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    sections = {key.split(".")[0] for key in _FIELDS}
    unknown = [s for s in parser.sections() if s not in sections]
    values = {f"{section}.{key}": raw
              for section in parser.sections() if section in sections
              for key, raw in parser[section].items()}
    unknown += [key for key in values if key not in _FIELDS]
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(sorted(unknown)))

    missing = [key for key in _FIELDS
               if key not in values and key not in _DEFAULTS]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    return _build_config(values)


def _convert(key, raw):
    if key in _TEXT_KEYS:
        return raw
    cast, kind = (int, "an integer") if key == "run.n_iters" else (float, "a number")
    try:
        return cast(raw)
    except (ValueError, OverflowError):
        raise ConfigError(f"{key}: could not parse {raw!r} as {kind}") from None


def _build_config(values) -> ExperimentConfig:
    """ExperimentConfig from a flat mapping of dotted keys to values.

    The one validation path for config files, command-line overrides and
    sweep entries. Values are text, or values taken from an existing config;
    omitted optional keys get their defaults. The spec constructors check
    the spec invariants and their errors come back naming the config key;
    only the run-level keys are checked here.
    """
    parsed = {key: _convert(key, raw) for key, raw in (_DEFAULTS | values).items()}
    parts = {}
    for part, spec_type in _SPECS.items():
        keys = {name: key for key, (owner, name) in _FIELDS.items() if owner == part}
        try:
            parts[part] = spec_type(**{name: parsed[key] for name, key in keys.items()})
        except ValueError as exc:
            message = str(exc)
            for name, key in keys.items():
                message = message.replace(f"{spec_type.__name__}.{name} ", f"{key} ")
            raise ConfigError(message) from None
    run = {name: parsed[key] for key, (owner, name) in _FIELDS.items() if owner is None}

    problems = []
    if not math.isfinite(run["theta_hat0"]):
        problems.append("run.theta_hat0 must be finite")
    if run["n_iters"] < 1:
        problems.append("run.n_iters must be >= 1")
    if run["mode"] not in MODES:
        problems.append("run.mode must be one of " + ", ".join(MODES))
    if not 0 <= run["offset_constant"] < math.inf:
        problems.append("run.offset_constant must be finite and >= 0")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(**parts, **run)


# CSV cell text: floats as repr (shortest round trip, also nan, inf and -0.0),
# integers as str, fired flags and verdicts as 0/1.
_FLAGS = ("0", "1")


def _float_cells(col):
    """repr of each value of an array('d'), formatting each run of repeats once.

    A cell reuses the previous cell's text while the value's bits repeat.
    The test is on the bits, not ==, because -0.0 == 0.0 but their text
    differs; a repeated nan has one text, so it is reused as well.
    """
    prev = text = None
    for value, bits in zip(col, memoryview(col).cast("B").cast("Q")):
        if bits != prev:
            prev = bits
            text = repr(value)
        yield text


def _write_csv(path: Path, header, rows):
    """Write a header line, then one comma-joined line per row of text cells.

    rows is consumed lazily, one line at a time, so no column of text is
    ever held whole. Float cells come from _float_cells, which formats a
    value once per run of bitwise repeats; trajectory.csv passes its rows
    through _passing_events, which writes events.csv in the same pass. No
    cell this module writes contains a comma, a quote or a line break, so
    none needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in map(",".join, rows))


def _write_true_loop(trajectory_path: Path, events_path: Path,
                     traj: escore.Trajectory, log: escore.EventLog):
    """Write trajectory.csv and events.csv in one pass over the trajectory rows.

    Event l happened at iteration k_l = log.ks[l] (the k = 0 seed event and
    every fired row), and the kernel held that row's gradient and control
    from then on. So its g_hat_held and u_held cells are the g_hat and u
    text of trajectory row k_l, written to events.csv as that row passes;
    no float is formatted twice, and no column of text is kept.
    """
    cols = traj.columns
    rows = zip(map(str, range(len(traj))), *map(_float_cells, cols[:-1]),
               map(_FLAGS.__getitem__, cols.triggered))
    with open(events_path, "w", newline="") as events_fh:
        events_fh.write("l,k_l,g_hat_held,u_held\n")
        _write_csv(
            trajectory_path,
            ("k", "theta_hat", "theta", "y", "g_hat", "e", "u", "triggered"),
            _passing_events(rows, log.ks, events_fh.write))


def _passing_events(rows, ks, write):
    """Yield the trajectory rows unchanged; write the event line of each row in ks."""
    events = enumerate(ks)
    l, k_l = next(events)
    for k, row in enumerate(rows):
        if k == k_l:
            k_text, _, _, _, g_hat, _, u, _ = row
            write(f"{l},{k_text},{g_hat},{u}\n")
            l, k_l = next(events, (None, None))
        yield row


def _stats_lines(title: str, stats: analysis.EventStats) -> list[str]:
    def cell(v):
        return "n/a" if v is None else str(v)

    return [
        f"# events: {title}",
        f"count = {stats.count}",
        f"mean_gap_iters = {cell(stats.mean_gap_iters)}",
        f"mean_gap_seconds = {cell(stats.mean_gap_seconds)}",
        f"min_gap_iters = {cell(stats.min_gap_iters)}",
        f"max_gap_iters = {cell(stats.max_gap_iters)}",
    ]


def _envelope_lines(title: str, report: analysis.EnvelopeReport) -> list[str]:
    lines = [f"# envelopes: {title}", f"rho = {report.rho!r}"]
    for check in report.checks:
        if check.passed:
            lines.append(f"{check.name}: pass")
        else:
            lines.append(
                f"{check.name}: FAIL first_violation_k={check.first_violation_k} "
                f"max_excess={check.max_excess!r}")
    return lines


def _is_reference_config(config: ExperimentConfig) -> bool:
    values = config.flat()
    return all(values[key] == value for key, value in _REFERENCE_PARAMS.items())


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the configured experiment and write its output files.

    true-loop mode writes trajectory.csv and events.csv; average mode writes
    avg_trajectory.csv; both writes all three. report.txt always carries the
    assumption check plus the per-loop statistics and envelope/decay checks.
    OSError from an unusable output directory propagates to the caller.
    """
    out = Path(config.out_dir)
    os.makedirs(out, exist_ok=True)
    report_lines = ["# assumption check"]
    report_lines += validate_assumption(
        config.map_spec, config.loop_spec, config.trigger_spec).lines()

    trajectory_path = events_path = avg_path = final_theta = None
    event_stats = avg_event_stats = decay = None

    if config.mode in ("true-loop", "both"):
        traj, log = escore.run(config.map_spec, config.loop_spec,
                               config.trigger_spec, config.theta_hat0,
                               config.n_iters)
        final_theta = traj.columns.theta[-1]
        trajectory_path = out / "trajectory.csv"
        events_path = out / "events.csv"
        _write_true_loop(trajectory_path, events_path, traj, log)
        event_stats = analysis.event_statistics(log)
        report_lines += _stats_lines("true loop", event_stats)
        if _is_reference_config(config):
            report_lines.append(f"reference_count = {_REFERENCE_EVENT_COUNT}")
            report_lines.append(
                f"reference_mean_gap_seconds = {_REFERENCE_MEAN_GAP_SECONDS!r}")
        report_lines += _envelope_lines(
            f"true loop (offset_constant = {config.offset_constant!r})",
            analysis.convergence_envelopes(traj, config.map_spec,
                                           config.loop_spec,
                                           config.trigger_spec,
                                           config.offset_constant))

    if config.mode in ("average", "both"):
        avg_traj = average.avg_run(
            config.map_spec, config.loop_spec, config.trigger_spec,
            config.theta_hat0 - config.map_spec.theta_star, config.n_iters)
        avg_path = out / "avg_trajectory.csv"
        avg_cols = avg_traj.columns
        _write_csv(
            avg_path,
            ("k", "g_av", "theta_tilde_av", "e_av", "triggered"),
            zip(map(str, range(len(avg_traj))),
                *map(_float_cells, (avg_cols.g_av, avg_cols.theta_tilde_av,
                                    avg_cols.error)),
                map(_FLAGS.__getitem__, avg_cols.triggered)))
        avg_event_stats = analysis.event_statistics(avg_traj.events)
        report_lines += _stats_lines("average loop", avg_event_stats)
        decay = analysis.check_decay(
            analysis.lyapunov_sequence(avg_traj), config.map_spec,
            config.loop_spec, config.trigger_spec)
        report_lines += [
            "# decay: average loop",
            f"rho = {decay.rho!r}",
            f"checked = {decay.checked}",
            f"passed = {'true' if decay.passed else 'false'}",
        ]
        if not decay.passed:
            report_lines.append(
                f"first_violation_k = {decay.first_violation_k}")
            report_lines.append(f"max_excess = {decay.max_excess!r}")
        report_lines += _envelope_lines(
            "average loop",
            analysis.convergence_envelopes(avg_traj, config.map_spec,
                                           config.loop_spec,
                                           config.trigger_spec))

    report_path = out / "report.txt"
    report_path.write_text("\n".join(report_lines) + "\n")
    return RunResult(out_dir=out, report_path=report_path,
                     trajectory_path=trajectory_path, events_path=events_path,
                     avg_trajectory_path=avg_path, event_stats=event_stats,
                     avg_event_stats=avg_event_stats, decay=decay,
                     final_theta=final_theta)


def sweep(config: ExperimentConfig, param: str, values) -> Path:
    """Run one experiment per value of a scalar config key.

    Each entry runs both loops in its own subdirectory of the configured
    output directory; summary.csv collects the true-loop event economy, the
    final input error, the average-loop decay verdict, and the entry's rho0.
    All values are validated before anything runs.
    """
    if param not in SWEEPABLE:
        raise ConfigError(
            f"cannot sweep {param!r}; sweepable keys: " + ", ".join(SWEEPABLE))
    tokens = list(values)
    if not tokens:
        raise ConfigError("sweep requires at least one value")

    base = config.flat() | {"run.mode": "both"}
    entries = []
    for token in tokens:
        out_dir = str(Path(config.out_dir) / str(token))
        try:
            entries.append(_build_config(
                base | {param: token, "run.out_dir": out_dir}))
        except ConfigError as exc:
            raise ConfigError(f"{param} = {token}: {exc}") from exc

    rows = []
    for entry in entries:
        result = run_experiment(entry)
        final_error = abs(result.final_theta - entry.map_spec.theta_star)
        stats = result.event_stats
        rho0 = validate_assumption(entry.map_spec, entry.loop_spec,
                                   entry.trigger_spec).rho0
        mean_gap = stats.mean_gap_seconds
        rows.append((str(entry.flat()[param]), str(stats.count),
                     "nan" if mean_gap is None else repr(mean_gap),
                     repr(final_error), _FLAGS[result.decay.passed],
                     repr(rho0)))

    summary = Path(config.out_dir) / "summary.csv"
    _write_csv(
        summary,
        ("value", "event_count", "mean_gap_seconds", "final_theta_error",
         "decay_pass", "rho0"),
        rows)
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etseek",
        description="Event-triggered extremum seeking: simulate, average, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--out")
    run_p.add_argument("--iters", type=int)

    sweep_p = sub.add_parser("sweep", help="run one experiment per parameter value")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values")
    sweep_p.add_argument("--out", required=True)

    check_p = sub.add_parser("check", help="print the assumption report")
    check_p.add_argument("--config", required=True)
    return parser


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "run":
            overrides = {"run.mode": args.mode, "run.n_iters": args.iters,
                         "run.out_dir": args.out}
            config = _build_config(config.flat() | {
                key: value for key, value in overrides.items()
                if value is not None})
            result = run_experiment(config)
            for path in (result.trajectory_path, result.events_path,
                         result.avg_trajectory_path, result.report_path):
                if path is not None:
                    print(f"wrote {path}")
        elif args.command == "sweep":
            config = _build_config(config.flat() | {"run.out_dir": args.out})
            summary = sweep(config, args.param,
                            [v for v in args.values.split(",") if v != ""])
            print(f"wrote {summary}")
        else:
            report = validate_assumption(config.map_spec, config.loop_spec,
                                         config.trigger_spec)
            for line in report.lines():
                print(line)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
