"""Configuration parsing, experiment orchestration, and file outputs.

Configs are flat INI files with # comments and four sections: [map], [loop],
[trigger], [run]. Every run writes CSVs plus a plain-text report into its own
output directory; outputs are byte-deterministic for identical configs so
directories can be diffed or frozen as goldens. Data files are written in
blocks of 256 rows, each cell the repr of its float.
The report is rendered by one function from the run's RunResult.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
import threading
from bisect import bisect_left
from pathlib import Path
from typing import NamedTuple

from etseek import analysis, average, escore
from etseek.escore import LoopSpec, MapSpec
from etseek.trigger import AssumptionReport, TriggerSpec, validate_assumption

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

# Reference study values the golden report compares against, as report items.
_REFERENCE_EVENTS = (("reference_count", 19), ("reference_mean_gap_seconds", 9.47))
_REFERENCE_PARAMS = {
    "map.q_star": 2.0, "map.h_star": -0.7, "map.theta_star": 3.0,
    "loop.a": 0.1, "loop.omega": 7.0, "loop.epsilon": 0.18, "loop.k": -240.0,
    "trigger.sigma": 0.7, "trigger.alpha": 0.74,
    "run.theta_hat0": 0.5, "run.n_iters": 1000,
}


class ConfigError(ValueError):
    """Invalid configuration text, key set, value, or invariant."""


class ExperimentConfig(NamedTuple):
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


class RunResult(NamedTuple):
    """What a run wrote and found; report.txt is rendered from it. The
    fields of a loop that the run's mode does not run are None."""

    report_path: Path
    assumption: AssumptionReport
    trajectory_path: Path | None = None
    events_path: Path | None = None
    avg_trajectory_path: Path | None = None
    event_stats: analysis.EventStats | None = None
    avg_event_stats: analysis.EventStats | None = None
    decay: analysis.DecayReport | None = None
    envelopes: analysis.EnvelopeReport | None = None
    avg_envelopes: analysis.EnvelopeReport | None = None
    final_theta: float | None = None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text.

    Rejects unknown sections and keys, lists every missing required key at
    once, and names the offending key and constraint for bad values.
    """
    # default_section="" makes [DEFAULT] a plain, unknown section: no header
    # can name the empty section, so no keys are copied into every section
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    sections = {key.split(".")[0] for key in _FIELDS}
    # a section name that is blank or has surrounding blanks is shown quoted
    unknown = [s if s == s.strip() else repr(s)
               for s in parser.sections() if s not in sections]
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
# integers as str, fired flags and verdicts as 0/1. No cell this module writes
# contains a comma, a quote or a line break, so none needs quoting.
_FLAGS = ("0", "1")

# Rows of a data file formatted and written together. Small enough that a
# block's text stays a few tens of kilobytes, large enough that the per-block
# calls cost nothing next to repr.
_BLOCK_ROWS = 256

# Positions of the g_hat and u columns among the true loop's float columns.
_G_HAT, _U = map(escore.StepColumns._fields.index, ("gradient", "control"))


def _csv_blocks(floats, flags):
    """Rows k,floats...,flag of a data file, _BLOCK_ROWS rows at a time.

    Yields (first row, k text, each float column's text, the rows' lines).
    """
    n = len(flags)
    for i in range(0, n, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, n)
        k_text = list(map(str, range(i, j)))
        text = [list(map(repr, col[i:j])) for col in floats]
        yield i, k_text, text, "\n".join(map(",".join, zip(
            k_text, *text, map(_FLAGS.__getitem__, flags[i:j])))) + "\n"


def _write_true_loop(trajectory_path: Path, events_path: Path,
                     traj: escore.Trajectory, log: escore.EventLog):
    """Write trajectory.csv and events.csv, one block of _BLOCK_ROWS rows at a time.

    Event l happened at iteration k_l = log.ks[l] (the k = 0 seed event and
    every fired row), and escore.event_log took its gradient from that row,
    where escore.run held that gradient and its control from then on. So its
    g_hat_held and u_held cells are the g_hat and u text of trajectory row
    k_l, taken from the block that holds the row; no float is formatted
    twice.
    """
    cols, ks = traj.columns, log.ks
    with open(events_path, "w", newline="") as events_fh, \
            open(trajectory_path, "w", newline="") as traj_fh:
        events_fh.write("l,k_l,g_hat_held,u_held\n")
        traj_fh.write("k,theta_hat,theta,y,g_hat,e,u,triggered\n")
        first = 0  # index in ks of the first event at or after row i
        for i, k_text, text, lines in _csv_blocks(cols[:-1], cols.triggered):
            traj_fh.write(lines)
            g_hat, u = text[_G_HAT], text[_U]
            end = bisect_left(ks, i + len(k_text), first)
            events_fh.write("".join(
                f"{l},{k_text[k - i]},{g_hat[k - i]},{u[k - i]}\n"
                for l, k in enumerate(ks[first:end], first)))
            first = end


_WORDS = {None: "n/a", False: "false", True: "true"}


def _render(sections) -> list[str]:
    """Every line of report.txt and of `etseek check`, from (title, items) sections.

    A section opens with "# title". A text item reads "key: text"; any other
    item reads "key = value", with None as n/a, bools as false/true and
    everything else as repr (which for an int is its str).
    """
    lines = []
    for title, items in sections:
        lines.append(f"# {title}")
        for key, value in items:
            if isinstance(value, str):
                lines.append(f"{key}: {value}")
            elif value is None or isinstance(value, bool):
                lines.append(f"{key} = {_WORDS[value]}")
            else:
                lines.append(f"{key} = {value!r}")
    return lines


def _items(result, skip=()) -> list:
    """(name, value) of each field of a result NamedTuple, in field order."""
    return [item for item in zip(result._fields, result) if item[0] not in skip]


def _assumption_section(report: AssumptionReport):
    items = _items(report)
    if math.isnan(report.alpha_min):
        items.append(("note", "alpha bound undefined (|rho0| >= 1)"))
    elif not report.alpha_satisfies:
        items.append(("note", "alpha is below the minimal bound; "
                              "simulation proceeds anyway"))
    return "assumption check", items


def _envelope_items(report: analysis.EnvelopeReport) -> list:
    return [("rho", report.rho)] + [
        (check.name, "pass" if check.passed else
         f"FAIL first_violation_k={check.first_violation_k} "
         f"max_excess={check.max_excess!r}")
        for check in report.checks]


def _report(config: ExperimentConfig, result: RunResult) -> list:
    """report.txt of a run as (title, items) sections, in file order."""
    sections = [_assumption_section(result.assumption)]
    if result.event_stats is not None:
        events = _items(result.event_stats)
        if _REFERENCE_PARAMS.items() <= config.flat().items():
            events += _REFERENCE_EVENTS
        sections += [
            ("events: true loop", events),
            (f"envelopes: true loop (offset_constant = {config.offset_constant!r})",
             _envelope_items(result.envelopes))]
    if result.decay is not None:
        # where the decay check failed, and by how much, only when it did
        skip = ("first_violation_k", "max_excess") if result.decay.passed else ()
        sections += [
            ("events: average loop", _items(result.avg_event_stats)),
            ("decay: average loop", _items(result.decay, skip=skip)),
            ("envelopes: average loop", _envelope_items(result.avg_envelopes))]
    return sections


def _true_half(config: ExperimentConfig, out: Path) -> dict:
    """Run the true loop, write its CSV files; return its RunResult fields."""
    traj, log = escore.run(config.map_spec, config.loop_spec,
                           config.trigger_spec, config.theta_hat0,
                           config.n_iters)
    _write_true_loop(out / "trajectory.csv", out / "events.csv", traj, log)
    return dict(
        trajectory_path=out / "trajectory.csv", events_path=out / "events.csv",
        event_stats=analysis.event_statistics(log),
        envelopes=analysis.convergence_envelopes(
            traj, config.map_spec, config.loop_spec, config.trigger_spec,
            config.offset_constant),
        final_theta=traj.columns.theta[-1])


def _average_half(config: ExperimentConfig, out: Path) -> dict:
    """Run the averaged loop, write its CSV file; return its RunResult fields."""
    avg_traj = average.avg_run(
        config.map_spec, config.loop_spec, config.trigger_spec,
        config.theta_hat0 - config.map_spec.theta_star, config.n_iters)
    cols = avg_traj.columns
    with open(out / "avg_trajectory.csv", "w", newline="") as fh:
        fh.write("k,g_av,theta_tilde_av,e_av,triggered\n")
        fh.writelines(block[-1] for block in _csv_blocks(
            (cols.g_av, cols.theta_tilde_av, cols.error), cols.triggered))
    return dict(
        avg_trajectory_path=out / "avg_trajectory.csv",
        avg_event_stats=analysis.event_statistics(avg_traj.events),
        decay=analysis.check_decay(
            analysis.lyapunov_sequence(avg_traj), config.map_spec,
            config.loop_spec, config.trigger_spec),
        avg_envelopes=analysis.convergence_envelopes(
            avg_traj, config.map_spec, config.loop_spec, config.trigger_spec))


def _fork_call(fn, *args):
    """Start fn(*args) in a forked child; return wait(cancel=False) for its result.

    wait() returns what fn returned, or raises what it raised, once the
    child has ended and been reaped. wait(cancel=True) kills and reaps the
    child instead, for a caller that is failing itself. The child sends its
    outcome back pickled through a pipe and leaves with os._exit, so it
    runs no exit handlers and flushes no buffer it inherited. Where os.fork
    is missing, or other threads run (a forked copy of a threaded process
    can deadlock), nothing is started: wait() calls fn(*args) in-process.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return lambda cancel=False: None if cancel else fn(*args)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            import pickle
            try:
                data = pickle.dumps(outcome)
                pickle.loads(data)  # an exception type may not rebuild
            except Exception as exc:
                data = pickle.dumps((False, RuntimeError(
                    f"cannot send the outcome {outcome[1]!r} back: {exc}")))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")

    def wait(cancel=False):
        try:
            with reader:
                if cancel:
                    import signal
                    os.kill(pid, signal.SIGKILL)
                data = b"" if cancel else reader.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if cancel:
            return None
        if not data:
            raise RuntimeError(
                f"child process {pid} running {fn.__name__} ended without "
                f"a result (exit status {status})")
        import pickle
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    return wait


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run the configured experiment and write its output files.

    true-loop mode writes trajectory.csv and events.csv; average mode writes
    avg_trajectory.csv; both writes all three. report.txt, the assumption
    check plus each loop's statistics and checks, is written last, from the
    returned RunResult.

    The two loops are independent, so in both mode the averaged half runs
    in a forked child process, which sends its RunResult fields back, while
    this process runs the true half, where os.fork exists and no other
    thread runs; otherwise the halves run one after the other here. Either
    way the result is equal and the files are byte for byte the same, and
    an error from either half (OSError from an unusable output directory,
    say) propagates to the caller once the child is reaped.
    """
    out = Path(config.out_dir)
    os.makedirs(out, exist_ok=True)
    if config.mode == "true-loop":
        halves = _true_half(config, out)
    elif config.mode == "average":
        halves = _average_half(config, out)
    else:
        wait = _fork_call(_average_half, config, out)
        try:
            halves = _true_half(config, out)
        except BaseException:
            wait(cancel=True)
            raise
        halves |= wait()

    result = RunResult(
        report_path=out / "report.txt",
        assumption=validate_assumption(config.map_spec, config.loop_spec,
                                       config.trigger_spec),
        **halves)
    result.report_path.write_text("\n".join(_render(_report(config, result))) + "\n")
    return result


def sweep(config: ExperimentConfig, param: str, values) -> Path:
    """Run one experiment per value of a scalar config key.

    Each entry runs both loops in its own subdirectory of the configured
    output directory; summary.csv collects the true-loop event economy, the
    final input error, the average-loop decay verdict, and the entry's rho0.
    Each value, stripped of whitespace, names its entry directory. All are
    validated before anything runs; two that parse to one value are
    rejected, and so any two that name one directory.
    """
    if param not in SWEEPABLE:
        raise ConfigError(
            f"cannot sweep {param!r}; sweepable keys: " + ", ".join(SWEEPABLE))
    tokens = [str(value).strip() for value in values]
    if not tokens:
        raise ConfigError("sweep requires at least one value")

    base = config.flat() | {"run.mode": "both"}
    entries, tokens_of = [], {}  # entry configs; value: its token
    for token in tokens:
        try:
            entries.append(_build_config(base | {
                param: token, "run.out_dir": str(Path(config.out_dir) / token)}))
        except ConfigError as exc:
            raise ConfigError(f"{param} = {token}: {exc}") from exc
        value = entries[-1].flat()[param]
        if value in tokens_of:
            raise ConfigError(f"{param} = {token}: the same value as "
                              f"{param} = {tokens_of[value]}")
        tokens_of[value] = token

    rows = []
    for entry in entries:
        result = run_experiment(entry)
        final_error = abs(result.final_theta - entry.map_spec.theta_star)
        stats = result.event_stats
        mean_gap = stats.mean_gap_seconds
        rows.append((str(entry.flat()[param]), str(stats.count),
                     "nan" if mean_gap is None else repr(mean_gap),
                     repr(final_error), _FLAGS[result.decay.passed],
                     repr(result.assumption.rho0)))

    summary = Path(config.out_dir) / "summary.csv"
    summary.write_text(
        "value,event_count,mean_gap_seconds,final_theta_error,decay_pass,rho0\n"
        + "".join(",".join(row) + "\n" for row in rows), newline="")
    return summary


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only main parses a command line

    parser = argparse.ArgumentParser(
        prog="etseek",
        description="Event-triggered extremum seeking: simulate, average, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--mode", help="one of " + ", ".join(MODES))
    run_p.add_argument("--out")
    run_p.add_argument("--iters")

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
                            [v for v in args.values.split(",") if v.strip()])
            print(f"wrote {summary}")
        else:
            # the report's assumption section, without its heading
            print(*_render([_assumption_section(validate_assumption(
                config.map_spec, config.loop_spec, config.trigger_spec))])[1:],
                sep="\n")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
