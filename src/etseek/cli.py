"""Configuration parsing, experiment orchestration, and file outputs.

Configs are flat INI files with # comments and four sections: [map], [loop],
[trigger], [run]. Every run writes CSVs plus a plain-text report into its own
output directory; outputs are byte-deterministic for identical configs so
directories can be diffed or frozen as goldens. A run is stepped, written
and checked in blocks of 256 rows, each data cell the repr of its float, so
its memory does not grow with the horizon.
The report is rendered by one function from the run's RunResult.
"""

from __future__ import annotations

import configparser
import math
import os
import sys
import threading
from functools import cache
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from etseek import analysis, average, escore
from etseek.escore import LoopSpec, MapSpec
from etseek.trigger import AssumptionReport, TriggerSpec, checked, validate_assumption

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


@checked
class ExperimentConfig(NamedTuple):
    """A run's specs and run-level values. However one is made, it checks them
    and raises ConfigError, naming the key, on the first rule broken."""

    map_spec: MapSpec
    loop_spec: LoopSpec
    trigger_spec: TriggerSpec
    theta_hat0: float
    n_iters: int
    mode: str
    offset_constant: float
    out_dir: str

    def _check(self):
        if not math.isfinite(self.theta_hat0):
            raise ConfigError("run.theta_hat0 must be finite")
        if self.n_iters < 1:
            raise ConfigError("run.n_iters must be >= 1")
        if self.mode not in MODES:
            raise ConfigError("run.mode must be one of " + ", ".join(MODES))
        if not 0 <= self.offset_constant < math.inf:
            raise ConfigError("run.offset_constant must be finite and >= 0")
        if not self.out_dir:  # Path("") is the working directory
            raise ConfigError("run.out_dir must not be empty")
        if self.mode != "average" and not escore.finite_phase(
                self.loop_spec, self.n_iters):
            raise ConfigError("the dither phase loop.omega * loop.epsilon * "
                              "(run.n_iters - 1) must be finite")

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
    """The checked ExperimentConfig of configuration text; raises ConfigError
    naming each unknown or missing key, or the first invalid value."""
    return _build_config(_read_values(text))


def _read_values(text: str) -> dict:
    """Each dotted key of configuration text mapped to its raw text; rejects
    unknown sections and keys. _build_config lists missing ones after merging."""
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
    return values


def _convert(key, raw):
    if key in _TEXT_KEYS:
        return raw
    cast, kind = (int, "an integer") if key == "run.n_iters" else (float, "a number")
    try:
        return cast(raw)
    except (ValueError, OverflowError):
        raise ConfigError(f"{key}: could not parse {raw!r} as {kind}") from None


def _build_config(values) -> ExperimentConfig:
    """ExperimentConfig from a flat mapping of dotted keys to values: text,
    or values of an existing config; omitted optional keys get defaults. A
    caller merges all of a config's values first (a file's text and a
    command's options; a sweep's base and one token), so each is checked
    once. It lists every missing required key, then converts and assembles:
    the constructors check every value; a spec's error names its config key."""
    values = _DEFAULTS | values
    missing = [key for key in _FIELDS if key not in values]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    parsed = {key: _convert(key, raw) for key, raw in values.items()}
    parts = {name: parsed[key] for key, (owner, name) in _FIELDS.items() if not owner}
    for part, spec_type in _SPECS.items():
        keys = {name: key for key, (owner, name) in _FIELDS.items() if owner == part}
        try:
            parts[part] = spec_type(**{name: parsed[key] for name, key in keys.items()})
        except ValueError as exc:
            message = str(exc)
            for name, key in keys.items():
                message = message.replace(f"{spec_type.__name__}.{name} ", f"{key} ")
            raise ConfigError(message) from None
    return ExperimentConfig(**parts)


# How None, False and True read in report.txt and in CSV files; any other value
# reads as its repr (shortest round trip for a float, also nan, inf and -0.0).
# The golden summary.csv pins nan where report.txt pins n/a. No cell written
# here contains a comma, a quote or a line break, so none needs quoting.
_REPORT_WORDS = {None: "n/a", False: "false", True: "true"}
_CSV_WORDS = {None: "nan", False: "0", True: "1"}


def _cell(value, words) -> str:
    """The text of one report value or CSV cell, by the file's words."""
    return words[value] if value is None or isinstance(value, bool) else repr(value)


# Positions of the g_hat and u columns among the true loop's float columns.
_G_HAT, _U = map(escore.StepColumns._fields.index, ("gradient", "control"))


def _write_rows(fh, start, floats, flags):
    """Write rows start, start + 1, ... of a data file: k, floats..., flag.

    floats are the rows' float columns. A 0/1 flag is looked up in the CSV
    words directly, at a third of _cell's cost per row. Returns the k text
    and each float column's text, so that a caller can write some cells again.
    """
    k_text = list(map(str, range(start, start + len(flags))))
    text = [list(map(repr, col)) for col in floats]
    fh.write("\n".join(map(",".join, zip(
        k_text, *text, map(_CSV_WORDS.__getitem__, flags)))) + "\n")
    return k_text, text


def _render(sections) -> list[str]:
    """Every line of report.txt and of `etseek check`, from (title, items) sections.

    A section opens with "# title". A text item reads "key: text"; any other
    item reads "key = value", the value's cell by the report's words.
    """
    lines = []
    for title, items in sections:
        lines.append(f"# {title}")
        lines += [f"{key}: {value}" if isinstance(value, str)
                  else f"{key} = {_cell(value, _REPORT_WORDS)}"
                  for key, value in items]
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
    """Run the true loop, write its CSV files; return its RunResult fields.

    Each block of rows is written and checked as soon as it is stepped, so
    memory does not grow with n_iters. Event l happened at iteration k_l
    (the k = 0 seed event and every fired row), where the loop held row
    k_l's gradient and control from then on. So its g_hat_held and u_held
    cells are the g_hat and u text of trajectory row k_l, taken from the
    block that holds the row; no float is formatted twice.
    """
    specs = config.map_spec, config.loop_spec, config.trigger_spec
    blocks = escore.run_blocks(*specs, config.theta_hat0, config.n_iters)
    events = analysis.EventAccumulator(config.loop_spec.epsilon)
    envelopes = analysis.EnvelopeAccumulator(escore.StepColumns, *specs,
                                             config.offset_constant)
    with open(out / "events.csv", "w", newline="") as events_fh, \
            open(out / "trajectory.csv", "w", newline="") as traj_fh:
        events_fh.write("l,k_l,g_hat_held,u_held\n")
        traj_fh.write("k,theta_hat,theta,y,g_hat,e,u,triggered\n")
        i = 0  # the block's first row
        for block in blocks:
            k_text, text = _write_rows(traj_fh, i, block[:-1], block.triggered)
            g_hat, u = text[_G_HAT], text[_U]
            ks = list(escore.event_ks(block.triggered, i))
            events_fh.write("".join(
                f"{l},{k_text[k - i]},{g_hat[k - i]},{u[k - i]}\n"
                for l, k in enumerate(ks, events.count)))
            events.feed(ks)
            envelopes.feed(block)
            i += len(k_text)
    return dict(
        trajectory_path=out / "trajectory.csv", events_path=out / "events.csv",
        event_stats=events.stats(), envelopes=envelopes.report(),
        final_theta=block.theta[-1])


def _average_half(config: ExperimentConfig, out: Path) -> dict:
    """Run the averaged loop, write its CSV file; return its RunResult fields.

    As in _true_half, each block is written and checked as it is stepped.
    """
    specs = config.map_spec, config.loop_spec, config.trigger_spec
    blocks = average.avg_run_blocks(
        *specs, config.theta_hat0 - config.map_spec.theta_star, config.n_iters)
    events = analysis.EventAccumulator(config.loop_spec.epsilon)
    decay = analysis.DecayAccumulator(*specs)
    envelopes = analysis.EnvelopeAccumulator(average.AvgColumns, *specs)
    with open(out / "avg_trajectory.csv", "w", newline="") as fh:
        fh.write("k,g_av,theta_tilde_av,e_av,triggered\n")
        i = 0
        for block in blocks:
            _write_rows(fh, i, block[:-1], block.triggered)
            events.feed(escore.event_ks(block.triggered, i))
            decay.feed(analysis.lyapunov_values(block.g_av))
            envelopes.feed(block)
            i += len(block.triggered)
    return dict(
        avg_trajectory_path=out / "avg_trajectory.csv",
        avg_event_stats=events.stats(), decay=decay.report(),
        avg_envelopes=envelopes.report())


def _fork_call(fn, *args):
    """Start fn(*args) in a forked child; return wait(cancel=False) for its result.

    wait() returns what fn returned, or raises what it raised, once the
    child has ended and been reaped. wait(cancel=True) kills and reaps the
    child instead, for a caller that is failing itself. The child sends its
    outcome back pickled through a pipe and leaves with os._exit, so it
    runs no exit handlers and flushes no buffer it inherited. Where os.fork
    is missing or fails, or other threads run (a forked copy of a threaded
    process can deadlock), no child runs: wait() calls fn(*args) in-process.
    """
    pid = None
    if hasattr(os, "fork") and threading.active_count() == 1:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process id or memory left: EAGAIN, ENOMEM
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        return lambda cancel=False: None if cancel else fn(*args)
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
        stats = result.event_stats
        rows.append(",".join(map(_cell, (
            entry.flat()[param], stats.count, stats.mean_gap_seconds,
            abs(result.final_theta - entry.map_spec.theta_star),
            result.decay.passed, result.assumption.rho0), repeat(_CSV_WORDS))))

    summary = Path(config.out_dir) / "summary.csv"
    summary.write_text(
        "value,event_count,mean_gap_seconds,final_theta_error,decay_pass,rho0\n"
        + "".join(row + "\n" for row in rows), newline="")
    return summary


@cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only main parses a command line

    parser = argparse.ArgumentParser(
        prog="etseek",
        description="Event-triggered extremum seeking: simulate, average, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    # an option that sets a config key stores its text under that key
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--mode", dest="run.mode", metavar="MODE",
                       help="one of " + ", ".join(MODES))
    run_p.add_argument("--out", dest="run.out_dir", metavar="OUT")
    run_p.add_argument("--iters", dest="run.n_iters", metavar="ITERS")

    sweep_p = sub.add_parser("sweep", help="run one experiment per parameter value")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values")
    sweep_p.add_argument("--out", dest="run.out_dir", metavar="OUT", required=True)

    check_p = sub.add_parser("check", help="print the assumption report")
    check_p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        config = _build_config(_read_values(text) | {
            key: value for key, value in vars(args).items()
            if key in _FIELDS and value is not None})
        if args.command == "run":
            result = run_experiment(config)
            for path in (result.trajectory_path, result.events_path,
                         result.avg_trajectory_path, result.report_path):
                if path is not None:
                    print(f"wrote {path}")
        elif args.command == "sweep":
            summary = sweep(config, args.param,
                            [v for v in args.values.split(",") if v.strip()])
            print(f"wrote {summary}")
        else:
            # the report's assumption section, without its heading
            print(*_render([_assumption_section(validate_assumption(
                config.map_spec, config.loop_spec, config.trigger_spec))])[1:],
                sep="\n")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
