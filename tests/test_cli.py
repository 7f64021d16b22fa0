"""Config parsing, experiment outputs, sweeps, exit codes, golden files."""

import csv
import errno
import io
import math
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from etseek import (
    AvgRecord,
    EventEntry,
    StepRecord,
    analysis,
    avg_run,
    check_decay,
    escore,
    event_statistics,
    lyapunov_sequence,
    validate_assumption,
)
from etseek import cli
from etseek.cli import (_REFERENCE_PARAMS, MODES, ConfigError, _write_rows,
                        main, parse_config, run_experiment, sweep)
from etseek.escore import _BLOCK_ROWS
from helpers import (
    REFERENCE_CFG,
    REFERENCE_N_ITERS,
    REFERENCE_THETA_HAT0,
    draw_specs,
    reference_specs,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "reference"


def _src_env():
    """The environment with PYTHONPATH naming this tree's src, so a
    subprocess imports the etseek under test."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, "PYTHONPATH": str(src)}


MINIMAL = """\
[map]
q_star = 2.0
h_star = -0.7
theta_star = 3.0
[loop]
a = 0.1
omega = 7.0
epsilon = 0.18
k = -240.0
[trigger]
sigma = 0.7
alpha = 0.74
[run]
theta_hat0 = 0.5
n_iters = 1000
"""


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


def test_bundled_reference_config_parses_to_reference_set():
    # the reference set is written down once, in cli._REFERENCE_PARAMS; the
    # bundled config states exactly it, plus the optional run keys
    flat = parse_config(REFERENCE_CFG.read_text()).flat()
    assert {key: flat.pop(key) for key in _REFERENCE_PARAMS} == _REFERENCE_PARAMS
    assert flat == {"run.mode": "both", "run.offset_constant": 0.3,
                    "run.out_dir": "out"}


def test_minimal_config_gets_defaults():
    config = parse_config(MINIMAL)
    assert config.mode == "true-loop"
    assert config.offset_constant == 0.3
    assert config.out_dir == "out"


def test_inline_and_full_line_comments_are_stripped():
    text = "# leading comment\n" + MINIMAL.replace(
        "sigma = 0.7", "sigma = 0.7  # relative threshold")
    assert parse_config(text).trigger_spec.sigma == 0.7


def test_empty_config_lists_every_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    message = str(err.value)
    assert message.startswith("missing required keys: ")
    for key in ("map.q_star", "map.h_star", "map.theta_star", "loop.a",
                "loop.omega", "loop.epsilon", "loop.k", "trigger.sigma",
                "trigger.alpha", "run.theta_hat0", "run.n_iters"):
        assert key in message


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigError, match="unknown keys: map.bogus"):
        parse_config(MINIMAL.replace("[loop]", "bogus = 1\n[loop]"))
    with pytest.raises(ConfigError, match="unknown keys: extras"):
        parse_config(MINIMAL + "[extras]\nfoo = 1\n")
    # [DEFAULT] is a section like any other: its keys are not copied into
    # every section, and an empty one is not accepted silently
    for default in ("[DEFAULT]\nalpha = 0.9\n", "[DEFAULT]\n"):
        with pytest.raises(ConfigError, match="^unknown keys: DEFAULT$"):
            parse_config(default + MINIMAL)


def test_blank_section_names_are_shown_quoted():
    # a blank header, or one with surrounding blanks, names its section by
    # repr: otherwise the message would show nothing, or a name that looks
    # like a known one
    reference = REFERENCE_CFG.read_text()
    for header, shown in (("[ ]", "' '"), ("[  ]", "'  '"),
                          ("[map ]", "'map '")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{reference}{header}\nx = 1\n")
        assert str(err.value) == "unknown keys: " + shown


def test_invariant_violations_name_key_and_constraint():
    with pytest.raises(ConfigError, match=r"trigger.sigma must lie in \(0,1\)"):
        parse_config(_edit(MINIMAL, "sigma = 0.7", "sigma = 1.3"))
    with pytest.raises(ConfigError, match="loop.k must be nonzero"):
        parse_config(_edit(MINIMAL, "k = -240.0", "k = 0"))
    with pytest.raises(ConfigError, match="run.n_iters must be >= 1"):
        parse_config(_edit(MINIMAL, "n_iters = 1000", "n_iters = 0"))
    with pytest.raises(ConfigError, match="run.mode must be one of"):
        parse_config(MINIMAL + "mode = backwards\n")


def test_malformed_numbers_name_the_key():
    with pytest.raises(ConfigError,
                       match="loop.a: could not parse 'abc' as a number"):
        parse_config(_edit(MINIMAL, "a = 0.1", "a = abc"))
    with pytest.raises(ConfigError,
                       match="run.n_iters: could not parse '2.5' as an integer"):
        parse_config(_edit(MINIMAL, "n_iters = 1000", "n_iters = 2.5"))


def _run_into(tmp_path, name, text):
    config = parse_config(text)
    return run_experiment(config._replace(out_dir=str(tmp_path / name)))


def test_true_loop_mode_writes_trajectory_events_report(tmp_path):
    result = _run_into(tmp_path, "a", MINIMAL)
    assert result.trajectory_path.exists()
    assert result.events_path.exists()
    assert result.report_path.exists()
    assert result.avg_trajectory_path is None
    with open(result.trajectory_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "theta_hat", "theta", "y", "g_hat", "e", "u",
                       "triggered"]
    assert len(rows) == 1 + REFERENCE_N_ITERS
    with open(result.events_path, newline="") as fh:
        ev_rows = list(csv.reader(fh))
    assert ev_rows[0] == ["l", "k_l", "g_hat_held", "u_held"]


def test_average_mode_writes_avg_trajectory_only(tmp_path):
    result = _run_into(tmp_path, "b", MINIMAL + "mode = average\n")
    assert result.trajectory_path is None
    assert result.events_path is None
    assert result.avg_trajectory_path.exists()
    with open(result.avg_trajectory_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "g_av", "theta_tilde_av", "e_av", "triggered"]
    assert len(rows) == 1 + REFERENCE_N_ITERS


def test_trajectory_csv_round_trips_the_run(tmp_path):
    result = _run_into(tmp_path, "c", MINIMAL)
    traj, _ = escore.run(*reference_specs(), REFERENCE_THETA_HAT0,
                         REFERENCE_N_ITERS)
    with open(result.trajectory_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for rec, row in zip(traj.records, rows):
        assert int(row["k"]) == rec.k
        assert float(row["theta_hat"]) == rec.theta_hat
        assert float(row["y"]) == rec.y
        assert float(row["g_hat"]) == rec.gradient
        assert row["triggered"] == ("1" if rec.triggered else "0")


def test_single_iteration_run(tmp_path):
    result = _run_into(tmp_path, "d",
                       _edit(MINIMAL, "n_iters = 1000", "n_iters = 1"))
    with open(result.trajectory_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 2


def test_reruns_are_byte_identical(tmp_path):
    text = REFERENCE_CFG.read_text()
    first = _run_into(tmp_path, "r1", text)
    second = _run_into(tmp_path, "r2", text)
    for a, b in [(first.trajectory_path, second.trajectory_path),
                 (first.events_path, second.events_path),
                 (first.avg_trajectory_path, second.avg_trajectory_path),
                 (first.report_path, second.report_path)]:
        assert a.read_bytes() == b.read_bytes()


def test_report_mentions_reference_pair_only_for_reference_params(tmp_path):
    text = REFERENCE_CFG.read_text()
    ref = _run_into(tmp_path, "ref", text)
    report = ref.report_path.read_text()
    assert "reference_count = 19" in report
    assert "reference_mean_gap_seconds = 9.47" in report
    assert "note: alpha is below the minimal bound" in report
    other = _run_into(tmp_path, "other",
                      _edit(text, "sigma = 0.7", "sigma = 0.5"))
    assert "reference_count" not in other.report_path.read_text()


def test_golden_files_reproduced(tmp_path):
    result = _run_into(tmp_path, "golden", REFERENCE_CFG.read_text())
    for name in ("trajectory.csv", "events.csv", "avg_trajectory.csv",
                 "report.txt"):
        produced = (result.report_path.parent / name).read_bytes()
        assert produced == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("name", ["diverging", "many-fires"])
def test_firing_path_goldens_reproduced(tmp_path, name):
    # many-fires refreshes the hold on 345 true and 12 averaged rows;
    # diverging overflows the true loop, so its cells include inf, -inf, nan
    # and -0.0
    if name == "many-fires":
        text = _edit(_many_fires_config_text(), "n_iters = 3000", "n_iters = 500")
    else:
        text = _edit(REFERENCE_CFG.read_text(), "alpha = 0.74", "alpha = 2.0")
    result = _run_into(tmp_path, name, text)
    for file_name in ("trajectory.csv", "events.csv", "avg_trajectory.csv",
                      "report.txt"):
        assert ((result.report_path.parent / file_name).read_bytes()
                == (GOLDEN_DIR.parent / name / file_name).read_bytes()), file_name


def test_sweep_golden_reproduced(tmp_path):
    # one entry logs a single event (a nan mean gap), two diverge
    config = parse_config(REFERENCE_CFG.read_text())._replace(
        out_dir=str(tmp_path / "sweep"))
    summary = sweep(config, "trigger.alpha", ["0.74", "0.9", "2.0"])
    assert (summary.read_bytes()
            == (GOLDEN_DIR.parent / "sweep" / "summary.csv").read_bytes())


def test_sweep_rejects_bad_parameters(tmp_path):
    config = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="cannot sweep 'map.nope'"):
        sweep(config, "map.nope", ["1.0"])
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(config, "trigger.sigma", [])
    with pytest.raises(ConfigError, match="could not parse 'x'"):
        sweep(config, "trigger.sigma", ["0.5", "x"])


def test_sweep_validates_all_values_before_running(tmp_path):
    config = parse_config(MINIMAL)._replace(out_dir=str(tmp_path / "sw"))
    for param, values, message in [
            ("trigger.sigma", ["0.5", "1.5"], r"trigger.sigma = 1.5"),
            ("run.n_iters", ["0"], r"run.n_iters must be >= 1"),
            ("run.offset_constant", ["-1"],
             r"run.offset_constant must be finite and >= 0"),
            # one directory, named by two tokens once stripped
            ("trigger.alpha", ["0.74", "0.9", " 0.74"],
             r"trigger.alpha = 0.74: the same value as trigger.alpha = 0.74$"),
            # two directories, one experiment: summary.csv could not tell
            # their rows apart
            ("trigger.alpha", ["0.9", "0.74", "0.90"],
             r"trigger.alpha = 0.90: the same value as trigger.alpha = 0.9$"),
            ("run.n_iters", ["1000", "01000"],
             r"run.n_iters = 01000: the same value as run.n_iters = 1000$"),
            # tokens that are not integers
            ("run.n_iters", ["1000", "1e3"], r"run.n_iters = 1e3: "
             r"run.n_iters: could not parse '1e3' as an integer$"),
            ("run.n_iters", ["10", "1.0"], r"run.n_iters = 1.0: "
             r"run.n_iters: could not parse '1.0' as an integer$")]:
        with pytest.raises(ConfigError, match=message):
            sweep(config, param, values)
        assert not (tmp_path / "sw").exists()


def test_sweep_writes_summary_and_per_value_directories(tmp_path):
    config = parse_config(MINIMAL)._replace(out_dir=str(tmp_path / "sw"),
                                            n_iters=400)
    summary = sweep(config, "loop.epsilon", ["0.09", "0.18"])
    with open(summary, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows] == ["0.09", "0.18"]
    # rho0 recomputed per entry: 1 - eps*a^2*H*K/2
    assert float(rows[0]["rho0"]) == pytest.approx(0.9244, abs=1e-12)
    assert float(rows[1]["rho0"]) == pytest.approx(0.8488, abs=1e-12)
    for row in rows:
        assert row["decay_pass"] in ("0", "1")
        assert float(row["final_theta_error"]) >= 0.0
    for value in ("0.09", "0.18"):
        entry_dir = tmp_path / "sw" / value
        assert (entry_dir / "trajectory.csv").exists()
        assert (entry_dir / "avg_trajectory.csv").exists()
        assert (entry_dir / "report.txt").exists()


def _counting_checks(monkeypatch):
    """The list of every ExperimentConfig checked from now on, however made."""
    checks = []
    real_check = cli.ExperimentConfig._check

    def _check(config):
        checks.append(config)
        real_check(config)

    monkeypatch.setattr(cli.ExperimentConfig, "_check", _check)
    return checks


def test_main_run_and_check_exit_zero(tmp_path, capsys, monkeypatch):
    # each command checks its one config once, its options merged in first
    checks = _counting_checks(monkeypatch)
    assert main(["run", "--config", str(REFERENCE_CFG),
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "trajectory.csv" in out and "report.txt" in out
    assert [config.out_dir for config in checks] == [str(tmp_path / "out")]
    assert main(["check", "--config", str(REFERENCE_CFG)]) == 0
    out = capsys.readouterr().out
    assert "rho0 = 0.8488" in out
    assert "alpha_satisfies = false" in out
    assert len(checks) == 2


def _assumption_variants():
    """Config text of the reference set and of two edits that change its
    assumption check: a sign-flipped gain and a large alpha."""
    text = REFERENCE_CFG.read_text()
    return {"reference": text,
            "k240": _edit(text, "k = -240.0", "k = 240.0"),
            "alpha2": _edit(text, "alpha = 0.74", "alpha = 2.0")}


_CHECK_STDOUT = {
    "reference": """\
rho0 = 0.8488
rho0_in_unit_interval = true
sign_match = true
alpha = 0.74
alpha_min = 1.8804406459690333
alpha_satisfies = false
note: alpha is below the minimal bound; simulation proceeds anyway
""",
    "k240": """\
rho0 = 1.1512
rho0_in_unit_interval = false
sign_match = false
alpha = 0.74
alpha_min = nan
alpha_satisfies = false
note: alpha bound undefined (|rho0| >= 1)
""",
    "alpha2": """\
rho0 = 0.8488
rho0_in_unit_interval = true
sign_match = true
alpha = 2.0
alpha_min = 1.8804406459690333
alpha_satisfies = true
""",
}


def test_check_prints_the_assumption_section_of_the_report(tmp_path, capsys):
    for name, text in _assumption_variants().items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        assert main(["check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out == _CHECK_STDOUT[name], name
        assert main(["run", "--config", str(cfg), "--mode", "true-loop",
                     "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        report = (tmp_path / name / "report.txt").read_text()
        assert report.startswith(
            "# assumption check\n" + out + "# events: true loop\n"), name


def _config_text(config):
    """Config file text stating every value of config, numbers as repr."""
    sections = {}
    for key, value in config.flat().items():
        section, name = key.split(".")
        text = value if isinstance(value, str) else repr(value)
        sections.setdefault(section, []).append(f"{name} = {text}\n")
    return "".join(f"[{section}]\n" + "".join(lines)
                   for section, lines in sections.items())


def test_undefined_bound_note_appears_exactly_when_alpha_min_is_nan(
        tmp_path, capsys):
    # seeded draws, some with the gain's sign flipped (rho0 > 1) or the gain
    # scaled up to 1e300 (|rho0| >= 1, and rho0^2 overflows)
    rng = random.Random(1616)
    base = parse_config(REFERENCE_CFG.read_text())._replace(
        n_iters=1, mode="true-loop")
    note = "note: alpha bound undefined (|rho0| >= 1)\n"
    undefined_seen = set()
    for i in range(60):
        map_spec, loop, trig = draw_specs(rng)
        loop = loop._replace(gain_k=loop.gain_k * rng.choice((1.0, -1.0))
                             * rng.choice((1.0, 1e3, 1e300)))
        config = base._replace(map_spec=map_spec, loop_spec=loop,
                               trigger_spec=trig, out_dir=str(tmp_path / str(i)))
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(_config_text(config))
        assert parse_config(cfg.read_text()) == config
        assert main(["check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        report = (tmp_path / str(i) / "report.txt").read_text()
        undefined = math.isnan(validate_assumption(map_spec, loop, trig).alpha_min)
        assert (note in out) == (note in report) == undefined, i
        undefined_seen.add(undefined)
    assert undefined_seen == {False, True}


_REPORT_WORDS = {"n/a": None, "true": True, "false": False}


def _read_report(path):
    """report.txt as {section title: {key: value}}, in file order.

    A `key = value` line reads back as None, a bool, an int or a float; a
    `key: text` line keeps its text.
    """
    sections = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            items = sections.setdefault(line[2:], {})
        elif " = " in line:
            key, text = line.split(" = ")
            if text in _REPORT_WORDS:
                items[key] = _REPORT_WORDS[text]
            else:
                try:
                    items[key] = int(text)
                except ValueError:
                    items[key] = float(text)
        else:
            key, text = line.split(": ", 1)
            items[key] = text
    return sections


def _assert_reads_back(section, expected):
    assert list(section) == list(expected)
    for key, value in expected.items():
        got = section[key]
        assert type(got) is type(value), (key, got, value)
        assert got == value or got != got and value != value, (key, got, value)


def _verdicts(section, report):
    """An envelope section's verdicts read back as their EnvelopeChecks."""
    assert section.pop("rho") == report.rho
    checks = []
    for name, verdict in section.items():
        if verdict == "pass":
            checks.append(analysis.EnvelopeCheck(name, True, None, 0.0))
        else:
            word, k, excess = verdict.split(" ")
            assert word == "FAIL"
            assert k.startswith("first_violation_k=")
            assert excess.startswith("max_excess=")
            checks.append(analysis.EnvelopeCheck(
                name, False, int(k.split("=")[1]), float(excess.split("=")[1])))
    return tuple(checks)


def test_report_reads_back_as_the_run_result(tmp_path):
    notes = {"reference": "alpha is below the minimal bound; simulation "
                          "proceeds anyway",
             "k240": "alpha bound undefined (|rho0| >= 1)", "alpha2": None}
    decay_verdicts, envelope_verdicts = set(), set()
    for name, text in _assumption_variants().items():
        for mode in MODES:
            result = run_experiment(parse_config(text)._replace(
                mode=mode, out_dir=str(tmp_path / name / mode)))
            report = _read_report(result.report_path)
            titles = ["assumption check"]
            if mode != "average":
                titles += ["events: true loop",
                           "envelopes: true loop (offset_constant = 0.3)"]
            if mode != "true-loop":
                titles += ["events: average loop", "decay: average loop",
                           "envelopes: average loop"]
            assert list(report) == titles, (name, mode)

            assumption = result.assumption._asdict()
            if notes[name] is not None:
                assumption["note"] = notes[name]
            _assert_reads_back(report["assumption check"], assumption)

            if mode != "average":
                events = result.event_stats._asdict()
                if name == "reference":
                    events |= {"reference_count": 19,
                               "reference_mean_gap_seconds": 9.47}
                _assert_reads_back(report["events: true loop"], events)
                assert _verdicts(report[titles[2]], result.envelopes) \
                    == result.envelopes.checks
                envelope_verdicts.update(c.passed for c in result.envelopes.checks)
            if mode != "true-loop":
                _assert_reads_back(report["events: average loop"],
                                   result.avg_event_stats._asdict())
                # where the decay check failed, and by how much, only then
                decay = result.decay._asdict()
                if result.decay.passed:
                    del decay["first_violation_k"], decay["max_excess"]
                _assert_reads_back(report["decay: average loop"], decay)
                decay_verdicts.add(result.decay.passed)
                assert _verdicts(report["envelopes: average loop"],
                                 result.avg_envelopes) == result.avg_envelopes.checks
                envelope_verdicts.update(
                    c.passed for c in result.avg_envelopes.checks)
    assert decay_verdicts == envelope_verdicts == {True, False}


def test_main_run_with_nan_rows_reports_failing_checks(tmp_path):
    # theta_hat0 = 1e200 is a finite config value, but every true-loop row
    # holds NaN; the run still exits 0 and its report names the failures
    config = tmp_path / "big.cfg"
    config.write_text(_edit(MINIMAL, "theta_hat0 = 0.5", "theta_hat0 = 1e200"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--mode", "both",
                 "--out", str(out)]) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 1000 and all("nan" in row for row in rows)
    report = _read_report(out / "report.txt")
    envelopes = report["envelopes: true loop (offset_constant = 0.3)"]
    assert envelopes["theta"] == "FAIL first_violation_k=1 max_excess=0.0"
    assert envelopes["y"] == "FAIL first_violation_k=0 max_excess=0.0"
    assert report["decay: average loop"]["passed"] is False


def test_main_mode_and_iters_overrides(tmp_path, monkeypatch):
    checks = _counting_checks(monkeypatch)
    out_dir = tmp_path / "short"
    assert main(["run", "--config", str(REFERENCE_CFG), "--mode", "average",
                 "--iters", "50", "--out", str(out_dir)]) == 0
    assert [(c.mode, c.n_iters, c.out_dir) for c in checks] == [
        ("average", 50, str(out_dir))]
    assert not (out_dir / "trajectory.csv").exists()
    with open(out_dir / "avg_trajectory.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 51


def test_main_config_errors_exit_one(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("sigma = 0.7", "sigma = 1.3"))
    assert main(["run", "--config", str(bad)]) == 1
    assert "trigger.sigma must lie in (0,1)" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--param", "nope",
                 "--values", "1", "--out", str(tmp_path / "sw")]) == 1
    assert "cannot sweep" in capsys.readouterr().err
    # a file's value that an option replaces is never checked on its own;
    # a sweep's base, the file with --out, must itself be a valid run
    zero = tmp_path / "zero.cfg"
    zero.write_text(_edit(MINIMAL, "n_iters = 1000", "n_iters = 0"))
    assert main(["run", "--config", str(zero), "--iters", "10",
                 "--out", str(tmp_path / "ten")]) == 0
    assert (tmp_path / "ten" / "report.txt").exists()
    capsys.readouterr()
    assert main(["sweep", "--config", str(zero), "--param", "run.n_iters",
                 "--values", "10", "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err == "error: run.n_iters must be >= 1\n"
    assert not (tmp_path / "never").exists()
    # option values go through the config's validation, not argparse's
    # (which exits 2, the code for output errors); an empty --out would name
    # the working directory. The last --out given wins.
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    sweep_args = ["--param", "trigger.alpha", "--values", "0.9"]
    for command, option, value, message in (
            ("run", "--iters", "0", "run.n_iters must be >= 1"),
            ("run", "--iters", "1e3",
             "run.n_iters: could not parse '1e3' as an integer"),
            ("run", "--mode", "bogus",
             "run.mode must be one of true-loop, average, both"),
            ("run", "--out", "", "run.out_dir must not be empty"),
            ("sweep", "--out", "", "run.out_dir must not be empty")):
        extra = sweep_args if command == "sweep" else []
        assert main([command, "--config", str(REFERENCE_CFG), *extra,
                     "--out", str(tmp_path / "never"), option, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "never").exists()
        assert sorted(tmp_path.iterdir()) == before


def test_main_non_finite_values_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for old, new, message in [
            ("alpha = 0.74", "alpha = nan", "trigger.alpha must be finite"),
            ("k = -240.0", "k = inf", "loop.k must be finite"),
            ("q_star = 2.0", "q_star = -inf", "map.q_star must be finite"),
            ("theta_hat0 = 0.5", "theta_hat0 = nan",
             "run.theta_hat0 must be finite")]:
        bad.write_text(_edit(MINIMAL, old, new))
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "never")]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    for param, token in [("trigger.alpha", "nan"), ("loop.k", "inf"),
                         ("map.theta_star", "-inf"),
                         ("run.offset_constant", "inf")]:
        assert main(["sweep", "--config", str(REFERENCE_CFG), "--param", param,
                     "--values", "0.5," + token,
                     "--out", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err
        assert f"error: {param} = {token}: {param} must be finite" in err
    assert not (tmp_path / "never").exists()


_PHASE_ERROR = ("error: the dither phase loop.omega * loop.epsilon * "
                "(run.n_iters - 1) must be finite\n")


def _refuse_runs_longer_than(limit, monkeypatch):
    # a 400-digit horizon that got past the checks would step, and write,
    # until the disk is full; fail at its start instead
    real_run_experiment = cli.run_experiment

    def run_experiment(config):
        assert config.n_iters <= limit, "a run longer than any test's started"
        return real_run_experiment(config)
    monkeypatch.setattr(cli, "run_experiment", run_experiment)


def test_main_overflowing_dither_phase_exits_one(tmp_path, capsys, monkeypatch):
    # omega * epsilon * k overflows from k = 2, where sin(inf) would raise
    # mid-run; a horizon with no float overflows too. Both stop before any
    # file is written, and check applies the same rule to the file's horizon.
    _refuse_runs_longer_than(1000, monkeypatch)
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(_edit(_edit(REFERENCE_CFG.read_text(), "omega = 7.0",
                               "omega = 1e308"), "epsilon = 0.18", "epsilon = 1.0"))
    out = tmp_path / "never"
    for config, iters in ((cfg, "10"), (REFERENCE_CFG, "1" + "0" * 400)):
        assert main(["run", "--config", str(config), "--iters", iters,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == _PHASE_ERROR
        assert not out.exists()
    assert main(["check", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", _PHASE_ERROR)
    # options apply before the one check, so they can make the file's run
    # valid: the phase of row 1, the last of a 2-row run, is finite
    for mode in MODES:
        assert main(["run", "--config", str(cfg), "--mode", mode, "--iters", "2",
                     "--out", str(out / mode)]) == 0
        assert (out / mode / "report.txt").exists()
    # the averaged loop has no dither, so no horizon overflows its phase
    assert main(["run", "--config", str(cfg), "--mode", "average",
                 "--out", str(out / "long")]) == 0
    assert (out / "long" / "report.txt").exists()


# Extreme but finite config values; signs are drawn where a key takes both.
_EXTREMES = (5e-324, 1e-300, 1e-12, 0.18, 0.5, 1.0, 7.0, 1e12, 1e154, 1e300,
             1e308, 1.7976931348623157e308)


def _extreme_config(rng):
    def value(signed=True):
        x = rng.choice(_EXTREMES) * rng.uniform(0.5, 1.0)
        return -x if signed and rng.random() < 0.5 else x
    p = {"q_star": value(), "h_star": value(), "theta_star": value(),
         "a": value(False), "omega": value(False), "epsilon": value(False),
         "k": value(), "sigma": rng.choice((5e-324, 1e-12, 0.5, 0.7, 1 - 2**-53)),
         "alpha": value(False), "theta_hat0": value(), "n_iters": 1}
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {p[key]!r}\n" for key in keys)
        for section, keys in (("map", ("q_star", "h_star", "theta_star")),
                              ("loop", ("a", "omega", "epsilon", "k")),
                              ("trigger", ("sigma", "alpha")),
                              ("run", ("theta_hat0", "n_iters")))
    ) + f"offset_constant = {value(False)!r}\n"


def test_extreme_finite_configs_run_or_exit_one_with_one_error_line(
        tmp_path, capsys, monkeypatch):
    # every config either runs to a report.txt, or exits 1 with one error
    # line and no output directory; no traceback, whatever the values
    _refuse_runs_longer_than(64, monkeypatch)
    rng = random.Random(20261019)
    cfg = tmp_path / "extreme.cfg"
    outcomes = []
    for case in range(300):
        cfg.write_text(_extreme_config(rng))
        out = tmp_path / str(case)
        # every 40th horizon has no float: no such run can be stepped
        iters = "1" + "0" * 400 if case % 40 == 0 else str(rng.randint(1, 64))
        code = main(["run", "--config", str(cfg), "--mode", "true-loop",
                     "--iters", iters, "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and (out / "report.txt").exists()
        else:
            assert code == 1 and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1
        outcomes.append(err if code else "ran")
    assert "ran" not in outcomes[::40] and _PHASE_ERROR in outcomes[::40]
    assert outcomes.count("ran") >= 30
    assert outcomes.count(_PHASE_ERROR) >= 30


def test_main_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    assert main(["run", "--config", str(REFERENCE_CFG),
                 "--out", str(blocker / "sub")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_run_at_the_optimum_passes_with_an_infinite_rho(tmp_path, capsys):
    # loop.k = -1e300 overflows rho0 ** 2, so rho = inf; started at the
    # optimum, every magnitude a check starts from is 0, and each bound
    # reads inf, not inf * 0.0 = nan
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(_edit(_edit(REFERENCE_CFG.read_text(), "k = -240.0",
                               "k = -1e300"),
                         "theta_hat0 = 0.5", "theta_hat0 = 3.0"))
    assert main(["run", "--config", str(cfg), "--iters", "50",
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    report = _read_report(tmp_path / "out" / "report.txt")
    assert report["envelopes: true loop (offset_constant = 0.3)"] == {
        "rho": math.inf, "theta": "pass", "y": "pass"}
    assert report["decay: average loop"] == {
        "rho": math.inf, "checked": 49, "passed": True}
    assert report["envelopes: average loop"] == {
        "rho": math.inf, "g_av": "pass", "theta_tilde_av": "pass"}


def test_run_at_the_optimum_passes_where_twice_a_power_overflows(tmp_path):
    # loop.k = -4890 gives rho = 1.4994, and rho ** 1751 is finite while
    # twice it overflows; started at the optimum, y[0] - q_star is 0, so the
    # y bound there is the offset alone, not inf * 0.0 = nan
    text = _edit(_edit(REFERENCE_CFG.read_text(), "k = -240.0", "k = -4890.0"),
                 "theta_hat0 = 0.5", "theta_hat0 = 3.0")
    result = run_experiment(parse_config(text)._replace(
        n_iters=3000, mode="true-loop", out_dir=str(tmp_path / "out")))
    assert result.envelopes.checks == (("theta", True, None, 0.0),
                                       ("y", True, None, 0.0))
    assert _read_report(result.report_path)[
        "envelopes: true loop (offset_constant = 0.3)"]["y"] == "pass"


def test_main_sweep_end_to_end(tmp_path, capsys, monkeypatch):
    # the base (the file with --out) is checked once, then each entry once
    checks = _counting_checks(monkeypatch)
    assert main(["sweep", "--config", str(REFERENCE_CFG),
                 "--param", "trigger.sigma", "--values", "0.3,0.5,0.7",
                 "--out", str(tmp_path / "sw")]) == 0
    assert [c.out_dir for c in checks] == [
        str(tmp_path / "sw" / name) for name in ("", "0.3", "0.5", "0.7")]
    assert "summary.csv" in capsys.readouterr().out
    with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 4


def test_main_sweep_strips_whitespace_around_values(tmp_path):
    out_dir = tmp_path / "sw"
    assert main(["sweep", "--config", str(REFERENCE_CFG),
                 "--param", "trigger.alpha", "--values", "0.74, 0.9 , ",
                 "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "0.74", "0.9", "summary.csv"]
    with open(out_dir / "summary.csv", newline="") as fh:
        assert [row["value"] for row in csv.DictReader(fh)] == ["0.74", "0.9"]


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "etseek.cli",
         "check", "--config", str(REFERENCE_CFG)],
        capture_output=True, text=True, env=_src_env())
    assert out.returncode == 0, out.stderr
    assert "rho0 = 0.8488" in out.stdout


def test_import_etseek_leaves_the_cli_unloaded():
    # the package promises that import etseek does not load etseek.cli, and
    # the benchmark's set-up time counts on that
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, etseek; print(*sorted(m for m in "
         "('etseek.cli', 'argparse', 'configparser') if m in sys.modules))"],
        capture_output=True, text=True, env=_src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "\n"


def test_import_etseek_cli_loads_no_dataclasses_or_inspect():
    # the package's types are NamedTuples; dataclasses would pull in inspect
    # and its parsers, most of the start-up of each short-lived etseek call.
    # argparse (with gettext) loads only when main builds its parser.
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, etseek.cli; print(*sorted(m for m in ('dataclasses', "
         "'inspect', 'ast', 'dis', 'tokenize', 'argparse') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=_src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == "\n"


def test_module_run_under_warnings_as_errors(tmp_path):
    # the forked averaged half and its pipe must leave no ResourceWarning or
    # DeprecationWarning behind; under -W error one would fail the run or
    # print "Exception ignored" to stderr
    out_dir = tmp_path / "out"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "etseek.cli", "run",
         "--config", str(REFERENCE_CFG), "--out", str(out_dir)],
        capture_output=True, text=True, env=_src_env())
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    for name in ("trajectory.csv", "events.csv", "avg_trajectory.csv",
                 "report.txt"):
        assert (out_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


# The CSV writer as it was when trajectories were rows: csv.writer fed one
# formatted cell at a time. It stays here only as the oracle that the
# column-wise writer must match byte for byte.
def _oracle_cell(value):
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _oracle_csv(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_oracle_cell(cell) for cell in row])
    return buf.getvalue().encode()


def _true_loop_oracle(traj, log):
    """Expected trajectory.csv and events.csv bytes of one true-loop run."""
    return {
        "trajectory.csv": _oracle_csv(
            ("k", "theta_hat", "theta", "y", "g_hat", "e", "u", "triggered"),
            ((r.k, r.theta_hat, r.theta, r.y, r.gradient, r.error,
              r.control, r.triggered) for r in traj.records)),
        "events.csv": _oracle_csv(
            ("l", "k_l", "g_hat_held", "u_held"),
            ((e.index, e.k, e.gradient, e.control) for e in log.entries)),
    }


def _avg_oracle(avg):
    """Expected avg_trajectory.csv bytes of one averaged run."""
    return _oracle_csv(
        ("k", "g_av", "theta_tilde_av", "e_av", "triggered"),
        ((r.k, r.g_av, r.theta_tilde_av, r.error, r.triggered)
         for r in avg.records))


def _specs(config):
    return config.map_spec, config.loop_spec, config.trigger_spec


def _many_fires_config_text():
    fires = REFERENCE_CFG.read_text()
    for old, new in (("q_star = 2.0", "q_star = 0.0"), ("k = -240.0", "k = -20.0"),
                     ("alpha = 0.74", "alpha = 0.9"),
                     ("n_iters = 1000", "n_iters = 3000")):
        fires = _edit(fires, old, new)
    return fires


def test_csv_files_match_the_csv_writer_oracle(tmp_path):
    # the goldens hold one event and finite values only; these runs fire
    # often, and the diverging one also writes -0.0, inf and -inf cells
    text = REFERENCE_CFG.read_text()
    fires = _many_fires_config_text()
    diverging = _edit(text, "alpha = 0.74", "alpha = 2.0")
    for name, cfg_text in (("fires", fires), ("diverging", diverging)):
        result = _run_into(tmp_path, name, cfg_text)
        config = parse_config(cfg_text)
        traj, log = escore.run(*_specs(config), config.theta_hat0, config.n_iters)
        avg = avg_run(*_specs(config),
                      config.theta_hat0 - config.map_spec.theta_star,
                      config.n_iters)
        expected = _true_loop_oracle(traj, log) | {
            "avg_trajectory.csv": _avg_oracle(avg)}
        out = result.report_path.parent
        for file_name, data in expected.items():
            assert (out / file_name).read_bytes() == data, (name, file_name)
        written = (out / "trajectory.csv").read_text().splitlines()
        assert sum(line.endswith(",1") for line in written) > 10
        if name == "fires":
            assert len(log.entries) > 1000
        else:
            cells = [line.split(",") for line in written[1:]]
            assert sum(any(c in ("inf", "-inf", "nan") for c in row)
                       for row in cells) == 986
            assert any("-0.0" in row for row in cells)


def test_summary_csv_matches_the_csv_writer_oracle(tmp_path):
    # alpha 0.74 leaves one event (mean gap None, written nan); 2.0 diverges
    config = parse_config(REFERENCE_CFG.read_text())._replace(
        out_dir=str(tmp_path / "sw"))
    summary = sweep(config, "trigger.alpha", ["0.74", "2.0"])
    theta_star = config.map_spec.theta_star
    rows = []
    for alpha in (0.74, 2.0):
        specs = (config.map_spec, config.loop_spec,
                 config.trigger_spec._replace(alpha=alpha))
        traj, log = escore.run(*specs, config.theta_hat0, config.n_iters)
        avg = avg_run(*specs, config.theta_hat0 - theta_star, config.n_iters)
        stats = event_statistics(log)
        rows.append((alpha, stats.count, stats.mean_gap_seconds,
                     abs(traj.records[-1].theta - theta_star),
                     check_decay(lyapunov_sequence(avg), *specs).passed,
                     validate_assumption(*specs).rho0))
    assert rows[0][2] is None
    assert summary.read_bytes() == _oracle_csv(
        ("value", "event_count", "mean_gap_seconds", "final_theta_error",
         "decay_pass", "rho0"), rows)


def test_run_experiment_builds_no_record_objects(tmp_path, monkeypatch):
    # the pipeline reads columns end to end; a StepRecord or AvgRecord per
    # step is what the columnar trajectories removed from the hot path.
    # Without os.fork both halves run here, where the count can see them.
    monkeypatch.delattr(os, "fork")
    built = []
    for record_type in (StepRecord, AvgRecord):
        def counted(cls, *args, _new=record_type.__new__, **kwargs):
            built.append(cls.__name__)
            return _new(cls, *args, **kwargs)
        monkeypatch.setattr(record_type, "__new__", counted)
    result = _run_into(tmp_path, "both", REFERENCE_CFG.read_text())
    assert result.trajectory_path.exists()
    assert result.avg_trajectory_path.exists()
    assert built == []
    # rows are still there on demand, and the count sees them
    traj, _ = escore.run(*reference_specs(), REFERENCE_THETA_HAT0, 10)
    avg = avg_run(*reference_specs(), -2.5, 10)
    traj.records[-1]
    list(avg.records)
    assert built == ["StepRecord"] + ["AvgRecord"] * 10


def test_run_experiment_builds_no_event_entries(tmp_path, monkeypatch):
    # events.csv is written from the trajectory's own cells and the event
    # statistics read log.ks, so no EventEntry is built on the hot path
    built = []

    def counted(cls, *args, _new=EventEntry.__new__, **kwargs):
        built.append(1)
        return _new(cls, *args, **kwargs)

    monkeypatch.setattr(EventEntry, "__new__", counted)
    result = _run_into(tmp_path, "fires", _many_fires_config_text())
    assert result.event_stats.count > 1000
    assert result.events_path.read_text().count("\n") == result.event_stats.count + 1
    assert built == []
    traj, log = escore.run(*reference_specs(), REFERENCE_THETA_HAT0, 10)
    assert log.entries[-1].k == 0
    assert built == [1]


def test_write_rows_writes_every_cell_as_its_repr():
    # -0.0 == 0.0 and nan != nan: each cell is the repr of its own float,
    # in mixed blocks and in blocks that repeat one value alike
    nan, inf = float("nan"), float("inf")
    mixed = [0.0, -0.0, -0.0, 0.0, nan, nan, inf, inf, -inf, 5e-324, 5e-324]
    for start in (0, 300):
        for values in (mixed, [-0.0] * 5, [nan] * 3, [inf] * 4,
                       [0.0, -0.0, 0.0], [-inf, inf], [5e-324]):
            flags = array("b", [k % 2 for k in range(len(values))])
            fh = io.StringIO()
            k_text, text = _write_rows(fh, start, [array("d", values)], flags)
            ks = range(start, start + len(values))
            assert k_text == [str(k) for k in ks]
            assert text == [[repr(v) for v in values]]
            assert fh.getvalue() == "".join(f"{k},{v!r},{k % 2}\n"
                                            for k, v in zip(ks, values))


def _counting_fork(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_and_in_process_runs_are_byte_identical(tmp_path, monkeypatch):
    names = ("trajectory.csv", "events.csv", "avg_trajectory.csv", "report.txt")
    diverging = _edit(REFERENCE_CFG.read_text(), "alpha = 0.74", "alpha = 2.0")
    for name, text in (("fires", _many_fires_config_text()),
                       ("diverging", diverging)):
        with monkeypatch.context() as patch:
            forks = _counting_fork(patch)
            forked = _run_into(tmp_path, name + "-forked", text)
            assert forks == [os.getpid()]
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            serial = _run_into(tmp_path, name + "-serial", text)
        for file_name in names:
            assert ((forked.report_path.parent / file_name).read_bytes()
                    == (serial.report_path.parent / file_name).read_bytes()), \
                (name, file_name)
        for field in ("assumption", "event_stats", "envelopes", "final_theta",
                      "avg_event_stats", "decay", "avg_envelopes"):
            assert getattr(forked, field) is not None, (name, field)
            assert getattr(forked, field) == getattr(serial, field), (name, field)
    _assert_no_child_left()


def test_running_threads_keep_both_halves_in_process(tmp_path, monkeypatch):
    import threading
    forks = _counting_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        result = _run_into(tmp_path, "threaded", REFERENCE_CFG.read_text())
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert result.decay.passed
    assert ((result.report_path.parent / "avg_trajectory.csv").read_bytes()
            == (GOLDEN_DIR / "avg_trajectory.csv").read_bytes())


def test_failed_fork_runs_both_halves_in_process(tmp_path, monkeypatch):
    # no process id left: the run goes on in-process and closes its pipe
    fds, real_pipe = [], os.pipe

    def pipe():
        fds.extend(real_pipe())
        return tuple(fds[-2:])

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    result = _run_into(tmp_path, "no-fork", REFERENCE_CFG.read_text())
    assert len(fds) == 2
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    for name in ("trajectory.csv", "events.csv", "avg_trajectory.csv",
                 "report.txt"):
        assert ((result.report_path.parent / name).read_bytes()
                == (GOLDEN_DIR / name).read_bytes()), name


def test_main_error_in_the_forked_half_exits_two(tmp_path, capsys, monkeypatch):
    forks = _counting_fork(monkeypatch)
    out_dir = tmp_path / "out"
    (out_dir / "avg_trajectory.csv").mkdir(parents=True)
    assert main(["run", "--config", str(REFERENCE_CFG),
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "avg_trajectory.csv" in err
    assert len(forks) == 1
    _assert_no_child_left()
    # the true half still ran to the end in this process
    assert ((out_dir / "trajectory.csv").read_bytes()
            == (GOLDEN_DIR / "trajectory.csv").read_bytes())


def test_child_ending_without_a_result_names_its_status(tmp_path, monkeypatch):
    test_pid = os.getpid()

    def vanish(config, out):
        assert os.getpid() != test_pid, "the averaged half ran in-process"
        os._exit(3)

    monkeypatch.setattr(cli, "_average_half", vanish)
    with pytest.raises(RuntimeError, match=r"vanish ended without a result "
                                           r"\(exit status 3\)"):
        _run_into(tmp_path, "vanish", REFERENCE_CFG.read_text())
    _assert_no_child_left()


class _Unrebuildable(Exception):
    # pickles, but unpickling calls __init__ with the one message argument
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_child_error_that_cannot_be_sent_back_is_named(tmp_path, monkeypatch):
    def fail(config, out):
        raise _Unrebuildable(1, 2)

    monkeypatch.setattr(cli, "_average_half", fail)
    with pytest.raises(RuntimeError, match=r"cannot send the outcome "
                                           r"_Unrebuildable\('1 and 2'\) back"):
        _run_into(tmp_path, "unrebuildable", REFERENCE_CFG.read_text())
    _assert_no_child_left()


def test_failing_true_half_kills_and_reaps_the_child(tmp_path, monkeypatch):
    # the child would take a minute; the failing parent must not wait for it
    import time
    forks = _counting_fork(monkeypatch)

    def fail(config, out):
        raise ZeroDivisionError("true half failed")

    monkeypatch.setattr(cli, "_true_half", fail)
    monkeypatch.setattr(cli, "_average_half", lambda config, out: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="true half failed"):
        _run_into(tmp_path, "fail", REFERENCE_CFG.read_text())
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _assert_no_child_left()


def test_run_memory_does_not_grow_with_the_horizon(tmp_path):
    # each half steps, writes and checks 256 rows at a time, so a run of 20k
    # rows peaks within 64 KB of one of 2k: one float column of the 18k rows
    # more would take 144 KB. The true loop of this config fires on most rows.
    import tracemalloc
    config = parse_config(_many_fires_config_text())
    for mode in ("true-loop", "average"):
        peaks = []
        for n_iters in (2_000, 20_000):
            entry = config._replace(n_iters=n_iters, mode=mode,
                                    out_dir=str(tmp_path / f"{mode}-{n_iters}"))
            tracemalloc.start()
            try:
                result = run_experiment(entry)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 64 * 1024, (mode, peaks)
        stats = result.event_stats or result.avg_event_stats
        assert stats.count > 500


def test_true_loop_blocks_match_the_csv_writer_oracle(tmp_path):
    # horizons around the block size, on a config that fires on most rows,
    # so events fall on the first and the last row of a block
    config = parse_config(_many_fires_config_text())
    edge_events = set()
    for n_iters in (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                    2 * _BLOCK_ROWS + 1):
        entry = config._replace(n_iters=n_iters, mode="both",
                                out_dir=str(tmp_path / str(n_iters)))
        result = run_experiment(entry)
        traj, log = escore.run(*_specs(entry), entry.theta_hat0, n_iters)
        avg = avg_run(*_specs(entry),
                      entry.theta_hat0 - entry.map_spec.theta_star, n_iters)
        expected = _true_loop_oracle(traj, log) | {
            "avg_trajectory.csv": _avg_oracle(avg)}
        for file_name, data in expected.items():
            assert (result.report_path.parent / file_name).read_bytes() == data, \
                (n_iters, file_name)
        edge_events.update(k % _BLOCK_ROWS for k in log.ks[1:]
                           if k % _BLOCK_ROWS in (0, _BLOCK_ROWS - 1))
    assert edge_events == {0, _BLOCK_ROWS - 1}

    # the reference averaged loop settles from row 3205 on (g_av on one
    # subnormal, e_av on 0.0 a row later): block 12 is mixed and blocks 13
    # to 15 repeat one value in every column
    entry = parse_config(REFERENCE_CFG.read_text())._replace(
        n_iters=4000, mode="average", out_dir=str(tmp_path / "settled"))
    result = run_experiment(entry)
    avg = avg_run(*_specs(entry),
                  entry.theta_hat0 - entry.map_spec.theta_star, 4000)
    assert result.avg_trajectory_path.read_bytes() == _avg_oracle(avg)
    cols = avg.columns
    assert 0 < abs(cols.g_av[-1]) < sys.float_info.min
    for col in (cols.g_av, cols.theta_tilde_av, cols.error):
        blocks = [col[i:i + _BLOCK_ROWS] for i in range(0, 4000, _BLOCK_ROWS)]
        assert [len(set(map(repr, block))) == 1
                for block in blocks[12:]] == [False, True, True, True]
