"""Config parsing, experiment outputs, sweeps, exit codes, golden files."""

import csv
import io
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from etseek import (
    AvgRecord,
    EventEntry,
    StepRecord,
    avg_run,
    check_decay,
    escore,
    event_statistics,
    lyapunov_sequence,
    validate_assumption,
)
from etseek import cli
from etseek.cli import (_BLOCK_ROWS, _REFERENCE_PARAMS, ConfigError,
                        _float_text, main, parse_config, run_experiment,
                        sweep)
from helpers import (
    REFERENCE_CFG,
    REFERENCE_N_ITERS,
    REFERENCE_THETA_HAT0,
    reference_specs,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "reference"

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
    from dataclasses import replace
    return run_experiment(replace(config, out_dir=str(tmp_path / name)))


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
        produced = (result.out_dir / name).read_bytes()
        assert produced == (GOLDEN_DIR / name).read_bytes(), name


def test_sweep_rejects_bad_parameters(tmp_path):
    config = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="cannot sweep 'map.nope'"):
        sweep(config, "map.nope", ["1.0"])
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(config, "trigger.sigma", [])
    with pytest.raises(ConfigError, match="could not parse 'x'"):
        sweep(config, "trigger.sigma", ["0.5", "x"])


def test_sweep_validates_all_values_before_running(tmp_path):
    from dataclasses import replace
    config = replace(parse_config(MINIMAL), out_dir=str(tmp_path / "sw"))
    for param, values, message in [
            ("trigger.sigma", ["0.5", "1.5"], r"trigger.sigma = 1.5"),
            ("run.n_iters", ["0"], r"run.n_iters must be >= 1"),
            ("run.offset_constant", ["-1"],
             r"run.offset_constant must be finite and >= 0"),
            ("trigger.alpha", ["0.74", "0.9", " 0.74"],
             r"trigger.alpha = 0.74: entry directory .*0.74 is named twice")]:
        with pytest.raises(ConfigError, match=message):
            sweep(config, param, values)
        assert not (tmp_path / "sw").exists()


def test_sweep_writes_summary_and_per_value_directories(tmp_path):
    from dataclasses import replace
    config = replace(parse_config(MINIMAL), out_dir=str(tmp_path / "sw"),
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


def test_main_run_and_check_exit_zero(tmp_path, capsys):
    assert main(["run", "--config", str(REFERENCE_CFG),
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "trajectory.csv" in out and "report.txt" in out
    assert main(["check", "--config", str(REFERENCE_CFG)]) == 0
    out = capsys.readouterr().out
    assert "rho0 = 0.8488" in out
    assert "alpha_satisfies = false" in out


def test_main_mode_and_iters_overrides(tmp_path):
    out_dir = tmp_path / "short"
    assert main(["run", "--config", str(REFERENCE_CFG), "--mode", "average",
                 "--iters", "50", "--out", str(out_dir)]) == 0
    assert not (out_dir / "trajectory.csv").exists()
    with open(out_dir / "avg_trajectory.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 51


def test_main_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL.replace("sigma = 0.7", "sigma = 1.3"))
    assert main(["run", "--config", str(bad)]) == 1
    assert "trigger.sigma must lie in (0,1)" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    assert main(["run", "--config", str(REFERENCE_CFG), "--iters", "0",
                 "--out", str(tmp_path / "never")]) == 1
    assert "run.n_iters must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    assert main(["sweep", "--config", str(REFERENCE_CFG), "--param", "nope",
                 "--values", "1", "--out", str(tmp_path / "sw")]) == 1
    assert "cannot sweep" in capsys.readouterr().err


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


def test_main_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    assert main(["run", "--config", str(REFERENCE_CFG),
                 "--out", str(blocker / "sub")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_sweep_end_to_end(tmp_path, capsys):
    assert main(["sweep", "--config", str(REFERENCE_CFG),
                 "--param", "trigger.sigma", "--values", "0.3,0.5,0.7",
                 "--out", str(tmp_path / "sw")]) == 0
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
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "rho0 = 0.8488" in out.stdout


def test_module_run_under_warnings_as_errors(tmp_path):
    # the forked averaged half and its pipe must leave no ResourceWarning or
    # DeprecationWarning behind; under -W error one would fail the run or
    # print "Exception ignored" to stderr
    out_dir = tmp_path / "out"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "etseek.cli", "run",
         "--config", str(REFERENCE_CFG), "--out", str(out_dir)],
        capture_output=True, text=True)
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
        for file_name, data in expected.items():
            assert (result.out_dir / file_name).read_bytes() == data, \
                (name, file_name)
        written = (result.out_dir / "trajectory.csv").read_text().splitlines()
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
    from dataclasses import replace
    config = replace(parse_config(REFERENCE_CFG.read_text()),
                     out_dir=str(tmp_path / "sw"))
    summary = sweep(config, "trigger.alpha", ["0.74", "2.0"])
    theta_star = config.map_spec.theta_star
    rows = []
    for alpha in (0.74, 2.0):
        specs = (config.map_spec, config.loop_spec,
                 replace(config.trigger_spec, alpha=alpha))
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
        def counted(self, *args, _init=record_type.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(record_type, "__init__", counted)
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

    def counted(self, *args, _init=EventEntry.__init__, **kwargs):
        built.append(1)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(EventEntry, "__init__", counted)
    result = _run_into(tmp_path, "fires", _many_fires_config_text())
    assert result.event_stats.count > 1000
    assert result.events_path.read_text().count("\n") == result.event_stats.count + 1
    assert built == []
    traj, log = escore.run(*reference_specs(), REFERENCE_THETA_HAT0, 10)
    assert log.entries[-1].k == 0
    assert built == [1]


def test_float_text_formats_a_block_once_only_for_repeated_bits():
    # -0.0 == 0.0 and nan != nan: only a bitwise repeat may share one text
    nan, inf = float("nan"), float("inf")
    mixed = [0.0, -0.0, -0.0, 0.0, nan, nan, inf, inf, -inf, 5e-324, 5e-324]
    for values, uniform in ((mixed, False), ([-0.0] * 5, True),
                            ([nan] * 3, True), ([inf] * 4, True),
                            ([0.0, -0.0, 0.0], False), ([-inf, inf], False),
                            ([5e-324], True)):
        cells = _float_text(array("d", values))
        assert cells == [repr(v) for v in values]
        assert all(cell is cells[0] for cell in cells) == uniform, values


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
            assert ((forked.out_dir / file_name).read_bytes()
                    == (serial.out_dir / file_name).read_bytes()), (name, file_name)
        assert forked.decay == serial.decay
        assert forked.event_stats == serial.event_stats
        assert forked.avg_event_stats == serial.avg_event_stats
        assert forked.final_theta == serial.final_theta
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
    assert ((result.out_dir / "avg_trajectory.csv").read_bytes()
            == (GOLDEN_DIR / "avg_trajectory.csv").read_bytes())


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


def test_true_loop_blocks_match_the_csv_writer_oracle(tmp_path):
    # horizons around the block size, on a config that fires on most rows,
    # so events fall on the first and the last row of a block
    from dataclasses import replace
    config = parse_config(_many_fires_config_text())
    edge_events = set()
    for n_iters in (_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                    2 * _BLOCK_ROWS + 1):
        entry = replace(config, n_iters=n_iters, mode="both",
                        out_dir=str(tmp_path / str(n_iters)))
        result = run_experiment(entry)
        traj, log = escore.run(*_specs(entry), entry.theta_hat0, n_iters)
        avg = avg_run(*_specs(entry),
                      entry.theta_hat0 - entry.map_spec.theta_star, n_iters)
        expected = _true_loop_oracle(traj, log) | {
            "avg_trajectory.csv": _avg_oracle(avg)}
        for file_name, data in expected.items():
            assert (result.out_dir / file_name).read_bytes() == data, \
                (n_iters, file_name)
        edge_events.update(k % _BLOCK_ROWS for k in log.ks[1:]
                           if k % _BLOCK_ROWS in (0, _BLOCK_ROWS - 1))
    assert edge_events == {0, _BLOCK_ROWS - 1}

    # the reference averaged loop settles from row 3205 on (g_av on one
    # subnormal, e_av on 0.0 a row later): block 12 is mixed and blocks 13
    # to 15 repeat one value in every column, so they are formatted once
    entry = replace(parse_config(REFERENCE_CFG.read_text()), n_iters=4000,
                    mode="average", out_dir=str(tmp_path / "settled"))
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
