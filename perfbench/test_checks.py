"""Fast tests of the benchmark's output checks.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py

Each check must pass a genuine output of the program and reject the same
output after one deliberate corruption.
"""

import csv
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from etseek import cli  # noqa: E402
from worker import _library_pipeline, _library_rows, _prepare  # noqa: E402

OFFSET = workloads.OFFSET_CONSTANT
N_ITERS = 400


def _params(n_iters=N_ITERS, **override):
    base, _ = workloads.sweep(7)
    return dict(base, n_iters=n_iters, **override)


def _run(tmp_path, p, name="run"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(workloads.config_text(p))
    out = tmp_path / name
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("genuine")
    p = _params()
    return p, _run(tmp, p)


@pytest.fixture
def copy(genuine, tmp_path):
    p, out = genuine
    target = tmp_path / "copy"
    shutil.copytree(out, target)
    return p, target


def _edit_csv(path, row_index, column, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row_index + 1][column] = fn(rows[row_index + 1][column])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _first_row(path, column, value):
    """Index of the first data row after k = 0 whose column holds value."""
    with open(path, newline="") as fh:
        for i, row in enumerate(list(csv.reader(fh))[2:], start=1):
            if row[column] == value:
                return i
    raise AssertionError(f"no row with column {column} = {value}")


def _flip(cell):
    return "0" if cell == "1" else "1"


def _nudge(cell):
    return repr(float(cell) * (1 + 1e-9) + 1e-12)


def test_genuine_run_passes(genuine):
    p, out = genuine
    assert checks.check_run_dir(p, out, OFFSET) == []


def test_genuine_long_run_tail_passes(tmp_path):
    p = _params(n_iters=20_000)
    out = _run(tmp_path, p)
    assert checks.check_run_dir(p, out, OFFSET,
                                workloads.RUN_LONG_TAIL_RADIUS) == []


def test_flipped_triggered_flag_is_rejected(copy):
    p, out = copy
    i = _first_row(out / "trajectory.csv", 7, "1")
    _edit_csv(out / "trajectory.csv", i, 7, _flip)
    assert checks.check_run_dir(p, out, OFFSET)


def test_flipped_untriggered_flag_is_rejected(copy):
    p, out = copy
    i = _first_row(out / "trajectory.csv", 7, "0")
    _edit_csv(out / "trajectory.csv", i, 7, _flip)
    assert checks.check_run_dir(p, out, OFFSET)


def test_fired_flag_at_the_origin_is_rejected(copy):
    p, out = copy
    _edit_csv(out / "trajectory.csv", 0, 7, _flip)
    assert checks.check_run_dir(p, out, OFFSET)


@pytest.mark.parametrize("column", [1, 2, 3, 4, 5, 6])
def test_nudged_true_loop_value_is_rejected(copy, column):
    p, out = copy
    _edit_csv(out / "trajectory.csv", 150, column, _nudge)
    assert checks.check_run_dir(p, out, OFFSET)


def test_missing_event_row_is_rejected(copy):
    p, out = copy
    path = out / "events.csv"
    lines = path.read_text().splitlines(keepends=True)
    del lines[3]
    path.write_text("".join(lines))
    assert checks.check_run_dir(p, out, OFFSET)


def test_nudged_event_gradient_is_rejected(copy):
    p, out = copy
    _edit_csv(out / "events.csv", 2, 2, _nudge)
    assert checks.check_run_dir(p, out, OFFSET)


@pytest.mark.parametrize("column", [1, 2, 3])
def test_nudged_average_value_is_rejected(copy, column):
    p, out = copy
    _edit_csv(out / "avg_trajectory.csv", 40, column, _nudge)
    assert checks.check_run_dir(p, out, OFFSET)


def test_flipped_average_flag_is_rejected(copy):
    p, out = copy
    i = _first_row(out / "avg_trajectory.csv", 4, "1")
    _edit_csv(out / "avg_trajectory.csv", i, 4, _flip)
    assert checks.check_run_dir(p, out, OFFSET)


@pytest.mark.parametrize("old, new", [
    ("passed = true", "passed = false"),
    ("g_av: pass", "g_av: FAIL first_violation_k=3 max_excess=0.1"),
    ("rho0 = 0.98", "rho0 = 0.97"),
])
def test_altered_report_is_rejected(copy, old, new):
    p, out = copy
    report = out / "report.txt"
    text = report.read_text()
    assert old in text
    report.write_text(text.replace(old, new, 1))
    assert checks.check_run_dir(p, out, OFFSET)


def test_wrong_event_count_in_report_is_rejected(copy):
    p, out = copy
    report = out / "report.txt"
    lines = report.read_text().splitlines()
    i = lines.index("# events: true loop") + 1
    lines[i] = "count = 2"
    report.write_text("\n".join(lines) + "\n")
    assert checks.check_run_dir(p, out, OFFSET)


def test_unconverged_tail_is_rejected(copy):
    p, out = copy
    assert checks.check_run_dir(dict(p, theta_star=p["theta_star"] + 0.5),
                                out, OFFSET, workloads.RUN_LONG_TAIL_RADIUS)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    p = _params()
    tokens = ["0.6", "1.1", "1.6"]
    cfg = tmp / "sweep.cfg"
    cfg.write_text(workloads.config_text(p))
    out = tmp / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--param", "trigger.alpha",
                     "--values", ",".join(tokens), "--out", str(out)]) == 0
    return p, tokens, out


def test_genuine_sweep_passes(sweep_dir):
    p, tokens, out = sweep_dir
    assert checks.check_sweep_dir(p, "trigger.alpha", tokens, out, OFFSET) == []


@pytest.mark.parametrize("column, fn", [
    (1, lambda c: str(int(c) + 1)),
    (2, _nudge),
    (3, _nudge),
    (4, _flip),
    (5, lambda c: repr(float(c) - 0.01)),
])
def test_altered_summary_is_rejected(sweep_dir, tmp_path, column, fn):
    p, tokens, out = sweep_dir
    target = tmp_path / "out"
    shutil.copytree(out, target)
    _edit_csv(target / "summary.csv", 1, column, fn)
    assert checks.check_sweep_dir(p, "trigger.alpha", tokens, target, OFFSET)


def _library(p):
    spec = _prepare("monte-carlo", {"draws": [p]}, None)[0]
    return _library_rows(_library_pipeline(spec, OFFSET))


def test_genuine_library_draws_pass():
    for p in workloads.monte_carlo(3)[:5]:
        assert checks.check_library(p, *_library(p), OFFSET) == []


@pytest.mark.parametrize("key, value", [
    ("decay_passed", False),
    ("event_count", 0),
    ("rho0", 0.5),
    ("g_av", 7),
])
def test_altered_library_result_is_rejected(key, value):
    p = workloads.monte_carlo(3)[0]
    rows, events, avg_rows, results = _library(p)
    results[key] = value
    assert checks.check_library(p, rows, events, avg_rows, results, OFFSET)


def test_flipped_library_row_is_rejected():
    p = workloads.monte_carlo(3)[0]
    rows, events, avg_rows, results = _library(p)
    k, *rest, fired = rows[10]
    rows[10] = (k, *rest, not fired)
    assert checks.check_library(p, rows, events, avg_rows, results, OFFSET)


def test_screen_rejects_a_diverging_draw():
    p = dict(_params(), k=-20_000.0)
    assert not checks.simulate_finite(p)
    assert checks.simulate_finite(_params())


def test_inputs_depend_only_on_the_seed():
    for make in (workloads.run_long, workloads.sweep, workloads.monte_carlo):
        assert make(11) == make(11)
        assert make(11) != make(12)
