"""The README's examples run as written, from a directory that holds a copy
of configs/, as they would from a source checkout: each `python` example,
and each `sh` block that calls `etseek`, whose regeneration commands must
rewrite the golden sets byte for byte."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ("reference", "many-fires", "diverging", "sweep")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$",
                      (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = _blocks("python")
    assert blocks
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python example {number}", "exec"), {})
    assert "# assumption check" in capsys.readouterr().out


@pytest.mark.skipif(not (shutil.which("sh") and shutil.which("sed")),
                    reason="the README's shell blocks need sh and sed")
def test_readme_etseek_commands_run_and_regenerate_the_goldens(tmp_path):
    blocks = [block for block in _blocks("sh") if re.search(r"^etseek ", block, re.M)]
    assert blocks
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    (tmp_path / "tests" / "golden" / "sweep").mkdir(parents=True)
    # etseek is the console script: python -m etseek.cli on this tree's src
    env = os.environ | {"PYTHON": sys.executable, "PYTHONPATH": str(ROOT / "src")}
    for block in blocks:
        done = subprocess.run(
            ["sh", "-ec", 'etseek() { "$PYTHON" -m etseek.cli "$@"; }\n' + block],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (block, done.stderr)
    for name in GOLDENS:
        golden = ROOT / "tests" / "golden" / name
        rewritten = tmp_path / "tests" / "golden" / name
        assert sorted(p.name for p in rewritten.iterdir()) == \
            sorted(p.name for p in golden.iterdir()), name
        for path in golden.iterdir():
            assert (rewritten / path.name).read_bytes() == path.read_bytes(), path
