"""The README's Python examples run as written, from a directory that holds
a copy of configs/, as they would from a source checkout."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python example {number}", "exec"), {})
    assert "# assumption check" in capsys.readouterr().out
