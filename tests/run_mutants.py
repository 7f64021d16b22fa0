"""Apply each mutation of tests/mutants.txt and see its tests fail.

    python tests/run_mutants.py [NAME ...]

Each entry of tests/mutants.txt names a file under src, a piece of its
source text that occurs exactly once, a replacement for it (most put one
ulp into an expression with math.nextafter), and the tests that must then
fail. For each entry, the runner copies the tree's src, tests, configs,
pyproject.toml and README.md into a temporary directory, applies the
replacement there and runs the named tests in a subprocess. It prints one
line per entry:

- caught: each named test failed (for a file or a function, some test
  in it failed);
- partly: some named tests failed, and others passed;
- missed: every named test passed; an entry marked "expect: missed" is a
  known miss, printed with its reason, and does not fail the run;
- stale: the source text no longer occurs exactly once;
- error: pytest could not run the tests (exit code 2 to 5).

It exits 0 when every entry is caught or an expected miss, and 1 otherwise.
Give entry names to run only those. It is not part of the test suite: each
entry runs its tests in a fresh interpreter, about 1 to 6 s each. The
suite's tests/test_mutants.py checks the cheap half, that each entry's
source text occurs exactly once.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.txt"
_COPIED = ("src", "tests", "configs", "pyproject.toml", "README.md")
_KEYS = ("name", "file", "find", "replace", "tests", "expect")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the tree
    find: str
    replace: str
    tests: tuple[str, ...]
    expect: str  # "caught", or "missed: <reason>"


def read_mutants(path: Path = MUTANTS) -> list[Mutant]:
    """The entries of a mutants file.

    An entry is a run of "key: value" lines; blank lines separate entries,
    and lines starting with # are comments. The value is the rest of the
    line after ": ", so source text keeps its spaces. expect defaults to
    caught.
    """
    entries, fields = [], {}
    lines = path.read_text().splitlines() + [""]
    for number, line in enumerate(lines, 1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if fields:
                entries.append(_mutant(fields, path))
                fields = {}
            continue
        key, sep, value = line.partition(": ")
        if not sep or key not in _KEYS or key in fields:
            raise ValueError(f"{path}:{number}: expected one of {_KEYS} once, "
                             f"as 'key: value', got {line!r}")
        fields[key] = value
    return entries


def _mutant(fields, path):
    missing = [key for key in _KEYS[:5] if key not in fields]
    if missing:
        raise ValueError(f"{path}: entry {fields.get('name')!r} lacks {missing}")
    return Mutant(fields["name"], fields["file"], fields["find"],
                  fields["replace"], tuple(fields["tests"].split()),
                  fields.get("expect", "caught"))


def _failed(named: str, failed: set[str]) -> bool:
    """Whether a test under the pytest id named failed: the id itself, a
    test of that file or function, or a parameter case of it."""
    return any(node == named or node.startswith((named + "::", named + "["))
               for node in failed)


def _run(mutant: Mutant) -> tuple[str, float]:
    """(outcome, seconds) of one entry."""
    source = (ROOT / mutant.file).read_text()
    if source.count(mutant.find) != 1:
        return "stale", 0.0
    with tempfile.TemporaryDirectory(prefix="etseek-mutant-") as tmp:
        tree = Path(tmp)
        for name in _COPIED:
            here = ROOT / name
            if here.is_dir():
                shutil.copytree(here, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.pyc"))
            else:
                shutil.copy2(here, tree / name)
        (tree / mutant.file).write_text(source.replace(mutant.find,
                                                       mutant.replace))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, capture_output=True, text=True, timeout=600)
        seconds = time.perf_counter() - started
    if proc.returncode not in (0, 1):
        return "error", seconds
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    caught = [_failed(named, failed) for named in mutant.tests]
    return ("caught" if all(caught) else "partly" if any(caught)
            else "missed"), seconds


def main(argv: list[str]) -> int:
    mutants = read_mutants()
    if argv:
        unknown = set(argv) - {m.name for m in mutants}
        if unknown:
            print(f"no such entries: {sorted(unknown)}", file=sys.stderr)
            return 2
        mutants = [m for m in mutants if m.name in argv]
    bad = 0
    for mutant in mutants:
        outcome, seconds = _run(mutant)
        expected = mutant.expect.partition(":")[0]
        note = ""
        if outcome == "missed" and expected == "missed":
            note = f" (expected:{mutant.expect.partition(':')[2]})"
        elif outcome != "caught":
            bad += 1
        print(f"{outcome:7} {seconds:5.1f} s  {mutant.name}{note}")
    print(f"{len(mutants) - bad} of {len(mutants)} entries as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
