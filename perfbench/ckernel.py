"""Build and load the committed C kernel as a timing reference.

The package ships `src/etseek/_ckernel.c` (Cython output) but no build of
it. When gcc and the Python headers are present the benchmark compiles it
with -O2 -ffp-contract=off, the flags setup.py uses, into its own ignored
build directory and loads it from there without installing it into the
package. Anything missing means no compiled reference, never a failure.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sysconfig
from pathlib import Path

BUILD_TIMEOUT_S = 600


def library_path(work):
    return Path(work) / "build" / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))


def build(root, work):
    """Path of a current build of the C kernel, or (None, reason)."""
    source = Path(root) / "src" / "etseek" / "_ckernel.c"
    include = Path(sysconfig.get_paths()["include"])
    gcc = shutil.which("gcc")
    if not source.is_file():
        return None, f"{source.name} is not in the tree"
    if gcc is None:
        return None, "gcc not found"
    if not (include / "Python.h").is_file():
        return None, "Python headers not found"
    target = library_path(work)
    if target.is_file() and target.stat().st_mtime >= source.stat().st_mtime:
        return target, None
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_suffix(".partial")
    env = dict(os.environ, TMPDIR=str(target.parent))
    try:
        proc = subprocess.run(
            [gcc, "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pipe",
             f"-I{include}", str(source), "-o", str(partial)],
            capture_output=True, text=True, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "gcc timed out"
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, "gcc failed: " + last
    partial.replace(target)
    return target, None


def load(path):
    """The compiled kernel module from path, not registered in sys.modules."""
    spec = importlib.util.spec_from_file_location("etseek._ckernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
