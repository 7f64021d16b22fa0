"""Byte gate for edge configs: SHA-256 digests of every output they make.

Each case is configs/reference.cfg with some values replaced, run through
`etseek run` (plus its flags) and `etseek check`. The digest of each output
file, and of the check's stdout, must match tests/golden/edge-digests.txt,
so a change that moves one bit of any cell or report line fails here. The
cases reach rows the four golden sets do not: rows past the last finite
power of rho > 1, rho = inf with NaN rows, the row where twice a power
overflows, and a 100k-row run of the benchmark's run-long shape.

After an intentional behaviour change, regenerate the file with:

    PYTHONPATH=src python tests/test_edge_digests.py > tests/golden/edge-digests.txt
"""

import hashlib
import io
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from etseek.cli import main

TESTS = Path(__file__).resolve().parent
REFERENCE_CFG = TESTS.parent / "configs" / "reference.cfg"
DIGESTS = TESTS / "golden" / "edge-digests.txt"

# name: (replaced values of reference.cfg, extra `etseek run` flags)
CASES = {
    # rho > 1: the averaged loop grows, with rows past the last finite power
    "rho-above-one": ({"k": "240"}, ["--iters", "40000"]),
    # rho = inf, and the true loop's rows are NaN
    "rho-inf": ({"k": "-1e300", "theta_hat0": "1e200"}, []),
    # at the optimum, where twice a power of rho overflows
    "twice-a-power-overflows": ({"k": "-4890", "theta_hat0": "3.0"},
                                ["--iters", "3000", "--mode", "true-loop"]),
    # the benchmark's run-long config at seed 1
    "run-long": ({"q_star": "0.0", "h_star": "-0.704328", "theta_star": "2.670784",
                  "a": "0.1", "omega": "7.0", "epsilon": "0.18", "k": "-20.0",
                  "sigma": "0.7", "alpha": "0.890948", "theta_hat0": "0.096534"},
                 ["--iters", "100000", "--mode", "both"]),
}


def _config_text(values):
    text = REFERENCE_CFG.read_text()
    for key, value in values.items():
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                              flags=re.MULTILINE)
        assert found == 1, key
    return text


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_lines(work: Path) -> list[str]:
    """'case/file digest' of every output file and check stdout, in order."""
    lines = []
    for name, (values, flags) in CASES.items():
        config, out = work / f"{name}.cfg", work / name
        config.write_text(_config_text(values))
        check, wrote = io.StringIO(), io.StringIO()
        with redirect_stdout(check):
            assert main(["check", "--config", str(config)]) == 0
        with redirect_stdout(wrote):  # names tmp paths: not digested
            assert main(["run", "--config", str(config), "--out", str(out),
                         *flags]) == 0
        lines.append(f"{name}/check-stdout {_sha256(check.getvalue().encode())}")
        lines += [f"{name}/{path.name} {_sha256(path.read_bytes())}"
                  for path in sorted(out.iterdir())]
    return lines


def test_edge_config_outputs_keep_their_digests(tmp_path):
    expected = [line for line in DIGESTS.read_text().splitlines()
                if not line.startswith("#")]
    assert digest_lines(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        lines = digest_lines(Path(work))
    sys.stdout.write("# SHA-256 of each output of tests/test_edge_digests.py's cases;\n"
                     "# regenerate with: PYTHONPATH=src python "
                     "tests/test_edge_digests.py > tests/golden/edge-digests.txt\n"
                     + "".join(line + "\n" for line in lines))
