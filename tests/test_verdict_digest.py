"""Verdict gate: one SHA-256 over the checks of 150 seeded library runs.

Each config runs both loops through the library, in blocks of 7 rows and in
one block of all n rows, and feeds every block to the five accumulators
that `etseek run` feeds: the true loop's events and envelopes, and the
averaged loop's events, decay and envelopes. Both block sizes must give the
same reports, and the repr of every report must hash to the digest in
tests/golden/verdict-digest.txt. So a change that moves one verdict, one
violation row or one bit of an excess or a rate fails here. The draws take
gains up to +-1e300, starts at the optimum, near it and at +-1e200, and
horizons from 1 to 3000.

After an intentional behaviour change, regenerate the file with:

    PYTHONPATH=src python tests/test_verdict_digest.py > tests/golden/verdict-digest.txt
"""

import hashlib
import math
import random
import sys
from pathlib import Path

from etseek import LoopSpec, MapSpec, TriggerSpec, analysis, average, escore

DIGEST = Path(__file__).resolve().parent / "golden" / "verdict-digest.txt"
CONFIGS = 150


def _draw(rng):
    """(specs, theta_hat0, n_iters, offset_constant) of one seeded config."""
    h = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
    map_spec = MapSpec(q_star=rng.uniform(-5.0, 5.0), h_star=h,
                       theta_star=rng.uniform(-5.0, 5.0))
    a, epsilon = rng.uniform(0.05, 0.5), rng.uniform(0.01, 0.5)
    scale = rng.choice((None, None, None, 1e3, 1e100, 1e300))
    if scale is None:  # a contraction increment c of either sign, as in helpers
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.4)
        gain = c * 2.0 / (epsilon * a * a * h)
    else:
        gain = rng.choice((-1.0, 1.0)) * scale * rng.uniform(0.5, 1.0)
    loop = LoopSpec(amplitude_a=a, omega=rng.uniform(0.5, 20.0),
                    epsilon=epsilon, gain_k=gain)
    trig = TriggerSpec(sigma=rng.uniform(0.05, 0.95),
                       alpha=math.exp(rng.uniform(-3.0, 1.5)))
    theta_hat0 = rng.choice((
        map_spec.theta_star, map_spec.theta_star + rng.uniform(-0.5, 0.5),
        rng.uniform(-8.0, 8.0), rng.choice((-1e200, 1e200))))
    n_iters = (rng.choice((1, 2, 7, 8, 3000)) if rng.random() < 0.2
               else round(3000 ** rng.random()))
    return (map_spec, loop, trig), theta_hat0, n_iters, rng.choice((0.0, 1e-3, 0.3))


def _reports(specs, theta_hat0, n_iters, offset_constant, block_rows):
    """The five reports of both loops' runs, fed in blocks of block_rows."""
    map_spec, loop, _ = specs
    events = analysis.EventAccumulator(loop.epsilon)
    envelopes = analysis.EnvelopeAccumulator(escore.StepColumns, *specs,
                                             offset_constant)
    i = 0
    for block in escore.run_blocks(*specs, theta_hat0, n_iters, block_rows):
        events.feed(escore.event_ks(block.triggered, i))
        envelopes.feed(block)
        i += len(block.triggered)
    avg_events = analysis.EventAccumulator(loop.epsilon)
    decay = analysis.DecayAccumulator(*specs)
    avg_envelopes = analysis.EnvelopeAccumulator(average.AvgColumns, *specs)
    i = 0
    for block in average.avg_run_blocks(
            *specs, theta_hat0 - map_spec.theta_star, n_iters, block_rows):
        avg_events.feed(escore.event_ks(block.triggered, i))
        decay.feed(analysis.lyapunov_values(block.g_av))
        avg_envelopes.feed(block)
        i += len(block.triggered)
    return (events.stats(), envelopes.report(), avg_events.stats(),
            decay.report(), avg_envelopes.report())


def fuzz_reports() -> list:
    """The reports of every config, fed in one block of all its rows;
    asserts that blocks of 7 rows give the very same reports."""
    rng = random.Random(20261020)
    reports = []
    for case in range(CONFIGS):
        specs, theta_hat0, n_iters, offset = _draw(rng)
        whole = _reports(specs, theta_hat0, n_iters, offset, n_iters)
        assert repr(_reports(specs, theta_hat0, n_iters, offset, 7)) == repr(whole), case
        reports.append(whole)
    return reports


def digest(reports) -> str:
    return hashlib.sha256("".join(
        repr(report) + "\n" for report in reports).encode()).hexdigest()


def test_fuzzed_verdicts_keep_their_digest():
    reports = fuzz_reports()
    # the draws reach each verdict of each check, and rates past 1 and inf
    for index in (1, 3, 4):  # true envelopes, decay, averaged envelopes
        assert {report[index].passed for report in reports} == {True, False}
    rhos = {report[3].rho for report in reports}
    assert math.inf in rhos and any(1.0 < rho < math.inf for rho in rhos)
    expected = [line for line in DIGEST.read_text().splitlines()
                if not line.startswith("#")]
    assert [digest(reports)] == expected


if __name__ == "__main__":
    sys.stdout.write(f"# SHA-256 of the reports of tests/test_verdict_digest.py's "
                     f"{CONFIGS} seeded configs;\n# regenerate with: PYTHONPATH=src "
                     "python tests/test_verdict_digest.py > "
                     "tests/golden/verdict-digest.txt\n"
                     + digest(fuzz_reports()) + "\n")
