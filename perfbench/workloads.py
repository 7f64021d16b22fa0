"""Seeded inputs of the three workloads.

Every input is a plain parameter dict keyed like the config file
(q_star, h_star, theta_star, a, omega, epsilon, k, sigma, alpha, theta_hat0,
n_iters). The same seed always gives the same inputs; nothing here imports
etseek.

- run-long: one config near the converging example (q_star = 0, k = -20,
  alpha = 0.9 on the reference map and dither), 100k iterations, run with
  `etseek run --mode both`.
- sweep: the same kind of config at 10k iterations, swept over six
  trigger.alpha values. The first lies below sqrt(sigma), where the hold,
  seeded with a zero gradient, can never refresh.
- monte-carlo: 40 random parameter sets at 2000 iterations each, sent
  through the library calls. Draws whose trajectories would leave the
  finite floats are redrawn, screened by the benchmark's own recursion.
"""

from __future__ import annotations

import random

import checks

WORKLOADS = ("run-long", "sweep", "monte-carlo")

OFFSET_CONSTANT = 0.3
RUN_LONG_ITERS = 100_000
RUN_LONG_TAIL_RADIUS = 0.02
SWEEP_ITERS = 10_000
SWEEP_PARAM = "trigger.alpha"
SWEEP_ALPHAS = (0.6, 0.9, 1.1, 1.3, 1.6, 2.0)
MC_DRAWS = 40
MC_ITERS = 2000

_SECTIONS = (
    ("map", ("q_star", "h_star", "theta_star")),
    ("loop", ("a", "omega", "epsilon", "k")),
    ("trigger", ("sigma", "alpha")),
    ("run", ("theta_hat0", "n_iters")),
)


def _converging(rng, n_iters):
    """Reference map and dither with q_star = 0 and k = -20, jittered by rng.

    The jitter moves the extremum and the start, not the amount of work:
    the update share stays near 79% and the tail settles within 0.01.
    """
    theta_star = round(rng.uniform(2.5, 3.5), 6)
    return {
        "q_star": 0.0,
        "h_star": round(rng.uniform(-0.75, -0.65), 6),
        "theta_star": theta_star,
        "a": 0.1,
        "omega": 7.0,
        "epsilon": 0.18,
        "k": -20.0,
        "sigma": 0.7,
        "alpha": round(rng.uniform(0.88, 0.92), 6),
        "theta_hat0": round(theta_star - rng.uniform(2.0, 3.0), 6),
        "n_iters": n_iters,
    }


def run_long(seed):
    return _converging(random.Random(f"run-long:{seed}"), RUN_LONG_ITERS)


def sweep(seed):
    """(base params, alpha tokens); the tokens become the entry directories."""
    rng = random.Random(f"sweep:{seed}")
    base = _converging(rng, SWEEP_ITERS)
    tokens = [repr(round(v + rng.uniform(-0.02, 0.02), 4)) for v in SWEEP_ALPHAS]
    return base, tokens


def _mc_draw(rng):
    h = rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 1.2)
    a = rng.uniform(0.05, 0.2)
    epsilon = rng.uniform(0.05, 0.25)
    # solve for the gain so the averaged loop contracts: c_g in [0.005, 0.2]
    c_g = rng.uniform(0.005, 0.2)
    theta_star = rng.uniform(-3.0, 3.0)
    return {
        "q_star": rng.uniform(-1.0, 1.0),
        "h_star": h,
        "theta_star": theta_star,
        "a": a,
        "omega": rng.uniform(4.0, 10.0),
        "epsilon": epsilon,
        "k": 2.0 * c_g / (epsilon * a * a * h),
        "sigma": rng.uniform(0.3, 0.9),
        "alpha": rng.uniform(0.5, 2.0),
        "theta_hat0": theta_star + rng.uniform(-3.0, 3.0),
        "n_iters": MC_ITERS,
    }


def monte_carlo(seed):
    """MC_DRAWS parameter sets whose trajectories stay finite."""
    rng = random.Random(f"monte-carlo:{seed}")
    draws = []
    while len(draws) < MC_DRAWS:
        p = _mc_draw(rng)
        if checks.simulate_finite(p):
            draws.append(p)
    return draws


def config_text(p, mode="both", offset_constant=OFFSET_CONSTANT):
    """Render a parameter dict as an etseek config file."""
    lines = []
    for section, keys in _SECTIONS:
        lines.append(f"[{section}]")
        lines += [f"{key} = {p[key]!r}" for key in keys]
    lines += [f"mode = {mode}", f"offset_constant = {offset_constant!r}"]
    return "\n".join(lines) + "\n"


def make(workload, seed):
    """JSON-ready inputs of one workload."""
    if workload == "run-long":
        return {"params": run_long(seed)}
    if workload == "sweep":
        base, tokens = sweep(seed)
        return {"params": base, "param": SWEEP_PARAM, "tokens": tokens}
    if workload == "monte-carlo":
        return {"draws": monte_carlo(seed)}
    raise ValueError(f"unknown workload {workload!r}")


def steps_per_op(workload, inputs):
    """True plus averaged loop iterations one operation completes."""
    if workload == "sweep":
        return 2 * inputs["params"]["n_iters"] * len(inputs["tokens"])
    if workload == "monte-carlo":
        return 2 * MC_ITERS
    return 2 * inputs["params"]["n_iters"]

