"""Output checks that do not depend on the program under test.

Nothing here imports etseek. Every expected value is recomputed from the
loop's defining equations, from the parameter dict the benchmark generated:

    theta = theta_hat + a*sin(omega*epsilon*k)
    y     = q_star + (h_star/2)*(theta - theta_star)^2
    g_hat = a*sin(omega*epsilon*k) * y
    e     = held - g_hat                (held: g_hat at the last event)
    fire  iff sqrt(sigma)*|g_hat| - alpha*|e| < 0
    u     = -k * held                   (after a fire, held = g_hat)
    theta_hat[k+1] = theta_hat[k] + epsilon*u

and for the averaged loop, with c_g = eps*a^2*H*K/2, c_t = eps*a^2*K/2 and
rho0 = 1 - c_g:

    g_av[k+1] = rho0*g_av[k] - c_g*e_post,  tt[k+1] = rho0*tt[k] - c_t*e_post

where e_post is 0 on a fired row and the recorded error otherwise. Rows are
checked locally (each row against its own predecessor), so the tolerance is a
few ulps scaled by the magnitudes involved, never a comparison against a
stored copy of earlier output.

Each check returns a list of problem strings; an empty list means the output
passed. Lists are capped so a badly broken output stays readable.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REL_TOL = 1e-12     # a few ulps, scaled by the magnitudes of the terms
ABS_TOL = 1e-300    # lets exact zeros and denormal tails compare
ULP = 2.0 ** -53
DECAY_SLACK = 1e-12
MAX_PROBLEMS = 5

TRUE_HEADER = ["k", "theta_hat", "theta", "y", "g_hat", "e", "u", "triggered"]
EVENTS_HEADER = ["l", "k_l", "g_hat_held", "u_held"]
AVG_HEADER = ["k", "g_av", "theta_tilde_av", "e_av", "triggered"]
SUMMARY_HEADER = ["value", "event_count", "mean_gap_seconds",
                  "final_theta_error", "decay_pass", "rho0"]


class _Problems(list):
    def add(self, msg):
        if len(self) < MAX_PROBLEMS:
            self.append(msg)

    @property
    def full(self):
        return len(self) >= MAX_PROBLEMS


def _close(value, expected, scale, tol=REL_TOL):
    """True iff value is within tol*scale of expected (NaN never is)."""
    return abs(value - expected) <= tol * scale + ABS_TOL


# --- closed-form quantities -------------------------------------------------

def coefficients(p):
    a = p["a"]
    c_g = p["epsilon"] * a * a * p["h_star"] * p["k"] / 2.0
    c_t = p["epsilon"] * a * a * p["k"] / 2.0
    return c_g, c_t


def rho0(p):
    return 1.0 - coefficients(p)[0]


def alpha_min(p):
    r = rho0(p)
    den = 1.0 - r * r
    if den <= 0.0:
        return math.nan
    a = p["a"]
    scale = p["epsilon"] * a * a * abs(p["h_star"]) * abs(p["k"]) / math.sqrt(2.0)
    return scale * math.sqrt(1.0 + 7.0 * r * r) / den


def decay_rate(p):
    r = rho0(p)
    return 1.0 - (1.0 - r * r) * (1.0 - p["sigma"]) / 2.0


def lyapunov_passes(p, g_av):
    """Recompute V = g_av^2 and test V[k+1] <= rho*V[k] + slack everywhere."""
    rho = decay_rate(p)
    v = [g * g for g in g_av]
    return all(b - rho * a - DECAY_SLACK <= 0.0 for a, b in zip(v, v[1:]))


def envelope_first_violation(values, bound_at):
    """First k with values[k] > bound_at(k), or None."""
    for k, v in enumerate(values):
        if v - bound_at(k) > 0.0:
            return k
    return None


def envelope_verdicts(p, true_rows, avg_rows, offset_constant):
    """First violation per envelope (None = pass), keyed as the report names them."""
    rho = decay_rate(p)
    out = {}
    if true_rows:
        ts, q = p["theta_star"], p["q_star"]
        th0 = abs(true_rows[0][2] - ts)
        y0 = abs(true_rows[0][3] - q)
        off2 = offset_constant * offset_constant
        out["theta"] = envelope_first_violation(
            [abs(r[2] - ts) for r in true_rows],
            lambda k: rho ** (0.5 * k) * th0 + offset_constant)
        out["y"] = envelope_first_violation(
            [abs(r[3] - q) for r in true_rows],
            lambda k: 2.0 * rho ** k * y0 + off2)
    if avg_rows:
        g0 = abs(avg_rows[0][1])
        t0 = abs(avg_rows[0][2])
        out["g_av"] = envelope_first_violation(
            [abs(r[1]) for r in avg_rows],
            lambda k: rho ** (0.5 * k) * g0 + DECAY_SLACK)
        out["theta_tilde_av"] = envelope_first_violation(
            [abs(r[2]) for r in avg_rows],
            lambda k: rho ** (0.5 * k) * t0 + DECAY_SLACK)
    return out


def _trigger_ok(p, g, e, fired):
    """Fired rows have a negative margin, others a non-negative one.

    A margin within a few ulps of zero is accepted either way, so an
    equivalent rearrangement of the comparison is not reported as a fault.
    """
    lhs = math.sqrt(p["sigma"]) * abs(g)
    rhs = p["alpha"] * abs(e)
    margin = lhs - rhs
    if margin != 0.0 and abs(margin) <= REL_TOL * (lhs + rhs):
        return True
    return (margin < 0.0) == fired


# --- row checks -------------------------------------------------------------

def check_true_rows(p, rows, events):
    """True-loop rows (k, theta_hat, theta, y, g_hat, e, u, triggered) and events.

    events are (l, k_l, g_hat_held, u_held); the first is the k = 0 seeding
    event, every later one must be a triggered row with that row's gradient.
    """
    probs = _Problems()
    n = p["n_iters"]
    if len(rows) != n:
        probs.add(f"true loop: {len(rows)} rows, expected {n}")
        return probs
    a, we = p["a"], p["omega"] * p["epsilon"]
    q, h, ts = p["q_star"], p["h_star"], p["theta_star"]
    eps, gain = p["epsilon"], p["k"]
    if not _close(rows[0][1], p["theta_hat0"], abs(p["theta_hat0"])):
        probs.add(f"true loop: theta_hat[0] = {rows[0][1]!r}, "
                  f"expected {p['theta_hat0']!r}")
    held = rows[0][4]
    expected_events = [(0, held)]
    prev_u = None
    for i, (k, th, theta, y, g, e, u, fired) in enumerate(rows):
        if probs.full:
            break
        if k != i:
            probs.add(f"true loop: row {i} has k = {k}")
            continue
        s = a * math.sin(we * k)
        d = theta - ts
        if not _close(theta, th + s, abs(th) + abs(s)):
            probs.add(f"true loop k={k}: theta {theta!r} != theta_hat + dither")
        if not _close(y, q + 0.5 * h * (d * d), abs(q) + abs(0.5 * h * d * d)):
            probs.add(f"true loop k={k}: y {y!r} != map(theta)")
        if not _close(g, s * y, abs(s * y)):
            probs.add(f"true loop k={k}: g_hat {g!r} != dither * y")
        if not _close(e, held - g, abs(held) + abs(g)):
            probs.add(f"true loop k={k}: e {e!r} != held - g_hat")
        if not _trigger_ok(p, g, e, fired):
            probs.add(f"true loop k={k}: triggered = {fired} disagrees with "
                      "sqrt(sigma)*|g| - alpha*|e| < 0")
        if fired:
            held = g
            expected_events.append((k, g))
        elif prev_u is not None and u != prev_u:
            probs.add(f"true loop k={k}: u changed without an event")
        if not _close(u, -gain * held, abs(gain * held)):
            probs.add(f"true loop k={k}: u {u!r} != -k * held gradient")
        prev_u = u
        if i + 1 < n:
            nxt = rows[i + 1][1]
            if not _close(nxt, th + eps * u, abs(th) + abs(eps * u)):
                probs.add(f"true loop k={k}: theta_hat[k+1] {nxt!r} "
                          "!= theta_hat + epsilon*u")
    if len(events) != len(expected_events):
        probs.add(f"events: {len(events)} rows, triggered rows imply "
                  f"{len(expected_events)}")
        return probs
    for l, ((idx, kl, gh, uh), (ek, eg)) in enumerate(zip(events, expected_events)):
        if probs.full:
            break
        if idx != l or kl != ek:
            probs.add(f"events row {l}: (l, k_l) = ({idx}, {kl}), "
                      f"expected ({l}, {ek})")
        elif not (_close(gh, eg, abs(eg))
                  and _close(uh, -gain * eg, abs(gain * eg))):
            probs.add(f"events row {l}: held pair ({gh!r}, {uh!r}) does not "
                      f"match the gradient {eg!r} at k = {ek}")
    return probs


def check_avg_rows(p, rows):
    """Averaged rows (k, g_av, theta_tilde_av, e_av, triggered)."""
    probs = _Problems()
    n = p["n_iters"]
    if len(rows) != n:
        probs.add(f"average loop: {len(rows)} rows, expected {n}")
        return probs
    c_g, c_t = coefficients(p)
    r0 = 1.0 - c_g
    h = p["h_star"]
    tt0 = p["theta_hat0"] - p["theta_star"]
    if not (_close(rows[0][2], tt0, abs(tt0))
            and _close(rows[0][1], h * tt0, abs(h * tt0))):
        probs.add(f"average loop: row 0 ({rows[0][1]!r}, {rows[0][2]!r}) "
                  "is not seeded at theta_hat0 - theta_star")
    held = rows[0][1]
    # g_av - h_star*theta_tilde_av is zero in exact arithmetic; its rounding
    # error is bounded by the per-step roundings, contracted by |rho0|
    pair_bound = 0.0
    for i, (k, g, tt, e, fired) in enumerate(rows):
        if probs.full:
            break
        if k != i:
            probs.add(f"average loop: row {i} has k = {k}")
            continue
        if not _close(e, held - g, abs(held) + abs(g)):
            probs.add(f"average loop k={k}: e_av {e!r} != held - g_av")
        if not _trigger_ok(p, g, e, fired):
            probs.add(f"average loop k={k}: triggered = {fired} disagrees "
                      "with the trigger condition")
        if not abs(g - h * tt) <= pair_bound + 4 * ULP * abs(h * tt) + ABS_TOL:
            probs.add(f"average loop k={k}: g_av {g!r} != h_star * "
                      f"theta_tilde_av {h * tt!r}")
        if fired:
            held = g
            e_post = 0.0
        else:
            e_post = e
        pair_bound = abs(r0) * pair_bound + 16 * ULP * (
            abs(r0 * g) + abs(c_g * e_post)
            + abs(h) * (abs(r0 * tt) + abs(c_t * e_post)))
        if i + 1 < n:
            _, g1, tt1, _, _ = rows[i + 1]
            if not _close(g1, r0 * g - c_g * e_post,
                          abs(r0 * g) + abs(c_g * e_post)):
                probs.add(f"average loop k={k}: g_av[k+1] {g1!r} breaks "
                          "the linear recursion")
            if not _close(tt1, r0 * tt - c_t * e_post,
                          abs(r0 * tt) + abs(c_t * e_post)):
                probs.add(f"average loop k={k}: theta_tilde_av[k+1] {tt1!r} "
                          "breaks the linear recursion")
    return probs


def check_tail(p, rows, radius, fraction=0.2):
    """theta_hat over the final fraction of the run stays within radius of theta_star."""
    start = int(len(rows) * (1.0 - fraction))
    worst = max(abs(r[1] - p["theta_star"]) for r in rows[start:])
    if not worst <= radius:
        return [f"tail: max |theta_hat - theta_star| = {worst!r} over the "
                f"last {fraction:.0%} exceeds {radius!r}"]
    return []


def event_gaps(ks, epsilon):
    """(count, mean gap in seconds or None) of event iterations ks."""
    if len(ks) < 2:
        return len(ks), None
    gaps = [b - a for a, b in zip(ks, ks[1:])]
    return len(ks), sum(gaps) / len(gaps) * epsilon


# --- file readers -----------------------------------------------------------

def _read_csv(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ValueError(f"{path.name}: header {got}, expected {header}")
        return list(reader)


def _flag(cell):
    if cell not in ("0", "1"):
        raise ValueError(f"flag cell {cell!r} is not 0 or 1")
    return cell == "1"


def read_true(path):
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4]),
             float(r[5]), float(r[6]), _flag(r[7]))
            for r in _read_csv(path, TRUE_HEADER)]


def read_events(path):
    return [(int(r[0]), int(r[1]), float(r[2]), float(r[3]))
            for r in _read_csv(path, EVENTS_HEADER)]


def read_avg(path):
    return [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), _flag(r[4]))
            for r in _read_csv(path, AVG_HEADER)]


def read_report(path):
    """report.txt as {section title: {key: value text}}."""
    sections = {}
    current = sections.setdefault("", {})
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            current = sections.setdefault(line[2:], {})
        elif " = " in line:
            key, value = line.split(" = ", 1)
            current[key] = value
        elif ": " in line:
            key, value = line.split(": ", 1)
            current[key] = value
    return sections


# --- report and directory checks --------------------------------------------

def _check_stats(probs, title, section, count, mean_gap_s):
    if section is None:
        probs.add(f"report: no '# events: {title}' section")
        return
    if section.get("count") != str(count):
        probs.add(f"report {title}: count = {section.get('count')}, "
                  f"expected {count}")
    got = section.get("mean_gap_seconds")
    if mean_gap_s is None:
        if got != "n/a":
            probs.add(f"report {title}: mean_gap_seconds = {got}, expected n/a")
    elif got is None or not _close(float(got), mean_gap_s, mean_gap_s):
        probs.add(f"report {title}: mean_gap_seconds = {got}, "
                  f"expected {mean_gap_s!r}")


def _check_envelopes(probs, title, section, verdicts):
    if section is None:
        probs.add(f"report: no '# envelopes: {title}' section")
        return
    for name, first in verdicts.items():
        got = section.get(name, "")
        want = "pass" if first is None else f"FAIL first_violation_k={first} "
        if not got.startswith(want):
            probs.add(f"report {title}: {name} = {got!r}, recomputed {want.strip()!r}")


def check_report(p, report, true_rows, events, avg_rows, offset_constant):
    """report.txt against the rows and the closed-form diagnostics."""
    probs = _Problems()
    head = report.get("assumption check", {})
    for key, want in (("rho0", rho0(p)), ("alpha_min", alpha_min(p))):
        got = head.get(key)
        if got is None or not (
                (math.isnan(want) and got == "nan")
                or _close(float(got), want, abs(want))):
            probs.add(f"report: {key} = {got}, closed form gives {want!r}")
    verdicts = envelope_verdicts(p, true_rows, avg_rows, offset_constant)
    if true_rows is not None:
        _check_stats(probs, "true loop", report.get("events: true loop"),
                     *event_gaps([ev[1] for ev in events], p["epsilon"]))
        title = f"true loop (offset_constant = {offset_constant!r})"
        _check_envelopes(probs, title, report.get(f"envelopes: {title}"),
                         {k: verdicts[k] for k in ("theta", "y")})
    if avg_rows is not None:
        ks = [0] + [r[0] for r in avg_rows if r[4]]
        _check_stats(probs, "average loop", report.get("events: average loop"),
                     *event_gaps(ks, p["epsilon"]))
        decay = report.get("decay: average loop", {})
        want = "true" if lyapunov_passes(p, [r[1] for r in avg_rows]) else "false"
        if decay.get("passed") != want:
            probs.add(f"report: decay passed = {decay.get('passed')}, "
                      f"recomputed Lyapunov sequence gives {want}")
        if decay.get("checked") != str(len(avg_rows) - 1):
            probs.add(f"report: decay checked = {decay.get('checked')}, "
                      f"expected {len(avg_rows) - 1}")
        _check_envelopes(probs, "average loop",
                         report.get("envelopes: average loop"),
                         {k: verdicts[k] for k in ("g_av", "theta_tilde_av")})
    return probs


def read_run_dir(out_dir):
    """(true rows, events, averaged rows, report) of one run directory."""
    out_dir = Path(out_dir)
    return (read_true(out_dir / "trajectory.csv"),
            read_events(out_dir / "events.csv"),
            read_avg(out_dir / "avg_trajectory.csv"),
            read_report(out_dir / "report.txt"))


def check_run_dir(p, out_dir, offset_constant, tail_radius=None):
    """All outputs of one `etseek run --mode both` directory."""
    try:
        outputs = read_run_dir(out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{Path(out_dir).name}: unreadable output: {exc}"]
    return check_outputs(p, outputs, offset_constant, tail_radius)


def check_outputs(p, outputs, offset_constant, tail_radius=None):
    """What read_run_dir returned, against the equations and closed forms."""
    rows, events, avg, report = outputs
    probs = check_true_rows(p, rows, events)
    probs += check_avg_rows(p, avg)
    probs += check_report(p, report, rows, events, avg, offset_constant)
    if tail_radius is not None:
        probs += check_tail(p, rows, tail_radius)
    return probs


def check_sweep_dir(p, param, tokens, out_dir, offset_constant):
    """A sweep over one trigger/loop/map key: every entry and summary.csv.

    p is the base parameter dict; each entry overrides p[param's name].
    """
    out_dir = Path(out_dir)
    name = param.split(".", 1)[1]
    try:
        summary = _read_csv(out_dir / "summary.csv", SUMMARY_HEADER)
    except (OSError, ValueError) as exc:
        return [f"summary.csv unreadable: {exc}"]
    if len(summary) != len(tokens):
        return [f"summary.csv: {len(summary)} rows for {len(tokens)} values"]
    probs = []
    for token, row in zip(tokens, summary):
        entry = dict(p, **{name: float(token)})
        try:
            outputs = read_run_dir(out_dir / token)
            rows, events, avg, _ = outputs
            value, count, gap, err, decay, r0 = row
            count_ok = int(count) == len(events)
            _, want_gap = event_gaps([ev[1] for ev in events], entry["epsilon"])
            gap_ok = (gap == "nan" if want_gap is None
                      else _close(float(gap), want_gap, want_gap))
            want_err = abs(rows[-1][2] - entry["theta_star"])
            err_ok = _close(float(err), want_err, want_err)
            decay_ok = _flag(decay) == lyapunov_passes(entry, [r[1] for r in avg])
            rho_ok = _close(float(r0), rho0(entry), abs(rho0(entry)))
            value_ok = float(value) == float(token)
        except (OSError, ValueError, IndexError) as exc:
            probs.append(f"{param}={token}: unreadable output: {exc}")
            continue
        probs += [f"{param}={token}: {m}" for m in
                  check_outputs(entry, outputs, offset_constant)]
        for ok, what in ((value_ok, "value"), (count_ok, "event_count"),
                         (gap_ok, "mean_gap_seconds"),
                         (err_ok, "final_theta_error"),
                         (decay_ok, "decay_pass"), (rho_ok, "rho0")):
            if not ok:
                probs.append(f"summary.csv {param}={token}: {what} disagrees "
                             "with the entry's files")
    return probs[:MAX_PROBLEMS]


def check_library(p, rows, events, avg_rows, results, offset_constant):
    """One monte-carlo draw: the rows plus the analysis results as plain values.

    results holds rho0, alpha_min, event_count, mean_gap_seconds,
    decay_passed, decay_checked and the four envelope first violations
    (None = pass), as the worker read them off the program's return values.
    """
    probs = check_true_rows(p, rows, events)
    probs += check_avg_rows(p, avg_rows)
    count, gap = event_gaps([ev[1] for ev in events], p["epsilon"])
    want = {
        "rho0": rho0(p),
        "alpha_min": alpha_min(p),
        "event_count": count,
        "mean_gap_seconds": gap,
        "decay_passed": lyapunov_passes(p, [r[1] for r in avg_rows]),
        "decay_checked": len(avg_rows) - 1,
    }
    want.update(envelope_verdicts(p, rows, avg_rows, offset_constant))
    for key, expected in want.items():
        got = results[key]
        if isinstance(expected, float) and not isinstance(got, bool):
            ok = (got is not None and (
                (math.isnan(expected) and math.isnan(got))
                or _close(got, expected, abs(expected))))
        else:
            ok = got == expected
        if not ok:
            probs.append(f"{key} = {got!r}, recomputed {expected!r}")
    return probs[:MAX_PROBLEMS]


# --- the benchmark's own recursion ------------------------------------------

def simulate_finite(p):
    """Step both loops with the equations above; True iff every value stays finite.

    Used to screen random draws before any timing, so each kept draw runs the
    program on inputs whose trajectories are finite.
    """
    a, we = p["a"], p["omega"] * p["epsilon"]
    q, h, ts = p["q_star"], p["h_star"], p["theta_star"]
    eps, gain = p["epsilon"], p["k"]
    rs, alpha = math.sqrt(p["sigma"]), p["alpha"]
    th = p["theta_hat0"]
    held = None
    fin = math.isfinite
    for k in range(p["n_iters"]):
        s = a * math.sin(we * k)
        theta = th + s
        d = theta - ts
        g = s * (q + 0.5 * h * (d * d))
        if held is None:
            held = g
        e = held - g
        if rs * abs(g) - alpha * abs(e) < 0.0:
            held = g
        th = th + eps * (-gain * held)
        if not (fin(g) and fin(th)):
            return False
    c_g, c_t = coefficients(p)
    r0 = 1.0 - c_g
    tt = p["theta_hat0"] - ts
    g = h * tt
    held = g
    for _ in range(p["n_iters"]):
        e = held - g
        if rs * abs(g) - alpha * abs(e) < 0.0:
            held = g
            e = 0.0
        g, tt = r0 * g - c_g * e, r0 * tt - c_t * e
        if not (fin(g) and fin(tt)):
            return False
    return True
