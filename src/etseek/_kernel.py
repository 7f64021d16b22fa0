"""Stepping kernels: the hot loops behind escore.run and average.avg_run.

escore.step and average.avg_step are the readable definition of one
iteration; these loops inline the same operations in the same order, and
tests/test_kernels.py holds them to that composition bit for bit. Keep the
operation order and expressions as they are: golden files depend on it.
"""

from __future__ import annotations

from math import sin, sqrt


def run_loop(q_star, h_star, theta_star, a, omega, epsilon, gain_k,
             sigma, alpha, theta_hat0, n_iters):
    """Step the true closed loop n_iters times from k = 0.

    Returns (rows, events). rows[k] is the tuple
    (theta_hat, theta, y, gradient, error, control, fired) observed at
    iteration k, with error recorded before any hold reset. events is the
    list of (k, gradient_at_event); the k = 0 entry is the initialization
    event that seeds the hold, not a fired trigger.
    """
    we = omega * epsilon
    root_sigma = sqrt(sigma)
    th = theta_hat0
    held = 0.0
    rows = []
    events = []
    for k in range(n_iters):
        s = a * sin(we * k)
        theta = th + s
        d = theta - theta_star
        y = q_star + 0.5 * h_star * (d * d)
        g = s * y
        if k == 0:
            # the origin is a triggering instant: it seeds the hold, and the
            # error below is then exactly zero
            held = g
            events.append((0, g))
        e = held - g
        fired = root_sigma * abs(g) - alpha * abs(e) < 0.0
        if fired:
            held = g
            events.append((k, g))
        u = -gain_k * held
        rows.append((th, theta, y, g, e, u, fired))
        th = th + epsilon * u
    return rows, events


def avg_loop(h_star, c_g, c_t, sigma, alpha, theta_tilde0, n_iters):
    """Step the averaged closed loop n_iters times from k = 0.

    c_g is the gradient contraction increment (eps*a^2*H*K/2) and c_t its
    input-error counterpart for the parameter estimate (eps*a^2*K/2); the
    caller computes both so the coefficients match the diagnostics exactly.

    rows[k] is (g_av, theta_tilde_av, held_g_av, error, fired) at iteration
    k; held_g_av is the post-fire hold and error the pre-fire value, matching
    the true-loop record layout. events is the list of (k, g_at_event).
    """
    root_sigma = sqrt(sigma)
    rho0 = 1.0 - c_g
    g = h_star * theta_tilde0
    tt = theta_tilde0
    held = g
    rows = []
    events = [(0, g)]
    for k in range(n_iters):
        e = held - g
        fired = root_sigma * abs(g) - alpha * abs(e) < 0.0
        if fired:
            held = g
            events.append((k, g))
            e_post = 0.0
        else:
            e_post = e
        rows.append((g, tt, held, e, fired))
        g = rho0 * g - c_g * e_post
        tt = rho0 * tt - c_t * e_post
    return rows, events
