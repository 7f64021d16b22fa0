"""Stepping kernels: the hot loops behind escore.run and average.avg_run.

escore.step and average.avg_step are the readable definition of one
iteration: each returns (state, record), the record being row k of the
matching loop here. These loops inline the same operations in the same
order, and tests/test_kernels.py holds each loop's rows and events to those
composed from the step's records, bit for bit. Keep the operation order and
expressions as they are: golden files depend on it.

Both kernels return columns, not rows: a tuple of per-step columns, one
array('d') per value and an array('b') of fired flags last, in the field
order of the matching record type (escore.StepRecord, average.AvgRecord)
without k, which is the index. They keep no event list: escore.event_log
reads the triggering instants off the fired column.
"""

from __future__ import annotations

from array import array
from math import sin, sqrt


def run_loop(q_star, h_star, theta_star, a, omega, epsilon, gain_k,
             sigma, alpha, theta_hat0, n_iters):
    """Step the true closed loop n_iters times from k = 0.

    Returns the columns (theta_hat, theta, y, gradient, error, control,
    fired), each holding the value observed at iteration k at index k, with
    error recorded before any hold reset. Row 0 seeds the hold and so never
    fires: its error is 0.0, or NaN from a non-finite gradient.
    """
    we = omega * epsilon
    root_sigma = sqrt(sigma)
    th = theta_hat0
    held = 0.0
    columns = (array("d"), array("d"), array("d"), array("d"), array("d"),
               array("d"), array("b"))
    add_th, add_theta, add_y, add_g, add_e, add_u, add_fired = (
        col.append for col in columns)
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
        e = held - g
        fired = root_sigma * abs(g) - alpha * abs(e) < 0.0
        if fired:
            held = g
        u = -gain_k * held
        add_th(th)
        add_theta(theta)
        add_y(y)
        add_g(g)
        add_e(e)
        add_u(u)
        add_fired(fired)
        th = th + epsilon * u
    return columns


def avg_loop(h_star, c_g, sigma, alpha, theta_tilde0, n_iters):
    """Step the averaged closed loop n_iters times from k = 0.

    c_g is trigger.contraction_increment, passed in so the recursion
    matches the diagnostics exactly. g is the only state: the
    theta_tilde_av column is g / h_star, so g_av = h_star * theta_tilde_av
    by construction. Returns the columns (g_av, theta_tilde_av, held_g_av,
    error, fired), indexed by k, with the post-fire hold and the pre-fire
    error as in run_loop; row 0 never fires here either.
    """
    root_sigma = sqrt(sigma)
    rho0 = 1.0 - c_g
    g = h_star * theta_tilde0
    held = g
    columns = (array("d"), array("d"), array("d"), array("d"), array("b"))
    add_g, add_tt, add_held, add_e, add_fired = (col.append for col in columns)
    for k in range(n_iters):
        e = held - g
        fired = root_sigma * abs(g) - alpha * abs(e) < 0.0
        if fired:
            held = g
            e_post = 0.0
        else:
            e_post = e
        add_g(g)
        add_tt(g / h_star)
        add_held(held)
        add_e(e)
        add_fired(fired)
        g = rho0 * g - c_g * e_post
    return columns
