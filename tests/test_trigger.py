"""Triggering condition and tuning diagnostics."""

import math
import random
import struct

import pytest

from etseek import (
    AvgState,
    LoopSpec,
    MapSpec,
    TriggerSpec,
    avg_step,
    contraction_increment,
    decay_rate,
    should_trigger,
    validate_assumption,
)
from helpers import draw_specs, reference_specs

# Independently computed: sqrt(0.7) via decimal Newton iteration.
ROOT_SIGMA_07 = 0.8366600265340756


def test_measurement_error_examples():
    # the error the trigger sees is the held gradient minus the current one
    specs = reference_specs()
    for held, g, error in ((0.37, 0.37, 0.0), (1.0, 0.4, 0.6),
                           (0.0, -0.25, 0.25)):
        state = AvgState(k=0, g_av=g, held_g_av=held)
        assert avg_step(*specs, state)[1].error == error


def test_should_trigger_examples():
    trig = TriggerSpec(sigma=0.7, alpha=0.74)
    # 0.83666*1 - 0.74*1.2 = -0.0513 < 0
    assert should_trigger(trig, gradient=1.0, error=1.2) is True
    # 0.83666*1 - 0.74*1.0 = +0.0967 >= 0
    assert should_trigger(trig, gradient=1.0, error=1.0) is False
    assert math.sqrt(trig.sigma) == ROOT_SIGMA_07


def test_zero_error_never_triggers():
    for sigma, alpha, g in [(0.7, 0.74, 1.0), (0.01, 5.0, -2.5),
                            (0.99, 0.1, 0.0), (0.5, 1.0, 1e-300)]:
        assert not should_trigger(TriggerSpec(sigma, alpha), g, 0.0)


def test_nan_never_triggers():
    # a NaN gradient or error makes the margin NaN, and NaN < 0 is false: a
    # diverged loop stops refreshing its hold instead of firing
    nan = math.nan
    for sigma, alpha in [(0.7, 0.74), (0.7, 2.0), (0.01, 5.0)]:
        trig = TriggerSpec(sigma, alpha)
        for g, e in [(nan, 1.0), (1.0, nan), (nan, nan), (nan, 0.0),
                     (0.0, nan), (math.inf, nan)]:
            assert should_trigger(trig, g, e) is False


def test_scale_invariance_property():
    # both sides of the condition are 1-homogeneous in (|g|, |e|)
    rng = random.Random(91)
    for _ in range(1500):
        trig = TriggerSpec(sigma=rng.uniform(0.01, 0.99),
                           alpha=rng.uniform(0.01, 10.0))
        g = rng.uniform(-10.0, 10.0)
        e = rng.uniform(-10.0, 10.0)
        c = math.exp(rng.uniform(-6.0, 6.0))
        assert should_trigger(trig, c * g, c * e) == should_trigger(trig, g, e)


def test_monotonicity_property():
    rng = random.Random(92)
    for _ in range(1000):
        trig = TriggerSpec(sigma=rng.uniform(0.01, 0.99),
                           alpha=rng.uniform(0.01, 10.0))
        g = rng.uniform(-5.0, 5.0)
        e = rng.uniform(-5.0, 5.0)
        grow = rng.uniform(1.0, 4.0)
        if should_trigger(trig, g, e):
            # larger error keeps it firing
            assert should_trigger(trig, g, grow * e)
        if e != 0.0 and not should_trigger(trig, g, e):
            # larger gradient keeps it quiet
            assert not should_trigger(trig, grow * g, e)


def test_validate_assumption_reference_values():
    report = validate_assumption(*reference_specs())
    # rho0 = 1 - 0.18*0.01*(-0.7)*(-240)/2 = 1 - 0.1512
    assert abs(report.rho0 - 0.8488) < 1e-12
    assert report.rho0_in_unit_interval is True
    assert report.sign_match is True
    # frozen from an independent decimal evaluation of the bound formula
    assert report.alpha_min == pytest.approx(1.8804406459690333, abs=1e-12)
    assert report.alpha == 0.74
    assert report.alpha_satisfies is False


def test_sign_mismatch_flagged():
    map_spec, loop, trig = reference_specs()
    flipped = LoopSpec(amplitude_a=loop.amplitude_a, omega=loop.omega,
                       epsilon=loop.epsilon, gain_k=+240.0)
    report = validate_assumption(map_spec, flipped, trig)
    assert report.sign_match is False
    # c = eps*a^2*H*K/2 < 0 here, so rho0 > 1: the alpha bound degenerates
    assert report.rho0 == pytest.approx(1.1512, abs=1e-12)
    assert report.rho0_in_unit_interval is False
    assert math.isnan(report.alpha_min)
    assert report.alpha_satisfies is False


def test_report_fields_satisfy_their_formulas():
    rng = random.Random(93)
    for _ in range(300):
        h = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        map_spec = MapSpec(q_star=rng.uniform(-5, 5), h_star=h,
                           theta_star=rng.uniform(-5, 5))
        loop = LoopSpec(amplitude_a=rng.uniform(0.05, 0.5),
                        omega=rng.uniform(0.5, 20.0),
                        epsilon=rng.uniform(0.01, 0.5),
                        gain_k=rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 500.0))
        trig = TriggerSpec(sigma=rng.uniform(0.01, 0.99),
                           alpha=rng.uniform(0.01, 5.0))
        report = validate_assumption(map_spec, loop, trig)
        a = loop.amplitude_a
        rho0 = 1.0 - loop.epsilon * a * a * map_spec.h_star * loop.gain_k / 2.0
        assert report.rho0 == rho0
        assert report.rho0_in_unit_interval == (0.0 < abs(rho0) < 1.0)
        assert report.sign_match == ((map_spec.h_star > 0) == (loop.gain_k > 0))
        if 1.0 - rho0 * rho0 > 0.0:
            expected = (loop.epsilon * a * a * abs(map_spec.h_star)
                        * abs(loop.gain_k) / math.sqrt(2.0)
                        * math.sqrt(1.0 + 7.0 * rho0 * rho0)
                        / (1.0 - rho0 * rho0))
            assert report.alpha_min == expected
            assert report.alpha_satisfies == (trig.alpha > expected)
        else:
            assert math.isnan(report.alpha_min)


def test_diagnostics_match_the_inline_closed_forms():
    # the expressions as they were written out before contraction_increment
    # existed: the derived forms must give the same bits, nan included
    def bits(x):
        return struct.pack("<d", x)

    rng = random.Random(94)
    map_spec, loop, trig = reference_specs()
    cases = [(map_spec, loop, trig),
             (map_spec, loop._replace(gain_k=240.0), trig)]
    cases += [draw_specs(rng) for _ in range(3000)]
    for map_spec, loop, trig in cases:
        a, h, k = loop.amplitude_a, map_spec.h_star, loop.gain_k
        c_g = loop.epsilon * a * a * h * k / 2.0
        rho0 = 1.0 - loop.epsilon * a * a * h * k / 2.0
        if 1.0 - rho0 * rho0 > 0.0:
            scale = loop.epsilon * a * a * abs(h) * abs(k) / math.sqrt(2.0)
            alpha_min = (scale * math.sqrt(1.0 + 7.0 * rho0 * rho0)
                         / (1.0 - rho0 * rho0))
        else:
            alpha_min = math.nan
        rho = 1.0 - (1.0 - rho0 * rho0) * (1.0 - trig.sigma) / 2.0
        report = validate_assumption(map_spec, loop, trig)
        assert bits(contraction_increment(map_spec, loop)) == bits(c_g)
        assert bits(report.rho0) == bits(rho0)
        assert bits(report.alpha_min) == bits(alpha_min)
        assert bits(decay_rate(map_spec, loop, trig)) == bits(rho)
