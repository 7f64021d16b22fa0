"""Static event-triggering condition and tuning diagnostics.

The condition compares sqrt(sigma) times the current gradient magnitude
against alpha times the measurement error magnitude; the hold refreshes on
strict crossings only. Diagnostics check the contraction factor rho0 and the
minimal alpha the stability argument needs. Violations are reported, never
raised: reference parameter sets that fail the bound must still simulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from etseek.escore import LoopSpec, MapSpec


@dataclass(frozen=True)
class TriggerSpec:
    """Event parameters: sigma in (0,1) and a finite alpha > 0."""

    sigma: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("TriggerSpec.sigma must lie in (0,1)")
        if not math.isfinite(self.alpha):
            raise ValueError("TriggerSpec.alpha must be finite")
        if self.alpha <= 0.0:
            raise ValueError("TriggerSpec.alpha must be > 0")


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the tuning check; diagnostic only.

    alpha_min is NaN when |rho0| >= 1 makes the bound's denominator
    non-positive; alpha_bound_defined records that case explicitly.
    """

    rho0: float
    rho0_in_unit_interval: bool
    sign_match: bool
    alpha: float
    alpha_min: float
    alpha_satisfies: bool
    alpha_bound_defined: bool

    def lines(self) -> list[str]:
        """Plain-text rendering used by reports."""
        out = [
            f"rho0 = {self.rho0!r}",
            f"rho0_in_unit_interval = {_bool_word(self.rho0_in_unit_interval)}",
            f"sign_match = {_bool_word(self.sign_match)}",
            f"alpha = {self.alpha!r}",
            f"alpha_min = {self.alpha_min!r}",
            f"alpha_satisfies = {_bool_word(self.alpha_satisfies)}",
        ]
        if not self.alpha_bound_defined:
            out.append("note: alpha bound undefined (|rho0| >= 1)")
        elif not self.alpha_satisfies:
            out.append("note: alpha is below the minimal bound; simulation proceeds anyway")
        return out


def _bool_word(flag: bool) -> str:
    return "true" if flag else "false"


def measurement_error(held_gradient: float, gradient: float) -> float:
    """Deviation of the current gradient estimate from the held one."""
    return held_gradient - gradient


def should_trigger(trig: TriggerSpec, gradient: float, error: float) -> bool:
    """True iff sqrt(sigma)*|gradient| - alpha*|error| < 0 (strict)."""
    return math.sqrt(trig.sigma) * abs(gradient) - trig.alpha * abs(error) < 0.0


def contraction_increment(map_spec: "MapSpec", loop: "LoopSpec") -> float:
    """Contraction increment c_g = eps*a^2*H*K/2 of the averaged loop.

    g_av steps as (1 - c_g)*g_av - c_g*e, so rho0 = 1 - c_g. It is the only
    coefficient: the parameter error is g_av / h_star by construction. The
    averaged loop, its closed form and these diagnostics all take it here.
    """
    a = loop.amplitude_a
    return loop.epsilon * a * a * map_spec.h_star * loop.gain_k / 2.0


def validate_assumption(map_spec: "MapSpec", loop: "LoopSpec",
                        trig: TriggerSpec) -> AssumptionReport:
    """Check the contraction factor and the minimal-alpha bound.

    rho0 = 1 - c_g must sit in (0,1) in magnitude and the gain must share
    the curvature's sign for the averaged loop to contract; alpha must
    exceed (2*|c_g|/sqrt(2)) * sqrt(1+7*rho0^2)/(1-rho0^2), where 2*|c_g| is
    eps*a^2*|H||K|. All outcomes are flags on the report, not exceptions.
    """
    c_g = contraction_increment(map_spec, loop)
    rho0 = 1.0 - c_g
    denominator = 1.0 - rho0 * rho0
    defined = denominator > 0.0
    if defined:
        scale = 2.0 * abs(c_g) / math.sqrt(2.0)
        alpha_min = scale * math.sqrt(1.0 + 7.0 * rho0 * rho0) / denominator
    else:
        alpha_min = float("nan")
    return AssumptionReport(
        rho0=rho0,
        rho0_in_unit_interval=0.0 < abs(rho0) < 1.0,
        sign_match=(map_spec.h_star > 0.0) == (loop.gain_k > 0.0),
        alpha=trig.alpha,
        alpha_min=alpha_min,
        alpha_satisfies=trig.alpha > alpha_min,
        alpha_bound_defined=defined,
    )
