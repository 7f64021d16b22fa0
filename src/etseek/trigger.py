"""Static event-triggering condition and tuning diagnostics.

The condition compares sqrt(sigma) times the current gradient magnitude
against alpha times the measurement error magnitude; the hold refreshes on
strict crossings only. Diagnostics check the contraction factor rho0 and the
minimal alpha the stability argument needs. Violations are reported, never
raised: reference parameter sets that fail the bound must still simulate.
The AssumptionReport holds values only; etseek.cli renders it as text.

Every other etseek module imports this one, and it imports none of them,
so it also holds checked, which makes a NamedTuple type check its values
however an instance is made.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from etseek.escore import LoopSpec, MapSpec

__all__ = [
    "AssumptionReport",
    "TriggerSpec",
    "contraction_increment",
    "should_trigger",
    "validate_assumption",
]


def checked(base):
    """The NamedTuple type base, made to run its _check on every instance.

    The returned subclass, of base's name and module, runs _check in
    __new__, which construction and unpickling call, and its _make calls the
    constructor, so _make and _replace run it too. typing.NamedTuple forbids
    both overrides in base's own body.
    """
    def __new__(cls, *args, **kwargs):
        self = base.__new__(cls, *args, **kwargs)
        self._check()
        return self

    def _make(cls, iterable):
        return cls(*iterable)

    return type(base.__name__, (base,), {
        "__slots__": (), "__doc__": base.__doc__, "__module__": base.__module__,
        "__new__": __new__, "_make": classmethod(_make)})


@checked
class TriggerSpec(NamedTuple):
    """Event parameters: sigma in (0,1) and a finite alpha > 0."""

    sigma: float
    alpha: float

    def _check(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("TriggerSpec.sigma must lie in (0,1)")
        if not math.isfinite(self.alpha):
            raise ValueError("TriggerSpec.alpha must be finite")
        if self.alpha <= 0.0:
            raise ValueError("TriggerSpec.alpha must be > 0")


class AssumptionReport(NamedTuple):
    """Outcome of the tuning check; diagnostic only.

    alpha_min is NaN when |rho0| >= 1 makes the bound's denominator
    non-positive, and only then.
    """

    rho0: float
    rho0_in_unit_interval: bool
    sign_match: bool
    alpha: float
    alpha_min: float
    alpha_satisfies: bool


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
    if denominator > 0.0:
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
    )
