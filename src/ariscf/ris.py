"""Active-RIS reflection model: amplitude gain from the power budget, reflection state, power accounting."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import NetworkRealization, Scenario


class BudgetExhaustedWarning(UserWarning):
    """Raised when the active-RIS power budget cannot sustain any amplification."""


@dataclass(frozen=True)
class RisState:
    """Reflection state: phase vector and common amplitude gain."""

    phases: np.ndarray   # (N,) radians in [0, 2*pi)
    a: float             # common amplitude gain, >= 0

    def __post_init__(self):
        object.__setattr__(self, "phases", np.mod(np.asarray(self.phases, dtype=float), 2.0 * np.pi))
        if self.a < 0:
            raise ValueError("amplitude gain must be >= 0")

    @property
    def phasor(self) -> np.ndarray:
        """Unit-modulus reflection coefficients exp(j * phases)."""
        return np.exp(1j * self.phases)


def _reflected_load(sc: Scenario, alpha_bar: np.ndarray) -> float:
    """Power one element reflects per unit gain: rho_u d_H d_V sum_k alpha_bar_k + sigma2_bar."""
    return sc.rho_u * sc.element_area * float(np.sum(alpha_bar)) + sc.sigma2_bar


def unclamped_amplitude_gain(scenario: Scenario, alpha_bar: np.ndarray) -> float:
    """Power-budget amplitude gain before the a_max clamp; 0 if the budget is exhausted, inf at zero load."""
    headroom = scenario.xi * (scenario.P_aris - scenario.N * (scenario.P_c + scenario.P_dc))
    if headroom < 0:
        return 0.0
    load = scenario.N * _reflected_load(scenario, alpha_bar)
    return float(np.sqrt(headroom / load)) if load > 0 else float("inf")


def amplitude_gain(scenario: Scenario, alpha_bar: np.ndarray) -> float:
    """Common amplitude gain min{sqrt(budget headroom / reflected load), a_max}.

    Returns 0 with a BudgetExhaustedWarning when the per-element circuit and
    DC power already exceed the budget, so sweeps over N can cross the
    feasibility boundary instead of erroring out.
    """
    a = unclamped_amplitude_gain(scenario, alpha_bar)
    if a == 0.0:
        warnings.warn("active-RIS power budget exhausted by circuit+DC power; amplitude gain set to 0",
                      BudgetExhaustedWarning)
        return 0.0
    return min(a, scenario.a_max)


def aris_output_power(realization: NetworkRealization, a: float) -> float:
    """Total power reflected by the surface: a^2 N (rho_u d_H d_V sum_k alpha_bar_k + sigma2_bar)."""
    sc = realization.scenario
    return a * a * sc.N * _reflected_load(sc, realization.alpha_bar)


def aris_power_consumption(realization: NetworkRealization, a: float) -> float:
    """Power drawn by the surface: N (P_c + P_dc) + output power / amplifier efficiency.

    Equals P_aris exactly when `a` comes from the un-clamped budget branch.
    """
    sc = realization.scenario
    return sc.N * (sc.P_c + sc.P_dc) + aris_output_power(realization, a) / sc.xi
