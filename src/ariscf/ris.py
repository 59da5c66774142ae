"""Active-RIS reflection model: amplitude gain from the power budget, reflection state, power accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import NetworkRealization, Scenario


@dataclass(frozen=True)
class RisState:
    """Reflection state: phase vector and common amplitude gain."""

    phases: np.ndarray   # (N,) radians in [0, 2*pi)
    a: float             # common amplitude gain, >= 0

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1:
            raise ValueError(f"phases must be one 1-D vector, got shape {phases.shape}")
        if not np.isfinite(phases).all():   # checked before np.mod, which warns on inf
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", np.mod(phases, 2.0 * np.pi))
        if not (np.isfinite(self.a) and self.a >= 0):   # nan < 0 is false
            raise ValueError(f"amplitude gain must be finite and >= 0, got {self.a!r}")

    @property
    def phasor(self) -> np.ndarray:
        """Unit-modulus reflection coefficients exp(j * phases)."""
        return np.exp(1j * self.phases)


def _reflected_load(sc: Scenario, alpha_bar: np.ndarray) -> float:
    """Power one element reflects per unit gain: rho_u d_H d_V sum_k alpha_bar_k + sigma2_bar."""
    return sc.rho_u * sc.element_area * float(np.sum(alpha_bar)) + sc.sigma2_bar


def amplitude_gain(scenario: Scenario, alpha_bar: np.ndarray) -> float:
    """Common amplitude gain min{sqrt(budget headroom / reflected load), a_max}.

    0.0 when the per-element circuit and DC power already exceed the budget, so
    sweeps over N cross the feasibility boundary; a_max at zero reflected load."""
    headroom = scenario.xi * (scenario.P_aris - scenario.N * (scenario.P_c + scenario.P_dc))
    if headroom < 0:
        return 0.0
    load = scenario.N * _reflected_load(scenario, alpha_bar)
    if load == 0:
        return scenario.a_max
    return min(float(np.sqrt(headroom / load)), scenario.a_max)


def aris_output_power(realization: NetworkRealization, a: float) -> float:
    """Total power reflected by the surface: a^2 N (rho_u d_H d_V sum_k alpha_bar_k + sigma2_bar)."""
    sc = realization.scenario
    return a * a * sc.N * _reflected_load(sc, realization.alpha_bar)


def aris_power_consumption(realization: NetworkRealization, a: float) -> float:
    """Power drawn by the surface: N (P_c + P_dc) + output power / amplifier efficiency.

    Equals P_aris exactly when `amplitude_gain` set `a` from the budget
    headroom, not from the a_max clamp or an exhausted budget.
    """
    sc = realization.scenario
    return sc.N * (sc.P_c + sc.P_dc) + aris_output_power(realization, a) / sc.xi
