"""Pilot plan and LMMSE estimation of the aggregated channel, with closed-form statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SecondOrderStats
from .scenario import Scenario


@dataclass(frozen=True)
class PilotPlan:
    """Pilot assignment: which of the tau_p orthonormal pilots each user sends."""

    pilot_of: np.ndarray      # (K,) pilot index per user

    def coset(self, k: int) -> np.ndarray:
        """Users sharing user k's pilot, k included."""
        return np.flatnonzero(self.pilot_of == self.pilot_of[k])

    def coset_mask(self) -> np.ndarray:
        """(K, K) boolean, [k, j] true iff j shares user k's pilot."""
        return self.pilot_of[:, None] == self.pilot_of[None, :]


def assign_pilots(K: int, tau_p: int) -> PilotPlan:
    """Round-robin assignment pilot_of[k] = k mod tau_p (0-indexed users)."""
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    return PilotPlan(pilot_of=np.arange(K) % tau_p)


@dataclass(frozen=True)
class EstimationStats:
    """Closed-form LMMSE quantities per (AP, user) link."""

    c: np.ndarray      # (M, K) LMMSE scaling, in (0, 1)
    gamma: np.ndarray  # (M, K) estimate variance kappa * c
    nmse: np.ndarray   # (M, K) normalized MSE 1 - c


def compute_estimation_stats(scenario: Scenario, stats: SecondOrderStats,
                             plan: PilotPlan) -> EstimationStats:
    """LMMSE scaling c = rho tau_p kappa / (rho tau_p sum_coset kappa + pilot noise power).

    The pilot-noise power is sigma2_bar a^2 tr(R_m) + sigma2; tr(R_m) carries
    the d_H d_V element-area factor of the covariance model.
    """
    rl = stats.realization
    coset_kappa = stats.kappa @ plan.coset_mask().T  # (M, K): sum over user k's coset
    tr_rm = rl.alpha * scenario.element_area * scenario.N
    active_noise = scenario.sigma2_bar * stats.ris_state.a ** 2 * tr_rm
    rho_tau = scenario.rho * scenario.tau_p
    c = rho_tau * stats.kappa / (rho_tau * coset_kappa + active_noise[:, None] + scenario.sigma2)
    gamma = stats.kappa * c
    return EstimationStats(c=c, gamma=gamma, nmse=1.0 - c)
