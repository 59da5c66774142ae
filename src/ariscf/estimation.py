"""LMMSE estimation of the aggregated channel, with closed-form statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SecondOrderStats


@dataclass(frozen=True)
class EstimationStats:
    """Closed-form LMMSE quantities per (AP, user) link."""

    c: np.ndarray      # (M, K) LMMSE scaling, in (0, 1)
    gamma: np.ndarray  # (M, K) estimate variance kappa * c
    nmse: np.ndarray   # (M, K) normalized MSE 1 - c


def compute_estimation_stats(stats: SecondOrderStats) -> EstimationStats:
    """LMMSE scaling c = rho tau_p kappa / (rho tau_p sum_coset kappa + pilot noise power).

    The pilot-noise power is sigma2_bar a^2 tr(R_m) + sigma2, with the stats' gain a;
    tr(R_m) carries the d_H d_V element-area factor of the covariance model. It
    reads only what `scale_stats` built, from `phase_traces` or any other traces.
    """
    sc = stats.realization.scenario
    coset_kappa = stats.kappa @ sc.coset_mask.T  # (M, K): sum over user k's coset
    active_noise = sc.sigma2_bar * stats.a ** 2 * stats.realization.tr_rm
    rho_tau = sc.rho * sc.tau_p
    c = rho_tau * stats.kappa / (rho_tau * coset_kappa + active_noise[:, None] + sc.sigma2)
    gamma = stats.kappa * c
    return EstimationStats(c=c, gamma=gamma, nmse=1.0 - c)
