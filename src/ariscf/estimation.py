"""LMMSE estimation of the aggregated channel, with closed-form statistics."""

from __future__ import annotations

import numpy as np

from .scenario import NetworkRealization


def compute_estimation_stats(realization: NetworkRealization, a: float, kappa: np.ndarray):
    """LMMSE scaling c, estimate variance gamma = kappa c and NMSE 1 - c per (AP, user) link,
    each (M, K): c = rho tau_p kappa / (rho tau_p sum_coset kappa + pilot noise power), with
    pilot noise power sigma2_bar a^2 tr(R_m) + sigma2 at the gain a; tr(R_m) carries the
    d_H d_V element-area factor of the covariance model."""
    sc = realization.scenario
    coset_kappa = kappa @ sc.coset_mask.T  # (M, K): sum over user k's coset
    active_noise = sc.sigma2_bar * a ** 2 * realization.tr_rm
    rho_tau = sc.rho * sc.tau_p
    c = rho_tau * kappa / (rho_tau * coset_kappa + active_noise[:, None] + sc.sigma2)
    return c, kappa * c, 1.0 - c
