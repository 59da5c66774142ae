"""Closed-form uplink SINR and SE per user, and energy efficiency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SecondOrderStats, compute_stats
from .estimation import EstimationStats, compute_estimation_stats
from .ris import RisState, aris_power_consumption
from .scenario import NetworkRealization


@dataclass(frozen=True)
class SinrBreakdown:
    """All terms of the uplink SINR of every user, as (K,) arrays; `i2_terms`
    holds the eight interference addends."""

    i1: np.ndarray
    i2_terms: dict
    i3: np.ndarray

    @property
    def ds(self) -> np.ndarray:
        return self.i1 * self.i1

    @property
    def i2(self) -> np.ndarray:
        return np.sum(list(self.i2_terms.values()), axis=0)

    @property
    def sinr(self) -> np.ndarray:
        return self.ds / (self.i2 + self.i3)


def sinr_all(stats: SecondOrderStats, est_stats: EstimationStats) -> SinrBreakdown:
    """Uplink SINR terms of every user under MRC on the LMMSE estimates.

    All statistics are S-CSI only. The contamination addends run over the
    coset excluding the user itself so each addend is separately zero without
    pilot sharing and separately checkable against the Monte Carlo oracle; the
    noise floor keeps the perfect-estimation reading sum(alpha) + sigma2 sum(kappa).

    Sums over other users are row sums weighted by `mask`, `mask - I` or `1 - I`:
    a total minus the diagonal cancels when a user's own channel dominates.
    """
    sc = stats.realization.scenario
    s, kappa, alpha_an, t2 = stats.xi_scale, stats.kappa, stats.alpha_an, stats.t2
    rho_tau = sc.rho * sc.tau_p
    c, gamma = est_stats.c, est_stats.gamma
    c2 = c * c
    mask = sc.coset_mask.astype(float)           # (K, K) [k, j]: j shares k's pilot
    contam, others = mask - np.eye(len(mask)), 1.0 - np.eye(len(mask))
    u = c.T @ s                                  # (K, K) [k, j] = sum_m c_{m,k} s_{m,j}
    kc = c.T @ kappa                             # (K, K) [k, j] = sum_m c_{m,k} kappa_{m,j}

    terms = {
        # Xi-coherent double sum over APs and all user pairs
        "coherent_xi": t2 * (u.sum(axis=1) * (u * mask).sum(axis=1)),
        # per-AP estimate-variance square (beamforming uncertainty)
        "gamma_sq": (gamma * gamma).sum(axis=0),
        # non-coherent inter-user interference
        "inter_user_kappa": (((c2 * (kappa @ mask.T)).T @ kappa) * others).sum(axis=1),
        # RIS-noise leakage through the pilot projection
        "active_noise_pilot": (c2.T @ alpha_an).sum(axis=1) / rho_tau,
        # AP-noise leakage through the pilot projection
        "ap_noise_pilot": sc.sigma2 * (c2.T @ kappa).sum(axis=1) / rho_tau,
        # coherent contamination bias power
        "contamination_mean_sq": (kc * kc * contam).sum(axis=1),
        # contamination cross term kappa_k * kappa_k'
        "contamination_kappa": (((c2 * kappa).T @ kappa) * contam).sum(axis=1),
        # per-AP tr(Xi^2) excess over the coset
        "contamination_xi_sq": t2 * ((c2.T @ s ** 2) * mask).sum(axis=1),
    }
    return SinrBreakdown(i1=np.sqrt(sc.rho_u) * gamma.sum(axis=0),
                         i2_terms={name: sc.rho_u * value for name, value in terms.items()},
                         i3=alpha_an.sum(axis=0) + sc.sigma2 * kappa.sum(axis=0))


def sinr_user(stats: SecondOrderStats, est_stats: EstimationStats, k: int):
    """User k's SINR written for that user alone: (ds, sinr, bu, ui, an, no).

    ds and sinr equal those of `sinr_all` up to round-off: here ds squares a
    float and the eight addends add left to right from 0.0. bu, ui, an, no
    regroup the denominator into the expectation groups of the derivation:
    beamforming uncertainty, the (K,) per-interferer powers (zero at k),
    active RIS noise and AP noise. Only the Monte Carlo oracle asks for them.
    """
    sc = stats.realization.scenario
    kappa, s, t2 = stats.kappa, stats.xi_scale, stats.t2
    rho_tau = sc.rho * sc.tau_p
    c, gamma = est_stats.c[:, k], est_stats.gamma[:, k]
    coset = np.flatnonzero(sc.coset_mask[k])
    contam = coset[coset != k]
    others = np.flatnonzero(np.arange(stats.K) != k)
    u = c @ s                                  # (K,) sum_m c_m s_{m,j}
    kappa_coset = kappa[:, coset].sum(axis=1)  # (M,) coset channel power per AP
    c2 = c * c
    u_coset = float(u[coset].sum())
    an = float(stats.alpha_an[:, k].sum())
    no = sc.sigma2 * float(kappa[:, k].sum())
    i2 = 0.0
    for value in (
        t2 * float(u.sum() * u_coset),
        float(np.sum(gamma ** 2)),
        float(np.sum(c2[:, None] * kappa[:, others] * kappa_coset[:, None])),
        float(np.sum(c2[:, None] * stats.alpha_an)) / rho_tau,
        sc.sigma2 * float(np.sum(c2[:, None] * kappa)) / rho_tau,
        float(np.sum((kappa[:, contam].T @ c) ** 2)),
        float(np.sum((c2 * kappa[:, k])[:, None] * kappa[:, contam])),
        t2 * float(np.sum(c2[:, None] * s[:, coset] ** 2)),
    ):
        i2 += sc.rho_u * value
    ds = float(np.sqrt(sc.rho_u) * gamma.sum()) ** 2

    pilot_noise = (stats.alpha_an + sc.sigma2 * kappa) / rho_tau  # (M, K)
    bu = sc.rho_u * float(
        t2 * u[k] * u_coset
        + np.sum(gamma ** 2)
        + t2 * np.sum(c2 * s[:, k] ** 2)
        + np.sum(c2 * kappa[:, k] * (kappa_coset - kappa[:, k]))
        + np.sum(c2 * pilot_noise[:, k])
    )
    ui = np.zeros(stats.K)
    for kp in others:
        common = t2 * u_coset * u[kp] + float(np.sum(c2 * kappa[:, kp] * kappa_coset)) \
            + float(np.sum(c2 * pilot_noise[:, kp]))
        if kp in contam:
            common += float((c @ kappa[:, kp]) ** 2) \
                + t2 * float(np.sum(c2 * s[:, kp] ** 2))
        ui[kp] = sc.rho_u * common
    return ds, ds / (i2 + (an + no)), bu, ui, an, no


def evaluate_phases(realization: NetworkRealization, phases: np.ndarray, a: float,
                    prelog: bool = False):
    """Closed-form per-user SE (K,) and the LMMSE statistics for one RIS phase vector.

    SE_k = log2(1 + SINR_k), times the (1 - tau_p/tau_c) prelog when `prelog`.
    """
    stats = compute_stats(realization, RisState(phases=phases, a=a))
    est = compute_estimation_stats(stats)
    se = np.log2(1.0 + sinr_all(stats, est).sinr)
    if prelog:
        se *= 1.0 - realization.scenario.tau_p / realization.scenario.tau_c
    return se, est


def energy_efficiency(realization: NetworkRealization, sum_se_value: float, a: float) -> float:
    """Delivered bits per Joule: B * sum SE / total power.

    Total power = K zeta rho_u + per-AP backhaul (fixed P0 plus traffic share;
    each AP carries sum SE / M, so the traffic term totals B * sum_SE * Pbt)
    + the active-RIS draw N(P_c + P_dc) + output power / xi.
    """
    if sum_se_value == 0:
        return 0.0   # no bits delivered (rho_u = 0), where the total power may be 0 as well
    sc = realization.scenario
    backhaul = sc.M * sc.P0 + sc.B * sum_se_value * sc.Pbt
    p_total = sc.K * sc.zeta * sc.rho_u + backhaul + aris_power_consumption(realization, a)
    return sc.B * sum_se_value / p_total
