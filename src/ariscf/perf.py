"""Closed-form uplink SINR and SE per user, and energy efficiency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SecondOrderStats, compute_stats
from .estimation import EstimationStats, PilotPlan, compute_estimation_stats
from .ris import RisState, aris_power_consumption
from .scenario import NetworkRealization, Scenario


@dataclass(frozen=True)
class SinrBreakdown:
    """All terms of the uplink SINR for one user.

    `i2_terms` holds the eight interference addends; `sinr_groups` writes the
    same denominator regrouped by physical origin for Monte Carlo comparison.
    """

    k: int
    i1: float
    i2_terms: dict
    i3: float

    @property
    def ds(self) -> float:
        """Desired-signal power."""
        return self.i1 ** 2

    @property
    def i2(self) -> float:
        return float(sum(self.i2_terms.values()))

    @property
    def sinr(self) -> float:
        return self.i1 ** 2 / (self.i2 + self.i3)


def _user_inputs(stats: SecondOrderStats, est_stats: EstimationStats, plan: PilotPlan, k: int):
    """User k's LMMSE columns, its coset split, and the coset sums that both
    the addends and the groups read: (c, gamma, coset, contam, others, u, kappa_coset)."""
    c = est_stats.c[:, k]
    coset = plan.coset(k)
    u = c @ stats.xi_scale                           # (K,) sum_m c_m s_{m,j}
    kappa_coset = stats.kappa[:, coset].sum(axis=1)  # (M,) coset channel power per AP
    others = np.flatnonzero(np.arange(stats.K) != k)
    return c, est_stats.gamma[:, k], coset, coset[coset != k], others, u, kappa_coset


def sinr_closed_form(scenario: Scenario, stats: SecondOrderStats,
                     est_stats: EstimationStats, plan: PilotPlan, k: int) -> SinrBreakdown:
    """Uplink SINR of user k under MRC on the LMMSE estimates.

    All statistics are S-CSI only. The contamination addends run over the
    coset excluding k itself so each addend is separately zero without pilot
    sharing and separately checkable against the Monte Carlo oracle; the noise
    floor keeps the perfect-estimation reading sum(alpha) + sigma2 sum(kappa).
    """
    sc = scenario
    kappa = stats.kappa
    s = stats.xi_scale
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p
    c, gamma, coset, contam, others, u, kappa_coset = _user_inputs(stats, est_stats, plan, k)
    c2 = c * c

    terms = {
        # Xi-coherent double sum over APs and all user pairs
        "coherent_xi": t2 * float(u.sum() * u[coset].sum()),
        # per-AP estimate-variance square (beamforming uncertainty)
        "gamma_sq": float(np.sum(gamma ** 2)),
        # non-coherent inter-user interference
        "inter_user_kappa": float(np.sum(c2[:, None] * kappa[:, others] * kappa_coset[:, None])),
        # RIS-noise leakage through the pilot projection
        "active_noise_pilot": float(np.sum(c2[:, None] * stats.alpha_an)) / rho_tau,
        # AP-noise leakage through the pilot projection
        "ap_noise_pilot": sc.sigma2 * float(np.sum(c2[:, None] * kappa)) / rho_tau,
        # coherent contamination bias power
        "contamination_mean_sq": float(np.sum((kappa[:, contam].T @ c) ** 2)),
        # contamination cross term kappa_k * kappa_k'
        "contamination_kappa": float(np.sum((c2 * kappa[:, k])[:, None] * kappa[:, contam])),
        # per-AP tr(Xi^2) excess over the coset
        "contamination_xi_sq": t2 * float(np.sum(c2[:, None] * s[:, coset] ** 2)),
    }
    terms = {name: sc.rho_u * value for name, value in terms.items()}

    i1 = float(np.sqrt(sc.rho_u) * gamma.sum())
    i3 = float(stats.alpha_an[:, k].sum() + sc.sigma2 * kappa[:, k].sum())
    return SinrBreakdown(k=k, i1=i1, i2_terms=terms, i3=i3)


def sinr_groups(scenario: Scenario, stats: SecondOrderStats,
                est_stats: EstimationStats, plan: PilotPlan, k: int):
    """User k's SINR denominator regrouped into the expectation groups of the
    derivation: (bu, ui, an, no), i.e. beamforming uncertainty, the (K,)
    per-interferer powers (zero at k), active RIS noise and AP noise.

    They sum to i2 + i3 of `sinr_closed_form` up to round-off; the Monte Carlo
    oracle compares them group by group. The SE path never builds them.
    """
    sc = scenario
    kappa = stats.kappa
    s = stats.xi_scale
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p
    c, gamma, coset, contam, others, u, kappa_coset = _user_inputs(stats, est_stats, plan, k)
    c2 = c * c
    u_coset = float(u[coset].sum())
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
    an = float(stats.alpha_an[:, k].sum())
    no = sc.sigma2 * float(kappa[:, k].sum())
    return bu, ui, an, no


def evaluate_phases(scenario: Scenario, realization: NetworkRealization, plan: PilotPlan,
                    phases: np.ndarray, a: float, prelog: bool = False):
    """Closed-form per-user SE (K,) and the LMMSE statistics for one RIS phase vector.

    SE_k = log2(1 + SINR_k), times the (1 - tau_p/tau_c) prelog when `prelog`.
    """
    stats = compute_stats(realization, RisState(phases=phases, a=a))
    est = compute_estimation_stats(scenario, stats, plan)
    sinr = np.array([sinr_closed_form(scenario, stats, est, plan, k).sinr
                     for k in range(stats.K)])
    se = np.log2(1.0 + sinr)
    if prelog:
        se *= 1.0 - scenario.tau_p / scenario.tau_c
    return se, est


def energy_efficiency(scenario: Scenario, realization: NetworkRealization,
                      sum_se_value: float, a: float) -> float:
    """Delivered bits per Joule: B * sum SE / total power.

    Total power = K zeta rho_u + per-AP backhaul (fixed P0 plus traffic share;
    each AP carries sum SE / M, so the traffic term totals B * sum_SE * Pbt)
    + the active-RIS draw N(P_c + P_dc) + output power / xi.
    """
    sc = scenario
    backhaul = sc.M * sc.P0 + sc.B * sum_se_value * sc.Pbt
    p_total = sc.K * sc.zeta * sc.rho_u + backhaul + aris_power_consumption(sc, realization, a)
    return sc.B * sum_se_value / p_total
