"""Closed-form uplink SINR and SE per user, and energy efficiency."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import SecondOrderStats, compute_stats
from .estimation import EstimationStats, PilotPlan, compute_estimation_stats
from .ris import RisState, aris_power_consumption
from .scenario import NetworkRealization, Scenario

I2_TERM_NAMES = (
    "coherent_xi",            # Xi-coherent double sum over APs and all user pairs
    "gamma_sq",               # per-AP estimate-variance square (beamforming uncertainty)
    "inter_user_kappa",       # non-coherent inter-user interference
    "active_noise_pilot",     # RIS-noise leakage through the pilot projection
    "ap_noise_pilot",         # AP-noise leakage through the pilot projection
    "contamination_mean_sq",  # coherent contamination bias power
    "contamination_kappa",    # contamination cross term kappa_k * kappa_k'
    "contamination_xi_sq",    # per-AP tr(Xi^2) excess over the coset
)


@dataclass(frozen=True)
class SinrBreakdown:
    """All terms of the uplink SINR for one user.

    `i2_terms` holds the eight interference addends; `ds`, `bu`, `ui`, `an`,
    `no` give the same denominator regrouped by physical origin
    (desired-signal, beamforming uncertainty, per-interferer power,
    active RIS noise, AP noise) for Monte Carlo comparison. The regrouping is
    computed on first access, so the SE path never pays for it.
    """

    k: int
    i1: float
    i2_terms: dict
    i3: float
    ds: float
    _inputs: tuple = field(repr=False, compare=False)  # what `_regroup` reads

    @property
    def i2(self) -> float:
        return float(sum(self.i2_terms.values()))

    @property
    def sinr(self) -> float:
        return self.i1 ** 2 / (self.i2 + self.i3)

    @cached_property
    def _groups(self) -> tuple:
        return _regroup(self.k, *self._inputs)

    bu = property(lambda self: self._groups[0])
    ui = property(lambda self: self._groups[1], doc="(K,) interference power per k'; zero at k' = k")
    an = property(lambda self: self._groups[2])
    no = property(lambda self: self._groups[3])


def sinr_closed_form(scenario: Scenario, stats: SecondOrderStats,
                     est_stats: EstimationStats, plan: PilotPlan, k: int) -> SinrBreakdown:
    """Uplink SINR of user k under MRC on the LMMSE estimates.

    All statistics are S-CSI only. The contamination addends run over the
    coset excluding k itself so each addend is separately zero without pilot
    sharing and separately checkable against the Monte Carlo oracle; the noise
    floor keeps the perfect-estimation reading sum(alpha) + sigma2 sum(kappa).
    """
    sc = scenario
    K = stats.K
    c = est_stats.c[:, k]
    gamma = est_stats.gamma[:, k]
    kappa = stats.kappa
    s = stats.xi_scale
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p

    coset = plan.coset(k)
    contam = coset[coset != k]
    others = np.flatnonzero(np.arange(K) != k)

    u = c @ s                                  # (K,) sum_m c_m s_{m,j}
    kappa_coset = kappa[:, coset].sum(axis=1)  # (M,) coset channel power per AP
    c2 = c * c

    terms = {
        "coherent_xi": t2 * float(u.sum() * u[coset].sum()),
        "gamma_sq": float(np.sum(gamma ** 2)),
        "inter_user_kappa": float(np.sum(c2[:, None] * kappa[:, others] * kappa_coset[:, None])),
        "active_noise_pilot": float(np.sum(c2[:, None] * stats.alpha_an)) / rho_tau,
        "ap_noise_pilot": sc.sigma2 * float(np.sum(c2[:, None] * kappa)) / rho_tau,
        "contamination_mean_sq": float(np.sum((kappa[:, contam].T @ c) ** 2)),
        "contamination_kappa": float(np.sum((c2 * kappa[:, k])[:, None] * kappa[:, contam])),
        "contamination_xi_sq": t2 * float(np.sum(c2[:, None] * s[:, coset] ** 2)),
    }
    terms = {name: sc.rho_u * value for name, value in terms.items()}

    i1 = float(np.sqrt(sc.rho_u) * gamma.sum())
    i3 = float(stats.alpha_an[:, k].sum() + sc.sigma2 * kappa[:, k].sum())

    return SinrBreakdown(k=k, i1=i1, i2_terms=terms, i3=i3, ds=i1 ** 2,
                         _inputs=(sc, stats, c, gamma, u, kappa_coset, coset, contam, others))


def _regroup(k, sc, stats, c, gamma, u, kappa_coset, coset, contam, others):
    """The SINR denominator regrouped into the expectation groups of the
    derivation: (bu, ui, an, no)."""
    kappa = stats.kappa
    s = stats.xi_scale
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p
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
