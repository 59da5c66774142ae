"""Closed-form uplink SINR and SE per user, and energy efficiency."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PhaseTraces, SecondOrderStats, compute_stats
from .estimation import EstimationStats, PilotPlan, compute_estimation_stats
from .ris import RisState, aris_power_consumption
from .scenario import NetworkRealization, Scenario


@dataclass(frozen=True)
class SinrBreakdown:
    """All terms of the uplink SINR of every user, as (K,) arrays.

    `i2_terms` holds the eight interference addends; `sinr_groups` writes the
    same denominator regrouped by physical origin for Monte Carlo comparison.
    """

    i1: np.ndarray
    i2_terms: dict
    i3: np.ndarray

    @property
    def ds(self) -> np.ndarray:
        """Desired-signal power, squared with Python's float pow (libm), not x*x."""
        return np.array([x ** 2 for x in self.i1.tolist()])

    @property
    def i2(self) -> np.ndarray:
        """Each user's eight addends added left to right from 0.0, as the one-user
        formula adds them. Not the builtin sum(): from Python 3.12 on it
        compensates float round-off, so the bytes would depend on the interpreter."""
        total = np.zeros(len(self.i1))
        for term in self.i2_terms.values():
            total = total + term
        return total

    @property
    def sinr(self) -> np.ndarray:
        return self.ds / (self.i2 + self.i3)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """(n, ...) -> (n,): each user's block summed in C order, pairwise as numpy sums a 1-D array."""
    return x.reshape(len(x), x[0].size).sum(axis=1)


def sinr_all(scenario: Scenario, stats: SecondOrderStats,
             est_stats: EstimationStats, plan: PilotPlan) -> SinrBreakdown:
    """Uplink SINR terms of every user under MRC on the LMMSE estimates.

    All statistics are S-CSI only. The contamination addends run over the
    coset excluding the user itself so each addend is separately zero without
    pilot sharing and separately checkable against the Monte Carlo oracle; the
    noise floor keeps the perfect-estimation reading sum(alpha) + sigma2 sum(kappa).

    Each user's values are bit for bit those of the formula evaluated for
    that user alone, so numpy must add in the same order:
    - user-major (K, M) copies make each user's AP sum a contiguous row, which
      numpy sums pairwise, as it sums one (M,) column;
    - each user's product with a column-indexed (M, K') slice of the moments
      is laid out (user, AP), that slice's memory order, and one with a whole
      (M, K) moment (AP, user); each is summed in its layout order;
    - the coset's channel power adds one member at a time;
    - `u` and the contamination means are one matrix-vector product per user.
    """
    sc = scenario
    s = stats.xi_scale
    M, K = s.shape
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p
    c = est_stats.c
    kT = np.ascontiguousarray(stats.kappa.T)        # (K, M) user-major
    aT = np.ascontiguousarray(stats.alpha_an.T)
    gT = np.ascontiguousarray(est_stats.gamma.T)
    c2 = np.ascontiguousarray(c.T) ** 2
    u = np.array([c[:, k] @ s for k in range(K)])   # (K, K) [k, j] = sum_m c_{m,k} s_{m,j}
    s2 = np.ascontiguousarray(s.T) ** 2

    kappa_coset = np.empty_like(kT)                  # (K, M) coset channel power per AP
    u_coset, xi_sq = np.empty(K), np.empty(K)
    mean_sq, contam_kappa = np.zeros(K), np.zeros(K)
    mask = plan.coset_mask()
    size = mask.sum(axis=1)
    for g in set(size.tolist()):                     # round-robin pilots: at most two sizes
        users = np.flatnonzero(size == g)
        coset = np.nonzero(mask[users])[1].reshape(len(users), g)  # (n, g) ascending
        acc = kT[coset[:, 0]]
        for i in range(1, g):
            acc += kT[coset[:, i]]
        kappa_coset[users] = acc
        u_coset[users] = u[users[:, None], coset].sum(axis=1)
        xi_sq[users] = _row_sums(c2[users][:, None, :] * s2[coset])
        if g > 1:
            contam = coset[coset != users[:, None]].reshape(len(users), g - 1)
            v = np.array([kT[j] @ c[:, k] for k, j in zip(users, contam)])  # (n, g-1)
            mean_sq[users] = (v ** 2).sum(axis=1)
            contam_kappa[users] = _row_sums((c2[users] * kT[users])[:, None, :] * kT[contam])
    off_diagonal = ~np.eye(K, dtype=bool)
    inter = (c2[:, None, :] * kT[None, :, :]) * kappa_coset[:, None, :]  # (K, K, M) [k, j, m]

    terms = {
        # Xi-coherent double sum over APs and all user pairs
        "coherent_xi": t2 * (u.sum(axis=1) * u_coset),
        # per-AP estimate-variance square (beamforming uncertainty)
        "gamma_sq": (gT ** 2).sum(axis=1),
        # non-coherent inter-user interference
        "inter_user_kappa": _row_sums(inter[off_diagonal].reshape(K, K - 1, M)),
        # RIS-noise leakage through the pilot projection
        "active_noise_pilot": _row_sums(c2[:, :, None] * stats.alpha_an[None]) / rho_tau,
        # AP-noise leakage through the pilot projection
        "ap_noise_pilot": sc.sigma2 * _row_sums(c2[:, :, None] * stats.kappa[None]) / rho_tau,
        # coherent contamination bias power
        "contamination_mean_sq": mean_sq,
        # contamination cross term kappa_k * kappa_k'
        "contamination_kappa": contam_kappa,
        # per-AP tr(Xi^2) excess over the coset
        "contamination_xi_sq": t2 * xi_sq,
    }
    terms = {name: sc.rho_u * value for name, value in terms.items()}

    i1 = np.sqrt(sc.rho_u) * gT.sum(axis=1)
    i3 = aT.sum(axis=1) + sc.sigma2 * kT.sum(axis=1)
    return SinrBreakdown(i1=i1, i2_terms=terms, i3=i3)


def sinr_groups(scenario: Scenario, stats: SecondOrderStats,
                est_stats: EstimationStats, plan: PilotPlan, k: int):
    """User k's SINR denominator regrouped into the expectation groups of the
    derivation: (bu, ui, an, no), i.e. beamforming uncertainty, the (K,)
    per-interferer powers (zero at k), active RIS noise and AP noise.

    They sum to user k's i2 + i3 of `sinr_all` up to round-off; the Monte Carlo
    oracle compares them group by group. The SE path never builds them.
    """
    sc = scenario
    kappa = stats.kappa
    s = stats.xi_scale
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p
    c = est_stats.c[:, k]
    coset = plan.coset(k)
    u = c @ s                                  # (K,) sum_m c_m s_{m,j}
    kappa_coset = kappa[:, coset].sum(axis=1)  # (M,) coset channel power per AP
    others = np.flatnonzero(np.arange(stats.K) != k)
    gamma, contam = est_stats.gamma[:, k], coset[coset != k]
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
                    phases: np.ndarray, a: float, prelog: bool = False,
                    traces: PhaseTraces | None = None):
    """Closed-form per-user SE (K,) and the LMMSE statistics for one RIS phase vector.

    SE_k = log2(1 + SINR_k), times the (1 - tau_p/tau_c) prelog when `prelog`.
    `traces`, from `channel.phase_traces` of this geometry and these phases,
    skips their recomputation.
    """
    stats = compute_stats(realization, RisState(phases=phases, a=a), traces=traces)
    est = compute_estimation_stats(scenario, stats, plan)
    se = np.log2(1.0 + sinr_all(scenario, stats, est, plan).sinr)
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
