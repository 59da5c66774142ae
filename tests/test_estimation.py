"""Pilot assignment and LMMSE closed forms."""

from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf.channel import compute_stats
from ariscf import oracle
from ariscf.estimation import compute_estimation_stats
from ariscf.ris import RisState
from ariscf.scenario import Scenario

from _instances import cascade_instance, draw_trials, synthetic_realization


def coset(sc: Scenario, k: int) -> np.ndarray:
    """Users sharing user k's pilot, k included."""
    return np.flatnonzero(sc.coset_mask[k])


class TestPilotPlan:
    """`Scenario.pilot_of` and `Scenario.coset_mask`: the round-robin assignment."""

    def test_round_robin_cosets(self):
        sc = Scenario(K=4, tau_p=2)
        assert list(sc.pilot_of) == [0, 1, 0, 1]
        assert list(coset(sc, 0)) == [0, 2]
        assert list(coset(sc, 1)) == [1, 3]
        assert all(k in coset(sc, k) for k in range(4))

    def test_full_pilots_no_contamination(self):
        sc = Scenario(K=15, tau_p=15)
        assert all(coset(sc, k).size == 1 for k in range(15))

    def test_cosets_partition_users(self):
        sc = Scenario(K=7, tau_p=3)
        seen = np.concatenate([coset(sc, p) for p in range(3)])
        assert sorted(seen) == list(range(7))

    def test_derived_not_fields(self):
        # neither is a field, so config_hash and the loader never see them
        sc = Scenario(K=4, tau_p=2)
        assert not {"pilot_of", "coset_mask"} & set(asdict(sc))
        for name in ("pilot_of", "coset_mask"):
            with pytest.raises(FrozenInstanceError):
                setattr(sc, name, np.zeros(4))
        assert list(replace(sc, tau_p=4).pilot_of) == [0, 1, 2, 3]


class TestLmmseCoefficient:
    def test_equal_signal_and_noise_gives_half(self):
        # singleton coset, a = 0, rho*tau_p*beta == sigma2 -> c = 1/2
        sc = Scenario(M=1, K=1, N_H=1, N_V=1, tau_p=1, rho=1.0, sigma2=1e-8,
                      sigma2_bar=1e-11)
        rl = synthetic_realization(sc, beta=np.array([[1e-8]]),
                                   alpha=np.array([1e-9]), alpha_bar=np.array([1e-9]))
        stats = compute_stats(rl, RisState(phases=np.zeros(1), a=0.0))
        est = compute_estimation_stats(stats)
        assert est.c[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert est.nmse[0, 0] == pytest.approx(0.5)

    def test_high_power_limits(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        for rho in (1e2, 1e4):
            sc2 = Scenario(**{**{f: getattr(sc, f) for f in (
                "M", "K", "N_H", "N_V", "tau_p", "rho_u", "sigma2", "sigma2_bar", "a_max")},
                "rho": rho})
            stats = compute_stats(replace(rl, scenario=sc2), state)
            est = compute_estimation_stats(stats)
            floor = stats.kappa[0, 0] / stats.kappa[0, :].sum()
            assert est.c[0, 0] < floor
        # contaminated c approaches kappa_k / sum(coset kappa) from below
        assert est.c[0, 0] == pytest.approx(floor, rel=1e-3)
        # singleton coset approaches 1 (two pilots: rho tau_p doubles)
        rl1 = replace(rl, scenario=replace(sc2, tau_p=2))
        est1 = compute_estimation_stats(compute_stats(rl1, state))
        assert est1.c[0, 0] == pytest.approx(1.0, rel=1e-3)
        assert est1.nmse[0, 0] < 1e-3

    def test_independent_transcription(self):
        # c = E{y* q} / E{|y|^2} transcribed from scratch with plain python
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        m, k = 0, 0
        area = sc.d_H * sc.d_V
        t1 = 0.0
        for i in range(sc.N):
            for j in range(sc.N):
                t1 += (np.exp(1j * (phases[i] - phases[j])) * rl.R[i, j] * rl.R[j, i]).real
        kap = [rl.beta[m, kk] + 4.0 * rl.alpha[m] * rl.alpha_bar[kk] * area ** 2 * t1
               for kk in range(sc.K)]
        rt = sc.rho * sc.tau_p
        pilot_noise = sc.sigma2_bar * 4.0 * rl.alpha[m] * area * sc.N + sc.sigma2
        c_expected = rt * kap[k] / (rt * (kap[0] + kap[1]) + pilot_noise)
        assert est.c[m, k] == pytest.approx(c_expected, rel=1e-10)

    def test_invariant_ranges_and_decomposition(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        stats = compute_stats(rl, RisState(phases=phases, a=2.0))
        est = compute_estimation_stats(stats)
        assert ((est.c > 0) & (est.c < 1)).all()
        assert_allclose(est.gamma, stats.kappa * est.c, rtol=1e-12)
        assert_allclose(est.nmse, 1.0 - est.c, rtol=1e-12)
        # kappa = gamma + error variance, exactly in closed form
        assert_allclose(stats.kappa, est.gamma + (stats.kappa - est.gamma), rtol=1e-15)

    def test_nmse_decreasing_in_rho_with_floor(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        rhos = np.logspace(-6, 4, 24)
        vals = []
        for rho in rhos:
            sc2 = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=float(rho),
                           rho_u=sc.rho_u, sigma2=sc.sigma2, sigma2_bar=sc.sigma2_bar,
                           a_max=sc.a_max)
            stats = compute_stats(replace(rl, scenario=sc2), state)
            vals.append(compute_estimation_stats(stats).nmse[0, 0])
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        floor = 1.0 - stats.kappa[0, 0] / stats.kappa[0, :].sum()
        assert vals[-1] == pytest.approx(floor, rel=1e-4)
        assert floor > 0

    def test_nmse_phase_rotation_invariant(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        e1 = compute_estimation_stats(compute_stats(rl, RisState(phases=phases, a=2.0)))
        e2 = compute_estimation_stats(compute_stats(rl, RisState(phases=phases + 0.77, a=2.0)))
        assert_allclose(e1.nmse, e2.nmse, rtol=1e-12)


class TestEstimateChannels:
    """LMMSE estimates qhat = c * y and errors q - qhat on the oracle's block draws."""

    def test_near_noiseless_recovery(self):
        # strong pilots, no sharing: qhat -> q up to the c < 1 shrinkage
        sc, rl, _ = cascade_instance(tau_p=2, rho=1e4)
        state = RisState(phases=np.zeros(sc.N), a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        blk = oracle._sample_block(rl, state, 0, 0, 1)
        q, q_hat = blk.q[0], est.c * blk.y[0]
        assert np.abs(q - q_hat).max() / np.abs(q).min() < 1e-2
        # the identity suite's estimates are the same c * y
        rows = {r.name: r.empirical for r in oracle.verify_moment_identities(
            rl, state, oracle.CHUNK_TRIALS, master_seed=0)}
        y = oracle._sample_block(rl, state, 0, 0, oracle.CHUNK_TRIALS).y
        gamma_rows = [[rows[f"gamma[{m},{k}]"] for k in range(sc.K)] for m in range(sc.M)]
        assert_allclose(gamma_rows, np.mean(np.abs(est.c * y) ** 2, axis=0), rtol=1e-12)

    def test_estimate_statistics_match(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        n = 6000
        blk = draw_trials(rl, state, n, master_seed=4)
        qh = est.c * blk.y
        ee = blk.q - qh
        assert_allclose(np.mean(np.abs(qh) ** 2, axis=0), est.gamma, rtol=0.08)
        assert_allclose(np.mean(np.abs(ee) ** 2, axis=0), stats.kappa - est.gamma, rtol=0.08)
        corr = np.abs(np.mean(np.conj(qh[:, 0, 0]) * ee[:, 0, 0]))
        corr /= np.sqrt(np.mean(np.abs(qh[:, 0, 0]) ** 2) * np.mean(np.abs(ee[:, 0, 0]) ** 2))
        assert corr < 4 / np.sqrt(n)
