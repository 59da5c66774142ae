"""Monte Carlo oracle: block draws of both phases, determinism, identity suite."""

import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf import oracle
from ariscf.channel import complex_normal, compute_stats
from ariscf.estimation import compute_estimation_stats
from ariscf.perf import sinr_all, sinr_user
from ariscf.ris import RisState
from ariscf.scenario import Scenario, sample_layout

from _instances import (cascade_instance, draw_trials, empirical_sinr, moment_instance,
                        synthetic_realization)

# Closed-form quantities and the identity family that gives each its empirical
# counterpart; a coverage test enforces the two-sided mapping.
ORACLE_COVERAGE = {
    "channel.SecondOrderStats.kappa": "kappa",
    "channel.fourth_moment": "fourth",
    "channel.cross_moments": "cross",
    "channel.cross_moment_cyclic": "cyclic",
    "channel.SecondOrderStats.alpha_an": "alpha_an",
    "ris.aris_output_power": "aris_power",
    "estimation.EstimationStats.c": "nmse",
    "estimation.EstimationStats.gamma": "gamma",
    "estimation.EstimationStats.nmse": "nmse",
    "perf.sinr_user.ds": "sinr_ds",
    "perf.sinr_user.bu": "sinr_bu",
    "perf.sinr_user.ui": "sinr_ui",
    "perf.sinr_user.an": "sinr_an_exact",
    "perf.sinr_user.no": "sinr_no_exact",
    "perf.sinr_user.sinr": "sinr_total",
}


class TestLiteralPhases:
    """The pilot and data phases of the oracle's block draws against the signal model."""

    def test_pilot_projection_noiseless_identity(self):
        # no noise, single user: projection reproduces the aggregated channel
        sc = Scenario(M=2, K=1, N_H=2, N_V=2, tau_p=1, sigma2=0.0, sigma2_bar=0.0)
        rl = sample_layout(sc, 2)
        state = RisState(phases=np.zeros(sc.N), a=0.0)
        blk = oracle._sample_block(rl, state, 0, 0, 16)
        assert_allclose(blk.y, blk.q, rtol=1e-12)

    def test_projection_equals_coset_sum_plus_noise_terms(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        blk = oracle._sample_block(rl, state, 1, 0, 16)
        # orthonormal pilots: same-coset channels enter exactly once
        residual = blk.y[:, :, 0] - blk.q.sum(axis=2)
        residual2 = blk.y[:, :, 1] - blk.q.sum(axis=2)
        # both users share the one pilot, so both projections see the same coset sum
        assert_allclose(residual, residual2, rtol=1e-12)

    def test_orthogonal_users_no_cross_term(self):
        sc, rl, phases = cascade_instance(tau_p=2)
        state = RisState(phases=phases, a=2.0)
        sc_noiseless = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=2, rho=sc.rho,
                                rho_u=sc.rho_u, sigma2=0.0, sigma2_bar=0.0, a_max=sc.a_max)
        rl2 = synthetic_realization(sc_noiseless, rl.beta, rl.alpha, rl.alpha_bar)
        blk = oracle._sample_block(rl2, state, 3, 0, 16)
        assert_allclose(blk.y, blk.q, rtol=1e-10)

    def test_data_phase_noise_off(self):
        # received data signal sqrt(rho_u) q x + p + w with x = 1 and both noises off
        sc = Scenario(M=2, K=1, N_H=2, N_V=2, tau_p=1, sigma2=0.0, sigma2_bar=0.0)
        rl = sample_layout(sc, 4)
        state = RisState(phases=np.zeros(sc.N), a=1.0)
        blk = oracle._sample_block(rl, state, 0, 0, 16)
        y = np.sqrt(sc.rho_u) * blk.q[:, :, 0] + blk.p_data + blk.w_data
        assert_allclose(y, np.sqrt(sc.rho_u) * blk.q[:, :, 0], rtol=1e-12)

    def test_pilot_projection_power_matches_lmmse_denominator(self):
        # E{|y^(p)|^2} is the LMMSE denominator scaled by 1/(rho tau_p)
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        y = draw_trials(rl, state, 40_000, master_seed=6).y
        power = np.mean(np.abs(y) ** 2, axis=0)
        expected = stats.kappa / est.c  # kappa_mk / c_mk = denominator / (rho tau_p)
        assert_allclose(power, expected, rtol=0.02)

    def test_data_phase_power_budget(self):
        # unit-power independent symbols: E|y_m|^2 = rho_u sum_k E|q|^2 + E|p_m|^2 + E|w_m|^2
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        blk = draw_trials(rl, state, 20_000, master_seed=8)
        acc = (np.mean(np.abs(blk.p_data) ** 2, axis=0) + np.mean(np.abs(blk.w_data) ** 2, axis=0)
               + sc.rho_u * np.mean(np.abs(blk.q) ** 2, axis=0).sum(axis=1))
        p_ris = sc.sigma2_bar * 4.0 * rl.alpha * sc.element_area * sc.N  # sigma2_bar a^2 tr(R_m)
        expected = sc.rho_u * stats.kappa.sum(axis=1) + p_ris + sc.sigma2
        assert_allclose(acc, expected, rtol=0.03)


class TestEmpiricalSinr:
    def test_deterministic_and_chunk_invariant(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        r1 = empirical_sinr(rl, state, 20_000, master_seed=5)
        r2 = empirical_sinr(rl, state, 20_000, master_seed=5)
        assert r1.sinr == r2.sinr
        assert r1.ds == r2.ds and r1.bu == r2.bu
        r3 = empirical_sinr(rl, state, 20_000, master_seed=6)
        assert r3.sinr != r1.sinr

    def test_matches_closed_form_quickly(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        br = sinr_all(stats, est)
        r = empirical_sinr(rl, state, 150_000, master_seed=1)
        assert r.sinr == pytest.approx(br.sinr[0], rel=0.05)
        assert r.ds == pytest.approx(br.ds[0], rel=0.03, abs=0)

    def test_same_accumulation_as_identity_suite(self):
        # the test helper reduces the oracle's blocks on its own, with the same
        # expressions and block order as the sinr_* rows, so they agree to the bit
        sc = Scenario(M=3, K=4, N_H=2, N_V=2, tau_p=2)
        rl = sample_layout(sc, 0)
        state = RisState(phases=np.random.default_rng(0).uniform(0, 2 * np.pi, sc.N), a=2.0)
        n = 2 * oracle.CHUNK_TRIALS + 808
        rows = {r.name: r.empirical
                for r in oracle.verify_moment_identities(rl, state, n, master_seed=9)}
        r = empirical_sinr(rl, state, n, master_seed=9)
        assert rows["sinr_ds"] == r.ds
        assert rows["sinr_bu"] == r.bu
        assert [rows[f"sinr_ui[{kp}]"] for kp in range(1, sc.K)] == list(r.ui[1:])
        assert rows["sinr_an_exact"] == r.an
        assert rows["sinr_no_exact"] == r.no
        assert rows["sinr_total"] == r.sinr

    def test_stderr_scales_with_trials(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        small = empirical_sinr(rl, state, 16_384, master_seed=2)
        big = empirical_sinr(rl, state, 4 * 16_384, master_seed=2)
        assert big.stderr["bu"] == pytest.approx(small.stderr["bu"] / 2, rel=0.2, abs=0)


class TestIdentitySuite:
    def test_cascade_instance_all_pass(self):
        sc, rl, phases = moment_instance(tau_p=1)  # equal phases, cascade-dominated
        state = RisState(phases=phases, a=4.0)
        rows = oracle.verify_moment_identities(rl, state, 300_000, master_seed=3)
        bad = [r for r in rows if r.status != "pass"]
        assert not bad, f"failing identities: {[(r.name, r.rel_err) for r in bad]}"

    def test_off_state_degenerate_forms_pass(self):
        sc, rl, phases = cascade_instance(tau_p=1, a=0.0)
        state = RisState(phases=phases, a=0.0)
        rows = oracle.verify_moment_identities(rl, state, 200_000, master_seed=4)
        bad = [r for r in rows if r.status != "pass"]
        assert not bad, f"failing identities: {[(r.name, r.rel_err) for r in bad]}"

    def test_wishart_sum_matches_einsum_reference(self):
        rng = np.random.default_rng(5)
        x = complex_normal(rng, (500, 16))
        A = complex_normal(rng, (16, 16))
        A = A + np.conj(A).T
        xa = np.einsum("ti,ij,tj->t", np.conj(x), A, x)
        expected = np.einsum("t,ti,tj->ij", xa, x, np.conj(x))
        assert_allclose(oracle._wishart_sum(x, A), expected, rtol=1e-12)

    def test_one_block_alive_at_a_time(self, monkeypatch):
        sc, rl, phases = cascade_instance(tau_p=1)
        real = oracle._sample_block
        blocks, alive_at_draw = [], []

        def sample(*args):
            alive_at_draw.append(sum(ref() is not None for ref in blocks))
            blk = real(*args)
            blocks.append(weakref.ref(blk))
            return blk

        monkeypatch.setattr(oracle, "_sample_block", sample)
        oracle.verify_moment_identities(rl, RisState(phases=phases, a=2.0),
                                        2 * oracle.CHUNK_TRIALS + 10, master_seed=0)
        assert alive_at_draw == [0, 0, 0]

    def test_scalar_wishart_case(self):
        # R = 1, A = 1: E{|x|^4} = 2 = R A R + tr(A R) R
        rng = np.random.default_rng(0)
        x = (rng.standard_normal(200_000) + 1j * rng.standard_normal(200_000)) / np.sqrt(2)
        assert np.mean(np.abs(x) ** 4) == pytest.approx(2.0, rel=0.02)

    def test_five_groups_in_validity_regime(self):
        # direct-path dominated with near-perfect estimation: the published
        # noise-floor simplification holds and all five groups match
        sc = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=2, rho=10.0, rho_u=0.05,
                      sigma2=1e-11, sigma2_bar=1e-11, a_max=2.0)
        rl = synthetic_realization(sc, beta=np.array([[2e-8, 1.2e-8], [0.8e-8, 2.5e-8]]),
                                   alpha=np.array([3e-6, 2e-6]),
                                   alpha_bar=np.array([4e-4, 3e-4]) / sc.element_area)
        state = RisState(phases=np.full(sc.N, 0.4), a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        assert est.c.min() > 0.99  # validity regime
        ds, _, bu, ui, an, no = sinr_user(stats, est, 0)
        r = empirical_sinr(rl, state, 400_000, master_seed=11)
        assert r.ds == pytest.approx(ds, rel=0.05, abs=0)
        assert r.bu == pytest.approx(bu, rel=0.05, abs=0)
        assert r.ui[1] == pytest.approx(ui[1], rel=0.05, abs=0)
        assert r.an == pytest.approx(an, rel=0.05, abs=0)
        assert r.no == pytest.approx(no, rel=0.05, abs=0)

    def test_exact_noise_groups_any_regime(self):
        # moderate estimation quality: the exact references still match
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        est = compute_estimation_stats(stats)
        assert est.c.max() < 0.9
        r = empirical_sinr(rl, state, 300_000, master_seed=12)
        assert r.no == pytest.approx(oracle.exact_ap_noise_power(stats, est, 0), rel=0.03, abs=0)
        assert r.an == pytest.approx(oracle.exact_active_noise_power(stats, est, 0), rel=0.03, abs=0)

    def test_csv_rows_shape(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        rows = oracle.verify_moment_identities(rl, state, 8192, master_seed=0)
        csv_rows = [r.csv_row() for r in rows]
        assert all(len(r) == len(oracle.CSV_HEADER) for r in csv_rows)
        assert [r[0] for r in csv_rows] == [r.name for r in rows]
        assert [r[-1] for r in csv_rows] == [r.status for r in rows]

    def test_coverage_registry(self):
        # every exported closed-form quantity has exactly one empirical
        # counterpart in the identity suite
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        rows = oracle.verify_moment_identities(rl, state, 8192, master_seed=0)
        names = {r.name.split("[")[0] for r in rows} | {r.name for r in rows}
        for export, family in ORACLE_COVERAGE.items():
            assert family in names, f"{export} has no empirical counterpart row"
        # and the registry covers the public closed-form surface
        public = {
            "channel.SecondOrderStats.kappa", "channel.SecondOrderStats.alpha_an",
            "channel.fourth_moment", "channel.cross_moments", "channel.cross_moment_cyclic",
            "ris.aris_output_power",
            "estimation.EstimationStats.c", "estimation.EstimationStats.gamma",
            "estimation.EstimationStats.nmse",
            "perf.sinr_user.ds", "perf.sinr_user.bu", "perf.sinr_user.ui",
            "perf.sinr_user.an", "perf.sinr_user.no", "perf.sinr_user.sinr",
        }
        assert public == set(ORACLE_COVERAGE)
