"""Amplitude gain from the power budget, reflection matrix, power accounting."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf.channel import compute_stats
from ariscf.perf import evaluate_phases
from ariscf.ris import RisState, amplitude_gain, aris_output_power, aris_power_consumption
from ariscf.scenario import Scenario, sample_layout

from _reference import reflection_matrix


def scenario_with(**kw):
    base = dict(M=2, K=2, N_H=2, N_V=2)
    base.update(kw)
    return Scenario(**base)


class TestAmplitudeGain:
    def test_hand_evaluated_root(self):
        # xi=1, no users, one element, unit RIS noise, 4 W of headroom -> a = 2
        sc = Scenario(M=1, K=1, N_H=1, N_V=1, xi=1.0, sigma2_bar=1.0,
                      P_aris=4.0 + 0.2, P_c=0.1, P_dc=0.1, a_max=10.0)
        assert amplitude_gain(sc, np.array([])) == pytest.approx(2.0)

    def test_budget_exhausted_returns_zero_without_warning(self):
        sc = Scenario(M=1, K=1, N_H=1, N_V=1, P_aris=0.2, P_c=0.1, P_dc=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # exactly-zero headroom collapses to zero gain, as does a negative one
            assert amplitude_gain(sc, np.array([1e-6])) == 0.0
            assert amplitude_gain(replace(sc, P_aris=0.1), np.array([1e-6])) == 0.0

    def test_zero_load_is_not_limited_by_the_budget(self):
        # rho_u = sigma2_bar = 0: nothing is reflected, so any gain fits a headroom >= 0,
        # exactly-zero headroom included; a negative headroom still fits none
        sc = Scenario(M=1, K=1, N_H=1, N_V=1, P_aris=0.2, P_c=0.1, P_dc=0.1,
                      rho_u=0.0, sigma2_bar=0.0, a_max=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for P_aris in (0.2, 1.0):
                assert amplitude_gain(replace(sc, P_aris=P_aris), np.array([1e-6])) == 5.0
            assert amplitude_gain(replace(sc, P_aris=0.1), np.array([1e-6])) == 0.0

    def test_clamped_by_a_max(self):
        sc = scenario_with(a_max=5.0, P_aris=100.0)
        assert amplitude_gain(sc, np.array([1e-9, 1e-9])) == 5.0

    def test_reference_parameterization_independent_evaluation(self):
        # -80 dBm noise, 30/-10/-5 dBm powers, xi=0.8: transcribed from scratch
        sc = Scenario(M=3, K=4, N_H=2, N_V=2, a_max=1e9)
        rl = sample_layout(sc, 11)
        import math
        headroom = 0.8 * (1.0 - 4 * (1e-4 + 10 ** (-0.5) * 1e-3))
        load = 4 * (sc.rho_u * sc.d_H * sc.d_V * sum(rl.alpha_bar) + 1e-11)
        expected = math.sqrt(headroom / load)
        assert amplitude_gain(sc, rl.alpha_bar) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("field,values", [
        ("N_H", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]),
    ])
    def test_non_increasing_in_elements(self, field, values):
        gains = []
        for v in values:
            sc = Scenario(M=2, K=2, N_H=v, N_V=1, a_max=1e12)
            gains.append(amplitude_gain(sc, np.array([1e-7, 1e-7])))
        assert all(g1 >= g2 - 1e-15 for g1, g2 in zip(gains, gains[1:]))

    def test_non_increasing_in_users_and_area(self):
        sc = scenario_with(a_max=1e12)
        gains = [amplitude_gain(sc, np.full(k, 1e-7)) for k in range(1, 21)]
        assert all(g1 >= g2 for g1, g2 in zip(gains, gains[1:]))
        lam = sc.wavelength
        gains = [amplitude_gain(
            Scenario(M=2, K=2, N_H=2, N_V=2, d_H=s * lam, d_V=s * lam, a_max=1e12),
            np.array([1e-7, 1e-7])) for s in np.linspace(0.05, 1.0, 20)]
        assert all(g1 >= g2 for g1, g2 in zip(gains, gains[1:]))


class TestReflectionMatrix:
    def test_zero_phases_identity(self):
        assert_allclose(reflection_matrix(np.zeros(3), 1.0), np.eye(3))

    def test_pi_phases(self):
        assert_allclose(reflection_matrix(np.full(4, np.pi), 2.0), -2.0 * np.eye(4))

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        theta = reflection_matrix(rng.uniform(0, 2 * np.pi, 6), 1.7)
        assert_allclose(np.abs(np.diag(theta)), 1.7)
        assert_allclose(theta - np.diag(np.diag(theta)), 0.0)

    def test_state_wraps_phases(self):
        st = RisState(phases=np.array([-np.pi, 5 * np.pi]), a=1.0)
        assert ((st.phases >= 0) & (st.phases < 2 * np.pi)).all()
        assert st.phases[0] == pytest.approx(np.pi)

    @pytest.mark.parametrize("a", [-1.0, float("nan"), float("inf")])
    def test_state_rejects_gain(self, a):
        # nan and inf were once accepted, and compute_stats then gave an all-nan kappa
        with pytest.raises(ValueError, match="amplitude gain must be finite and >= 0"):
            RisState(phases=np.zeros(4), a=a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_rejects_non_finite_phases(self, bad):
        # nan phases once gave sum SE 0.0 (nan traces make ds > 0 false), and inf ones
        # passed after np.mod warned "invalid value encountered in remainder"
        sc = Scenario()
        rl = sample_layout(sc, 0)
        a = amplitude_gain(sc, rl.alpha_bar)
        phases = np.zeros(sc.N)
        phases[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phases must be finite"):
                evaluate_phases(rl, phases, a)
            with pytest.raises(ValueError, match="phases must be finite"):
                compute_stats(rl, RisState(phases=phases, a=a))


class TestPowerAccounting:
    def test_zero_amplitude_zero_power(self):
        sc = scenario_with()
        rl = sample_layout(sc, 0)
        assert aris_output_power(rl, 0.0) == 0.0

    def test_quadratic_scaling(self):
        sc = scenario_with()
        rl = sample_layout(sc, 0)
        assert aris_output_power(rl, 2.0) == pytest.approx(4 * aris_output_power(rl, 1.0), rel=1e-6, abs=0)

    def test_budget_round_trip_exact(self):
        # on the un-clamped branch, consumption reproduces the budget exactly
        for seed in range(6):
            sc = Scenario(M=2, K=3, N_H=2, N_V=2, a_max=1e12)
            rl = sample_layout(sc, seed)
            a = amplitude_gain(sc, rl.alpha_bar)
            assert a < sc.a_max
            assert aris_power_consumption(rl, a) == pytest.approx(sc.P_aris, rel=1e-12)

    def test_output_power_matches_monte_carlo(self):
        from ariscf.channel import complex_normal
        sc = scenario_with()
        rl = sample_layout(sc, 3)
        a = 2.5
        rng = np.random.default_rng(1)
        n = 20_000
        area = sc.element_area
        z = np.sqrt(rl.alpha_bar * area)[None, :, None] * \
            (complex_normal(rng, (n, sc.K, sc.N)) @ rl.R_factor.T)
        v = np.sqrt(sc.sigma2_bar) * complex_normal(rng, (n, sc.N))
        emp = a * a * (sc.rho_u * np.abs(z) ** 2).sum(axis=(1, 2)) + a * a * (np.abs(v) ** 2).sum(axis=1)
        assert emp.mean() == pytest.approx(aris_output_power(rl, a), rel=0.02)
