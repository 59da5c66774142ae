"""Closed-form SINR/SE/EE behavior."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf import perf
from ariscf.channel import compute_stats
from ariscf.perf import energy_efficiency, evaluate_phases, sinr_all, sinr_user
from ariscf.ris import RisState, amplitude_gain, aris_power_consumption
from ariscf.scenario import Scenario, sample_layout

from _instances import cascade_instance, config_instance, count_calls, synthetic_realization
from _reference import dense_xi

I2_TERM_NAMES = (
    "coherent_xi", "gamma_sq", "inter_user_kappa", "active_noise_pilot", "ap_noise_pilot",
    "contamination_mean_sq", "contamination_kappa", "contamination_xi_sq",
)
# sinr_all against the one-user transcription: the batched kernel sums in its
# own order, so the two agree to round-off, not to the bit
SINR_RTOL = 1e-13


def user_column(br, k):
    """User k's scalars of a batched `sinr_all` result."""
    return SimpleNamespace(i1=br.i1[k], i2_terms={name: v[k] for name, v in br.i2_terms.items()},
                           i3=br.i3[k], ds=br.ds[k], i2=br.i2[k], sinr=br.sinr[k])


def breakdown(rl, phases, a, k=0):
    state = RisState(phases=phases, a=a)
    stats = compute_stats(rl, state)
    return user_column(sinr_all(stats), k), stats


class TestSinrBreakdown:
    def test_zero_uplink_power_zero_sinr(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        sc0 = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=sc.rho, rho_u=0.0,
                       sigma2=sc.sigma2, sigma2_bar=sc.sigma2_bar, a_max=sc.a_max)
        br, *_ = breakdown(replace(rl, scenario=sc0), phases, 2.0)
        assert br.sinr == 0.0
        assert br.i1 == 0.0

    def test_no_signal_no_rate(self):
        # rho_u = sigma2 = sigma2_bar = 0: ds and the whole denominator are 0, and
        # the SINR is 0, not 0 / 0
        sc, rl, phases = cascade_instance(tau_p=1)
        sc0 = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=sc.rho, rho_u=0.0,
                       sigma2=0.0, sigma2_bar=0.0, a_max=sc.a_max)
        stats = compute_stats(replace(rl, scenario=sc0), RisState(phases=phases, a=2.0))
        ds, sinr, *_ = sinr_user(stats, 0)
        assert (ds, sinr) == (0.0, 0.0)
        assert sinr_all(stats).sinr.tolist() == [0.0, 0.0]

    def test_terms_nonnegative_and_named(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        br, *_ = breakdown(rl, phases, 2.0)
        assert set(br.i2_terms) == set(I2_TERM_NAMES)
        assert all(v >= 0 for v in br.i2_terms.values())
        assert br.i3 > 0
        assert br.sinr == pytest.approx(br.i1 ** 2 / (br.i2 + br.i3))

    def test_groups_and_addends_agree(self):
        # the eight-addend assembly and the expectation-group assembly are the
        # same denominator written two ways
        for tau_p in (1, 2):
            sc, rl, phases = cascade_instance(tau_p=tau_p)
            for k in range(sc.K):
                br, stats = breakdown(rl, phases, 2.0, k=k)
                _, _, bu, ui, an, no = sinr_user(stats, k)
                assert bu + ui.sum() + an + no == pytest.approx(
                    br.i2 + br.i3, rel=1e-12, abs=0)
                assert br.ds == pytest.approx(br.i1 ** 2, rel=1e-12, abs=0)

    def test_noise_monotonicity(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        sinrs = []
        for s2 in (1e-11, 2e-11, 8e-11, 1e-9):
            sc2 = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=sc.rho, rho_u=sc.rho_u,
                           sigma2=s2, sigma2_bar=sc.sigma2_bar, a_max=sc.a_max)
            sinrs.append(breakdown(replace(rl, scenario=sc2), phases, 2.0)[0].sinr)
        assert all(a > b for a, b in zip(sinrs, sinrs[1:]))

    def test_singleton_cosets_kill_contamination_addends(self):
        sc, rl, phases = cascade_instance(tau_p=2)
        br, *_ = breakdown(rl, phases, 2.0)
        assert br.i2_terms["contamination_mean_sq"] == 0.0
        assert br.i2_terms["contamination_kappa"] == 0.0
        # the coset-wide tr(Xi^2) addend keeps only the own-user term
        assert br.i2_terms["contamination_xi_sq"] > 0

    def test_ap_reindexing_invariance(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        perm = np.array([1, 0])
        rl_perm = synthetic_realization(sc, rl.beta[perm], rl.alpha[perm], rl.alpha_bar)
        br1, *_ = breakdown(rl, phases, 2.0)
        br2, *_ = breakdown(rl_perm, phases, 2.0)
        assert br1.sinr == pytest.approx(br2.sinr, rel=1e-12)

    def test_global_phase_rotation_invariance(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        br1, *_ = breakdown(rl, phases, 2.0)
        br2, *_ = breakdown(rl, phases + 2.1, 2.0)
        assert br1.sinr == pytest.approx(br2.sinr, rel=1e-12)


class TestLiteralAssembly:
    @pytest.mark.parametrize("tau_p,K,M,boost,k", [
        (1, 2, 2, 1.0, 1), (2, 3, 3, 1.0, 1), (2, 4, 2, 1.0, 1),
        # user 0's own channel dominates: a sum over the other users formed as
        # a total minus user 0's own term loses 1e-8 relative or more to
        # cancellation, past the 1e-9 below
        (2, 3, 3, 1e9, 0),
    ], ids=["1-2-2", "2-3-3", "2-4-2", "2-3-3-user0-dominant"])
    def test_vectorized_terms_match_nested_loops(self, tau_p, K, M, boost, k):
        # dense-matrix, nested-loop transcription of every addend; catches
        # index slips the statistical oracle comparison would average over
        rng = np.random.default_rng(K * 10 + M)
        sc = Scenario(M=M, K=K, N_H=2, N_V=2, tau_p=tau_p, rho=0.05, rho_u=0.05,
                      sigma2=1e-11, sigma2_bar=1e-11, a_max=4.0)
        area = sc.element_area
        beta = rng.uniform(0.5, 3.0, (M, K)) * 1e-8
        beta[:, 0] *= boost
        rl = synthetic_realization(
            sc,
            beta=beta,
            alpha=rng.uniform(1.0, 4.0, M) * 1e-6,
            alpha_bar=rng.uniform(2.0, 5.0, K) * 1e-4 / area,
        )
        phases = rng.uniform(0, 2 * np.pi, sc.N)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        br = user_column(sinr_all(stats), k)

        xi = [[dense_xi(stats, state.phasor, m, j) for j in range(K)] for m in range(M)]
        tr_xi_xi = lambda m, j, m2, j2: np.trace(xi[m][j] @ xi[m2][j2]).real
        c = stats.c
        kap = stats.kappa
        coset = list(np.flatnonzero(sc.coset_mask[k]))
        contam = [j for j in coset if j != k]
        rho_u, rho_tau = sc.rho_u, sc.rho * sc.tau_p

        t = dict.fromkeys(br.i2_terms, 0.0)
        for kp in range(K):
            for kpp in coset:
                for m in range(M):
                    for m2 in range(M):
                        t["coherent_xi"] += c[m, k] * c[m2, k] * tr_xi_xi(m, kp, m2, kpp)
        for m in range(M):
            t["gamma_sq"] += stats.gamma[m, k] ** 2
            for kp in range(K):
                t["active_noise_pilot"] += c[m, k] ** 2 * stats.alpha_an[m, kp] / rho_tau
                t["ap_noise_pilot"] += sc.sigma2 * c[m, k] ** 2 * kap[m, kp] / rho_tau
                if kp != k:
                    for kpp in coset:
                        t["inter_user_kappa"] += c[m, k] ** 2 * kap[m, kpp] * kap[m, kp]
        for kp in contam:
            t["contamination_mean_sq"] += sum(c[m, k] * kap[m, kp] for m in range(M)) ** 2
            for m in range(M):
                t["contamination_kappa"] += c[m, k] ** 2 * kap[m, k] * kap[m, kp]
        for kp in coset:
            for m in range(M):
                t["contamination_xi_sq"] += c[m, k] ** 2 * tr_xi_xi(m, kp, m, kp)
        for name, value in t.items():
            assert br.i2_terms[name] == pytest.approx(rho_u * value, rel=1e-9, abs=0), name

        i1 = np.sqrt(rho_u) * stats.gamma[:, k].sum()
        i3 = stats.alpha_an[:, k].sum() + sc.sigma2 * kap[:, k].sum()
        assert br.i1 == pytest.approx(i1, rel=1e-12, abs=0)
        assert br.i3 == pytest.approx(i3, rel=1e-12, abs=0)


def eager_breakdown(stats, k):
    """The SINR terms and groups as the one-user `sinr_closed_form` once built
    them eagerly in one pass, transcribed verbatim: (i1, i2_terms, i3, sinr,
    ds, bu, ui, an, no)."""
    sc = stats.realization.scenario
    K = sc.K
    c = stats.c[:, k]
    gamma = stats.gamma[:, k]
    kappa = stats.kappa
    s = stats.xi_scale
    t2 = stats.t2
    rho_tau = sc.rho * sc.tau_p

    coset = np.flatnonzero(sc.coset_mask[k])
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

    # Same denominator regrouped into the expectation groups of the derivation.
    u_coset = float(u[coset].sum())
    pilot_noise = (stats.alpha_an + sc.sigma2 * kappa) / rho_tau  # (M, K)
    bu = sc.rho_u * float(
        t2 * u[k] * u_coset
        + np.sum(gamma ** 2)
        + t2 * np.sum(c2 * s[:, k] ** 2)
        + np.sum(c2 * kappa[:, k] * (kappa_coset - kappa[:, k]))
        + np.sum(c2 * pilot_noise[:, k])
    )
    ui = np.zeros(K)
    for kp in others:
        common = t2 * u_coset * u[kp] + float(np.sum(c2 * kappa[:, kp] * kappa_coset)) \
            + float(np.sum(c2 * pilot_noise[:, kp]))
        if kp in contam:
            common += float((c @ kappa[:, kp]) ** 2) \
                + t2 * float(np.sum(c2 * s[:, kp] ** 2))
        ui[kp] = sc.rho_u * common
    an = float(stats.alpha_an[:, k].sum())
    no = sc.sigma2 * float(kappa[:, k].sum())

    i2 = 0.0
    for value in terms.values():   # left to right: sum() compensates round-off from 3.12 on
        i2 += value
    sinr = i1 ** 2 / (i2 + i3)
    return i1, terms, i3, sinr, i1 ** 2, bu, ui, an, no


class TestLazyRegrouping:
    @pytest.mark.parametrize("name,seed,overrides", [
        ("default.yaml", 0, {}), ("default.yaml", 1, {}), ("default.yaml", 2, {}),
        ("train_small.yaml", 0, {}),
        ("default.yaml", 3, {"tau_p": 5}),   # pilot sharing: cosets of three users
    ], ids=["default-0", "default-1", "default-2", "train-small", "default-tau5"])
    def test_bytes_match_eager_regrouping(self, name, seed, overrides):
        # sinr_user to the bit; the batched kernel adds in its own order
        sc, rl, state = config_instance(name, seed, **overrides)
        stats = compute_stats(rl, state)
        batched = sinr_all(stats)
        for k in range(sc.K):
            br = user_column(batched, k)
            g_ds, g_sinr, g_bu, g_ui, g_an, g_no = sinr_user(stats, k)
            i1, terms, i3, sinr, ds, bu, ui, an, no = eager_breakdown(stats, k)
            assert_allclose([br.i1, br.i3, br.sinr, br.ds], [i1, i3, sinr, ds], rtol=SINR_RTOL)
            assert_allclose([br.i2_terms[t] for t in I2_TERM_NAMES],
                            [terms[t] for t in I2_TERM_NAMES], rtol=SINR_RTOL)
            assert (g_ds, g_sinr, g_bu, g_an, g_no) == (ds, sinr, bu, an, no)
            assert g_ui.dtype == ui.dtype and np.array_equal(g_ui, ui)

    def test_evaluate_phases_never_regroups(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the SE path built the SINR regrouping")
        monkeypatch.setattr(perf, "sinr_user", fail)
        kernel_calls = count_calls(monkeypatch, perf, "sinr_all")
        sc, rl, state = config_instance("train_small.yaml", 0)
        se, _ = evaluate_phases(rl, state.phases, state.a)
        assert se.shape == (sc.K,) and np.isfinite(se).all()
        assert len(kernel_calls) == 1
        with pytest.raises(AssertionError, match="regrouping"):
            perf.sinr_user(compute_stats(rl, state), 0)


class TestVectorizedSinr:
    @pytest.mark.parametrize("name,seed,phases,overrides", [
        ("default.yaml", 0, "equal", {}), ("default.yaml", 1, "equal", {}),
        ("default.yaml", 2, "equal", {}), ("default.yaml", 0, "random", {}),
        ("default.yaml", 1, "random", {}), ("default.yaml", 2, "random", {}),
        ("train_small.yaml", 0, "random", {}),
        ("default.yaml", 3, "random", {"tau_p": 5}),   # cosets of three users
        ("default.yaml", 3, "random", {"tau_p": 4}),   # cosets of four and three users
        ("default.yaml", 3, "random", {"tau_p": 1}),   # one coset of 15: summed column by column
        ("default.yaml", 0, "random", {"N_H": 24, "N_V": 24}),  # perfbench's wide_ris.yaml
    ], ids=["default-equal-0", "default-equal-1", "default-equal-2", "default-random-0",
            "default-random-1", "default-random-2", "train-small", "default-tau5",
            "default-tau4", "default-tau1", "wide-ris"])
    def test_bytes_match_per_user_transcription(self, name, seed, phases, overrides):
        # every user's terms equal the one-user formula up to round-off, and
        # sinr_user's ds and sinr equal it to the bit
        sc, rl, state = config_instance(name, seed, phases, **overrides)
        stats = compute_stats(rl, state)
        br = sinr_all(stats)
        assert br.sinr.shape == (sc.K,)
        for k in range(sc.K):
            i1, terms, i3, sinr, ds, *_ = eager_breakdown(stats, k)
            assert br.i1[k] == pytest.approx(i1, rel=SINR_RTOL, abs=0), k
            for term in I2_TERM_NAMES:
                assert br.i2_terms[term][k] == pytest.approx(
                    terms[term], rel=SINR_RTOL, abs=0), (k, term)
            assert br.i3[k] == pytest.approx(i3, rel=SINR_RTOL, abs=0), k
            assert br.ds[k] == pytest.approx(ds, rel=SINR_RTOL, abs=0), k
            assert br.sinr[k] == pytest.approx(sinr, rel=SINR_RTOL, abs=0), k
            assert sinr_user(stats, k)[:2] == (ds, sinr), k


class TestSpectralEfficiency:
    @staticmethod
    def se_at_sinrs(monkeypatch, sinrs, prelog=False, **scenario_kw):
        """evaluate_phases with user k's closed-form SINR replaced by sinrs[k]."""
        sc = Scenario(**{"M": 2, "K": len(sinrs), "N_H": 2, "N_V": 2, "tau_p": 1, **scenario_kw})
        monkeypatch.setattr(perf, "sinr_all",
                            lambda stats: SimpleNamespace(sinr=np.array(sinrs)))
        se, _ = evaluate_phases(sample_layout(sc, 0), np.zeros(sc.N), 1.0, prelog)
        return se

    def test_log2_values(self, monkeypatch):
        se = self.se_at_sinrs(monkeypatch, [1.0, 3.0, 0.0])
        assert se[0] == pytest.approx(1.0)
        assert se[1] == pytest.approx(2.0)
        assert se[2] == 0.0

    def test_prelog_factor(self, monkeypatch):
        se = self.se_at_sinrs(monkeypatch, [3.0], prelog=True, tau_p=50, tau_c=200)
        assert se[0] == pytest.approx(1.5)

    def test_sum_se_single_user(self):
        sc = Scenario(M=2, K=1, N_H=2, N_V=2, tau_p=1)
        rl = sample_layout(sc, 3)
        state = RisState(phases=np.zeros(sc.N), a=1.0)
        stats = compute_stats(rl, state)
        se, _ = evaluate_phases(rl, state.phases, state.a)
        assert se.sum() == pytest.approx(
            np.log2(1.0 + sinr_all(stats).sinr[0]), rel=1e-6, abs=0)

    @pytest.mark.parametrize("prelog", [False, True])
    def test_per_user_se_is_log2_of_closed_form_sinr(self, prelog):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2, tau_p=2, tau_c=50)
        rl = sample_layout(sc, 5)
        state = RisState(phases=np.random.default_rng(0).uniform(0, 2 * np.pi, sc.N), a=1.5)
        stats = compute_stats(rl, state)
        se, se_stats = evaluate_phases(rl, state.phases, state.a, prelog)
        assert_allclose(se_stats.gamma, stats.gamma, rtol=0)
        assert_allclose(se_stats.nmse, stats.nmse, rtol=0)
        factor = 1.0 - sc.tau_p / sc.tau_c if prelog else 1.0
        sinr = sinr_all(stats).sinr
        expected = [factor * np.log2(1.0 + sinr[k]) for k in range(sc.K)]
        assert se.shape == (sc.K,)
        assert_allclose(se, expected, rtol=1e-12)

    @pytest.mark.parametrize("shape, match", [(5, "5 entries, the RIS has N=64"),
                                              (65, "65 entries, the RIS has N=64"),
                                              ((64, 1), r"1-D vector, got shape \(64, 1\)")],
                             ids=["5", "N+1", "column"])
    @pytest.mark.parametrize("distinct", [False, True], ids=["equal", "distinct"])
    def test_phase_vector_of_wrong_shape_is_refused(self, shape, match, distinct):
        # zero phases of any length once gave the 64-element sum SE, as the
        # equal-phase traces never read the length; distinct ones died in a
        # numpy broadcast
        sc, rl, state = config_instance("default.yaml", 0)
        assert sc.N == 64
        phases = np.arange(np.prod(shape), dtype=float).reshape(shape) if distinct else np.zeros(shape)
        with pytest.raises(ValueError, match=match):
            evaluate_phases(rl, phases, state.a)

    def test_user_permutation_symmetry(self):
        sc, rl, phases = cascade_instance(tau_p=2)
        se1, _ = evaluate_phases(rl, phases, 2.0)
        perm = np.array([1, 0])
        rl2 = synthetic_realization(sc, rl.beta[:, perm], rl.alpha, rl.alpha_bar[perm])
        se2, _ = evaluate_phases(rl2, phases, 2.0)
        assert se1.sum() == pytest.approx(se2.sum(), rel=1e-12)


class TestEnergyEfficiency:
    def test_zero_rate_zero_ee(self):
        sc = Scenario(M=2, K=2, N_H=2, N_V=2)
        rl = sample_layout(sc, 0)
        assert energy_efficiency(rl, 0.0, 1.0) == 0.0

    def test_zero_rate_at_zero_total_power(self):
        # rho_u = 0 delivers no bits; with no circuit, backhaul or reflected power
        # the total power is 0 too, which once raised ZeroDivisionError
        sc = Scenario(M=2, K=2, N_H=2, N_V=2, rho_u=0.0, sigma2_bar=0.0, P0=0.0,
                      P_c=0.0, P_dc=0.0)
        rl = sample_layout(sc, 0)
        assert energy_efficiency(rl, 0.0, amplitude_gain(sc, rl.alpha_bar)) == 0.0

    def test_bandwidth_linearity_without_traffic_power(self):
        sc1 = Scenario(M=2, K=2, N_H=2, N_V=2, Pbt=0.0, B=10e6)
        sc2 = Scenario(M=2, K=2, N_H=2, N_V=2, Pbt=0.0, B=20e6)
        rl = sample_layout(sc1, 0)
        assert energy_efficiency(replace(rl, scenario=sc2), 3.0, 1.0) == pytest.approx(
            2 * energy_efficiency(rl, 3.0, 1.0), rel=1e-12)

    def test_independent_transcription(self):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2)
        rl = sample_layout(sc, 8)
        se_total, a = 5.25, 2.5
        p_aris = sc.N * (sc.P_c + sc.P_dc) + (
            a * a * sc.N * (sc.rho_u * sc.d_H * sc.d_V * rl.alpha_bar.sum() + sc.sigma2_bar)) / sc.xi
        p_total = sc.K * sc.zeta * sc.rho_u \
            + sum(sc.P0 + sc.B * (se_total / sc.M) * sc.Pbt for _ in range(sc.M)) \
            + p_aris
        expected = sc.B * se_total / p_total
        assert energy_efficiency(rl, se_total, a) == pytest.approx(expected, rel=1e-12)
        assert aris_power_consumption(rl, a) == pytest.approx(p_aris, rel=1e-12, abs=0)
