"""Oracle fading draws and the analytic channel moments."""

import os
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf import channel, oracle
from ariscf.channel import SecondOrderStats, complex_normal, compute_stats, phase_traces, scale_stats
from ariscf.ris import RisState, amplitude_gain
from ariscf.scenario import Scenario, sample_layout

from _instances import (
    CONFIG_DIR,
    cascade_instance,
    config_instance,
    count_calls,
    fixed_correlation,
    sample_block,
)
from _reference import (
    R_bar_k,
    R_m,
    active_noise_moment_main_text,
    complex_gemm_stats,
    dense_xi,
    real_gemm_traces,
    reflection_matrix,
    tr_xi,
    whole_plane_correlated_normal,
)


def _regenerate_h_g(rl, master_seed: int, chunk: int, size: int):
    """h and g of one oracle block, redrawn from their own substreams."""
    sc = rl.scenario
    h_base = complex_normal(oracle._stream(master_seed, chunk, oracle._TAG_H), (size, sc.M, sc.N))
    h = np.sqrt(rl.alpha * sc.element_area)[None, :, None] * (h_base @ rl.R_factor.T)
    g_base = complex_normal(oracle._stream(master_seed, chunk, oracle._TAG_G), (size, sc.M, sc.K))
    return h, np.sqrt(rl.beta)[None] * g_base


def _regenerate_z(rl, master_seed: int, chunk: int, size: int):
    """The RIS-user channels z of one oracle block, redrawn from their own substream."""
    sc = rl.scenario
    z_base = complex_normal(oracle._stream(master_seed, chunk, oracle._TAG_Z), (size, sc.K, sc.N))
    return np.sqrt(rl.alpha_bar * sc.element_area)[None, :, None] * (z_base @ rl.R_factor.T)


class TestSampling:
    def test_zero_covariance_gives_zero(self):
        # R = 0: the RIS-user channels z_k ~ CN(0, alphabar_k dH dV R) vanish, and q is g alone
        sc, rl, phases = cascade_instance()
        rl0 = fixed_correlation(rl, np.zeros((sc.N, sc.N)))
        blk = sample_block(rl0, RisState(phases=phases, a=2.0), 0, 0, 16)
        assert_allclose(_regenerate_z(rl0, 0, 0, 16), 0.0)
        _, g = _regenerate_h_g(rl0, 0, 0, 16)
        assert_allclose(blk.q, g)

    def test_identity_covariance_statistics(self):
        # R = I and alphabar_k dH dV = 1: every z_k is CN(0, I)
        sc, rl, phases = cascade_instance()
        rl_eye = fixed_correlation(replace(rl, alpha_bar=np.full(sc.K, 1.0 / sc.element_area)),
                                   np.eye(sc.N))
        x = np.concatenate([_regenerate_z(rl_eye, 1, chunk, size)[:, 0]
                            for chunk, size in enumerate(oracle._chunk_sizes(100_000))])
        cov = x.T.conj() @ x / x.shape[0]
        assert np.linalg.norm(cov - np.eye(sc.N)) / np.linalg.norm(np.eye(sc.N)) < 0.05

    def test_scaled_covariance_matches_scaled_samples(self):
        # four times the covariance at the same seed doubles every draw of z, and so
        # the cascaded part q - g of every aggregated channel
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        rl4 = replace(rl, alpha_bar=4.0 * rl.alpha_bar)
        _, g = _regenerate_h_g(rl, 7, 0, 100)
        x1 = sample_block(rl, state, 7, 0, 100).q - g
        x2 = sample_block(rl4, state, 7, 0, 100).q - g
        assert_allclose(2.0 * x1, x2, rtol=1e-12)

    def test_aggregated_channel_construction(self):
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=1.5)
        blk = sample_block(rl, state, 0, 0, 8)
        h, g = _regenerate_h_g(rl, 0, 0, 8)
        z = _regenerate_z(rl, 0, 0, 8)
        # elementwise: q[m,k] = g[m,k] + h_m^H Theta z_k
        theta = reflection_matrix(state.phases, state.a)
        q00 = g[0, 0, 0] + np.conj(h[0, 0]) @ theta @ z[0, 0]
        assert blk.q[0, 0, 0] == pytest.approx(q00)
        assert_allclose(blk.q, g + np.einsum("tmn,nn,tkn->tmk", np.conj(h), theta, z))

    def test_passive_off_state_reduces_to_direct(self):
        sc, rl, phases = cascade_instance(a=0.0)
        blk = sample_block(rl, RisState(phases=phases, a=0.0), 5, 0, 8)
        _, g = _regenerate_h_g(rl, 5, 0, 8)
        assert_allclose(blk.q, g)

    @pytest.mark.parametrize("shape", [(64, 64), (512, 20, 15), (4099,), (65537,), (3, 43691)])
    def test_complex_normal_bytes(self, shape):
        # the real plane, then the imaginary plane, scaled by 1/sqrt(2); the
        # last two shapes straddle the 65536-value draw buffer once and twice
        rng = np.random.default_rng(17)
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape)
        expected = (x + 1j * y) / np.sqrt(2.0)
        got = complex_normal(np.random.default_rng(17), shape)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    @pytest.mark.parametrize("shape", [(1808, 20, 64), (385, 64), (193, 3, 9), (17, 5, 16)])
    def test_correlated_pieces_match_whole_plane_gemm(self, shape):
        # the leading axis spans one or more 192-entry pieces and is no multiple
        # of one: every piece gives the bytes of one GEMM over the whole plane
        rng = np.random.default_rng(shape[-1])
        F = np.tril(rng.standard_normal((shape[-1], shape[-1])))
        scale = np.linspace(0.5, 2.0, shape[-2])[:, None] if len(shape) > 2 else 0.7
        got = channel._fill_correlated(np.random.default_rng(23), np.empty(shape, complex), F, scale)
        expected = whole_plane_correlated_normal(np.random.default_rng(23), shape, F, scale)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))

    def test_correlated_draw_matches_complex_gemm(self):
        # z through one real GEMM per plane against the complex draw times F^T, read
        # through the block's reflected power a^2 (rho_u |z|^2 + |v_d|^2)
        sc = Scenario(M=3, K=4, N_H=4, N_V=3, tau_p=2)
        rl = sample_layout(sc, 1)
        state = RisState(phases=np.random.default_rng(1).uniform(0, 2 * np.pi, sc.N), a=2.0)
        blk = sample_block(rl, state, 4, 2, 300)
        z = _regenerate_z(rl, 4, 2, 300)
        v_d = np.sqrt(sc.sigma2_bar) * complex_normal(oracle._stream(4, 2, oracle._TAG_VD), (300, sc.N))
        aris = state.a ** 2 * (sc.rho_u * np.sum(np.abs(z) ** 2, axis=(1, 2))
                               + np.sum(np.abs(v_d) ** 2, axis=1))
        assert_allclose(blk.aris, aris, rtol=1e-12)

    def test_zero_mean_and_power(self):
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        q = sample_block(rl, state, 11, 0, 4000).q
        power = np.mean(np.abs(q) ** 2, axis=0)
        assert np.abs(q.mean(axis=0)).max() / np.sqrt(power.min()) < 4 / np.sqrt(4000)
        assert_allclose(power, stats.kappa, rtol=0.08)


class TestSecondOrderStats:
    def test_kappa_definition(self):
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        assert (stats.kappa > 0).all() and (stats.alpha_an > 0).all()
        for m in range(sc.M):
            for k in range(sc.K):
                xi = dense_xi(stats, state.phasor, m, k)
                assert stats.kappa[m, k] == pytest.approx(rl.beta[m, k] + np.trace(xi).real, rel=1e-10, abs=0)
                assert abs(np.trace(xi).imag) < 1e-9 * abs(np.trace(xi).real)

    def test_dense_xi_matches_factored_traces(self):
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=1.3)
        stats = compute_stats(rl, state)
        xi00, xi11 = dense_xi(stats, state.phasor, 0, 0), dense_xi(stats, state.phasor, 1, 1)
        assert tr_xi(stats, 0, 0) == pytest.approx(np.trace(xi00).real, rel=1e-10, abs=0)
        # tr(Xi_{0,0} Xi_{1,1}) = s_{0,0} s_{1,1} t2
        assert stats.xi_scale[0, 0] * stats.xi_scale[1, 1] * stats.t2 == pytest.approx(
            np.trace(xi00 @ xi11).real, rel=1e-10, abs=0)

    def test_off_state(self):
        sc, rl, phases = cascade_instance(a=0.0)
        stats = compute_stats(rl, RisState(phases=phases, a=0.0))
        assert_allclose(stats.kappa, rl.beta)
        assert_allclose(stats.alpha_an, 0.0)

    def test_identity_like_correlation_trace(self, monkeypatch):
        # Psi = I and R = I make tr(Xi) = a^2 alpha_m alphabar_k (dH dV)^2 N;
        # the traces read R from the geometry, so R = I is set there
        sc, rl, _ = cascade_instance()
        eye = np.eye(sc.N)
        monkeypatch.setattr(channel, "ris_correlation", lambda geometry: (eye, eye))
        phase_traces.cache_clear()
        try:
            stats = compute_stats(rl, RisState(phases=np.zeros(sc.N), a=2.0))
        finally:
            phase_traces.cache_clear()
        expected = 4.0 * rl.alpha[0] * rl.alpha_bar[1] * sc.element_area ** 2 * sc.N
        assert tr_xi(stats, 0, 1) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_global_phase_shift_invariance(self):
        sc, rl, phases = cascade_instance()
        s1 = compute_stats(rl, RisState(phases=phases, a=2.0))
        s2 = compute_stats(rl, RisState(phases=phases + 1.234, a=2.0))
        assert_allclose(s1.kappa, s2.kappa, rtol=1e-12)
        assert s1.t2 == pytest.approx(s2.t2, rel=1e-12)
        assert_allclose(s1.alpha_an, s2.alpha_an, rtol=1e-12)

    def test_active_noise_moment_dense_transcription(self):
        # beta sigma2_bar tr(A^2 R_m) plus the Wishart term
        # sigma2_bar tr(Theta Rbar_k Theta^H (R_m A^2 R_m + tr(A^2 R_m) R_m)),
        # written out with dense matrices
        sc, rl, phases = cascade_instance()
        a = 2.0
        stats = compute_stats(rl, RisState(phases=phases, a=a))
        theta = np.diag(a * np.exp(1j * phases))
        a_sq = a * a * np.eye(sc.N)
        for m in range(sc.M):
            for k in range(sc.K):
                r_m = R_m(rl, m)
                Rb_k = R_bar_k(rl, k)
                wish = r_m @ a_sq @ r_m + np.trace(a_sq @ r_m) * r_m
                expected = (rl.beta[m, k] * sc.sigma2_bar * np.trace(a_sq @ r_m)
                            + sc.sigma2_bar * np.trace(theta @ Rb_k @ np.conj(theta).T @ wish))
                assert abs(expected.imag) < 1e-9 * abs(expected.real)
                assert stats.alpha_an[m, k] == pytest.approx(expected.real, rel=1e-10, abs=0)

    def test_main_text_active_noise_variant_differs(self):
        # comparison-only transcription of the main-text expression; it is not
        # the oracle-validated form and differs by construction
        sc, rl, phases = cascade_instance()
        stats = compute_stats(rl, RisState(phases=phases, a=2.0))
        alt = active_noise_moment_main_text(stats, 0, 0)
        assert alt > 0
        assert abs(alt / stats.alpha_an[0, 0] - 1.0) > 1e-3


def _fresh_stats(rl, state):
    """compute_stats with the trace cache emptied first."""
    phase_traces.cache_clear()
    return compute_stats(rl, state)


def _assert_same_bytes(got, expected):
    assert (got.t1, got.t2, got.t3) == (expected.t1, expected.t2, expected.t3)
    for name in ("kappa", "alpha_an", "xi_scale", "c", "gamma", "nmse"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


class TestPhaseTraces:
    def test_cached_traces_serve_another_amplitude(self):
        # traces computed at one amplitude serve another: one miss, one hit,
        # and the bytes of a fresh computation
        sc, rl, phases = cascade_instance()
        fresh = _fresh_stats(rl, RisState(phases=phases, a=2.0))
        phase_traces.cache_clear()
        compute_stats(rl, RisState(phases=phases, a=0.5))
        cached = compute_stats(rl, RisState(phases=phases, a=2.0))
        info = phase_traces.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        _assert_same_bytes(cached, fresh)

    def test_other_phases_recompute(self):
        # after a first call, one moved phase is a new key
        sc, rl, phases = cascade_instance()
        compute_stats(rl, RisState(phases=phases, a=2.0))
        moved = phases.copy()
        moved[-1] += 0.5
        state = RisState(phases=moved, a=2.0)
        after = compute_stats(rl, state)
        _assert_same_bytes(after, _fresh_stats(rl, state))

    def test_other_geometry_recomputes(self):
        # same N and phases, another element spacing: a new key
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        compute_stats(rl, state)
        sc2 = replace(sc, d_H=2.0 * sc.d_H)
        rl2 = sample_layout(sc2, 0)
        assert sc2.N == sc.N
        after = compute_stats(rl2, state)
        _assert_same_bytes(after, _fresh_stats(rl2, state))


# Shipped configs and perfbench's wide_ris.yaml (default.yaml with a 24 x 24 RIS)
SHIPPED = [("train_small.yaml", {}), ("default.yaml", {}),
           ("default.yaml", {"N_H": 24, "N_V": 24})]
SHIPPED_IDS = ["train-small", "default", "wide-ris"]


def _traces(rl, state):
    return phase_traces(rl.scenario.geometry, state.phases.tobytes())


class TestRealGemmTraces:
    # Two real SYRKs sum in another order than the complex GEMM and the two
    # real GEMMs once did. Fixed before any run: 1e-12, well above
    # N eps ~ 1.3e-13 at N = 576. Equal phases skip the SYRKs and reduce
    # R @ R as those kernels did at zero phases, so their traces keep their bytes.
    REL = 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name,overrides", SHIPPED, ids=SHIPPED_IDS)
    def test_traces_match_complex_gemm(self, name, overrides, seed):
        sc, rl, state = config_instance(name, seed, **overrides)
        stats = compute_stats(rl, state)
        t1, t2, t3, kappa, alpha_an = complex_gemm_stats(rl, state)
        assert stats.t1 == pytest.approx(t1, rel=self.REL)
        assert stats.t2 == pytest.approx(t2, rel=self.REL)
        assert stats.t3 == pytest.approx(t3, rel=self.REL)
        assert_allclose(stats.kappa, kappa, rtol=self.REL, atol=0)
        assert_allclose(stats.alpha_an, alpha_an, rtol=self.REL, atol=0)
        assert_allclose(_traces(rl, state), real_gemm_traces(rl, state), rtol=self.REL, atol=0)

    def test_zero_phases_keep_their_bytes(self):
        # every shipped config, wide-ris and the oracle's benchmark instance
        instances = [config_instance(name, 0, phases="equal")[1:]
                     for name in sorted(os.listdir(CONFIG_DIR)) if name.endswith(".yaml")]
        instances += [config_instance("default.yaml", 0, phases="equal", N_H=24, N_V=24)[1:],
                      oracle.benchmark_instance()]
        for rl, state in instances:
            assert _traces(rl, state) == real_gemm_traces(rl, state)

    @pytest.mark.parametrize("name,overrides", SHIPPED, ids=SHIPPED_IDS)
    def test_common_phase_skips_syrks(self, monkeypatch, name, overrides):
        # P o R = R whatever the common phase: the traces of zero phases
        sc, rl, zero = config_instance(name, 0, phases="equal", **overrides)
        state = replace(zero, phases=np.full(sc.N, 1.234))
        calls = count_calls(monkeypatch, channel, "_weighted_gram")
        phase_traces.cache_clear()
        traces, at_zero = _traces(rl, state), _traces(rl, zero)
        assert calls == []
        assert traces == at_zero
        assert_allclose(traces, real_gemm_traces(rl, state), rtol=self.REL, atol=0)

    @pytest.mark.parametrize("name,overrides", SHIPPED, ids=SHIPPED_IDS)
    def test_near_equal_phases_take_syrks(self, monkeypatch, name, overrides):
        # one element off zero: Bi = X^T X - R @ R cancels almost to 0
        sc, rl, zero = config_instance(name, 0, phases="equal", **overrides)
        phases = np.zeros(sc.N)
        phases[sc.N // 2] = 1e-3
        state = replace(zero, phases=phases)
        calls = count_calls(monkeypatch, channel, "_weighted_gram")
        phase_traces.cache_clear()
        traces = _traces(rl, state)
        assert len(calls) == 2
        assert_allclose(traces, real_gemm_traces(rl, state), rtol=self.REL, atol=0)

    @staticmethod
    def _peak(sc, call):
        """The tracemalloc peak of one call, in complex N x N arrays."""
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (16 * sc.N ** 2)

    def test_cold_call_peak_memory(self):
        # At most three real N x N arrays (1.5 complex) are alive at once: the
        # buffer X, which holds diag(sqrt(1 + w)) R and then Br o Bi, and Br
        # and Bi. A fourth real array, or one complex temporary next to them,
        # reads 2 or more; the two-real-GEMM kernel read 2.5.
        sc, rl, state = config_instance("default.yaml", 0, N_H=24, N_V=24)
        compute_stats(rl, state)
        # R stays cached; the buffers are made again and the traces recomputed
        channel._trace_buffers.cache_clear()
        phase_traces.cache_clear()
        assert self._peak(sc, lambda: compute_stats(rl, state)) <= 1.6

    def test_warm_call_peak_memory(self):
        # X, Br and Bi persist in `_trace_buffers`, so a warm call allocates
        # vectors only: the bound of the cold call, and 0.05 fixed before the
        # first run, a few N-vectors and far below one real N x N array (0.5)
        sc, rl, state = config_instance("default.yaml", 0, N_H=24, N_V=24)
        compute_stats(rl, state)
        phase_traces.cache_clear()  # R and the buffers stay cached, the traces are recomputed
        peak = self._peak(sc, lambda: compute_stats(rl, state))
        assert peak <= 1.6
        assert peak <= 0.05

    def test_threads_do_not_share_buffers(self):
        # The SYRKs release the GIL: without `_TRACE_LOCK` a thread's Br and Bi
        # are overwritten by the other thread's mid-call.
        sc = config_instance("default.yaml", 0, N_H=24, N_V=24)[0]
        rng = np.random.default_rng(34)
        vectors = [[rng.uniform(0.0, 2.0 * np.pi, sc.N).tobytes() for _ in range(6)]
                   for _ in range(2)]
        traces = phase_traces.__wrapped__   # past the one-slot cache: every call computes
        serial = [[traces(sc.geometry, v) for v in vs] for vs in vectors]
        start, threaded = threading.Barrier(2), [None, None]

        def work(i):
            start.wait()
            threaded[i] = [traces(sc.geometry, v) for v in vectors[i]]

        workers = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert threaded == serial


def _scale_instance(case):
    """The realization of a shipped config at seed 0, or of the oracle's built-in instance."""
    if case == "built-in":
        return oracle.benchmark_instance()[0]
    return config_instance(case, 0, phases="equal")[1]


SCALE_CASES = ["default.yaml", "train_small.yaml", "built-in"]


class TestScaleStats:
    # A grid of (a, t1, t3) fixed before the first run, reached by no phase vector
    # in particular: gains from RIS-off past every a_max, t1 from 0 past N^2 at
    # N = 64, and t3 below 0 down to where t3 + N t1 = 0. t2 enters none of
    # kappa, alpha_an and xi_scale.
    A_GRID = (0.0, 1e-3, 0.5, 1.0, 2.0, 4.0, 1e2, 1e4)
    T1_GRID = (0.0, 1e-9, 1e-3, 0.5, 1.0, 3.0, 64.0, 4096.0)
    T3_GRID = (-1e3, -1.0, -1e-6, 0.0, 1e-6, 1.0, 50.0, 1e4)

    @pytest.mark.parametrize("phases", ["equal", "random"])
    @pytest.mark.parametrize("case", SCALE_CASES)
    def test_traces_then_scale_is_compute_stats(self, case, phases):
        rl = _scale_instance(case)
        sc = rl.scenario
        psi = np.zeros(sc.N)
        if phases == "random":
            psi = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, sc.N)
        assert {f.name for f in fields(SecondOrderStats)} == {
            "realization", "a", "kappa", "alpha_an", "xi_scale", "t1", "t2", "t3",
            "c", "gamma", "nmse"}
        for a in (0.0, amplitude_gain(sc, rl.alpha_bar)):
            state = RisState(phases=psi, a=a)
            expected = _fresh_stats(rl, state)
            got = scale_stats(rl, a, *phase_traces(sc.geometry, state.phases.tobytes()))
            assert got.realization is expected.realization and got.a == expected.a == a
            _assert_same_bytes(got, expected)

    @pytest.mark.parametrize("case", SCALE_CASES)
    def test_non_decreasing_in_gain_and_traces(self, case):
        # the premise of an interval bound over traces: every scaled statistic
        # grows with a, t1 and t3 wherever t3 + N t1, a second moment, is >= 0
        rl = _scale_instance(case)
        N = rl.scenario.N
        grid = {}
        for i, a in enumerate(self.A_GRID):
            for j, t1 in enumerate(self.T1_GRID):
                for l, t3 in enumerate(self.T3_GRID):
                    if t3 + N * t1 >= 0:
                        grid[i, j, l] = scale_stats(rl, a, t1, t1 * t1, t3)
        pairs = 0
        for (i, j, l), lo in grid.items():
            for step in ((i + 1, j, l), (i, j + 1, l), (i, j, l + 1)):
                hi = grid.get(step)
                if hi is None:
                    continue
                for name in ("kappa", "alpha_an", "xi_scale"):
                    assert (getattr(hi, name) >= getattr(lo, name)).all(), ((i, j, l), step, name)
                pairs += 1
        assert pairs > 2 * len(grid)


def _analytic(rl, state) -> dict:
    """The identity suite's closed forms by row name, at 64 trials: the Monte Carlo
    draws never reach the analytic column."""
    return {r.name: r.analytic for r in oracle.verify_moment_identities(rl, state, 64, master_seed=0)}


class TestMoments:
    def test_fourth_row_off_state_gaussian(self):
        sc, rl, phases = cascade_instance(a=0.0)
        analytic = _analytic(rl, RisState(phases=phases, a=0.0))
        assert analytic["fourth[0,0]"] == pytest.approx(2 * rl.beta[0, 0] ** 2, rel=1e-12, abs=0)

    def test_fourth_row_jensen(self):
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        stats, analytic = compute_stats(rl, state), _analytic(rl, state)
        for m in range(2):
            for k in range(2):
                assert analytic[f"fourth[{m},{k}]"] >= stats.kappa[m, k] ** 2

    def test_cross_moment_independent_case(self):
        sc, rl, phases = cascade_instance(a=0.0)
        analytic = _analytic(rl, RisState(phases=phases, a=0.0))
        assert analytic["cross[mk|m'k']"] == pytest.approx(rl.beta[0, 0] * rl.beta[1, 1], rel=1e-12, abs=0)

    def test_cyclic_trace_is_real(self):
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        xi_a, xi_b = dense_xi(stats, state.phasor, 0, 1), dense_xi(stats, state.phasor, 1, 0)
        tr = np.trace(xi_a @ xi_b)
        assert abs(tr.imag) <= 1e-9 * abs(tr.real)
        assert _analytic(rl, state)["cyclic"] == pytest.approx(tr.real, rel=1e-10, abs=0)

    def test_moments_against_monte_carlo(self):
        # quick 1e5-draw check; the acceptance suite runs the full million
        sc, rl, phases = cascade_instance()
        state = RisState(phases=phases, a=2.0)
        analytic = _analytic(rl, state)
        rng = np.random.default_rng(2)
        n = 100_000
        area = sc.element_area
        h = np.sqrt(rl.alpha * area)[None, :, None] * (complex_normal(rng, (n, 2, sc.N)) @ rl.R_factor.T)
        z = np.sqrt(rl.alpha_bar * area)[None, :, None] * (complex_normal(rng, (n, 2, sc.N)) @ rl.R_factor.T)
        g = np.sqrt(rl.beta)[None] * complex_normal(rng, (n, 2, 2))
        q = g + 2.0 * np.einsum("tmn,n,tkn->tmk", np.conj(h), state.phasor, z)
        assert np.mean(np.abs(q[:, 0, 0]) ** 4) == pytest.approx(analytic["fourth[0,0]"], rel=0.05, abs=0)
        assert np.mean(np.abs(q[:, 0, 0] * np.conj(q[:, 1, 0])) ** 2) == pytest.approx(
            analytic["cross[mk|m'k]"], rel=0.05, abs=0)
        assert np.mean(np.abs(q[:, 0, 0] * np.conj(q[:, 0, 1])) ** 2) == pytest.approx(
            analytic["cross[mk|mk']"], rel=0.05, abs=0)
