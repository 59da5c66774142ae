"""Monte Carlo oracle: block draws of both phases, determinism, identity suite."""

import hashlib
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf import oracle
from ariscf.channel import complex_normal, compute_stats
from ariscf.perf import sinr_all, sinr_user
from ariscf.ris import RisState
from ariscf.scenario import Scenario, sample_layout

from _instances import (
    cascade_instance,
    config_instance,
    draw_trials,
    empirical_sinr,
    sample_block,
    synthetic_realization,
)
from _reference import serial_sample_block

# Closed-form quantities and the identity family, or families, that give each its
# empirical counterpart; a coverage test enforces the two-sided mapping.
ORACLE_COVERAGE = {
    "channel.SecondOrderStats.kappa": "kappa",
    # the quartic rows, built from kappa and tr(Xi_{m,k} Xi_{m',k'}) = s_{m,k} s_{m',k'} t2
    "channel.SecondOrderStats.xi_scale": ("fourth", "cross", "cyclic"),
    "channel.SecondOrderStats.t2": ("fourth", "cross", "cyclic"),
    "channel.SecondOrderStats.alpha_an": "alpha_an",
    "ris.aris_output_power": "aris_power",
    "channel.SecondOrderStats.c": "nmse",
    "channel.SecondOrderStats.gamma": "gamma",
    "channel.SecondOrderStats.nmse": "nmse",
    "perf.sinr_user.ds": "sinr_ds",
    "perf.sinr_user.bu": "sinr_bu",
    "perf.sinr_user.ui": "sinr_ui",
    # the paper's noise floors reach the suite through the SINR alone; the
    # exact noise powers have rows of their own
    "perf.sinr_user.an": "sinr_total",
    "perf.sinr_user.no": "sinr_total",
    "perf.sinr_user.sinr": "sinr_total",
    "oracle.exact_active_noise_power": "sinr_an_exact",
    "oracle.exact_ap_noise_power": "sinr_no_exact",
}


class TestLiteralPhases:
    """The pilot and data phases of the oracle's block draws against the signal model."""

    def test_pilot_projection_noiseless_identity(self):
        # no noise, single user: projection reproduces the aggregated channel
        sc = Scenario(M=2, K=1, N_H=2, N_V=2, tau_p=1, sigma2=0.0, sigma2_bar=0.0)
        rl = sample_layout(sc, 2)
        state = RisState(phases=np.zeros(sc.N), a=0.0)
        blk = sample_block(rl, state, 0, 0, 16)
        assert_allclose(blk.y, blk.q, rtol=1e-12)

    def test_projection_equals_coset_sum_plus_noise_terms(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        blk = sample_block(rl, state, 1, 0, 16)
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
        blk = sample_block(rl2, state, 3, 0, 16)
        assert_allclose(blk.y, blk.q, rtol=1e-10)

    def test_data_phase_noise_off(self):
        # received data signal sqrt(rho_u) q x + p + w with x = 1 and both noises off
        sc = Scenario(M=2, K=1, N_H=2, N_V=2, tau_p=1, sigma2=0.0, sigma2_bar=0.0)
        rl = sample_layout(sc, 4)
        state = RisState(phases=np.zeros(sc.N), a=1.0)
        blk = sample_block(rl, state, 0, 0, 16)
        y = np.sqrt(sc.rho_u) * blk.q[:, :, 0] + blk.p_data + blk.w_data
        assert_allclose(y, np.sqrt(sc.rho_u) * blk.q[:, :, 0], rtol=1e-12)

    def test_pilot_projection_power_matches_lmmse_denominator(self):
        # E{|y^(p)|^2} is the LMMSE denominator scaled by 1/(rho tau_p)
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        stats = compute_stats(rl, state)
        y = draw_trials(rl, state, 40_000, master_seed=6).y
        power = np.mean(np.abs(y) ** 2, axis=0)
        expected = stats.kappa / stats.c  # kappa_mk / c_mk = denominator / (rho tau_p)
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
        br = sinr_all(stats)
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
        # the oracle's jackknife error bar of sinr_bu halves at four times the
        # trials. One seed's ratio spreads by about 0.16, near the margin, so
        # each n averages the error bar over master seeds 0..7, fixed up front.
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)

        def mean_stderr_rel(n):
            return np.mean([{r.name: r for r in oracle.verify_moment_identities(rl, state, n, seed)}
                            ["sinr_bu"].stderr_rel for seed in range(8)])

        small, big = mean_stderr_rel(16_384), mean_stderr_rel(4 * 16_384)
        assert big == pytest.approx(small / 2, rel=0.2, abs=0)


class TestIdentitySuite:
    def test_cascade_instance_all_pass(self):
        rl, state = oracle.benchmark_instance()  # equal phases, cascade-dominated
        rows = oracle.verify_moment_identities(rl, state, 300_000, master_seed=3)
        bad = [r for r in rows if r.status != "pass"]
        assert not bad, f"failing identities: {[(r.name, r.rel_err) for r in bad]}"

    def test_off_state_degenerate_forms_pass(self):
        sc, rl, phases = cascade_instance(tau_p=1, a=0.0)
        state = RisState(phases=phases, a=0.0)
        rows = oracle.verify_moment_identities(rl, state, 200_000, master_seed=4)
        bad = [r for r in rows if r.status != "pass"]
        assert not bad, f"failing identities: {[(r.name, r.rel_err) for r in bad]}"

    def test_jackknife_of_a_mean_is_the_batch_means_error(self):
        # With equal groups the delete-a-group jackknife of a plain mean is the
        # batch-means error sqrt(sum_g (xbar_g - xbar)^2 / (G (G - 1))). 9216
        # trials make 32 groups of 288 that straddle the 4096-trial blocks.
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        n, G = 2 * oracle.CHUNK_TRIALS + 1024, oracle.JACKKNIFE_GROUPS
        rows = {r.name: r for r in oracle.verify_moment_identities(rl, state, n, master_seed=7)}
        x = np.abs(draw_trials(rl, state, n, master_seed=7).q[:, 0, 0]) ** 2
        group_means = x.reshape(G, n // G).mean(axis=1)
        expected = np.sqrt(np.sum((group_means - x.mean()) ** 2) / (G * (G - 1)))
        kappa = compute_stats(rl, state).kappa[0, 0]
        assert rows["kappa[0,0]"].stderr_rel == pytest.approx(expected / kappa, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["default.yaml", "built-in"])
    def test_every_row_has_an_error_bar(self, case):
        # validate's instances: default.yaml seed 0 (equal phases, budget
        # amplitude) at 12288 trials, and the built-in instance at 1e5 trials
        if case == "built-in":
            (rl, state), n = oracle.benchmark_instance(), 100_000
        else:
            (_, rl, state), n = config_instance(case, 0, phases="equal"), 12_288
        rows = oracle.verify_moment_identities(rl, state, n, master_seed=0)
        assert [r.name for r in rows if not 0.0 < r.stderr_rel < np.inf] == []

    @pytest.mark.parametrize("case, n_rows, digest", [
        ("default.yaml", 1529, "a3b0f7fe2d87509b93d8280dd2f2ce1ab5d3226e8f56d5e14cd2413cd4a34f37"),
        ("built-in", 36, "db2bcf827037de6a9d877df9cdf49c338761f40e11e7315388268e84a4ef1e80"),
        # M=4, K=3, users sharing pilots
        ("train_small.yaml", 77, "06db72993d625aaff23353b59b756d9e72c005f598825071a33831889a9482bf"),
        # M = K = 1: no cross, cyclic or corollary1 rows
        ("toy_n1.yaml", 14, "102111d35b22143a4a0e7e8103d09fe522b50aaca8974844a765b93aa63254b7"),
        # M > 1, K = 1: cross[mk|m'k] and corollary1 without the K > 1 rows
        pytest.param(("small.yaml", {"K": 1, "tau_p": 1}), 22,
                     "c979a0500e5345b802a0057f367e53f772b8bd6fdea6a1ea1a3694508e377f75",
                     id="small.yaml-K=1"),
    ])
    def test_analytic_column_is_pinned(self, case, n_rows, digest):
        # validate's instances at master seed 0, hashed as perfbench's analytic_digest
        # hashes a report: one "name<TAB>repr(analytic)" line per row. Neither the trial
        # count nor the Monte Carlo generator reaches the analytic column; the Wishart
        # probe A is drawn from its own fixed stream.
        if case == "built-in":
            rl, state = oracle.benchmark_instance()
        else:
            name, overrides = (case, {}) if isinstance(case, str) else case
            _, rl, state = config_instance(name, 0, phases="equal", **overrides)
        rows = oracle.verify_moment_identities(rl, state, 64, master_seed=0)
        h = hashlib.sha256()
        for r in rows:
            h.update(f"{r.name}\t{r.analytic!r}\n".encode())
        assert (len(rows), h.hexdigest()) == (n_rows, digest)

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
        assert stats.c.min() > 0.99  # validity regime
        ds, _, bu, ui, an, no = sinr_user(stats, 0)
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
        assert stats.c.max() < 0.9
        r = empirical_sinr(rl, state, 300_000, master_seed=12)
        assert r.no == pytest.approx(oracle.exact_ap_noise_power(stats, 0), rel=0.03, abs=0)
        assert r.an == pytest.approx(oracle.exact_active_noise_power(stats, 0), rel=0.03, abs=0)

    def test_csv_rows_shape(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        rows = oracle.verify_moment_identities(rl, state, 8192, master_seed=0)
        csv_rows = [r.csv_row() for r in rows]
        assert all(len(r) == len(oracle.CSV_HEADER) for r in csv_rows)
        assert [r[0] for r in csv_rows] == [r.name for r in rows]
        assert [r[-1] for r in csv_rows] == [r.status for r in rows]

    def test_coverage_registry(self):
        # every exported closed-form quantity has its empirical counterpart
        # rows in the identity suite
        sc, rl, phases = cascade_instance(tau_p=1)
        state = RisState(phases=phases, a=2.0)
        rows = oracle.verify_moment_identities(rl, state, 8192, master_seed=0)
        names = {r.name.split("[")[0] for r in rows} | {r.name for r in rows}
        for export, families in ORACLE_COVERAGE.items():
            for family in (families,) if isinstance(families, str) else families:
                assert family in names, f"{export} has no {family} row"
        # and the registry covers the public closed-form surface
        public = {
            "channel.SecondOrderStats.kappa", "channel.SecondOrderStats.alpha_an",
            "channel.SecondOrderStats.xi_scale", "channel.SecondOrderStats.t2",
            "ris.aris_output_power",
            "channel.SecondOrderStats.c", "channel.SecondOrderStats.gamma",
            "channel.SecondOrderStats.nmse",
            "perf.sinr_user.ds", "perf.sinr_user.bu", "perf.sinr_user.ui",
            "perf.sinr_user.an", "perf.sinr_user.no", "perf.sinr_user.sinr",
            "oracle.exact_active_noise_power", "oracle.exact_ap_noise_power",
        }
        assert public == set(ORACLE_COVERAGE)
        # the two exact rows compare the exact noise powers, not the paper's floors
        stats = compute_stats(rl, state)
        analytic = {r.name: r.analytic for r in rows}
        assert analytic["sinr_an_exact"] == oracle.exact_active_noise_power(stats, 0)
        assert analytic["sinr_no_exact"] == oracle.exact_ap_noise_power(stats, 0)


def _lane_instance(case: str):
    """(realization, state) for the byte-identity cases of the two draw lanes."""
    if case == "default":
        # shipped config, random phases, budget amplitude
        _, rl, state = config_instance("default.yaml", 3)
        return rl, state
    if case == "equal":
        # the instance `validate --config` runs: zero phases, each phasor exactly 1+0j
        _, rl, state = config_instance("default.yaml", 3, phases="equal")
        return rl, state
    if case == "train-small":
        # a shipped config with shared pilots (K=3, tau_p=2), as `validate --config` runs it
        _, rl, state = config_instance("train_small.yaml", 3, phases="equal")
        return rl, state
    if case == "odd-mk":
        sc = Scenario(M=3, K=5, N_H=4, N_V=3, tau_p=2)
        return sample_layout(sc, 1), RisState(
            phases=np.random.default_rng(1).uniform(0, 2 * np.pi, sc.N), a=2.0)
    _, rl, phases = cascade_instance(a=0.0)
    return rl, RisState(phases=phases, a=0.0)


class TestDrawLanes:
    """Each block's substreams drawn on two threads: the bytes of the serial
    draw, a bounded peak, and no thread left behind."""

    @pytest.mark.parametrize("case, size", [("default", 1), ("default", 17), ("default", 1808),
                                            ("equal", 17), ("equal", 1808), ("odd-mk", 17),
                                            ("odd-mk", 1808), ("off-state", 17),
                                            ("train-small", oracle.CHUNK_TRIALS)])
    def test_block_equals_serial_draw(self, case, size):
        rl, state = _lane_instance(case)
        blk = sample_block(rl, state, 5, 2, size)
        ref = serial_sample_block(rl, state, 5, 2, size)
        for f in fields(oracle._Block):
            assert np.array_equal(getattr(blk, f.name), getattr(ref, f.name)), f.name

    def test_block_holds_no_user_ris_channels(self):
        # the suite reads only the reflected power of z, so no (B, K, N) array leaves the block
        rl, state = _lane_instance("odd-mk")
        sc = rl.scenario
        blk = sample_block(rl, state, 5, 2, 17)
        shapes = {f.name: getattr(blk, f.name).shape for f in fields(oracle._Block)}
        assert (17, sc.K, sc.N) not in shapes.values(), shapes
        assert shapes["aris"] == (17,)

    def test_block_peak_memory(self):
        # Peak of one default.yaml block in units of its (B, M, N) complex hp.
        # The serial draw read 3.11: z and its full-size plane and product
        # buffers were alive next to hp. The lanes draw z only after v_p is
        # reduced to pbar and freed, and fill every plane through small pieces.
        sc, rl, state = config_instance("default.yaml", 0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            oracle._sample_block(rl, state, 0, 0, oracle.CHUNK_TRIALS, pool)
            tracemalloc.start()
            try:
                oracle._sample_block(rl, state, 0, 0, oracle.CHUNK_TRIALS, pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak / (16 * oracle.CHUNK_TRIALS * sc.M * sc.N) <= 2.9

    def test_no_thread_outlives_the_suite(self):
        sc, rl, phases = cascade_instance(tau_p=1)
        before = threading.active_count()
        oracle.verify_moment_identities(rl, RisState(phases=phases, a=2.0), 100, master_seed=0)
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        real = oracle._fill_normal

        def fill(rng, out):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("draw failed on a lane")
            return real(rng, out)

        monkeypatch.setattr(oracle, "_fill_normal", fill)
        sc, rl, phases = cascade_instance(tau_p=1)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed on a lane"):
            oracle.verify_moment_identities(rl, RisState(phases=phases, a=2.0), 100, master_seed=0)
        assert threading.active_count() == before

    def test_lanes_call_no_public_function(self, monkeypatch):
        # A tracer wraps every public ariscf function with one unlocked span
        # stack, so the lanes may call private helpers only.
        threads = set()

        def wrap(fn):
            def traced(*args, **kwargs):
                threads.add(threading.current_thread())
                return fn(*args, **kwargs)
            return traced

        for mod in [m for name, m in sys.modules.items() if name.startswith("ariscf")]:
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", "").startswith("ariscf")):
                    monkeypatch.setattr(mod, attr, wrap(obj))
        sc, rl, phases = cascade_instance(tau_p=1)
        oracle.verify_moment_identities(rl, RisState(phases=phases, a=2.0), 100, master_seed=0)
        assert threads == {threading.main_thread()}
