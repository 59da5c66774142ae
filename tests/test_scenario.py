"""Geometry, large-scale gains, and the RIS spatial correlation matrix."""

import glob
import os
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from ariscf import channel, cli, scenario
from ariscf.channel import _fill_correlated
from ariscf.perf import evaluate_phases
from ariscf.scenario import (
    Scenario,
    build_correlation_matrix,
    config_field,
    config_fields,
    dbm_to_watt,
    element_positions,
    large_scale_gain,
    load_scenario,
    ris_correlation,
    sample_layout,
)

from _instances import count_calls
from _reference import R_bar_k, R_m

LAM = Scenario().wavelength
REPO = os.path.join(os.path.dirname(__file__), "..")
SHIPPED_CONFIGS = sorted(os.path.relpath(p, REPO) for pattern in ("configs", "perfbench/configs")
                         for p in glob.glob(os.path.join(REPO, pattern, "*.yaml")))


class TestCorrelationMatrix:
    def test_unit_diagonal(self):
        R = build_correlation_matrix(3, 2, LAM / 4, LAM / 4, LAM)
        assert_allclose(np.diag(R), 1.0)

    def test_symmetry(self):
        R = build_correlation_matrix(4, 4, LAM / 4, LAM / 3, LAM)
        assert_allclose(R, R.T)

    def test_half_wavelength_spacing_decorrelates(self):
        # adjacent horizontal pair on a square grid: sinc(1) = 0
        R = build_correlation_matrix(2, 2, LAM / 2, LAM / 2, LAM)
        assert R[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_quarter_wavelength_spacing(self):
        # sinc(1/2) = 2/pi
        R = build_correlation_matrix(2, 2, LAM / 4, LAM / 4, LAM)
        assert R[0, 1] == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_row_major_line_array_values(self):
        # On a 2x1 grid the row-major mapping keeps the pair purely horizontal.
        R = build_correlation_matrix(2, 1, LAM / 2, LAM / 4, LAM, indexing="row_major")
        assert R[0, 1] == pytest.approx(0.0, abs=1e-15)
        R = build_correlation_matrix(2, 1, LAM / 4, LAM / 4, LAM, indexing="row_major")
        assert R[0, 1] == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_default_is_verbatim_indexing(self):
        # The published index map divides by N_V, which revisits positions on
        # non-square grids; pin that behavior as the default.
        pos = element_positions(2, 3, 1.0, 1.0, indexing="paper")
        assert_allclose(pos[0], pos[2])  # element 3 lands back on element 1
        R = build_correlation_matrix(2, 3, LAM / 2, LAM / 2, LAM)
        assert R[0, 2] == pytest.approx(1.0)
        pos_rm = element_positions(2, 3, 1.0, 1.0, indexing="row_major")
        assert np.unique(pos_rm, axis=0).shape[0] == 6

    def test_displacement_invariance(self):
        # entries depend on element displacement only
        R = build_correlation_matrix(3, 3, LAM / 4, LAM / 5, LAM)
        pos = element_positions(3, 3, LAM / 4, LAM / 5)
        for n1, n2, s in [(0, 1, 3), (0, 3, 3), (1, 4, 3)]:
            d1 = np.linalg.norm(pos[n1] - pos[n2])
            d2 = np.linalg.norm(pos[n1 + s] - pos[n2 + s])
            if np.isclose(d1, d2):
                assert R[n1, n2] == pytest.approx(R[n1 + s, n2 + s], rel=1e-12)

    def test_swap_axes_preserves_spectrum_row_major(self):
        R1 = build_correlation_matrix(4, 2, LAM / 4, LAM / 4, LAM, indexing="row_major")
        R2 = build_correlation_matrix(2, 4, LAM / 4, LAM / 4, LAM, indexing="row_major")
        assert_allclose(np.sort(np.linalg.eigvalsh(R1)), np.sort(np.linalg.eigvalsh(R2)), atol=1e-10)

    @pytest.mark.parametrize("nh,nv", [(2, 2), (4, 4), (3, 5), (8, 8)])
    def test_near_psd(self, nh, nv):
        R = build_correlation_matrix(nh, nv, LAM / 4, LAM / 4, LAM)
        assert np.linalg.eigvalsh(R).min() >= -1e-9 * nh * nv

    @pytest.mark.parametrize("indexing", ["paper", "row_major"])
    @pytest.mark.parametrize("nh,nv,d_h,d_v", [(3, 5, LAM / 4, LAM / 3), (6, 2, LAM / 2, LAM / 7),
                                               (24, 24, LAM / 4, LAM / 4)])
    def test_bytes_match_difference_cube(self, nh, nv, d_h, d_v, indexing):
        # the expression R was built from before the (N, N, 3) cube was dropped
        pos = element_positions(nh, nv, d_h, d_v, indexing)
        diff = pos[:, None, :] - pos[None, :, :]
        expected = np.sinc(2.0 * np.sqrt(np.sum(diff ** 2, axis=-1)) / LAM)
        R = build_correlation_matrix(nh, nv, d_h, d_v, LAM, indexing)
        assert R.dtype == expected.dtype and R.shape == expected.shape
        assert np.array_equal(R.view(np.uint64), expected.view(np.uint64))


class TestCorrelationCache:
    def test_seeds_of_one_scenario_share_r(self):
        sc = Scenario(M=2, K=3, N_H=4, N_V=3)
        assert sample_layout(sc, 0).R is sample_layout(sc, 1).R

    def test_r_is_read_only(self):
        R = sample_layout(Scenario(M=2, K=2, N_H=3, N_V=3), 0).R
        with pytest.raises(ValueError):
            R[0, 1] = 0.5
        with pytest.raises(ValueError):
            R *= 2.0

    def test_new_geometry_gets_fresh_r(self):
        R1 = sample_layout(Scenario(M=2, K=2, N_H=3, N_V=3), 0).R
        sc = Scenario(M=2, K=2, N_H=4, N_V=2, d_V=LAM / 3, grid_indexing="row_major")
        R2 = sample_layout(sc, 0).R
        assert R2 is not R1 and R2.shape == (8, 8)
        uncached = build_correlation_matrix(*sc.geometry)
        assert uncached is not R2
        assert np.array_equal(R2, uncached)

    def test_seeds_of_one_scenario_share_r_squared(self):
        sc = Scenario(M=2, K=3, N_H=4, N_V=3)
        rl0, rl1 = sample_layout(sc, 0), sample_layout(sc, 1)
        R2_0 = ris_correlation(rl0.scenario.geometry)[1]
        assert R2_0 is ris_correlation(rl1.scenario.geometry)[1]
        assert np.array_equal(R2_0, rl0.R @ rl0.R)

    def test_r_squared_is_read_only(self):
        R2 = ris_correlation(sample_layout(Scenario(M=2, K=2, N_H=3, N_V=3), 0).scenario.geometry)[1]
        with pytest.raises(ValueError):
            R2[0, 1] = 0.5
        with pytest.raises(ValueError):
            R2 *= 2.0

    def test_new_geometry_gets_fresh_r_squared(self):
        R2_old = ris_correlation(Scenario(M=2, K=2, N_H=3, N_V=3).geometry)[1]
        sc = Scenario(M=2, K=2, N_H=4, N_V=2, d_V=LAM / 3, grid_indexing="row_major")
        rl = sample_layout(sc, 0)
        R2 = ris_correlation(rl.scenario.geometry)[1]
        assert R2 is not R2_old and R2.shape == (8, 8)
        _, uncached = scenario.ris_correlation.__wrapped__(sc.geometry)
        assert uncached is not R2
        assert np.array_equal(R2, uncached)
        assert np.array_equal(R2, rl.R @ rl.R)

    def test_sweep_squares_r_once(self, monkeypatch, tmp_path):
        # 2 values x 2 seeds of one geometry: four layouts, one cache miss,
        # which builds R and squares it
        builds = count_calls(monkeypatch, scenario, "build_correlation_matrix")
        scenario.ris_correlation.cache_clear()
        channel.phase_traces.cache_clear()
        config = tmp_path / "small.yaml"
        config.write_text("M: 2\nK: 2\nN_H: 3\nN_V: 3\nradius: 100.0\ntau_p: 2\n")
        assert cli.main(["sweep", "--config", str(config), "--param", "rho_u",
                         "--values", "0.01,1.0", "--seeds", "0,1",
                         "--out", str(tmp_path / "sweep.csv")]) == 0
        assert len(builds) == 1

    def test_plain_build_keeps_cached_pair(self):
        # building R for another geometry does not evict the scenario's pair
        sc = Scenario(M=2, K=3, N_H=4, N_V=3)
        rl0 = sample_layout(sc, 0)
        build_correlation_matrix(2, 2, LAM / 2, LAM / 2, LAM)
        rl1 = sample_layout(sc, 1)
        assert rl0.R is rl1.R
        assert ris_correlation(rl0.scenario.geometry)[1] is ris_correlation(rl1.scenario.geometry)[1]


class TestLayoutCache:
    ARRAYS = ("ap_positions", "user_positions", "beta", "alpha", "alpha_bar")

    @pytest.mark.parametrize("change", [{"rho_u": 1.0}, {"P_aris": 0.1}, {"sigma2": 1e-12}])
    def test_non_layout_fields_share_the_draw(self, change):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2)
        other = replace(sc, **change)
        rl, rl_other = sample_layout(sc, 0), sample_layout(other, 0)
        for name in self.ARRAYS:
            assert getattr(rl, name) is getattr(rl_other, name)
        assert rl.scenario is sc and rl_other.scenario is other

    @pytest.mark.parametrize("change", [
        {"M": 4}, {"K": 5}, {"radius": 300.0}, {"beta_exp": 3.5}, {"alpha1_exp": 2.0},
        {"alpha2_exp": 2.0},
    ])
    def test_each_layout_field_draws_afresh(self, change):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2)
        other = replace(sc, **change)
        assert other.layout != sc.layout
        rl, rl_other = sample_layout(sc, 0), sample_layout(other, 0)
        # the cached arrays are new objects with the bytes of an uncached draw
        fresh = scenario.layout_arrays.__wrapped__(other.layout, 0)
        for name, x in zip(self.ARRAYS, fresh):
            assert getattr(rl_other, name) is not getattr(rl, name)
            assert np.array_equal(getattr(rl_other, name).view(np.uint64), x.view(np.uint64))

    def test_each_seed_draws_afresh(self):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2)
        rl0, rl1 = sample_layout(sc, 0), sample_layout(sc, 1)
        assert rl1.user_positions is not rl0.user_positions
        assert not np.array_equal(rl1.user_positions, rl0.user_positions)
        assert sample_layout(sc, 0).beta is not rl0.beta   # one slot: seed 1 evicted seed 0
        assert np.array_equal(sample_layout(sc, 0).beta, rl0.beta)

    def test_arrays_are_read_only(self):
        rl = sample_layout(Scenario(M=3, K=4, N_H=2, N_V=2), 0)
        for name in self.ARRAYS:
            x = getattr(rl, name)
            with pytest.raises(ValueError):
                x[0] = 0.0
            with pytest.raises(ValueError):
                x *= 2.0


class TestLargeScaleGain:
    def test_reference_distance(self):
        assert large_scale_gain(1.0, 3.7) == pytest.approx(1e-3)

    def test_decade(self):
        assert large_scale_gain(10.0, 4.0) == pytest.approx(1e-7, rel=1e-6, abs=0)

    def test_fractional_exponent(self):
        assert large_scale_gain(10.0, 2.5) == pytest.approx(3.16227766e-6, rel=1e-8, abs=0)

    def test_clamps_below_one_meter(self):
        assert large_scale_gain(0.01, 4.0) == large_scale_gain(1.0, 4.0)


class TestLayout:
    def test_single_ap_at_center(self):
        sc = Scenario(M=1, K=2, N_H=2, N_V=2)
        rl = sample_layout(sc, 0)
        assert_allclose(rl.ap_positions[0], [0.0, 0.0], atol=1e-12)

    def test_deterministic(self):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2)
        a = sample_layout(sc, 17)
        b = sample_layout(sc, 17)
        assert_allclose(a.user_positions, b.user_positions)
        assert_allclose(a.beta, b.beta)

    def test_gain_bound(self):
        sc = Scenario(M=4, K=6, N_H=2, N_V=2)
        rl = sample_layout(sc, 5)
        assert (rl.beta <= 1e-3 + 1e-15).all()
        assert (rl.beta > 0).all() and (rl.alpha > 0).all() and (rl.alpha_bar > 0).all()

    def test_users_inside_disc(self):
        sc = Scenario(M=2, K=50, N_H=2, N_V=2)
        rl = sample_layout(sc, 9)
        assert (np.linalg.norm(rl.user_positions, axis=1) <= sc.radius).all()

    def test_covariance_scalings(self):
        # draws through R's factor scaled by sqrt(alpha_m dH dV) and
        # sqrt(alphabar_k dH dV) have covariances R_m and Rbar_k. An entry of
        # the T-sample covariance of CN(0, C) has standard error
        # sqrt(C_ii C_jj / T); the 5-sigma tolerance was fixed before any run.
        sc = Scenario(M=2, K=2, N_H=2, N_V=2)
        rl = sample_layout(sc, 1)
        T = 20_000
        scale = np.sqrt(np.array([[rl.alpha[1]], [rl.alpha_bar[0]]]) * sc.element_area)
        x = _fill_correlated(np.random.default_rng(5), np.empty((T, 2, sc.N), complex), rl.R_factor,
                             scale)
        for row, expected in zip(x.transpose(1, 0, 2), (R_m(rl, 1), R_bar_k(rl, 0))):
            cov = row.T @ row.conj() / T
            d = np.diag(expected)
            assert (np.abs(cov - expected) <= 5 * np.sqrt(np.outer(d, d) / T)).all()

    def test_r_factor_follows_r(self):
        sc = Scenario(M=2, K=2, N_H=3, N_V=3)
        rl = sample_layout(sc, 1)
        F = rl.R_factor
        assert_allclose(F @ F.conj().T, rl.R, atol=1e-9)
        # a copy with another geometry gets that geometry's factor, not the cached one
        X = build_correlation_matrix(3, 3, LAM / 2, LAM / 3, LAM)
        F = replace(rl, scenario=replace(sc, d_H=LAM / 2, d_V=LAM / 3)).R_factor
        assert_allclose(F @ F.conj().T, X, atol=1e-9)

    def test_replaced_geometry_rederives_r(self):
        # R follows the scenario a realization carries, not the one it was drawn with
        sc = Scenario(M=4, K=3, N_H=4, N_V=4)
        rl = sample_layout(sc, 0)
        rl.R  # read before the replace, so a copy that carried it over would be stale
        wide = replace(sc, d_H=2 * sc.d_H)
        moved, fresh = replace(rl, scenario=wide), sample_layout(wide, 0)
        assert np.array_equal(moved.R.view(np.uint64), fresh.R.view(np.uint64))
        phases = np.zeros(sc.N)
        se_moved = float(evaluate_phases(moved, phases, 2.0)[0].sum())
        se_fresh = float(evaluate_phases(fresh, phases, 2.0)[0].sum())
        assert se_moved == se_fresh == 1.0874353432210084


class TestScenarioConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Scenario(M=0)
        with pytest.raises(ValueError):
            Scenario(tau_p=300, tau_c=200)
        with pytest.raises(ValueError):
            Scenario(xi=0.0)
        with pytest.raises(ValueError):
            Scenario(a_max=0.5)

    @pytest.mark.parametrize("field, value", [
        ("tau_p", 1.5), ("N_H", 2.5), ("M", 2.5), ("K", np.int64(15)), ("N_V", 8.0),
        ("tau_c", "200"), ("M", True),
    ])
    def test_int_field_takes_only_an_int(self, field, value):
        # tau_p = 1.5 once scored a sum SE with pilot indices k mod 1.5, N_H = 2.5 gave
        # N = 20.0, M = 2.5 failed inside numpy and an np.int64 K broke config_hash
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an int, got {value!r}")):
            Scenario(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            replace(Scenario(), **{field: value})

    def test_negative_pbt_rejected(self, tmp_path):
        # Pbt (W per bit/s) is no power field, so the power-field check missed it
        with pytest.raises(ValueError, match="Pbt must be >= 0"):
            Scenario(Pbt=-1e-3)
        path = tmp_path / "sc.yaml"
        path.write_text("Pbt: -1.0e-3\n")
        with pytest.raises(ValueError, match="Pbt must be >= 0"):
            load_scenario(str(path))
        assert Scenario(Pbt=0.0).Pbt == 0.0

    @pytest.mark.parametrize("field", ["rho_u", "sigma2", "a_max", "radius", "P0", "d_H"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        # NaN passes every ordered comparison as False, so range checks alone miss it
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Scenario(**{field: value})
        with pytest.raises(ValueError, match="must be finite"):
            replace(Scenario(), **{field: value})

    def test_non_finite_yaml_value_rejected(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("M: 4\nrho_u: .nan\n")
        with pytest.raises(ValueError, match="rho_u must be finite"):
            load_scenario(str(path))
        path.write_text("rho_dbm: .inf\n")
        with pytest.raises(ValueError, match="rho must be finite"):
            load_scenario(str(path))

    def test_n_product(self):
        assert Scenario(N_H=3, N_V=5).N == 15

    def test_dbm_conversion(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)
        assert dbm_to_watt(-80.0) == pytest.approx(1e-11, rel=1e-6, abs=0)

    def test_from_dict_with_dbm_and_frequency(self):
        sc = Scenario(**config_fields({"M": 3, "rho_dbm": 20.0, "carrier_frequency": 3e9}))
        assert sc.M == 3
        assert sc.rho == pytest.approx(0.1)
        assert sc.wavelength == pytest.approx(299792458.0 / 3e9)

    def test_config_field_spellings(self):
        assert config_field("rho_u_dbm", "10") == ("rho_u", 0.01)
        assert config_field("carrier_frequency", 3e9) == ("wavelength", 299792458.0 / 3e9)
        assert config_field("d_H", "1.0e-2") == ("d_H", 0.01)
        for value in (8, 8.0, "8", " 8", "8.0", "8e0"):
            field, n = config_field("N_H", value)
            assert (field, n) == ("N_H", 8) and type(n) is int
        # a digit string is read exactly, past the 2**53 a float holds
        assert config_field("tau_c", "100000000000000000001") == ("tau_c", 10**20 + 1)
        # YAML reads keys like 1 or true as an int or a bool, which name no field
        for key in (1, True, 2.5, None):
            with pytest.raises(ValueError, match="unknown config key"):
                config_field(key, 2)

    def test_value_past_float_range_rejected(self):
        # 10 ** (4000 / 10) and float() of a 401-digit int once raised OverflowError
        for key, value in (("rho_u_dbm", 4000), ("rho_u_dbm", "4000"), ("rho_u", 10**400),
                           ("carrier_frequency", 10**400)):
            with pytest.raises(ValueError, match=f"{key} is out of the float range"):
                config_field(key, value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            Scenario(**config_fields({"bogus": 1}))

    @pytest.mark.parametrize("text,message", [
        ("N_H: 2.7\n", "N_H must be an integer, got 2.7"),
        ("M: true\n", "M must not be a boolean, got True"),
        ("rho_u: yes\n", "rho_u must not be a boolean, got True"),
        ("carrier_frequency: 0\n", "carrier_frequency must be > 0"),
        ("carrier_frequency: -1.9e+9\n", "carrier_frequency must be > 0"),
        ("rho: 0.1\nrho_dbm: 40.0\n", "rho is given twice: 'rho_dbm'"),
        ("carrier_frequency: 3.0e+9\nwavelength: 0.1\n", "wavelength is given twice: 'wavelength'"),
        ("K: 2\nK: 3\n", "K is given twice"),
    ], ids=["fractional-int", "bool-int", "bool-float", "zero-frequency", "negative-frequency",
            "power-two-spellings", "wavelength-two-spellings", "repeated-key"])
    def test_bad_value_rejected(self, tmp_path, text, message):
        # each was once truncated, coerced, kept last or a ZeroDivisionError
        path = tmp_path / "sc.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_scenario(str(path))

    def test_repeated_key_rejected_by_both_loaders(self, tmp_path, monkeypatch):
        # a key given twice once kept its last value silently
        path = tmp_path / "sc.yaml"
        path.write_text("M: 3\nK: 2\nN_H: 2\nK: 3\n")
        for _ in range(2):
            with pytest.raises(ValueError, match="K is given twice"):
                load_scenario(str(path))
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)

    def test_integral_values_accepted(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text('M: 3\nN_H: 8.0\nN_V: "8"\ntau_p: 1.0e+1\n')
        sc = load_scenario(str(path))
        assert (sc.M, sc.N_H, sc.N_V, sc.tau_p) == (3, 8, 8, 10)
        assert all(type(v) is int for v in (sc.M, sc.N_H, sc.N_V, sc.tau_p))

    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("M: 4\nK: 2\nN_H: 2\nN_V: 2\nsigma2_dbm: -70.0\n")
        sc = load_scenario(str(path))
        assert sc.M == 4
        assert sc.sigma2 == pytest.approx(1e-10, rel=1e-6, abs=0)

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_libyaml_and_python_loaders_agree(self, monkeypatch, config):
        # libyaml's CSafeLoader when PyYAML has it, else the pure-Python SafeLoader;
        # the hash also tells an int from an integral float
        path = os.path.join(REPO, config)
        fast = load_scenario(path)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        slow = load_scenario(path)
        assert slow == fast
        assert slow.config_hash() == fast.config_hash()

    def test_config_hash_stable(self):
        assert Scenario().config_hash() == Scenario().config_hash()
        assert Scenario().config_hash() != Scenario(M=21).config_hash()

    def test_config_hash_pinned(self):
        # the config_sha256= comment of every CSV: these hashes must not move
        assert Scenario().config_hash() == \
            "62363c5cb964108195c9571463b060ec432928c397e2ed111a7efa2bc23ea202"
        assert load_scenario(os.path.join(REPO, "configs", "default.yaml")).config_hash() == \
            "1fb0f7e7782f642108cb6270cf1da16bc631d8cbac9f8ee08702bb5b8f056b04"
