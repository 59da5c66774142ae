"""Training loop behavior: environment, determinism, divergence, checkpoints."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf import channel
from ariscf.perf import evaluate_phases
from ariscf.ris import amplitude_gain
from ariscf.sac.agent import (
    SacAgent,
    SacConfig,
    TrainingDiverged,
    TrainResult,
    load_checkpoint,
    save_checkpoint,
    train,
)
from ariscf.sac.env import RisEnv
from ariscf.scenario import Scenario, sample_layout

from _instances import count_calls
from _reference import UnstackedSac, save_unstacked_checkpoint


def small_env(seed=123, **scenario_kw):
    base = dict(M=2, K=2, N_H=2, N_V=2, tau_p=1, radius=150.0, a_max=1e6)
    base.update(scenario_kw)
    sc = Scenario(**base)
    rl = sample_layout(sc, seed)
    a = amplitude_gain(sc, rl.alpha_bar)
    return sc, rl, a, RisEnv(rl, a)


class TestEnv:
    def test_observation_shape_and_scaling(self):
        sc, rl, a, env = small_env()
        obs, _ = env.reset(np.random.default_rng(0))
        assert obs.shape == (sc.N + sc.M * sc.K,)
        # scaled estimate variances are O(1)
        assert 0.01 < np.abs(obs[sc.N:]).max() < 100

    def test_reward_computed_from_phases_not_observation(self):
        sc, rl, a, env = small_env()
        env.reset(np.random.default_rng(0))
        action = np.random.default_rng(1).uniform(-1, 1, sc.N)
        _, reward = env.step(action)
        se, _ = evaluate_phases(rl, env.phases, a)
        assert reward == pytest.approx(se.sum(), rel=1e-12)

    def test_reset_randomizes(self):
        *_, env = small_env()
        rng = np.random.default_rng(0)
        p1 = env.reset(rng)[0][: env.act_dim]
        p2 = env.reset(rng)[0][: env.act_dim]
        assert not np.allclose(p1, p2)


class TestTraining:
    def test_deterministic_given_seed(self):
        *_, env1 = small_env()
        *_, env2 = small_env()
        cfg = SacConfig(episodes=3, episode_len=20, batch=16, buffer_capacity=500)
        r1 = train(env1, cfg, master_seed=5)
        r2 = train(env2, cfg, master_seed=5)
        assert r1.episode_rewards == r2.episode_rewards
        assert_allclose(r1.best_phases, r2.best_phases)
        r3 = train(small_env()[-1], cfg, master_seed=6)
        assert r3.episode_rewards != r1.episode_rewards

    def test_episode_evaluates_each_phase_vector_once(self, monkeypatch):
        *_, env = small_env()
        stats_calls = count_calls(monkeypatch, channel, "compute_stats")
        cfg = SacConfig(episodes=1, episode_len=20, batch=8, buffer_capacity=100)
        train(env, cfg, master_seed=0)
        # the reset phases plus one new vector per step
        assert len(stats_calls) == cfg.episode_len + 1

    def test_best_tracking_consistent(self):
        sc, rl, a, env = small_env()
        cfg = SacConfig(episodes=3, episode_len=30, batch=16, buffer_capacity=500)
        res = train(env, cfg, master_seed=1)
        se, _ = evaluate_phases(rl, res.best_phases, a)
        assert res.best_sum_se == pytest.approx(se.sum(), rel=1e-12)
        assert res.best_sum_se >= max(res.episode_rewards) / cfg.episode_len - 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        *_, env = small_env()
        # an absurd learning rate drives SGD unstable within a few steps
        cfg = SacConfig(episodes=2, episode_len=60, batch=8, buffer_capacity=200, lr=1e24)
        with pytest.raises(TrainingDiverged) as err:
            train(env, cfg, master_seed=0)
        snapshot = err.value.snapshot
        assert list(snapshot) == ["losses_value", "losses_q1", "losses_q2", "losses_policy",
                                  "policy", "value", "q1", "q2"]
        assert all(isinstance(v, np.ndarray) for v in snapshot.values())

    def test_adam_variant_runs(self):
        *_, env = small_env()
        cfg = SacConfig(episodes=2, episode_len=15, batch=8, buffer_capacity=200, optimizer="adam")
        res = train(env, cfg, master_seed=2)
        assert len(res.episode_rewards) == 2
        assert np.isfinite(res.best_sum_se)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        *_, env = small_env()
        cfg = SacConfig(episodes=2, episode_len=15, batch=8, buffer_capacity=200)
        res = train(env, cfg, master_seed=3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(str(path), res)
        loaded = load_checkpoint(str(path))
        assert loaded["config"] == cfg
        assert loaded["best_sum_se"] == pytest.approx(res.best_sum_se)
        assert_allclose(loaded["best_phases"], res.best_phases)
        assert_allclose(loaded["weights"]["policy_w0"], res.agent.policy.weights[0])
        assert loaded["obs_dim"] == env.obs_dim

    def test_layout_matches_unstacked_writer(self, tmp_path):
        # same keys, shapes, dtypes and values as a version-1 checkpoint
        # written from four separate networks
        *_, env = small_env()
        cfg = SacConfig(batch=8)
        agent = SacAgent(env.obs_dim, env.act_dim, cfg, seed=3)
        ref = UnstackedSac(env.obs_dim, env.act_dim, cfg, seed=3)
        data, rng_agent, rng_ref = (np.random.default_rng(s) for s in (0, 1, 1))
        for _ in range(5):
            batch = (data.standard_normal((8, env.obs_dim)), data.uniform(-1, 1, (8, env.act_dim)),
                     data.standard_normal(8), data.standard_normal((8, env.obs_dim)))
            agent.update(batch, rng_agent)
            ref.update(batch, rng_ref)
        phases = data.uniform(0, 2 * np.pi, env.act_dim)
        new, old = tmp_path / "new.npz", tmp_path / "old.npz"
        save_checkpoint(str(new), TrainResult(episode_rewards=[], best_phases=phases,
                                              best_sum_se=0.5, agent=agent, config=cfg,
                                              master_seed=3))
        save_unstacked_checkpoint(str(old), ref, phases, 0.5, 3)
        with np.load(new) as a, np.load(old) as b:
            assert a.files == b.files
            for key in a.files:
                assert a[key].shape == b[key].shape and a[key].dtype == b[key].dtype, key
                assert (a[key] == b[key]).all(), key
