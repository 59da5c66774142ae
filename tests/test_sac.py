"""SAC components: networks, gradients, buffer, action mapping, target updates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ariscf.sac.agent import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    SacAgent,
    SacConfig,
    gaussian_tanh_log_prob,
    polyak_update,
)
from ariscf.sac.buffer import ReplayBuffer
from ariscf.sac.env import action_to_phases
from ariscf.sac.nets import DenseNet, relu

from _reference import UnstackedSac

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_grad(net: DenseNet, loss_fn, step=FD_STEP) -> np.ndarray:
    flat = net.params.copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1, -1):
            p = flat.copy()
            p[i] += sign * step
            net.params[...] = p
            grad[i] += sign * loss_fn()
    net.params[...] = flat
    return grad / (2 * step)


def preactivation_margin(net: DenseNet, x: np.ndarray) -> float:
    """Smallest |pre-activation| over the hidden layers for inputs x.

    Finite-difference gradient checks are only valid when every rectifier
    input sits further from its kink than the difference step.
    """
    pre1 = x @ net.weights[0].T + net.biases[0]
    pre2 = relu(pre1) @ net.weights[1].T + net.biases[1]
    return float(min(np.abs(pre1).min(), np.abs(pre2).min()))


def smooth_agent_and_batch(seed=0, hidden=6, obs_dim=5, act_dim=3, batch=4):
    """Agent plus a batch at which no rectifier input sits near its kink, so
    central differences are valid."""
    for attempt in range(50):
        cfg = SacConfig(hidden_units=hidden, batch=batch)
        agent = SacAgent(obs_dim, act_dim, cfg, seed=seed + 1000 * attempt)
        rng = np.random.default_rng(seed + attempt)
        obs = rng.standard_normal((batch, obs_dim))
        act = np.tanh(rng.standard_normal((batch, act_dim)))
        rew = rng.standard_normal(batch)
        nxt = rng.standard_normal((batch, obs_dim))
        eps = rng.standard_normal((batch, act_dim))
        margin = min(
            preactivation_margin(agent.value, obs),
            preactivation_margin(agent.value_target, nxt),
            preactivation_margin(agent.q1, np.concatenate([obs, act], axis=1)),
            preactivation_margin(agent.q2, np.concatenate([obs, act], axis=1)),
            preactivation_margin(agent.policy, obs),
        )
        a_new, _, _ = agent.policy_sample(obs, eps)
        margin = min(margin,
                     preactivation_margin(agent.q1, np.concatenate([obs, a_new], axis=1)),
                     preactivation_margin(agent.q2, np.concatenate([obs, a_new], axis=1)))
        if margin > 100 * FD_STEP:
            return agent, (obs, act, rew, nxt, eps)
    raise RuntimeError("no smooth evaluation point found")


class TestDenseNet:
    def test_shapes_and_determinism(self):
        net = DenseNet(4, 3, 8, np.random.default_rng(0))
        net2 = DenseNet(4, 3, 8, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 4))
        assert net(x).shape == (5, 3)
        assert_allclose(net(x), net2(x))

    def test_layers_are_views_into_params(self):
        net = DenseNet(4, 3, 5, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        draws = [rng.uniform(-np.sqrt(2.0 / d_in), np.sqrt(2.0 / d_in), size=(d_out, d_in))
                 for d_in, d_out in ((4, 5), (5, 5), (5, 3))]
        layout = np.concatenate([w.ravel() for w in draws] + [np.zeros(5), np.zeros(5), np.zeros(3)])
        assert net.params.dtype == np.float64
        assert_allclose(net.params, layout, rtol=0, atol=0)
        for p in net.weights + net.biases:
            assert np.shares_memory(p, net.params)
        net.params += 1.0
        assert_allclose(net.weights[0], draws[0] + 1.0, rtol=0, atol=0)
        assert_allclose(net.biases[2], np.ones(3), rtol=0, atol=0)

    def test_clone_owns_its_params(self):
        net = DenseNet(4, 2, 6, np.random.default_rng(0))
        dup = net.clone()
        assert_allclose(dup.params, net.params, rtol=0, atol=0)
        dup.params[...] = 0.0
        assert np.abs(net.params).sum() > 0
        assert not dup.weights[1].any() and not np.shares_memory(dup.biases[0], net.params)

    def test_backward_matches_fd_on_sum_output(self):
        net = DenseNet(3, 2, 5, np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((4, 3)) + 0.3
        out, cache = net.forward(x)
        ana = net.backward(cache, np.ones_like(out))
        fd = fd_grad(net, lambda: float(net(x).sum()))
        assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < FD_TOL


class TestGradientChecks:
    def test_value_gradient(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=1)
        _, ana = agent.value_loss_and_grads(obs, eps)
        fd = fd_grad(agent.value, lambda: agent.value_loss_and_grads(obs, eps)[0])
        assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < FD_TOL

    def test_q_gradients(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=2)
        losses, grads = agent.q_loss_and_grads(obs, act, rew, nxt)
        assert losses.shape == (2,) and grads.shape == (2, agent.q1.params.size)
        for net, ana, idx in ((agent.q1, grads[0], 0), (agent.q2, grads[1], 1)):
            fd = fd_grad(net, lambda: agent.q_loss_and_grads(obs, act, rew, nxt)[0][idx])
            assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < FD_TOL

    def test_policy_gradient(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=3)
        _, ana = agent.policy_loss_and_grads(obs, eps)
        fd = fd_grad(agent.policy, lambda: agent.policy_loss_and_grads(obs, eps)[0])
        assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < FD_TOL

    def test_log_prob_gradient_wrt_mean(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=4)
        _, _, it = agent.policy_sample(obs, eps)
        mean, std_eff = it["mean"], it["std_eff"]
        ana = 2.0 * np.tanh(it["u"])
        step = 1e-6
        fd = np.zeros_like(mean)
        for b in range(mean.shape[0]):
            for n in range(mean.shape[1]):
                for sign in (+1, -1):
                    m2 = mean.copy()
                    m2[b, n] += sign * step
                    u2 = m2 + std_eff * eps
                    fd[b, n] += sign * gaussian_tanh_log_prob(u2[b:b + 1], m2[b:b + 1],
                                                              std_eff[b:b + 1])[0]
        fd /= 2 * step
        assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < FD_TOL


class TestPolicySampling:
    def test_zero_std_is_deterministic_at_tanh_mean(self):
        agent, (obs, *_rest) = smooth_agent_and_batch(seed=5)
        mean, log_std, _, _ = agent.policy_stats(obs)
        a1, _, it = agent.policy_sample(obs, np.zeros((obs.shape[0], agent.act_dim)))
        assert_allclose(a1, np.tanh(mean))
        # std_eff -> 0 collapses the sample onto tanh(mean) for any eps
        a2 = np.tanh(mean + 0.0 * it["std_eff"])
        assert_allclose(a2, np.tanh(mean))

    def test_log_prob_finite(self):
        agent, (obs, *_ ) = smooth_agent_and_batch(seed=6)
        rng = np.random.default_rng(0)
        for _ in range(20):
            eps = rng.standard_normal((obs.shape[0], agent.act_dim))
            _, lp, it = agent.policy_sample(obs, eps)
            assert np.isfinite(lp).all()
            assert (it["log_std"] >= LOG_STD_MIN).all() and (it["log_std"] <= LOG_STD_MAX).all()

    def test_entropy_only_objective_raises_std(self):
        # if Q is flat in the action, the policy update should push log_std up
        cfg = SacConfig(hidden_units=8, batch=16, lr=1e-2)
        agent = SacAgent(3, 2, cfg, seed=7)
        for net in (agent.q1, agent.q2):  # zero the Q nets: constant output
            net.params[...] = 0.0
        obs = np.random.default_rng(1).standard_normal((16, 3))
        before = agent.policy_stats(obs)[1].mean()
        rng = np.random.default_rng(2)
        for _ in range(200):
            _, grads = agent.policy_loss_and_grads(obs, rng.standard_normal((16, 2)))
            agent.opt_policy.step(grads)
        after = agent.policy_stats(obs)[1].mean()
        assert after > before


def count_method_calls(monkeypatch, name: str) -> list:
    """Wrap DenseNet.<name>; the returned list gets the network of each call."""
    real = getattr(DenseNet, name)
    calls = []

    def counted(net, *args):
        calls.append(net)
        return real(net, *args)

    monkeypatch.setattr(DenseNet, name, counted)
    return calls


class TestUpdate:
    def test_four_backward_passes_per_update(self, monkeypatch):
        # value 1, the critic pair 1 parameter gradient and 1 action gradient, policy 1
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=11)
        grads = count_method_calls(monkeypatch, "backward")
        input_grads = count_method_calls(monkeypatch, "input_grad")
        agent.update((obs, act, rew, nxt), np.random.default_rng(0))
        assert len(grads) + len(input_grads) == 4
        assert sum(net is agent.value for net in grads) == 1
        assert grads == [agent.value, agent.critics, agent.policy]
        assert input_grads == [agent.critics]

    def test_six_forward_passes_per_update(self, monkeypatch):
        # policy 1 (shared by the value and policy losses), value 1, value target 1,
        # and the critic pair once per loss
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=11)
        forwards = count_method_calls(monkeypatch, "forward")
        agent.update((obs, act, rew, nxt), np.random.default_rng(0))
        assert len(forwards) == 6
        assert [net is agent.critics for net in forwards].count(True) == 3
        assert sum(net is agent.policy for net in forwards) == 1


class TestStackedCritics:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_update_bytes_match_unstacked_reference(self, optimizer):
        # train_small's sizes: obs N + M K = 28, act N = 16, batch 64, 64 hidden units
        cfg = SacConfig(optimizer=optimizer)
        agent, ref = SacAgent(28, 16, cfg, seed=5), UnstackedSac(28, 16, cfg, seed=5)
        data, rng_agent, rng_ref = (np.random.default_rng(s) for s in (9, 3, 3))
        for _ in range(50):
            batch = (data.standard_normal((64, 28)), np.tanh(data.standard_normal((64, 16))),
                     data.standard_normal(64), data.standard_normal((64, 28)))
            assert agent.update(batch, rng_agent) == ref.update(batch, rng_ref)
        for name in ("policy", "q1", "q2", "value", "value_target"):
            assert (getattr(agent, name).params == getattr(ref, name).params).all(), name

    def test_q_nets_are_rows_of_the_stack(self):
        agent = SacAgent(5, 3, SacConfig(hidden_units=6), seed=0)
        x = np.random.default_rng(0).standard_normal((4, 8))
        before = agent.critics(x)
        assert before.shape == (2, 4, 1)
        assert (before[0] == agent.q1(x)).all() and (before[1] == agent.q2(x)).all()
        agent.q1.params[...] = 0.0
        after = agent.critics(x)
        assert (before[0] != 0).all() and (after[0] == 0).all()
        assert (after[1] == before[1]).all()

    def test_input_grad_matches_fd(self):
        agent, (obs, act, *_rest) = smooth_agent_and_batch(seed=12)
        x = np.concatenate([obs, act], axis=1)
        _, cache = agent.critics.forward(x)
        ana = agent.critics.input_grad(cache, np.ones((x.shape[0], 1)))
        for row, net in enumerate((agent.q1, agent.q2)):
            fd = np.zeros_like(x)
            for idx in np.ndindex(*x.shape):
                for sign in (+1, -1):
                    x2 = x.copy()
                    x2[idx] += sign * FD_STEP
                    fd[idx] += sign * net(x2)[idx[0], 0]
            fd /= 2 * FD_STEP
            assert np.linalg.norm(ana[row] - fd) / np.linalg.norm(fd) < FD_TOL


class TestLossDefinitions:
    def test_value_loss_formula_and_zero_at_target(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=8)
        loss, _ = agent.value_loss_and_grads(obs, eps)
        action, log_prob, _ = agent.policy_sample(obs, eps)
        q_min, _ = agent.min_q_and_action_grad(obs, action)
        target = q_min - log_prob
        v = agent.value(obs)[:, 0]
        assert loss == pytest.approx(0.5 * np.mean((v - target) ** 2), rel=1e-12)
        assert loss >= 0.0
        # a value head that reproduces the target exactly has zero loss/grad
        delta = np.zeros_like(v)
        assert 0.5 * float(np.mean(delta ** 2)) == 0.0

    def test_q_loss_formula(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=9)
        l1, l2 = agent.q_loss_and_grads(obs, act, rew, nxt)[0]
        target = rew + agent.config.discount * agent.value_target(nxt)[:, 0]
        x = np.concatenate([obs, act], axis=1)
        assert l1 == pytest.approx(0.5 * np.mean((agent.q1(x)[:, 0] - target) ** 2), rel=1e-12)
        assert l2 == pytest.approx(0.5 * np.mean((agent.q2(x)[:, 0] - target) ** 2), rel=1e-12)
        # a critic equal to the target (e.g. discount ~ 0, Q == r) gives zero loss
        assert 0.5 * np.mean((target - target) ** 2) == 0.0

    def test_twin_q_minimum_consumed(self):
        agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=10)
        # push Q1 far above Q2: min must track Q2 in value and policy objectives
        agent.q1.biases[2][...] = 1e6
        action, log_prob, _ = agent.policy_sample(obs, eps)
        q_min, _ = agent.min_q_and_action_grad(obs, action)
        x = np.concatenate([obs, action], axis=1)
        assert_allclose(q_min, agent.q2(x)[:, 0])
        p_loss, _ = agent.policy_loss_and_grads(obs, eps)
        assert p_loss == pytest.approx(float(np.mean(log_prob - agent.q2(x)[:, 0])), rel=1e-9)


class TestActionMapping:
    def test_boundary_values(self):
        assert action_to_phases(np.array([-1.0]))[0] == pytest.approx(0.0)
        assert action_to_phases(np.array([0.0]))[0] == pytest.approx(np.pi)
        assert action_to_phases(np.array([1.0]))[0] == pytest.approx(0.0)  # wraps 2*pi

    def test_range(self):
        rng = np.random.default_rng(0)
        phases = action_to_phases(rng.uniform(-1, 1, 100))
        assert ((phases >= 0) & (phases < 2 * np.pi)).all()


class TestPolyak:
    def test_full_and_zero_rates(self):
        a = DenseNet(3, 2, 4, np.random.default_rng(0))
        b = DenseNet(3, 2, 4, np.random.default_rng(1))
        t = b.clone()
        polyak_update(t, a, 1.0)
        assert_allclose(t.params, a.params)
        t = b.clone()
        polyak_update(t, a, 0.0)
        assert_allclose(t.params, b.params)

    def test_geometric_convergence(self):
        online = DenseNet(3, 2, 4, np.random.default_rng(0))
        target = DenseNet(3, 2, 4, np.random.default_rng(1))
        tau = 0.25
        gaps = []
        for _ in range(5):
            gaps.append(np.linalg.norm(target.params - online.params))
            polyak_update(target, online, tau)
        ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
        assert_allclose(ratios, 1 - tau, rtol=1e-9)


class TestReplayBuffer:
    def test_fifo_eviction_and_capacity(self):
        buf = ReplayBuffer(4, 2, 1)
        for i in range(7):
            buf.add(np.full(2, i), np.array([i]), float(i), np.full(2, i + 1))
        assert len(buf) == 4
        assert sorted(buf.rew.tolist()) == [3.0, 4.0, 5.0, 6.0]

    def test_batch_without_replacement(self):
        buf = ReplayBuffer(50, 1, 1)
        for i in range(50):
            buf.add([i], [0], 0.0, [0])
        rng = np.random.default_rng(0)
        obs, *_ = buf.sample(20, rng)
        assert len(np.unique(obs[:, 0])) == 20

    def test_uniform_sampling_chi_square(self):
        # 1e5 index draws over a 100-element buffer; chi2(0.999, df=99) = 148.23
        buf = ReplayBuffer(100, 1, 1)
        for i in range(100):
            buf.add([i], [0], 0.0, [0])
        rng = np.random.default_rng(1)
        counts = np.zeros(100)
        draws = 0
        while draws < 100_000:
            obs, *_ = buf.sample(5, rng)
            for v in obs[:, 0]:
                counts[int(v)] += 1
            draws += 5
        expected = draws / 100
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 148.23


class TestConfig:
    def test_defaults_match_reference_table(self):
        cfg = SacConfig()
        assert cfg.lr == 1e-3
        assert cfg.discount == 0.99
        assert cfg.polyak == 0.005
        assert cfg.entropy_coeff == 0.2
        assert cfg.batch == 64
        assert cfg.buffer_capacity == 32_000
        assert cfg.hidden_units == 64
        assert cfg.exploration_noise == 0.1
        assert cfg.episode_len == 400
        assert cfg.episodes == 2000

    @pytest.mark.parametrize("optimizer", ["foo", 5, "Adam"])
    def test_unknown_optimizer_is_refused(self, optimizer):
        # once accepted here, failing only when a SacAgent was built
        with pytest.raises(ValueError, match="optimizer"):
            SacConfig(optimizer=optimizer)

    def test_validation(self):
        with pytest.raises(ValueError):
            SacConfig(polyak=0.0)
        with pytest.raises(ValueError):
            SacConfig(discount=1.5)
        with pytest.raises(ValueError):
            SacConfig(batch=0)
        # counts are ints: a float or a bool would pass the range check and
        # fail later inside `train`
        for name in ("batch", "buffer_capacity", "hidden_units", "episode_len", "episodes"):
            for value in (2.0, 2.5, True):
                with pytest.raises(ValueError, match=name):
                    SacConfig(**{name: value})
        assert SacConfig(episodes=np.int64(2)).episodes == 2
        # a batch the buffer can never hold would silently skip every update
        with pytest.raises(ValueError, match="buffer_capacity"):
            SacConfig(batch=64, buffer_capacity=32)
        assert SacConfig(batch=32, buffer_capacity=32).batch == 32
        for name in ("lr", "entropy_coeff", "exploration_noise"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    SacConfig(**{name: value})
