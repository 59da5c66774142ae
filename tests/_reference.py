"""Dense, test-only transcriptions of quantities the package keeps in
factored form: the reflection matrix, the per-user RIS covariance, the
Xi_{m,k} matrices and the main-text active-noise moment; the second-order
statistics as computed before the real-GEMM traces; and the SAC update with
unstacked twin critics, the reference for the stacked one."""

import json
from dataclasses import asdict

import numpy as np

from ariscf.channel import _real_trace
from ariscf.sac.agent import LOG_STD_MAX, LOG_STD_MIN, gaussian_tanh_log_prob, polyak_update
from ariscf.sac.nets import DenseNet, make_optimizer, relu


def reflection_matrix(phases: np.ndarray, a: float) -> np.ndarray:
    """Diagonal reflection matrix a * diag(exp(j * phases))."""
    return np.diag(a * np.exp(1j * np.asarray(phases, dtype=float)))


def R_bar_k(realization, k: int) -> np.ndarray:
    """RIS-user covariance alphabar_k d_H d_V R."""
    return realization.alpha_bar[k] * realization.scenario.element_area * realization.R


def dense_xi(stats, m: int, k: int) -> np.ndarray:
    """Dense Xi_{m,k} = a^2 Psi Rbar_k Psi^H R_m, written as s_{m,k} (P o R) R."""
    rl = stats.realization
    phasor = stats.ris_state.phasor
    modulated = (phasor[:, None] * np.conj(phasor)[None, :]) * rl.R
    a2 = stats.ris_state.a ** 2
    scale = a2 * rl.alpha[m] * rl.alpha_bar[k] * rl.scenario.element_area ** 2
    return scale * (modulated @ rl.R)


def tr_xi(stats, m: int, k: int) -> float:
    """tr(Xi_{m,k}) from the factored statistics: s_{m,k} t1."""
    return stats.xi_scale[m, k] * stats.t1


def active_noise_moment_main_text(stats, m: int, k: int) -> float:
    """Alternative active-noise moment as printed in the main text (comparison only).

    N sigma2_bar a^2 beta tr(R_m) + N^2 sigma2_bar a^4 (tr(R_m^2) + tr(R_m)^2) tr(Rbar_k),
    reading the undefined Rbar_m of the printed expression as R_m. The
    appendix derivation (stats.alpha_an) is the form every oracle check uses.
    """
    rl = stats.realization
    sc = rl.scenario
    a = stats.ris_state.a
    R_m = rl.R_m(m)
    tr_rm = np.trace(R_m)
    tr_rm2 = np.trace(R_m @ R_m)
    tr_rbark = np.trace(R_bar_k(rl, k))
    return float(sc.N * sc.sigma2_bar * a ** 2 * rl.beta[m, k] * tr_rm
                 + sc.N ** 2 * sc.sigma2_bar * a ** 4 * (tr_rm2 + tr_rm ** 2) * tr_rbark)


# ---------------- compute_stats before the real-GEMM traces ----------------

def complex_gemm_stats(realization, ris_state):
    """(t1, t2, t3, kappa, alpha_an) as `compute_stats` once formed them,
    transcribed verbatim: W by a complex GEMM on an upcast R, and R @ R
    recomputed on every call."""
    sc = realization.scenario
    area = sc.element_area
    a = ris_state.a

    phasor = ris_state.phasor
    modulated = (phasor[:, None] * np.conj(phasor)[None, :]) * realization.R
    t3 = _real_trace(np.sum(modulated * (realization.R @ realization.R).T))
    W = modulated @ realization.R
    t1 = _real_trace(np.trace(W))
    t2 = _real_trace(np.sum(W * W.T))

    xi_scale = (a * a * area * area) * np.outer(realization.alpha, realization.alpha_bar)
    kappa = realization.beta + xi_scale * t1
    tr_rm = realization.alpha * area * sc.N
    wishart = (a ** 4) * (area ** 3) * np.outer(realization.alpha ** 2, realization.alpha_bar) * (t3 + sc.N * t1)
    alpha_an = sc.sigma2_bar * ((a * a) * realization.beta * tr_rm[:, None] + wishart)
    return t1, t2, t3, kappa, alpha_an


# ---------------- SAC before the twin critics were stacked ----------------

def dense_forward(net, x):
    """One unstacked DenseNet forward: (output, cache)."""
    h1 = relu(x @ net.weights[0].T + net.biases[0])
    h2 = relu(h1 @ net.weights[1].T + net.biases[1])
    return h2 @ net.weights[2].T + net.biases[2], (x, h1, h2)


def dense_backward(net, cache, grad_out):
    """Parameter gradient (laid out like `params`) and per-sample input gradient."""
    x, h1, h2 = cache
    d2 = (grad_out @ net.weights[2]) * (h2 > 0)
    d1 = (d2 @ net.weights[1]) * (h1 > 0)
    grad = np.concatenate([(d1.T @ x).ravel(), (d2.T @ h1).ravel(), (grad_out.T @ h2).ravel(),
                           d1.sum(axis=0), d2.sum(axis=0), grad_out.sum(axis=0)])
    return grad, d1 @ net.weights[0]


class UnstackedSac:
    """The SAC update with four separate networks and one optimizer per critic:
    10 forward and 6 backward passes per update, each backward also returning
    the input gradient. `SacAgent.update` must reproduce it byte for byte."""

    def __init__(self, obs_dim, act_dim, config, seed):
        self.config, self.obs_dim, self.act_dim = config, obs_dim, act_dim
        keys = np.random.SeedSequence((int(seed), 101)).spawn(4)
        hidden = config.hidden_units
        self.policy = DenseNet(obs_dim, 2 * act_dim, hidden, np.random.default_rng(keys[0]))
        self.q1 = DenseNet(obs_dim + act_dim, 1, hidden, np.random.default_rng(keys[1]))
        self.q2 = DenseNet(obs_dim + act_dim, 1, hidden, np.random.default_rng(keys[2]))
        self.value = DenseNet(obs_dim, 1, hidden, np.random.default_rng(keys[3]))
        self.value_target = self.value.clone()
        self.opts = {name: make_optimizer(getattr(self, name), config.optimizer, config.lr)
                     for name in ("policy", "q1", "q2", "value")}

    def policy_sample(self, obs, eps_hat):
        out, cache = dense_forward(self.policy, obs)
        mean, log_std_raw = out[:, :self.act_dim], out[:, self.act_dim:]
        log_std = np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX)
        std_eff = np.exp(log_std) * self.config.exploration_noise
        u = mean + std_eff * eps_hat
        action = np.tanh(u)
        return action, gaussian_tanh_log_prob(u, mean, std_eff), (mean, log_std_raw, u, cache)

    def q_values(self, obs, act):
        x = np.concatenate([obs, act], axis=1)
        q1, c1 = dense_forward(self.q1, x)
        q2, c2 = dense_forward(self.q2, x)
        return q1[:, 0], q2[:, 0], c1, c2

    def value_loss_and_grads(self, obs, eps_hat):
        action, log_prob, _ = self.policy_sample(obs, eps_hat)
        q1, q2, _, _ = self.q_values(obs, action)
        target = np.minimum(q1, q2) - log_prob
        v, cache = dense_forward(self.value, obs)
        delta = v[:, 0] - target
        grads, _ = dense_backward(self.value, cache, (delta / delta.size)[:, None])
        return 0.5 * float(np.mean(delta ** 2)), grads

    def q_loss_and_grads(self, obs, act, rew, next_obs):
        target = rew + self.config.discount * dense_forward(self.value_target, next_obs)[0][:, 0]
        x = np.concatenate([obs, act], axis=1)
        losses, grads = [], []
        for net in (self.q1, self.q2):
            q, cache = dense_forward(net, x)
            delta = q[:, 0] - target
            losses.append(0.5 * float(np.mean(delta ** 2)))
            grads.append(dense_backward(net, cache, (delta / delta.size)[:, None])[0])
        return np.array(losses), grads

    def policy_loss_and_grads(self, obs, eps_hat):
        action, log_prob, (mean, log_std_raw, u, cache) = self.policy_sample(obs, eps_hat)
        q1, q2, c1, c2 = self.q_values(obs, action)
        ones = np.ones((obs.shape[0], 1))
        _, gx1 = dense_backward(self.q1, c1, ones)
        _, gx2 = dense_backward(self.q2, c2, ones)
        take1 = (q1 <= q2)[:, None]
        q_act_grad = np.where(take1, gx1[:, self.obs_dim:], gx2[:, self.obs_dim:])
        loss = float(np.mean(log_prob - np.minimum(q1, q2)))
        B = obs.shape[0]
        t = action
        flow = 2.0 * t - q_act_grad * (1.0 - t * t)
        active = (log_std_raw > LOG_STD_MIN) & (log_std_raw < LOG_STD_MAX)
        g_log_std = (-1.0 + flow * (u - mean)) / B * active
        grads, _ = dense_backward(self.policy, cache, np.concatenate([flow / B, g_log_std], axis=1))
        return loss, grads

    def update(self, batch, rng):
        obs, act, rew, next_obs = batch
        eps_v = rng.standard_normal((obs.shape[0], self.act_dim))
        eps_p = rng.standard_normal((obs.shape[0], self.act_dim))
        v_loss, v_grads = self.value_loss_and_grads(obs, eps_v)
        q_losses, (q1_grads, q2_grads) = self.q_loss_and_grads(obs, act, rew, next_obs)
        q1_loss, q2_loss = q_losses.tolist()
        p_loss, p_grads = self.policy_loss_and_grads(obs, eps_p)
        for name, grads in (("value", v_grads), ("q1", q1_grads), ("q2", q2_grads),
                            ("policy", p_grads)):
            self.opts[name].step(grads)
        polyak_update(self.value_target, self.value, self.config.polyak)
        return {"value": v_loss, "q1": q1_loss, "q2": q2_loss, "policy": p_loss}


def save_unstacked_checkpoint(path, agent, best_phases, best_sum_se, master_seed):
    """A checkpoint in the version-1 layout, written without `save_checkpoint`."""
    arrays = {"version": np.array(1), "config_json": np.array(json.dumps(asdict(agent.config))),
              "obs_dim": np.array(agent.obs_dim), "act_dim": np.array(agent.act_dim),
              "best_phases": best_phases, "best_sum_se": np.array(best_sum_se),
              "master_seed": np.array(master_seed)}
    for name in ("policy", "q1", "q2", "value", "value_target"):
        net = getattr(agent, name)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}_w{i}"] = w
            arrays[f"{name}_b{i}"] = b
    np.savez(path, **arrays)
