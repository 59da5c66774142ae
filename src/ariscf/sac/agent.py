"""Soft actor-critic over RIS phase vectors: twin Q, target value net, manual gradients."""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .buffer import ReplayBuffer
from .env import RisEnv
from .nets import OPTIMIZERS, DenseNet

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_LOG_2PI = float(np.log(2.0 * np.pi))


class TrainingDiverged(RuntimeError):
    """Raised when any loss or an action goes non-finite.

    `snapshot` maps names to arrays, ready for `np.savez`: one `losses_<net>`
    scalar per loss, or the `action`, then each network's flat parameter
    vector under its name.
    """

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass(frozen=True)
class SacConfig:
    """Training hyperparameters (reference-table defaults)."""

    lr: float = 1e-3
    discount: float = 0.99
    polyak: float = 0.005
    entropy_coeff: float = 0.2
    batch: int = 64
    buffer_capacity: int = 32_000
    hidden_units: int = 64
    exploration_noise: float = 0.1
    episode_len: int = 400
    episodes: int = 2000
    optimizer: str = "sgd"  # "adam" available as the adaptive-moment variant

    def __post_init__(self):
        if not (0 < self.polyak <= 1 and 0 < self.discount <= 1):
            raise ValueError("polyak and discount must lie in (0, 1]")
        for name in ("batch", "buffer_capacity", "hidden_units", "episode_len", "episodes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("lr", "entropy_coeff", "batch", "buffer_capacity", "hidden_units",
                     "exploration_noise", "episode_len", "episodes"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.batch > self.buffer_capacity:
            raise ValueError("batch must not exceed buffer_capacity")
        if not isinstance(self.optimizer, str) or self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {', '.join(OPTIMIZERS)}, got {self.optimizer!r}")


def gaussian_tanh_log_prob(u: np.ndarray, mean: np.ndarray, std_eff: np.ndarray) -> np.ndarray:
    """log-density of tanh(u) with u ~ N(mean, std_eff^2), summed over dims.

    Includes the tanh change-of-variables term: the squashed density is the
    Gaussian one divided by prod(1 - tanh(u)^2), so log(1 - tanh(u)^2) is
    subtracted per dimension (written via softplus for stability).
    """
    z = (u - mean) / std_eff
    gauss = -0.5 * z * z - np.log(std_eff) - 0.5 * _LOG_2PI
    # log(1 - tanh(u)^2) = 2*(log 2 - u - softplus(-2u))
    correction = 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
    return np.sum(gauss - correction, axis=-1)


class SacAgent:
    """Value net, twin Q nets, target value net, and a squashed-Gaussian policy.

    The entropy temperature is folded into the reward (rewards are scaled by
    1/entropy_coeff before storage), so all losses carry a unit entropy
    weight. Exploration noise is the standard deviation of the
    reparameterization variable epsilon. `q1` and `q2` are the rows of `critics`.
    """

    def __init__(self, obs_dim: int, act_dim: int, config: SacConfig, seed: int):
        self.config = config
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        keys = np.random.SeedSequence((int(seed), 101)).spawn(4)
        hidden = config.hidden_units
        self.policy = DenseNet(obs_dim, 2 * act_dim, hidden, np.random.default_rng(keys[0]))
        self.q1 = DenseNet(obs_dim + act_dim, 1, hidden, np.random.default_rng(keys[1]))
        self.q2 = DenseNet(obs_dim + act_dim, 1, hidden, np.random.default_rng(keys[2]))
        self.critics = DenseNet.stack([self.q1, self.q2])
        self.value = DenseNet(obs_dim, 1, hidden, np.random.default_rng(keys[3]))
        self.value_target = self.value.clone()
        self.opt_policy = OPTIMIZERS[config.optimizer](self.policy, config.lr)
        self.opt_critics = OPTIMIZERS[config.optimizer](self.critics, config.lr)
        self.opt_value = OPTIMIZERS[config.optimizer](self.value, config.lr)

    # ---------------- policy ----------------

    def policy_stats(self, obs: np.ndarray):
        out, cache = self.policy.forward(obs)
        mean, log_std_raw = out[:, :self.act_dim], out[:, self.act_dim:]
        log_std = np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std, log_std_raw, cache

    def policy_sample(self, obs: np.ndarray, eps_hat: np.ndarray, stats=None):
        """Reparameterized squashed action for standard-normal draws eps_hat.

        epsilon = exploration_noise * eps_hat, u = mean + exp(log_std) * epsilon,
        action = tanh(u). Returns (action, log_prob, internals); `stats` reuses policy_stats(obs).
        """
        mean, log_std, log_std_raw, cache = self.policy_stats(obs) if stats is None else stats
        std_eff = np.exp(log_std) * self.config.exploration_noise
        u = mean + std_eff * eps_hat
        action = np.tanh(u)
        log_prob = gaussian_tanh_log_prob(u, mean, std_eff)
        internals = {"mean": mean, "log_std": log_std, "log_std_raw": log_std_raw,
                     "std_eff": std_eff, "u": u, "cache": cache}
        return action, log_prob, internals

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.policy_sample(obs[None], rng.standard_normal((1, self.act_dim)))[0][0]

    # ---------------- critics ----------------

    def min_q_and_action_grad(self, obs: np.ndarray, act: np.ndarray):
        """min(Q1, Q2) per sample and its gradient w.r.t. the action input."""
        q, cache = self.critics.forward(np.concatenate([obs, act], axis=1))
        gx = self.critics.input_grad(cache, np.ones((obs.shape[0], 1)))
        grad_act = np.where(q[0] <= q[1], gx[0, :, self.obs_dim:], gx[1, :, self.obs_dim:])
        return np.minimum(q[0, :, 0], q[1, :, 0]), grad_act

    # ---------------- losses and updates ----------------

    def value_loss_and_grads(self, obs: np.ndarray, eps_hat: np.ndarray, stats=None):
        """L = 1/2 mean (V(s) - [minQ(s, a~) - log pi(a~|s)])^2 with a~ resampled."""
        action, log_prob, _ = self.policy_sample(obs, eps_hat, stats)
        q, _ = self.critics.forward(np.concatenate([obs, action], axis=1))
        target = np.minimum(q[0, :, 0], q[1, :, 0]) - log_prob
        v, cache = self.value.forward(obs)
        delta = v[:, 0] - target
        loss = 0.5 * float(np.mean(delta ** 2))
        return loss, self.value.backward(cache, (delta / delta.size)[:, None])

    def q_loss_and_grads(self, obs, act, rew, next_obs):
        """Both critics regress on the shared target r + discount * V_target(s').

        Returns the (2,) losses and the (2, P) gradients of the stacked critics."""
        target = rew + self.config.discount * self.value_target(next_obs)[:, 0]
        q, cache = self.critics.forward(np.concatenate([obs, act], axis=1))
        delta = q[..., 0] - target
        losses = 0.5 * np.mean(delta ** 2, axis=-1)
        return losses, self.critics.backward(cache, (delta / delta.shape[-1])[..., None])

    def policy_loss_and_grads(self, obs: np.ndarray, eps_hat: np.ndarray, stats=None):
        """L = mean(log pi(a~|s) - minQ(s, a~)), gradients through both paths.

        Head gradients (t = tanh(u), all per sample and dimension):
          d log pi / d mean    = 2 t
          d log pi / d log_std = -1 + 2 t (u - mean)
          d (-Q) / d mean      = -(dQ/da) (1 - t^2)
          d (-Q) / d log_std   = -(dQ/da) (1 - t^2) (u - mean)
        with the log_std rows masked wherever the clamp is active.
        """
        action, log_prob, it = self.policy_sample(obs, eps_hat, stats)
        q_min, q_act_grad = self.min_q_and_action_grad(obs, action)
        loss = float(np.mean(log_prob - q_min))

        B = obs.shape[0]
        t = action
        u_centered = it["u"] - it["mean"]
        flow = 2.0 * t - q_act_grad * (1.0 - t * t)
        g_mean = flow / B
        active = (it["log_std_raw"] > LOG_STD_MIN) & (it["log_std_raw"] < LOG_STD_MAX)
        g_log_std = (-1.0 + flow * u_centered) / B * active
        grad_out = np.concatenate([g_mean, g_log_std], axis=1)
        return loss, self.policy.backward(it["cache"], grad_out)

    def update(self, batch, rng: np.random.Generator) -> dict:
        """One gradient step on V, both Q nets, and the policy, plus a Polyak update."""
        obs, act, rew, next_obs = batch
        eps_v = rng.standard_normal((obs.shape[0], self.act_dim))
        eps_p = rng.standard_normal((obs.shape[0], self.act_dim))

        stats = self.policy_stats(obs)
        v_loss, v_grads = self.value_loss_and_grads(obs, eps_v, stats)
        q_losses, q_grads = self.q_loss_and_grads(obs, act, rew, next_obs)
        p_loss, p_grads = self.policy_loss_and_grads(obs, eps_p, stats)

        q1_loss, q2_loss = q_losses.tolist()
        losses = {"value": v_loss, "q1": q1_loss, "q2": q2_loss, "policy": p_loss}
        if not all(np.isfinite(list(losses.values()))):
            raise self._diverged(f"non-finite loss: {losses}",
                                 {f"losses_{net}": np.asarray(loss) for net, loss in losses.items()})
        self.opt_value.step(v_grads)
        self.opt_critics.step(q_grads)
        self.opt_policy.step(p_grads)
        polyak_update(self.value_target, self.value, self.config.polyak)
        return losses

    def _diverged(self, message: str, snapshot: dict) -> TrainingDiverged:
        """TrainingDiverged with `snapshot` followed by a copy of each network's parameters."""
        snapshot.update(policy=self.policy.params.copy(), value=self.value.params.copy(),
                        q1=self.q1.params.copy(), q2=self.q2.params.copy())
        return TrainingDiverged(message, snapshot)


def polyak_update(target: DenseNet, online: DenseNet, tau_bar: float) -> None:
    """target <- tau_bar * online + (1 - tau_bar) * target, elementwise."""
    target.params *= 1.0 - tau_bar
    target.params += tau_bar * online.params


# ---------------- training loop ----------------

@dataclass
class TrainResult:
    episode_rewards: list            # cumulative (sum over steps) reward per episode
    best_phases: np.ndarray
    best_sum_se: float
    agent: SacAgent
    config: SacConfig
    master_seed: int


def train(env: RisEnv, config: SacConfig, master_seed: int) -> TrainResult:
    """Run the training loop on a fixed realization.

    Per environment step: act, store the transition, then (once the buffer
    can fill a batch) one gradient step on every network followed by the
    target update. Rewards are stored scaled by 1/entropy_coeff; the
    learning curve and the best-phases tracking use the raw sum SE.
    Deterministic in master_seed.
    """
    root = np.random.SeedSequence(int(master_seed))
    key_env, key_act, key_batch, key_update = root.spawn(4)
    rng_env = np.random.default_rng(key_env)
    rng_act = np.random.default_rng(key_act)
    rng_batch = np.random.default_rng(key_batch)
    rng_update = np.random.default_rng(key_update)

    agent = SacAgent(env.obs_dim, env.act_dim, config, master_seed)
    buffer = ReplayBuffer(config.buffer_capacity, env.obs_dim, env.act_dim)
    inv_temp = 1.0 / config.entropy_coeff

    best_se = -np.inf
    best_phases = np.zeros(env.act_dim)
    curve = []

    # Non-finite losses and actions end in TrainingDiverged; numpy's
    # overflow and invalid-value warnings on the way there would only flood stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.episodes):
            obs, reset_se = env.reset(rng_env)
            if reset_se > best_se:
                best_se = reset_se
                best_phases = env.phases.copy()
            total = 0.0
            for _ in range(config.episode_len):
                action = agent.act(obs, rng_act)
                if not np.isfinite(action).all():   # RisEnv.step would raise ValueError
                    raise agent._diverged("non-finite action", {"action": action})
                next_obs, reward = env.step(action)
                total += reward
                if reward > best_se:
                    best_se = reward
                    best_phases = env.phases.copy()
                buffer.add(obs, action, reward * inv_temp, next_obs)
                obs = next_obs
                if len(buffer) >= config.batch:
                    agent.update(buffer.sample(config.batch, rng_batch), rng_update)
            curve.append(total)
    return TrainResult(episode_rewards=curve, best_phases=best_phases, best_sum_se=float(best_se),
                       agent=agent, config=config, master_seed=int(master_seed))


# ---------------- checkpointing ----------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, result: TrainResult) -> None:
    """Versioned npz dump: config JSON, all network weights, best phases.

    Layout: `version`, `config_json`, `obs_dim`, `act_dim`, `best_phases`,
    `best_sum_se`, `master_seed`, and per-net arrays `<net>_w<i>` / `<net>_b<i>`
    for net in (policy, q1, q2, value, value_target), i in 0..2.
    """
    agent = result.agent
    arrays = {
        "version": np.array(CHECKPOINT_VERSION),
        "config_json": np.array(json.dumps(asdict(result.config))),
        "obs_dim": np.array(agent.obs_dim),
        "act_dim": np.array(agent.act_dim),
        "best_phases": result.best_phases,
        "best_sum_se": np.array(result.best_sum_se),
        "master_seed": np.array(result.master_seed),
    }
    for name, net in (("policy", agent.policy), ("q1", agent.q1), ("q2", agent.q2),
                      ("value", agent.value), ("value_target", agent.value_target)):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}_w{i}"] = w
            arrays[f"{name}_b{i}"] = b
    with open(path, "wb") as fh:   # a path given to np.savez gains ".npz" if it lacks one
        np.savez(fh, **arrays)


def load_checkpoint(path: str) -> dict:
    """Load a checkpoint; returns config, best phases, and the raw weight arrays.

    A file that is no npz archive, lacks a field, has a field or config that cannot
    be read, or best phases that are no 1-D finite float vector raises ValueError.
    """
    with open(path, "rb") as fh:   # np.load(path) would leave the file open on a damaged archive
        try:
            data = np.load(fh, allow_pickle=False)
        except (zipfile.BadZipFile, EOFError) as exc:
            raise ValueError(f"not a readable npz archive: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        try:
            version = int(data["version"])
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            best_phases = np.asarray(data["best_phases"])
            if best_phases.ndim != 1 or best_phases.dtype.kind != "f" or not np.isfinite(best_phases).all():
                raise ValueError("best_phases must be a 1-D finite float vector")
            return {
                "config": SacConfig(**json.loads(str(data["config_json"]))),
                "obs_dim": int(data["obs_dim"]),
                "act_dim": int(data["act_dim"]),
                "best_phases": best_phases,
                "best_sum_se": float(data["best_sum_se"]),
                "master_seed": int(data["master_seed"]),
                "weights": {key: np.asarray(data[key]) for key in data.files
                            if key.endswith(tuple(f"_{p}{i}" for p in "wb" for i in range(3)))},
            }
        except (KeyError, TypeError) as exc:
            # a missing field, a field of the wrong shape or type, or config keys SacConfig does not take
            raise ValueError(f"unreadable field: {exc}") from exc
