"""RIS phase-design environment: observation, action mapping, closed-form reward."""

from __future__ import annotations

import numpy as np

from ..perf import evaluate_phases
from ..scenario import NetworkRealization


def action_to_phases(action_squashed: np.ndarray) -> np.ndarray:
    """Map tanh outputs in [-1, 1] to phases pi*(a+1), wrapped into [0, 2*pi)."""
    return np.mod(np.pi * (np.asarray(action_squashed) + 1.0), 2.0 * np.pi)


class RisEnv:
    """Fixed-realization environment (S-CSI regime).

    Observation is [phases (N) || flattened estimate variances (M*K)], the
    variances scaled by their equal-phase values so the network sees O(1)
    inputs; the reward is the closed-form sum SE recomputed from the phases
    alone, never from the observation vector. `equal_phase_se` is the sum SE
    at all-zero phases, the reference the variances are scaled by.
    """

    def __init__(self, realization: NetworkRealization, a: float, prelog: bool = False):
        sc = realization.scenario
        self.realization = realization
        self.a = float(a)
        self.prelog = prelog
        self.obs_dim = sc.N + sc.M * sc.K
        self.act_dim = sc.N
        self.phases = np.zeros(sc.N)
        self.equal_phase_se, ref = self._evaluate(self.phases)
        self._gamma_ref = np.where(ref > 0, ref, 1.0)

    def _evaluate(self, phases: np.ndarray):
        """(sum SE, estimate variances (M, K)) at the given phases."""
        se, est = evaluate_phases(self.realization, phases, self.a, self.prelog)
        return float(se.sum()), est.gamma

    def _observe(self, gamma: np.ndarray) -> np.ndarray:
        return np.concatenate([self.phases, (gamma / self._gamma_ref).ravel()])

    def reset(self, rng: np.random.Generator):
        """Draw uniform random phases; returns (obs, sum SE at those phases)."""
        self.phases = rng.uniform(0.0, 2.0 * np.pi, self.act_dim)
        sum_se, gamma = self._evaluate(self.phases)
        return self._observe(gamma), sum_se

    def step(self, action_squashed: np.ndarray):
        """Apply the squashed action as the new phase vector; returns (obs, reward)."""
        self.phases = action_to_phases(action_squashed)
        reward, gamma = self._evaluate(self.phases)
        return self._observe(gamma), reward
