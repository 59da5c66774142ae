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

    The observation is a copy of the phase vector (N). The reward is the
    closed-form sum SE, which depends on statistical CSI and the phases alone.
    `equal_phase_se` is the sum SE at all-zero phases.
    """

    def __init__(self, realization: NetworkRealization, a: float, prelog: bool = False):
        self.realization = realization
        self.a = float(a)
        self.prelog = prelog
        self.obs_dim = self.act_dim = realization.scenario.N
        self.phases = np.zeros(self.act_dim)
        self.equal_phase_se = self._sum_se()

    def _sum_se(self) -> float:
        se, _ = evaluate_phases(self.realization, self.phases, self.a, self.prelog)
        return float(se.sum())

    def reset(self, rng: np.random.Generator):
        """Draw uniform random phases; returns (obs, sum SE at those phases)."""
        self.phases = rng.uniform(0.0, 2.0 * np.pi, self.act_dim)
        return self.phases.copy(), self._sum_se()

    def step(self, action_squashed: np.ndarray):
        """Apply the squashed action as the new phase vector; returns (obs, reward)."""
        self.phases = action_to_phases(action_squashed)
        return self.phases.copy(), self._sum_se()
