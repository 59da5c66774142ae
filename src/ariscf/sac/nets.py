"""Dense networks with hand-written backprop, small enough to finite-difference check."""

from __future__ import annotations

import numpy as np


def relu(x):
    return np.maximum(x, 0.0)


class DenseNet:
    """input -> hidden -> hidden -> output with rectifier hidden layers.

    Parameters live in `weights` / `biases` (out_features x in_features
    convention). `forward` returns an activation cache that `backward`
    consumes; per-sample input gradients come back alongside the parameter
    gradients so losses can differentiate through network inputs (needed for
    the policy update through the Q action input).
    """

    def __init__(self, in_dim: int, out_dim: int, hidden: int, rng: np.random.Generator):
        dims = [in_dim, hidden, hidden, out_dim]
        self.weights = []
        self.biases = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(2.0 / d_in)
            self.weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
            self.biases.append(np.zeros(d_out))

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def forward(self, x: np.ndarray):
        """x: (B, in_dim). Returns (output (B, out_dim), cache)."""
        h1 = relu(x @ self.weights[0].T + self.biases[0])
        h2 = relu(h1 @ self.weights[1].T + self.biases[1])
        out = h2 @ self.weights[2].T + self.biases[2]
        return out, (x, h1, h2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache, grad_out: np.ndarray):
        """Gradients of sum_b <grad_out[b], out[b]> w.r.t. parameters and inputs.

        Returns (param_grads, grad_x) with param_grads shaped like
        (weights, biases) and grad_x holding per-sample input gradients.
        """
        x, h1, h2 = cache
        gw = [None, None, None]
        gb = [None, None, None]
        gw[2] = grad_out.T @ h2
        gb[2] = grad_out.sum(axis=0)
        d2 = (grad_out @ self.weights[2]) * (h2 > 0)
        gw[1] = d2.T @ h1
        gb[1] = d2.sum(axis=0)
        d1 = (d2 @ self.weights[1]) * (h1 > 0)
        gw[0] = d1.T @ x
        gb[0] = d1.sum(axis=0)
        grad_x = d1 @ self.weights[0]
        return (gw, gb), grad_x

    # -- flat parameter vector helpers (finite-difference checks, checkpoints) --

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.weights + self.biases])

    def set_flat(self, flat: np.ndarray) -> None:
        i = 0
        for p in self.weights + self.biases:
            p[...] = flat[i:i + p.size].reshape(p.shape)
            i += p.size

    @staticmethod
    def flatten_grads(grads) -> np.ndarray:
        gw, gb = grads
        return np.concatenate([g.ravel() for g in gw + gb])

    def clone(self) -> "DenseNet":
        dup = object.__new__(DenseNet)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup


class SgdOptimizer:
    """Plain stochastic gradient descent."""

    def __init__(self, net: DenseNet, lr: float):
        self.net = net
        self.lr = lr

    def step(self, grads) -> None:
        gw, gb = grads
        for p, g in zip(self.net.weights, gw):
            p -= self.lr * g
        for p, g in zip(self.net.biases, gb):
            p -= self.lr * g


class AdamOptimizer:
    """Adaptive-moment variant, available behind a config flag."""

    def __init__(self, net: DenseNet, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.net = net
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        params = net.weights + net.biases
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads) -> None:
        gw, gb = grads
        self.t += 1
        for i, (p, g) in enumerate(zip(self.net.weights + self.net.biases, gw + gb)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def preactivation_margin(net: DenseNet, x: np.ndarray) -> float:
    """Smallest |pre-activation| over the hidden layers for inputs x.

    Finite-difference gradient checks are only valid when every rectifier
    input sits further from its kink than the difference step.
    """
    pre1 = x @ net.weights[0].T + net.biases[0]
    pre2 = relu(pre1) @ net.weights[1].T + net.biases[1]
    return float(min(np.abs(pre1).min(), np.abs(pre2).min()))


def make_optimizer(net: DenseNet, name: str, lr: float):
    if name == "sgd":
        return SgdOptimizer(net, lr)
    if name == "adam":
        return AdamOptimizer(net, lr)
    raise ValueError(f"unknown optimizer {name!r}")
