"""Dense networks with hand-written backprop, small enough to finite-difference check."""

from __future__ import annotations

import copy
import math

import numpy as np


def relu(x):
    return np.maximum(x, 0.0)


class DenseNet:
    """input -> hidden -> hidden -> output with rectifier hidden layers.

    All parameters live in one float64 vector `params`, laid out as
    (w0, w1, w2, b0, b1, b2); `weights` and `biases` are reshaped views into
    it (out_features x in_features convention), so optimizers and target
    updates act on `params` alone; `DenseNet.stack` holds same-shape networks
    as the rows of an (S, P) `params` and runs them over a leading stack axis.
    `forward` returns an activation cache that `backward` (parameter gradient)
    and `input_grad` (per-sample input gradient, for the Q action input) consume.
    """

    def __init__(self, in_dim: int, out_dim: int, hidden: int, rng: np.random.Generator):
        dims = [in_dim, hidden, hidden, out_dim]
        self._shapes = [(d_out, d_in) for d_in, d_out in zip(dims[:-1], dims[1:])]
        self._shapes += [(d_out,) for d_out in dims[1:]]
        self._bind(np.zeros(sum(math.prod(s) for s in self._shapes)))
        for w in self.weights:
            bound = np.sqrt(2.0 / w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    @classmethod
    def stack(cls, nets: list["DenseNet"]) -> "DenseNet":
        """One network over the rows of `nets`' stacked params; each net is rebound to its row."""
        stacked = copy.copy(nets[0])
        stacked._bind(np.stack([net.params for net in nets]))
        for net, row in zip(nets, stacked.params):
            net._bind(row)
        return stacked

    def _bind(self, params: np.ndarray) -> None:
        """Adopt `params` and cut the per-layer views out of it."""
        self.params = params
        lead, views, i = params.shape[:-1], [], 0
        for shape in self._shapes:
            n = math.prod(shape)
            views.append(params[..., i:i + n].reshape(lead + shape))
            i += n
        self.weights, self.biases = views[:3], views[3:]

    def forward(self, x: np.ndarray):
        """x: (B, in_dim). Returns (output (*stack, B, out_dim), cache)."""
        h1 = relu(x @ self.weights[0].swapaxes(-1, -2) + self.biases[0][..., None, :])
        h2 = relu(h1 @ self.weights[1].swapaxes(-1, -2) + self.biases[1][..., None, :])
        out = h2 @ self.weights[2].swapaxes(-1, -2) + self.biases[2][..., None, :]
        return out, (x, h1, h2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def _deltas(self, cache, grad_out: np.ndarray):
        _, h1, h2 = cache
        d2 = (grad_out @ self.weights[2]) * (h2 > 0)
        return (d2 @ self.weights[1]) * (h1 > 0), d2

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum_b <grad_out[b], out[b]> w.r.t. the parameters, laid out like `params`."""
        x, h1, h2 = cache
        d1, d2 = self._deltas(cache, grad_out)
        outer = [d.swapaxes(-1, -2) @ a for d, a in ((d1, x), (d2, h1), (grad_out, h2))]
        return np.concatenate([g.reshape(grad_out.shape[:-2] + (-1,)) for g in outer]
                              + [d.sum(axis=-2) for d in (d1, d2, grad_out)], axis=-1)

    def input_grad(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Per-sample gradients of sum_b <grad_out[b], out[b]> w.r.t. the inputs x."""
        return self._deltas(cache, grad_out)[0] @ self.weights[0]

    def clone(self) -> "DenseNet":
        dup = copy.copy(self)
        dup._bind(self.params.copy())
        return dup


class SgdOptimizer:
    """Plain stochastic gradient descent."""

    def __init__(self, net: DenseNet, lr: float):
        self.net = net
        self.lr = lr

    def step(self, grad: np.ndarray) -> None:
        self.net.params -= self.lr * grad


class AdamOptimizer:
    """Adaptive-moment variant, available behind a config flag."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net: DenseNet, lr: float):
        self.net = net
        self.lr = lr
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grad * grad
        m_hat = self.m / (1 - self.BETA1 ** self.t)
        v_hat = self.v / (1 - self.BETA2 ** self.t)
        self.net.params -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}
