"""Fixed reference kernels that measure the machine's current speed.

The benchmark machine is shared: other tenants slow it by up to 1.7x for
minutes at a time, far more than any bound a benchmark could hold. Each
workload's ops are therefore bracketed by a kernel whose instruction mix
follows the layer that the traced run shows doing most of that workload's
work, and every time is reported at reference speed: wall time multiplied by
REFERENCE_SECONDS / (the kernel's time measured around it). The kernels use
numpy only, never ariscf, so a change to the program cannot change them.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel times on the reference machine (2-vCPU Intel Xeon, KVM guest, numpy
# 2.4.6 with OpenBLAS 0.3.31 on one thread): the scale of every reported time.
REFERENCE_SECONDS = {"small-loop": 1.1e-3, "dense-net": 3.5e-3, "gemm": 5.0e-3, "draws": 50e-3}


class Kernel:
    def __init__(self, kind: str):
        rng = np.random.default_rng(20240222)
        self.kind = kind
        if kind == "small-loop":        # perf.sinr_closed_form: per-user loops on (M, K) arrays
            self.a = rng.random((20, 15))
            self.c = rng.random(20)
        elif kind == "dense-net":       # sac.nets / sac.agent: batch-64 MLP forward and backward
            self.x = rng.standard_normal((64, 80))
            self.w = [rng.standard_normal((64, 80)) * 0.1, rng.standard_normal((64, 64)) * 0.1,
                      rng.standard_normal((32, 64)) * 0.1]
        elif kind == "gemm":            # channel.compute_stats / scenario.psd_factor at large N
            self.r = np.sinc(rng.random((256, 256)))
            self.p = np.exp(1j * rng.random(256))
        elif kind == "draws":           # oracle block: Gaussian draws and batched contractions
            self.f = rng.standard_normal((64, 64))
        else:
            raise ValueError(kind)

    def _run(self):
        if self.kind == "small-loop":
            a, c = self.a, self.c
            s = 0.0
            for k in range(a.shape[1]):
                u = c @ a
                for j in range(a.shape[1]):
                    s += float(np.sum(c * c * a[:, j] * a[:, k])) + float(u[j])
            return s
        if self.kind == "dense-net":
            s = 0.0
            for _ in range(32):
                h1 = np.maximum(self.x @ self.w[0].T, 0.0)
                h2 = np.maximum(h1 @ self.w[1].T, 0.0)
                out = h2 @ self.w[2].T
                d2 = (out @ self.w[2]) * (h2 > 0)
                d1 = (d2 @ self.w[1]) * (h1 > 0)
                s += float((d2.T @ h1).sum() + (d1.T @ self.x).sum())
            return s
        if self.kind == "gemm":
            modulated = (self.p[:, None] * np.conj(self.p)[None, :]) * self.r
            w = modulated @ self.r
            return float(np.sum(w * w.T).real + np.trace(self.r @ self.r))
        rng = np.random.Generator(np.random.Philox(7))
        x = (rng.standard_normal((256, 20, 64)) + 1j * rng.standard_normal((256, 20, 64))) @ self.f
        z = (rng.standard_normal((256, 15, 64)) + 1j * rng.standard_normal((256, 15, 64))) @ self.f
        return float(np.abs(np.einsum("tmn,tkn->tmk", np.conj(x), z)).sum())

    def seconds(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def speed(self) -> float:
        """Machine speed now relative to the reference (median of three kernel runs)."""
        return REFERENCE_SECONDS[self.kind] / sorted(self.seconds() for _ in range(3))[1]
