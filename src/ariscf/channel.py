"""Second-order channel moments used by every closed form, and the complex Gaussian draws."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .estimation import compute_estimation_stats
from .ris import RisState
from .scenario import NetworkRealization, ris_correlation

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


# Values per piece of a draw: the buffer a plane is drawn through.
_DRAW_PIECE = 65536
# Leading entries (trials) per piece of a correlated draw. A multiple of 64, so
# every piece starts on a multiple of 64 GEMM rows whatever the rows per entry.
_GEMM_PIECE = 192


def _fill_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """`complex_normal` into the given complex array; returns `out`."""
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _DRAW_PIECE))
    for part in (flat.real, flat.imag):
        for i in range(0, flat.size, _DRAW_PIECE):
            piece = buf[:min(_DRAW_PIECE, flat.size - i)]
            rng.standard_normal(out=piece)
            np.multiply(piece, _INV_SQRT2, out=part[i:i + piece.size])
    return out


def _fill_correlated(rng: np.random.Generator, out: np.ndarray, F: np.ndarray, scale) -> np.ndarray:
    """scale * (complex_normal(rng, out.shape) @ F.T) into the given complex array
    of two or more axes for a real square F, equal up to round-off; returns `out`.

    Draws the same planes in the same order as `complex_normal`, contracts
    them with F.T in real GEMMs over all leading axes, and applies
    scale / sqrt(2) once. `scale` broadcasts against the result, e.g. an
    (M, 1) array of per-row amplitudes.

    Each plane is drawn and contracted in pieces along the leading axis:
    `_GEMM_PIECE` entries each, the last piece taking the remainder too. So
    every piece starts on a multiple of 64 GEMM rows and spans at least
    `_GEMM_PIECE` entries unless the whole array is smaller, and each row
    keeps the bytes of one GEMM over the whole plane. A piece of a few rows
    (one row is a matrix-vector product) rounds differently, and so may a
    piece off the row grid of another BLAS kernel.
    """
    n_lead, n = out.shape[0], out.shape[-1]
    rows = int(np.prod(out.shape[1:-1]))
    bounds = [i * _GEMM_PIECE for i in range(max(n_lead // _GEMM_PIECE, 1))] + [n_lead]
    scale = np.asarray(scale) * _INV_SQRT2
    # the last piece is the longest
    plane = np.empty(((bounds[-1] - bounds[-2]) * rows, n))
    prod = np.empty_like(plane)
    for part in (out.real, out.imag):
        for a, b in zip(bounds, bounds[1:]):
            x, y = plane[:(b - a) * rows], prod[:(b - a) * rows]
            rng.standard_normal(out=x)
            np.matmul(x, F.T, out=y)
            np.multiply(y.reshape(part[a:b].shape), scale, out=part[a:b])
    return out


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian, unit variance per entry.

    The whole real plane is drawn first, then the whole imaginary plane,
    each in pieces of `_DRAW_PIECE` values through one small buffer and
    scaled straight into the result. Split `standard_normal(out=...)` calls
    continue the stream, so the bytes equal (x + 1j*y) / sqrt(2) with x and
    y each drawn by one call, in that order.
    """
    return _fill_normal(rng, np.empty(shape, dtype=complex))


@dataclass(frozen=True)
class SecondOrderStats:
    """Second-order quantities of the aggregated channels for one amplitude gain
    a and one set of phase traces, and the LMMSE statistics built from them.

    Every Xi_{m,k} = a^2 Psi Rbar_k Psi^H R_m is a scalar multiple of the
    common matrix W = (P o R) R with P_{ij} = exp(j(psi_i - psi_j)), so only
    the shared traces t1 = tr(W), t2 = tr(W^2), t3 = tr((P o R) R^2) and the
    per-link scales are stored. Two stages build them: `phase_traces`, the
    O(N^3) one, computes the traces in real arithmetic from two SYRKs without
    forming W, and `scale_stats`, the O(MK) one, scales them by a and the
    large-scale gains and adds the LMMSE statistics. The phases are not kept.
    """

    realization: NetworkRealization
    a: float               # common amplitude gain
    kappa: np.ndarray      # (M, K) aggregated channel power beta + tr(Xi)
    alpha_an: np.ndarray   # (M, K) active-noise cross moment E{|pbar* q|^2}
    xi_scale: np.ndarray   # (M, K) scale s with Xi_{m,k} = s * (P o R) R
    t1: float
    t2: float
    t3: float
    c: np.ndarray          # (M, K) LMMSE scaling, in (0, 1)
    gamma: np.ndarray      # (M, K) estimate variance kappa * c
    nmse: np.ndarray       # (M, K) normalized MSE 1 - c


def _weighted_gram(R: np.ndarray, R2: np.ndarray, w: np.ndarray, X: np.ndarray, G: np.ndarray):
    """R diag(w) R into G for a real symmetric R and w in [-1, 1], as one SYRK:
    X^T X - R @ R with X = diag(sqrt(1 + w)) R, formed in the buffer X."""
    np.multiply(np.sqrt(1.0 + w)[:, None], R, out=X)
    np.matmul(X.T, X, out=G)
    G -= R2


# Held over every use of the `_trace_buffers`, so two threads never share them.
_TRACE_LOCK = threading.Lock()


@lru_cache(maxsize=1)
def _trace_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three real (n, n) work arrays X, Br and Bi of `phase_traces`, kept for
    the last RIS size as `ris_correlation` keeps the last geometry's R: fresh
    arrays of that size are returned to the OS after each call and
    page-faulted in again on the next."""
    return np.empty((n, n)), np.empty((n, n)), np.empty((n, n))


@lru_cache(maxsize=1)
def phase_traces(geometry: tuple, phases: bytes) -> tuple[float, float, float]:
    """The O(N^3) stage of `compute_stats`: the traces (t1, t2, t3) of (P o R) R
    for one `Scenario.geometry` and the float64 bytes of one phase vector.

    They depend on nothing else: not on the layout, the amplitude gain or any
    power. The last key's traces are kept, as `ris_correlation` keeps the last
    geometry's R: a sweep evaluates all values of one (geometry, seed) group
    at the same phases in a row. R and R @ R come from that cache.

    With v = c + js = exp(j psi), P o R = D_v R D_v^H, so every trace reads
    the real symmetric B = R diag(conj v) R = Br - j Bi, where Br = R diag(c) R
    and Bi = R diag(s) R are one SYRK each:
      t1 = tr(D_v B)   = sum_i c_i Br_ii + s_i Bi_ii,
      t3 = tr(D_v B R) = sum_ij R_ij (c_i Br_ij + s_i Bi_ij),
      t2 = Re sum_ij v_i v_j B_ij^2 = c^T D c - s^T D s + 4 s^T (Br o Bi) c,
    with D = Br o Br - Bi o Bi. No complex N x N array is formed: the three real
    ones are the `_trace_buffers` of N, used under `_TRACE_LOCK`, so a call
    allocates only vectors. When all phases are equal, P o R = R and the
    traces are read from R and R @ R, without the buffers or the lock.
    """
    R, R2 = ris_correlation(geometry)
    phases = np.frombuffer(phases)
    if phases.size != len(R):
        raise ValueError(f"phase vector has {phases.size} entries, the RIS has N={len(R)}")
    if (phases == phases[0]).all():
        # W = (P o R) R = R @ R, reduced with the complex arithmetic the
        # two-real-GEMM kernel did at zero phases: equal-phase values keep
        # their bytes
        W = R2.astype(complex)
        t1 = float(np.trace(W).real)
        t2 = float(np.sum(W * W.T).real)
        t3 = float(np.sum(R.astype(complex) * R2.T).real)
    else:
        # exp as in `RisState.phasor`: cos and sin may round differently
        v = np.exp(1j * phases)
        c, s = v.real, v.imag
        with _TRACE_LOCK:
            X, Br, Bi = _trace_buffers(len(R))
            _weighted_gram(R, R2, c, X, Br)
            _weighted_gram(R, R2, s, X, Bi)
            t1 = float(c @ Br.diagonal() + s @ Bi.diagonal())
            t3 = float(c @ np.einsum("ij,ij->i", R, Br) + s @ np.einsum("ij,ij->i", R, Bi))
            # Br o Bi into X, then D into Br
            E = np.multiply(Br, Bi, out=X)
            Br *= Br
            Bi *= Bi
            Br -= Bi
            t2 = float(c @ Br @ c - s @ Br @ s + 4.0 * (s @ E @ c))
    return t1, t2, t3


def compute_stats(realization: NetworkRealization, ris_state: RisState) -> SecondOrderStats:
    """Second-order statistics for one RIS state: the `phase_traces` of its
    geometry and phases, scaled by `scale_stats`."""
    traces = phase_traces(realization.scenario.geometry, ris_state.phases.tobytes())
    return scale_stats(realization, ris_state.a, *traces)


def scale_stats(realization: NetworkRealization, a: float, t1: float, t2: float,
                t3: float) -> SecondOrderStats:
    """The O(MK) stage of `compute_stats`: the traces (t1, t2, t3) of any phase
    vector, scaled per link by the gain a, alpha, alpha_bar, beta and the
    scenario scalars, and the `compute_estimation_stats` of the result."""
    sc = realization.scenario
    area = sc.element_area

    xi_scale = (a * a * area * area) * (realization.alpha[:, None] * realization.alpha_bar)
    kappa = realization.beta + xi_scale * t1

    # E{|pbar*_{m,k} q_{m,k}|^2}: direct term beta * sigma2_bar * tr(A^2 R_m)
    # plus the Wishart term sigma2_bar * tr(Theta Rbar_k Theta^H (R_m A^2 R_m + tr(A^2 R_m) R_m)).
    wishart = (a ** 4) * (area ** 3) * ((realization.alpha ** 2)[:, None] * realization.alpha_bar) * (t3 + sc.N * t1)
    alpha_an = sc.sigma2_bar * ((a * a) * realization.beta * realization.tr_rm[:, None] + wishart)

    c, gamma, nmse = compute_estimation_stats(realization, a, kappa)
    return SecondOrderStats(realization=realization, a=a, kappa=kappa, alpha_an=alpha_an,
                            xi_scale=xi_scale, t1=t1, t2=t2, t3=t3, c=c, gamma=gamma, nmse=nmse)
