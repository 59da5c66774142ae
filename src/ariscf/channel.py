"""Second-order channel moments used by every closed form, and the complex Gaussian draws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ris import RisState
from .scenario import NetworkRealization

# Analytic traces are real; anything beyond this relative imaginary residual
# indicates a transcription bug rather than round-off.
IMAG_TOL = 1e-9


def _real_trace(value: complex) -> float:
    if abs(value.imag) > IMAG_TOL * max(abs(value.real), 1e-300):
        raise FloatingPointError(f"trace has non-negligible imaginary part: {value!r}")
    return float(value.real)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian, unit variance per entry.

    The whole real plane is drawn first, then the whole imaginary plane, each
    into one reused buffer and scaled straight into the result. The bytes
    equal (x + 1j*y) / sqrt(2) with x and y drawn in that order.
    """
    out = np.empty(shape, dtype=complex)
    plane = np.empty(shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=plane)
        np.multiply(plane, _INV_SQRT2, out=part)
    return out


def correlated_normal(rng: np.random.Generator, shape, F: np.ndarray, scale) -> np.ndarray:
    """scale * (complex_normal(rng, shape) @ F.T) for a real square F, equal up to round-off.

    Draws the same planes in the same order as `complex_normal`, contracts
    each with F.T in one real GEMM over all leading axes, and applies
    scale / sqrt(2) once. `scale` broadcasts against the result, e.g. an
    (M, 1) array of per-row amplitudes.
    """
    out = np.empty(shape, dtype=complex)
    plane, prod = np.empty(shape), np.empty(shape)
    n = plane.shape[-1]
    scale = np.asarray(scale) * _INV_SQRT2
    for part in (out.real, out.imag):
        rng.standard_normal(out=plane)
        np.matmul(plane.reshape(-1, n), F.T, out=prod.reshape(-1, n))
        np.multiply(prod, scale, out=part)
    return out


@dataclass(frozen=True)
class SecondOrderStats:
    """Second-order quantities of the aggregated channels for one RIS state.

    Every Xi_{m,k} = a^2 Psi Rbar_k Psi^H R_m is a scalar multiple of the
    common matrix W = (P o R) R with P_{ij} = exp(j(psi_i - psi_j)), so only
    the shared traces t1 = tr(W), t2 = tr(W^2), t3 = tr((P o R) R^2) and the
    per-link scales are stored.
    """

    realization: NetworkRealization
    ris_state: RisState
    kappa: np.ndarray      # (M, K) aggregated channel power beta + tr(Xi)
    alpha_an: np.ndarray   # (M, K) active-noise cross moment E{|pbar* q|^2}
    xi_scale: np.ndarray   # (M, K) scale s with Xi_{m,k} = s * (P o R) R
    t1: float
    t2: float
    t3: float

    @property
    def K(self) -> int:
        return self.kappa.shape[1]


@dataclass(frozen=True)
class PhaseTraces:
    """t1, t2 and t3 of `SecondOrderStats`, with the geometry and the phases
    they were computed from, so that `compute_stats` can refuse a mismatch."""

    geometry: tuple
    phases: np.ndarray
    t1: float
    t2: float
    t3: float


def phase_traces(realization: NetworkRealization, ris_state: RisState) -> PhaseTraces:
    """The O(N^3) stage of `compute_stats`: the traces of (P o R) R.

    They depend on the RIS geometry (through R) and the phases alone, not on
    the amplitude gain or any power, so a sweep over such a field can compute
    them once per geometry and phase vector.
    """
    R = realization.R
    phasor = ris_state.phasor
    modulated = (phasor[:, None] * np.conj(phasor)[None, :]) * R
    # t3 before W: its (N, N) temporaries are freed before W's are made
    t3 = _real_trace(np.sum(modulated * realization.R2.T))
    # W = (P o R) R as two real GEMMs: a complex one would run on an upcast
    # copy of R. `modulated` is dropped before W exists, so at most 2.5
    # complex N x N arrays are alive at once.
    real, imag = modulated.real.copy(), modulated.imag.copy()
    del modulated
    W = np.empty(R.shape, dtype=complex)
    W.real = real @ R
    W.imag = imag @ R
    del real, imag
    t1 = _real_trace(np.trace(W))
    t2 = _real_trace(np.sum(W * W.T))
    return PhaseTraces(geometry=realization.scenario.geometry, phases=ris_state.phases,
                       t1=t1, t2=t2, t3=t3)


def compute_stats(realization: NetworkRealization, ris_state: RisState,
                  traces: PhaseTraces | None = None) -> SecondOrderStats:
    """Second-order statistics for one RIS state: `phase_traces` (unless
    `traces` already holds them for this geometry and these phases), scaled
    per link by a, alpha, alpha_bar, beta and the scenario scalars."""
    if traces is None:
        traces = phase_traces(realization, ris_state)
    elif (traces.geometry != realization.scenario.geometry
          or not np.array_equal(traces.phases, ris_state.phases)):
        raise ValueError("traces were computed for another RIS geometry or other phases")
    sc = realization.scenario
    area = sc.element_area
    a = ris_state.a
    t1, t2, t3 = traces.t1, traces.t2, traces.t3

    xi_scale = (a * a * area * area) * np.outer(realization.alpha, realization.alpha_bar)
    kappa = realization.beta + xi_scale * t1

    # E{|pbar*_{m,k} q_{m,k}|^2}: direct term beta * sigma2_bar * tr(A^2 R_m)
    # plus the Wishart term sigma2_bar * tr(Theta Rbar_k Theta^H (R_m A^2 R_m + tr(A^2 R_m) R_m)).
    tr_rm = realization.alpha * area * sc.N
    wishart = (a ** 4) * (area ** 3) * np.outer(realization.alpha ** 2, realization.alpha_bar) * (t3 + sc.N * t1)
    alpha_an = sc.sigma2_bar * ((a * a) * realization.beta * tr_rm[:, None] + wishart)

    return SecondOrderStats(
        realization=realization,
        ris_state=ris_state,
        kappa=kappa,
        alpha_an=alpha_an,
        xi_scale=xi_scale,
        t1=t1,
        t2=t2,
        t3=t3,
    )
