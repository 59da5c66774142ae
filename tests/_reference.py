"""Dense, test-only transcriptions of quantities the package keeps in
factored form: the reflection matrix, the per-user RIS covariance, the
Xi_{m,k} matrices and the main-text active-noise moment."""

import numpy as np


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
