"""Shared test instances with hand-controlled large-scale gains, shipped-config
instances, oracle block draws and an empirical SINR reduced from them apart from
the identity suite, and a call counter for package functions."""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from ariscf import oracle
from ariscf.channel import compute_stats
from ariscf.estimation import compute_estimation_stats
from ariscf.ris import RisState, amplitude_gain
from ariscf.scenario import NetworkRealization, Scenario, load_scenario, sample_layout

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def synthetic_realization(scenario: Scenario, beta: np.ndarray, alpha: np.ndarray,
                          alpha_bar: np.ndarray) -> NetworkRealization:
    """Realization with prescribed gains; the positions are placeholders."""
    return NetworkRealization(
        scenario=scenario,
        ap_positions=np.zeros((scenario.M, 2)),
        user_positions=np.zeros((scenario.K, 2)),
        beta=np.asarray(beta, dtype=float),
        alpha=np.asarray(alpha, dtype=float),
        alpha_bar=np.asarray(alpha_bar, dtype=float),
    )


def fixed_correlation(realization: NetworkRealization, R: np.ndarray) -> NetworkRealization:
    """Copy of `realization` whose R is set by hand (R = 0, R = I) instead of
    derived from its geometry; R_factor, and so the oracle's draws, follow
    that R. The closed forms do not: `channel.phase_traces` reads R from the
    geometry."""
    out = replace(realization)
    vars(out).update(R=R)
    return out


def cascade_instance(tau_p: int = 1, a: float = 2.0, sigma2: float = 1e-11,
                     rho: float = 0.05, rho_u: float = 0.05):
    """M=2, K=2 instance whose cascaded path carries power comparable to the
    direct one, so every Xi-dependent moment is well conditioned."""
    sc = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=tau_p, rho=rho, rho_u=rho_u,
                  sigma2=sigma2, sigma2_bar=sigma2, a_max=max(a, 1.0))
    area = sc.element_area
    rl = synthetic_realization(
        sc,
        beta=np.array([[2e-8, 1.2e-8], [0.8e-8, 2.5e-8]]),
        alpha=np.array([3e-6, 2e-6]),
        alpha_bar=np.array([4e-4, 3e-4]) / area,
    )
    phases = np.random.default_rng(3).uniform(0, 2 * np.pi, sc.N)
    return sc, rl, phases


def config_instance(name, seed, phases="random", **overrides):
    """Shipped config at its budget amplitude and random (or equal) phases, as a
    sweep point sees it."""
    sc = replace(load_scenario(os.path.join(CONFIG_DIR, name)), **overrides)
    rl = sample_layout(sc, seed)
    a = amplitude_gain(sc, rl.alpha_bar)
    if phases == "equal":
        phases = np.zeros(sc.N)
    else:
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, sc.N)
    return sc, rl, RisState(phases=phases, a=a)


def sample_block(realization: NetworkRealization, ris_state, master_seed: int, chunk: int,
                 size: int):
    """One oracle block, drawn on a two-thread pool of its own."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return oracle._sample_block(realization, ris_state, master_seed, chunk, size, pool)


def draw_trials(realization: NetworkRealization, ris_state, n_trials: int, master_seed: int):
    """The oracle's block draws for `n_trials` trials, joined along the trial axis."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        blocks = [oracle._sample_block(realization, ris_state, master_seed, chunk, size, pool)
                  for chunk, size in enumerate(oracle._chunk_sizes(n_trials))]
    return oracle._Block(**{f.name: np.concatenate([getattr(b, f.name) for b in blocks])
                            for f in fields(oracle._Block)})


@dataclass(frozen=True)
class EmpiricalSinr:
    """Sample estimates of the SINR expectation groups of user 0."""

    sinr: float
    ds: float
    bu: float
    ui: np.ndarray          # (K,) per-interferer power, zero at user 0
    an: float
    no: float


def empirical_sinr(realization: NetworkRealization, ris_state, n_trials: int,
                   master_seed: int) -> EmpiricalSinr:
    """Monte Carlo SINR groups of user 0 from the oracle's block draws, reduced
    here on their own rather than by the identity suite, through per-group sums
    over the same fixed trial groups.

    With qhat_0 = c_0 * y_0 and T_j = qhat_0^H q_j, the groups are
    ds = rho_u |E T_0|^2, bu = rho_u (E|T_0|^2 - |E T_0|^2), ui_j = rho_u E|T_j|^2
    for j != 0, an = E|qhat_0^H p|^2 and no = E|qhat_0^H w|^2.
    """
    sc = realization.scenario
    est = compute_estimation_stats(compute_stats(realization, ris_state))
    c0 = est.c[:, 0]
    G = min(oracle.JACKKNIFE_GROUPS, n_trials)
    bounds = [g * n_trials // G for g in range(G + 1)]
    sums = {}
    for chunk, size in enumerate(oracle._chunk_sizes(n_trials)):
        blk = sample_block(realization, ris_state, master_seed, chunk, size)
        qh = np.conj(c0[None, :] * blk.y[:, :, 0])
        T = np.einsum("tm,tmj->tj", qh, blk.q)
        values = {"T_0": T[:, 0], "|T_j|^2": np.abs(T) ** 2,
                  "an": np.abs(np.einsum("tm,tm->t", qh, blk.p_data)) ** 2,
                  "no": np.abs(np.einsum("tm,tm->t", qh, blk.w_data)) ** 2}
        start = chunk * oracle.CHUNK_TRIALS
        for key, v in values.items():
            s = sums.setdefault(key, np.zeros((G,) + v.shape[1:], dtype=v.dtype))
            for g in range(G):
                lo, hi = max(bounds[g], start), min(bounds[g + 1], start + size)
                if lo < hi:
                    s[g] += v[lo - start:hi - start].sum(axis=0)
    mean = {key: s.sum(axis=0) / n_trials for key, s in sums.items()}

    rho_u = sc.rho_u
    ds = rho_u * np.abs(mean["T_0"]) ** 2
    bu = rho_u * (mean["|T_j|^2"][0] - np.abs(mean["T_0"]) ** 2)
    ui = rho_u * mean["|T_j|^2"]
    ui[0] = 0.0
    an, no = mean["an"], mean["no"]
    return EmpiricalSinr(sinr=float(ds / (bu + ui.sum() + an + no)), ds=float(ds), bu=float(bu),
                         ui=ui, an=float(an), no=float(no))


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` in every ariscf module that binds it; the returned
    list gets the positional arguments of each call."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ariscf") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls
