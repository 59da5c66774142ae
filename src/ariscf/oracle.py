"""Monte Carlo physical-layer oracle: empirical ground truth for every closed-form quantity."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .channel import (
    complex_normal,
    compute_stats,
    correlated_normal,
    cross_moment_cyclic,
    cross_moments,
    fourth_moment,
)
from .estimation import EstimationStats, compute_estimation_stats
from .perf import sinr_user
from .ris import RisState, aris_output_power
from .scenario import NetworkRealization

# Trials per vectorized block. Fixed constant: block boundaries define the
# random stream, so results never depend on how blocks are scheduled.
CHUNK_TRIALS = 4096

# Substream tags, one per physical randomness source.
_TAG_H, _TAG_Z, _TAG_G, _TAG_VP, _TAG_WP, _TAG_VD, _TAG_WD, _TAG_WISHART = range(1, 9)

MIN_AUTHORITATIVE_TRIALS = 10_000


def _stream(master_seed: int, chunk: int, tag: int) -> np.random.Generator:
    """Counter-based substream for one (block, source) pair."""
    seq = np.random.SeedSequence((int(master_seed), int(chunk), int(tag)))
    return np.random.Generator(np.random.Philox(seq))


def _chunk_sizes(n_trials: int):
    full, rem = divmod(int(n_trials), CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def benchmark_instance():
    """Built-in small validation instance: (realization, ris_state).

    Synthetic gains keep the cascaded path dominant, so the quartic trace
    identities sit well above their estimator noise at 1e5-1e6 trials;
    geometry sampled from a config cannot guarantee that conditioning.
    """
    from .scenario import NetworkRealization, Scenario, ris_correlation

    sc = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=0.05, rho_u=5.0,
                  sigma2=1e-11, sigma2_bar=1e-11, a_max=4.0)
    R, R2 = ris_correlation(sc.geometry)
    realization = NetworkRealization(
        scenario=sc,
        ap_positions=np.zeros((sc.M, 2)),
        user_positions=np.zeros((sc.K, 2)),
        beta=5e-4 * np.array([[2e-8, 1.2e-8], [0.8e-8, 2.5e-8]]),
        alpha=np.array([3e-6, 2e-6]),
        alpha_bar=np.array([4e-4, 3e-4]) / sc.element_area,
        R=R, R2=R2,
    )
    state = RisState(phases=np.zeros(sc.N), a=4.0)
    return realization, state


# ---------------------------------------------------------------------------
# vectorized trial blocks

@dataclass
class _Block:
    q: np.ndarray        # (B, M, K) aggregated channels
    y: np.ndarray        # (B, M, K) pilot projections
    p_data: np.ndarray   # (B, M) RIS noise seen per AP in the data phase
    w_data: np.ndarray   # (B, M) AP noise in the data phase
    z: np.ndarray        # (B, K, N)
    v_data: np.ndarray   # (B, N)
    pbar: np.ndarray     # (B, M, n_pilots) projected pilot-phase RIS noise


def _sample_block(realization: NetworkRealization, ris_state: RisState,
                  master_seed: int, chunk: int, size: int) -> _Block:
    sc = realization.scenario
    M, K, N = sc.M, sc.K, sc.N
    a = ris_state.a
    area = sc.element_area
    F = realization.R_factor
    phasor = ris_state.phasor

    def draw(tag: int, shape, scale) -> np.ndarray:
        # scaled in place: the bytes of scale * complex_normal(..), without the temporary
        x = complex_normal(_stream(master_seed, chunk, tag), shape)
        x *= scale
        return x

    # h, turned in place into conj(h) * phasor: every cascaded term is a * hp @ x.
    hp = correlated_normal(_stream(master_seed, chunk, _TAG_H), (size, M, N), F,
                           np.sqrt(realization.alpha * area)[:, None])
    np.conj(hp, out=hp)
    hp *= phasor
    z = correlated_normal(_stream(master_seed, chunk, _TAG_Z), (size, K, N), F,
                          np.sqrt(realization.alpha_bar * area)[:, None])
    q = draw(_TAG_G, (size, M, K), np.sqrt(realization.beta)) + a * (hp @ z.transpose(0, 2, 1))

    n_pilots = min(K, sc.tau_p)
    v_p = draw(_TAG_VP, (size, n_pilots, N), np.sqrt(sc.sigma2_bar))
    pbar = a * (hp @ v_p.transpose(0, 2, 1))
    v_d = draw(_TAG_VD, (size, N), np.sqrt(sc.sigma2_bar))
    # einsum, not matmul: a (B, M, N) @ (B, N, 1) batch of matrix-vector products is slower
    p_data = a * np.einsum("tmn,tn->tm", hp, v_d)
    # hp and v_p are the largest arrays the block does not keep: free them before forming y.
    del hp, v_p

    w_p = draw(_TAG_WP, (size, M, n_pilots), np.sqrt(sc.sigma2))
    rt = np.sqrt(sc.rho * sc.tau_p)
    y = q @ sc.coset_mask.T.astype(float) + (pbar + w_p)[:, :, sc.pilot_of] / rt
    w_data = draw(_TAG_WD, (size, M), np.sqrt(sc.sigma2))
    return _Block(q=q, y=y, p_data=p_data, w_data=w_data, z=z, v_data=v_d, pbar=pbar)


def _wishart_sum(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_t (x_t^H A x_t) x_t x_t^H over the trial rows of x, as two BLAS products."""
    xa = np.sum((np.conj(x) @ A) * x, axis=1)
    return (xa[:, None] * x).T @ np.conj(x)


class _Mean:
    """Streaming mean with standard error over the trial axis, reduced in fixed block order.

    `add` takes a (B, ...) block of per-trial values; the mean and standard
    error keep the trailing shape, e.g. one (M, K) array for all links.
    """

    __slots__ = ("n", "total", "total_sq")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.total_sq = 0.0

    def add(self, values: np.ndarray):
        self.n += values.shape[0]
        self.total = self.total + values.sum(axis=0)
        self.total_sq = self.total_sq + np.sum(np.abs(values) ** 2, axis=0)

    @property
    def mean(self):
        return self.total / self.n

    @property
    def stderr(self):
        var = np.maximum(self.total_sq / self.n - np.abs(self.mean) ** 2, 0.0)
        return np.sqrt(var / self.n)


# ---------------------------------------------------------------------------
# exact references for the MRC noise groups

def exact_ap_noise_power(stats, est_stats: EstimationStats, k: int) -> float:
    """E{|sum_m qhat*_{m,k} w_m|^2} = sigma2 sum_m gamma_{m,k}.

    Exact at any estimation quality; the closed-form noise floor replaces
    gamma by kappa, which is tight only for near-perfect estimation.
    """
    return stats.realization.scenario.sigma2 * float(est_stats.gamma[:, k].sum())


def exact_active_noise_power(stats, est_stats: EstimationStats, k: int) -> float:
    """Exact E{|sum_m qhat*_{m,k} p_m|^2}.

    Includes the estimate shrinkage, the pilot-noise quartic, and the
    cross-AP coupling through the shared RIS noise vector, all of which the
    closed-form sum_m alpha_{m,k} simplification drops.
    """
    rl = stats.realization
    sc = rl.scenario
    a2 = stats.ris_state.a ** 2
    area = sc.element_area
    c = est_stats.c[:, k]
    coset = np.flatnonzero(sc.coset_mask[k])
    rho_tau = sc.rho * sc.tau_p
    s2b = sc.sigma2_bar

    tr_rm = rl.alpha * area * sc.N                      # (M,) tr(R_m)
    tr_r2 = float(np.sum(rl.R * rl.R))                  # tr(R^2)
    tr_rm2 = rl.alpha ** 2 * area ** 2 * tr_r2          # (M,) tr(R_m^2)
    diag = (stats.alpha_an[:, coset].sum(axis=1)
            + (s2b ** 2 * a2 ** 2 * (tr_rm ** 2 + tr_rm2)
               + sc.sigma2 * s2b * a2 * tr_rm) / rho_tau)
    total = float(np.sum(c ** 2 * diag))

    cross = s2b * a2 ** 2 * (area ** 3 * stats.t3 * float(np.sum(rl.alpha_bar[coset]))
                             + s2b * area ** 2 * tr_r2 / rho_tau)
    w = np.outer(c * rl.alpha, c * rl.alpha)
    total += cross * float(np.sum(w) - np.trace(w))
    return total


# ---------------------------------------------------------------------------
# identity suite

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    empirical: float
    analytic: float
    rel_err: float       # |corr| itself for the zero-reference rows
    stderr_rel: float
    n_trials: int
    tol: float

    @property
    def status(self) -> str:
        """CI-aware verdict: tolerances must scale with the estimator noise.

        "underpowered" marks rows whose standard error exceeds the tolerance
        (no verdict possible at this trial count); "FAIL" requires the miss
        to clear a three-standard-error allowance so sampling noise cannot
        flip a verdict.
        """
        if self.stderr_rel > self.tol:
            return "underpowered"
        if self.rel_err <= self.tol + 3.0 * self.stderr_rel:
            return "pass"
        return "FAIL"

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"

    def csv_row(self):
        return [self.name, repr(self.empirical), repr(self.analytic), repr(self.rel_err),
                repr(self.stderr_rel), str(self.n_trials), repr(self.tol), self.status]


CSV_HEADER = ["identity", "empirical", "analytic", "rel_err", "stderr_rel", "n_trials", "tol", "status"]

# Relative tolerance per identity family.
TOLERANCES = {
    "wishart": 0.05,
    "kappa": 0.02,
    "fourth": 0.05,
    "cross": 0.05,
    "cyclic": 0.05,
    "uncorrelated": 0.01,
    "alpha_an": 0.05,
    "aris_power": 0.02,
    "gamma": 0.02,
    "err_var": 0.02,
    "nmse": 0.02,
    "orthogonality": 0.01,
    "corollary1": 0.05,
    "sinr": 0.05,
}


def _family(name: str) -> str:
    base = name.split("[")[0]
    return "sinr" if base.startswith("sinr") else base


def verify_moment_identities(realization: NetworkRealization, ris_state: RisState,
                             n_trials: int, master_seed: int) -> list[IdentityCheck]:
    """Run every closed-form-vs-empirical identity on one (small) instance.

    One row per identity and link: empirical value, closed form, relative
    error, and the standard-error scale of the estimator so a failure can be
    told apart from an under-sampled run. The SINR rows are for user 0.
    """
    sc = realization.scenario
    M, K, N = sc.M, sc.K, sc.N
    stats = compute_stats(realization, ris_state)
    est = compute_estimation_stats(stats)

    # Wishart identity on R_m(0) with a fixed deterministic Hermitian A.
    R0 = realization.R_m(0)
    a_rng = _stream(master_seed, 0, _TAG_WISHART)
    A = complex_normal(a_rng, (N, N))
    A = A + np.conj(A).T
    amp0 = np.sqrt(realization.alpha[0] * sc.element_area)
    W_emp = np.zeros((N, N), dtype=complex)

    # One accumulator per entry: (M, K) for the per-link families, (K,) for
    # user 0's |T_j|^2, scalar otherwise.
    acc: defaultdict[str, _Mean] = defaultdict(_Mean)
    c0 = est.c[:, 0]

    def accumulate(blk: _Block):
        q = blk.q
        acc["kappa"].add(np.abs(q) ** 2)
        acc["fourth"].add(np.abs(q) ** 4)
        if M > 1 and K > 1:
            acc["cross[mk|m'k']"].add(np.abs(q[:, 0, 0] * np.conj(q[:, 1, 1])) ** 2)
            acc["cyclic"].add(np.conj(q[:, 0, 0]) * q[:, 0, 1] * np.conj(q[:, 1, 1]) * q[:, 1, 0])
        if M > 1:
            acc["cross[mk|m'k]"].add(np.abs(q[:, 0, 0] * np.conj(q[:, 1, 0])) ** 2)
            acc["uncorrelated"].add(q[:, 0, 0] * np.conj(q[:, 1, 0]))
        if K > 1:
            acc["cross[mk|mk']"].add(np.abs(q[:, 0, 0] * np.conj(q[:, 0, 1])) ** 2)
        acc["alpha_an"].add(np.abs(np.conj(blk.pbar[:, 0, sc.pilot_of[0]]) * q[:, 0, 0]) ** 2)
        acc["aris_power"].add(ris_state.a ** 2 * (sc.rho_u * np.sum(np.abs(blk.z) ** 2, axis=(1, 2))
                                                  + np.sum(np.abs(blk.v_data) ** 2, axis=1)))

        qhat = est.c[None] * blk.y
        err = q - qhat
        acc["gamma"].add(np.abs(qhat) ** 2)
        acc["err_var"].add(np.abs(err) ** 2)
        acc["orthogonality"].add(np.conj(qhat[:, 0, 0]) * err[:, 0, 0])
        if M > 1:
            o0 = np.conj(qhat[:, 0, 0]) * q[:, 0, 0] - est.gamma[0, 0]
            o1 = np.conj(qhat[:, 1, 0]) * q[:, 1, 0] - est.gamma[1, 0]
            acc["corollary1"].add(o0 * np.conj(o1))

        # MRC groups of user 0: T_j = qhat_0^H q_j, and the two noise projections.
        qh = np.conj(c0[None, :] * blk.y[:, :, 0])   # (B, M)
        T = np.einsum("tm,tmj->tj", qh, q)           # (B, K)
        acc["T_0"].add(T[:, 0])
        acc["|T_j|^2"].add(np.abs(T) ** 2)
        acc["sinr_an_exact"].add(np.abs(np.einsum("tm,tm->t", qh, blk.p_data)) ** 2)
        acc["sinr_no_exact"].add(np.abs(np.einsum("tm,tm->t", qh, blk.w_data)) ** 2)

    for chunk, size in enumerate(_chunk_sizes(n_trials)):
        # The block dies with the call, so only one is alive while the next is drawn,
        # and none while the Wishart draws are.
        accumulate(_sample_block(realization, ris_state, master_seed, chunk, size))
        x = correlated_normal(_stream(master_seed, chunk + 1, _TAG_WISHART), (size, N),
                              realization.R_factor, amp0)
        W_emp += _wishart_sum(x, A)

    W_emp /= n_trials
    W_ana = R0 @ A @ R0 + np.trace(A @ R0) * R0
    rows = [IdentityCheck(
        name="wishart", empirical=float(np.linalg.norm(W_emp)), analytic=float(np.linalg.norm(W_ana)),
        rel_err=float(np.linalg.norm(W_emp - W_ana) / np.linalg.norm(W_ana)),
        stderr_rel=0.0, n_trials=int(n_trials), tol=TOLERANCES["wishart"])]

    mean = {key: a.mean for key, a in acc.items()}
    se = {key: a.stderr for key, a in acc.items()}

    def row(name: str, analytic: float, empirical=None, stderr=None):
        """Append one row; without an empirical value it reads the entry `name`."""
        if empirical is None:
            empirical, stderr = mean[name], se[name]
        empirical = float(np.real(empirical))
        if analytic == 0.0:
            rel, stderr_rel = abs(empirical), stderr
        else:
            rel = abs(empirical - analytic) / abs(analytic)
            stderr_rel = stderr / abs(analytic)
        rows.append(IdentityCheck(name=name, empirical=empirical, analytic=float(analytic),
                                  rel_err=float(rel), stderr_rel=float(stderr_rel),
                                  n_trials=int(n_trials), tol=TOLERANCES[_family(name)]))

    for m in range(M):
        for k in range(K):
            row(f"kappa[{m},{k}]", stats.kappa[m, k], mean["kappa"][m, k], se["kappa"][m, k])
            row(f"fourth[{m},{k}]", fourth_moment(stats, m, k), mean["fourth"][m, k], se["fourth"][m, k])
    if M > 1 and K > 1:
        row("cross[mk|m'k']", cross_moments(stats, 0, 1, 0, 1))
        row("cyclic", cross_moment_cyclic(stats, 0, 1, 0, 1))
    if M > 1:
        row("cross[mk|m'k]", cross_moments(stats, 0, 1, 0, 0))
        scale = float(np.sqrt(stats.kappa[0, 0] * stats.kappa[1, 0]))
        row("uncorrelated", 0.0, abs(mean["uncorrelated"]) / scale, se["uncorrelated"] / scale)
    if K > 1:
        row("cross[mk|mk']", cross_moments(stats, 0, 0, 0, 1))
    row("alpha_an", stats.alpha_an[0, 0])
    row("aris_power", aris_output_power(realization, ris_state.a))

    for m in range(M):
        for k in range(K):
            row(f"gamma[{m},{k}]", est.gamma[m, k], mean["gamma"][m, k], se["gamma"][m, k])
            row(f"err_var[{m},{k}]", stats.kappa[m, k] - est.gamma[m, k], mean["err_var"][m, k],
                se["err_var"][m, k])
            row(f"nmse[{m},{k}]", est.nmse[m, k], mean["err_var"][m, k] / mean["kappa"][m, k], 0.0)
    scale = float(np.sqrt(est.gamma[0, 0] * (stats.kappa[0, 0] - est.gamma[0, 0])))
    row("orthogonality", 0.0, abs(mean["orthogonality"]) / scale, se["orthogonality"] / scale)
    if M > 1:
        coset = np.flatnonzero(sc.coset_mask[0])
        row("corollary1", (est.c[0, 0] * est.c[1, 0] * stats.t2
                           * stats.xi_scale[0, 0] * float(stats.xi_scale[1, coset].sum())))

    # SINR groups of user 0: ds = rho_u |E T_0|^2, bu = rho_u (E|T_0|^2 - |E T_0|^2),
    # ui_j = rho_u E|T_j|^2 for j != 0, an = E|qhat_0^H p|^2, no = E|qhat_0^H w|^2.
    rho_u = sc.rho_u
    mean_T = complex(mean["T_0"])
    ds = rho_u * abs(mean_T) ** 2
    bu = rho_u * (float(mean["|T_j|^2"][0]) - abs(mean_T) ** 2)
    ui, ui_se = rho_u * mean["|T_j|^2"], rho_u * se["|T_j|^2"]
    ui[0] = 0.0
    an, no = float(mean["sinr_an_exact"]), float(mean["sinr_no_exact"])
    ds_ana, sinr_ana, bu_ana, ui_ana, _, _ = sinr_user(stats, est, 0)
    row("sinr_ds", ds_ana, ds, 2.0 * rho_u * abs(mean_T) * float(se["T_0"]))
    row("sinr_bu", bu_ana, bu, rho_u * float(se["|T_j|^2"][0]))
    for kp in range(1, K):
        row(f"sinr_ui[{kp}]", ui_ana[kp], ui[kp], ui_se[kp])
    row("sinr_an_exact", exact_active_noise_power(stats, est, 0))
    row("sinr_no_exact", exact_ap_noise_power(stats, est, 0))
    row("sinr_total", sinr_ana, ds / (bu + float(ui.sum()) + an + no), 0.0)
    return rows
