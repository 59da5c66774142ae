"""Monte Carlo physical-layer oracle: empirical ground truth for every closed-form quantity."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .channel import SecondOrderStats, _fill_correlated, _fill_normal, complex_normal, compute_stats
from .perf import sinr_user
from .ris import RisState, aris_output_power
from .scenario import NetworkRealization, Scenario

# Trials per vectorized block. Fixed constant: block boundaries define the
# random stream, so results never depend on how blocks are scheduled.
CHUNK_TRIALS = 4096

# Substream tags, one per physical randomness source.
_TAG_H, _TAG_Z, _TAG_G, _TAG_VP, _TAG_WP, _TAG_VD, _TAG_WD, _TAG_WISHART = range(1, 9)

MIN_AUTHORITATIVE_TRIALS = 10_000

# Trial groups of the delete-a-group jackknife (Efron 1982) behind every row's
# standard error. With G = min(JACKKNIFE_GROUPS, n), group g holds trials
# [g n // G, (g + 1) n // G): the groups depend on n alone, not on the blocks.
JACKKNIFE_GROUPS = 32


def _stream(master_seed: int, chunk: int, tag: int) -> np.random.Generator:
    """SFC64 substream for one (block, source) pair, seeded by its own SeedSequence."""
    seq = np.random.SeedSequence((int(master_seed), int(chunk), int(tag)))
    return np.random.Generator(np.random.SFC64(seq))


def _chunk_sizes(n_trials: int):
    full, rem = divmod(int(n_trials), CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def benchmark_instance():
    """Built-in small validation instance: (realization, ris_state).

    Synthetic gains keep the cascaded path dominant, so the quartic trace
    identities sit well above their estimator noise at 1e5-1e6 trials;
    geometry sampled from a config cannot guarantee that conditioning.
    """
    sc = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=0.05, rho_u=5.0,
                  sigma2=1e-11, sigma2_bar=1e-11, a_max=4.0)
    realization = NetworkRealization(
        scenario=sc,
        ap_positions=np.zeros((sc.M, 2)),
        user_positions=np.zeros((sc.K, 2)),
        beta=5e-4 * np.array([[2e-8, 1.2e-8], [0.8e-8, 2.5e-8]]),
        alpha=np.array([3e-6, 2e-6]),
        alpha_bar=np.array([4e-4, 3e-4]) / sc.element_area,
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
    aris: np.ndarray     # (B,) power the surface reflects in the data phase
    pbar: np.ndarray     # (B, M, n_pilots) projected pilot-phase RIS noise
    wishart: np.ndarray  # (B, N) draws of the Wishart identity, from block chunk + 1's stream


def _run_lanes(pool: ThreadPoolExecutor, *lanes) -> None:
    """Run each lane, a list of (function, args) calls, as one task on `pool`,
    and return once every lane has finished; a lane's exception is raised here."""
    def run(lane):
        for fn, *args in lane:
            fn(*args)

    futures = [pool.submit(run, lane) for lane in lanes]
    wait(futures)
    for future in futures:
        future.result()


def _sample_block(realization: NetworkRealization, ris_state: RisState,
                  master_seed: int, chunk: int, size: int, pool: ThreadPoolExecutor) -> _Block:
    """One block of trials, its independent substreams drawn on the two lanes of `pool`.

    Every array drawn or contracted is allocated here and filled by one lane
    task: a draw from its own (chunk, tag) stream, or a contraction over one
    half of the block's trials, which gives each trial the bytes of a
    contraction over the whole block. The bytes therefore never depend on
    how the lanes are scheduled. The joins keep the block's peak memory
    below a serial draw's: z is drawn only after v_p is reduced to pbar and
    freed.
    """
    sc = realization.scenario
    M, K, N = sc.M, sc.K, sc.N
    a = ris_state.a
    area = sc.element_area
    F = realization.R_factor
    n_pilots = min(K, sc.tau_p)

    def normal(tag: int, out: np.ndarray, scale) -> None:
        # scaled in place: the bytes of scale * complex_normal(..), without the temporary
        _fill_normal(_stream(master_seed, chunk, tag), out)
        out *= scale

    def correlated(tag: int, out: np.ndarray, amplitude) -> None:
        _fill_correlated(_stream(master_seed, chunk, tag), out, F, amplitude)

    hp = np.empty((size, M, N), dtype=complex)
    v_p = np.empty((size, n_pilots, N), dtype=complex)
    g = np.empty((size, M, K), dtype=complex)
    _run_lanes(pool,
               [(correlated, _TAG_H, hp, np.sqrt(realization.alpha * area)[:, None])],
               [(normal, _TAG_VP, v_p, np.sqrt(sc.sigma2_bar)),
                (normal, _TAG_G, g, np.sqrt(realization.beta))])
    halves = [slice(0, size // 2), slice(size // 2, size)]
    phasor = ris_state.phasor
    pbar = np.empty((size, M, n_pilots), dtype=complex)

    def project_pilots(t: slice) -> None:
        # h, turned in place into conj(h) * phasor: every cascaded term is a * hp @ x.
        h, out = hp[t], pbar[t]
        np.conj(h, out=h)
        h *= phasor
        np.matmul(h, v_p[t].transpose(0, 2, 1), out=out)
        out *= a

    _run_lanes(pool, *([(project_pilots, t)] for t in halves))
    del v_p

    z = np.empty((size, K, N), dtype=complex)
    v_d = np.empty((size, N), dtype=complex)
    w_p = np.empty((size, M, n_pilots), dtype=complex)
    w_data = np.empty((size, M), dtype=complex)
    wishart = np.empty((size, N), dtype=complex)
    _run_lanes(pool,
               [(correlated, _TAG_Z, z, np.sqrt(realization.alpha_bar * area)[:, None])],
               [(normal, _TAG_VD, v_d, np.sqrt(sc.sigma2_bar)),
                (normal, _TAG_WP, w_p, np.sqrt(sc.sigma2)),
                (normal, _TAG_WD, w_data, np.sqrt(sc.sigma2)),
                (_fill_correlated, _stream(master_seed, chunk + 1, _TAG_WISHART), wishart, F,
                 np.sqrt(realization.alpha[0] * area))])
    p_data = np.empty((size, M), dtype=complex)
    q = np.empty((size, M, K), dtype=complex)

    def project_data(t: slice) -> None:
        pd, out = p_data[t], q[t]
        # einsum, not matmul: a (B, M, N) @ (B, N, 1) batch of matrix-vector products is slower
        np.einsum("tmn,tn->tm", hp[t], v_d[t], out=pd)
        pd *= a
        # q = g + a * (hp @ z^T), formed in the product's buffer with the operands in that order
        np.matmul(hp[t], z[t].transpose(0, 2, 1), out=out)
        np.multiply(a, out, out=out)
        np.add(g[t], out, out=out)

    _run_lanes(pool, *([(project_data, t)] for t in halves))
    del hp
    aris = a ** 2 * (sc.rho_u * np.sum(np.abs(z) ** 2, axis=(1, 2)) + np.sum(np.abs(v_d) ** 2, axis=1))

    # y_k = (pbar + w_p)_p / sqrt(rho tau_p) + the q of pilot p = pilot_of[k]'s users in ascending
    # order, summed in g's spent buffer (a fresh (B, M, K) array left the peak RSS 30 MB higher in
    # some heap layouts). Round robin: users start + p, start in range(0, K, n_pilots), send pilot p.
    noise = np.add(pbar, w_p, out=w_p)
    noise /= np.sqrt(sc.rho * sc.tau_p)
    y, sums = g, g[:, :, :n_pilots]
    np.copyto(sums, q[:, :, :n_pilots])
    for start in range(n_pilots, K, n_pilots):
        sums[:, :, :K - start] += q[:, :, start:start + n_pilots]
    sums += noise
    y[:, :, n_pilots:] = sums[:, :, sc.pilot_of[n_pilots:]]
    return _Block(q=q, y=y, p_data=p_data, w_data=w_data, aris=aris, pbar=pbar, wishart=wishart)


def _wishart_sum(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_t (x_t^H A x_t) x_t x_t^H over the trial rows of x, as two BLAS products."""
    xa = np.sum((np.conj(x) @ A) * x, axis=1)
    return (xa[:, None] * x).T @ np.conj(x)


# ---------------------------------------------------------------------------
# exact references for the MRC noise groups

def exact_ap_noise_power(stats: SecondOrderStats, k: int) -> float:
    """E{|sum_m qhat*_{m,k} w_m|^2} = sigma2 sum_m gamma_{m,k}.

    Exact at any estimation quality; the closed-form noise floor replaces
    gamma by kappa, which is tight only for near-perfect estimation.
    """
    return stats.realization.scenario.sigma2 * float(stats.gamma[:, k].sum())


def exact_active_noise_power(stats: SecondOrderStats, k: int) -> float:
    """Exact E{|sum_m qhat*_{m,k} p_m|^2}.

    Includes the estimate shrinkage, the pilot-noise quartic, and the
    cross-AP coupling through the shared RIS noise vector, all of which the
    closed-form sum_m alpha_{m,k} simplification drops.
    """
    rl = stats.realization
    sc = rl.scenario
    a2 = stats.a ** 2
    area = sc.element_area
    c = stats.c[:, k]
    coset = np.flatnonzero(sc.coset_mask[k])
    rho_tau = sc.rho * sc.tau_p
    s2b = sc.sigma2_bar

    tr_rm = rl.tr_rm                                    # (M,) tr(R_m)
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
    error, and the jackknife standard error of the estimator so a failure can
    be told apart from an under-sampled run. The SINR rows are for user 0.
    """
    sc = realization.scenario
    M, K, N = sc.M, sc.K, sc.N
    stats = compute_stats(realization, ris_state)

    # Wishart identity on R_0 = alpha_0 d_H d_V R with a fixed deterministic Hermitian A.
    R0 = realization.alpha[0] * sc.element_area * realization.R
    # A is a fixed probe of the analytic reference, not a Monte Carlo draw: it stays on Philox.
    seq = np.random.SeedSequence((int(master_seed), 0, _TAG_WISHART))
    A = complex_normal(np.random.Generator(np.random.Philox(seq)), (N, N))
    A = A + np.conj(A).T

    # Per-group sums of every entry along a leading (G,) axis: (M, K) for the per-link
    # families, (K,) for user 0's |T_j|^2, the (N, N) Wishart matrix, scalar otherwise.
    G = min(JACKKNIFE_GROUPS, n_trials)
    bounds = [g * n_trials // G for g in range(G + 1)]
    sums: dict[str, np.ndarray] = {}

    def accumulate(blk: _Block, start: int):
        stop = start + blk.q.shape[0]
        # (group, slice of this block) for every group the block's trials fall in
        groups = [(g, slice(max(lo, start) - start, min(hi, stop) - start))
                  for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if lo < stop and hi > start]

        def add(key: str, values: np.ndarray, reduce=lambda v: v.sum(axis=0)):
            for g, trials in groups:
                part = reduce(values[trials])
                if key not in sums:
                    sums[key] = np.zeros((G,) + part.shape, dtype=part.dtype)
                sums[key][g] += part

        q = blk.q
        add("kappa", np.abs(q) ** 2)
        add("fourth", np.abs(q) ** 4)
        if M > 1 and K > 1:
            add("cross[mk|m'k']", np.abs(q[:, 0, 0] * np.conj(q[:, 1, 1])) ** 2)
            add("cyclic", np.conj(q[:, 0, 0]) * q[:, 0, 1] * np.conj(q[:, 1, 1]) * q[:, 1, 0])
        if M > 1:
            add("cross[mk|m'k]", np.abs(q[:, 0, 0] * np.conj(q[:, 1, 0])) ** 2)
            add("uncorrelated", q[:, 0, 0] * np.conj(q[:, 1, 0]))
        if K > 1:
            add("cross[mk|mk']", np.abs(q[:, 0, 0] * np.conj(q[:, 0, 1])) ** 2)
        add("alpha_an", np.abs(np.conj(blk.pbar[:, 0, sc.pilot_of[0]]) * q[:, 0, 0]) ** 2)
        add("aris_power", blk.aris)

        qhat = stats.c[None] * blk.y
        err = q - qhat
        add("gamma", np.abs(qhat) ** 2)
        add("err_var", np.abs(err) ** 2)
        add("orthogonality", np.conj(qhat[:, 0, 0]) * err[:, 0, 0])
        if M > 1:
            o0 = np.conj(qhat[:, 0, 0]) * q[:, 0, 0] - stats.gamma[0, 0]
            o1 = np.conj(qhat[:, 1, 0]) * q[:, 1, 0] - stats.gamma[1, 0]
            add("corollary1", o0 * np.conj(o1))

        # MRC groups of user 0: T_j = qhat_0^H q_j, and the two noise projections.
        qh = np.conj(stats.c[None, :, 0] * blk.y[:, :, 0])   # (B, M)
        T = np.einsum("tm,tmj->tj", qh, q)                  # (B, K)
        add("T_0", T[:, 0])
        add("|T_j|^2", np.abs(T) ** 2)
        add("sinr_an_exact", np.abs(np.einsum("tm,tm->t", qh, blk.p_data)) ** 2)
        add("sinr_no_exact", np.abs(np.einsum("tm,tm->t", qh, blk.w_data)) ** 2)
        add("wishart", blk.wishart, lambda x: _wishart_sum(x, A))

    # One pool per call: its two threads end with the call, also when a draw raises.
    with ThreadPoolExecutor(max_workers=2) as pool:
        for chunk, size in enumerate(_chunk_sizes(n_trials)):
            # The block dies with the call, so only one is alive while the next is drawn.
            accumulate(_sample_block(realization, ris_state, master_seed, chunk, size, pool),
                       chunk * CHUNK_TRIALS)

    # The entry means, and each entry's (G, ...) leave-one-group-out means.
    n_out = n_trials - np.diff(bounds)
    total = {key: s.sum(axis=0) for key, s in sums.items()}
    mean = {key: t / n_trials for key, t in total.items()}
    loo = ({key: (total[key] - s) / n_out.reshape((-1,) + (1,) * (s.ndim - 1))
            for key, s in sums.items()} if G > 1 else None)
    rows: list[IdentityCheck] = []

    def row(name: str, analytic, f=None):
        """Append the row of f (by default the entry `name`), a function of the entry
        means that applies alike to the stacked leave-one-out means."""
        f = f or itemgetter(name)
        value = f(mean)
        if loo is None:  # fewer than two groups: no error bar
            stderr = float("inf")
        else:  # delete-a-group jackknife; an array gets the norm of its entrywise errors
            theta = f(loo)
            stderr = float(np.sqrt((G - 1) / G * np.sum(np.abs(theta - theta.mean(axis=0)) ** 2)))
        if np.ndim(value):  # the Wishart matrix, compared in the Frobenius norm
            scale = np.linalg.norm(analytic)
            empirical, rel = np.linalg.norm(value), np.linalg.norm(value - analytic) / scale
            analytic = scale
        else:  # a zero reference gives |empirical| and the absolute stderr
            scale = abs(analytic) or 1.0
            empirical = float(np.real(value))
            rel = abs(empirical - analytic) / scale
        rows.append(IdentityCheck(name=name, empirical=float(empirical), analytic=float(analytic),
                                  rel_err=float(rel), stderr_rel=float(stderr / scale),
                                  n_trials=int(n_trials), tol=TOLERANCES[_family(name)]))

    # row evaluates each statistic at once, so a lambda reads the current `at`, `unit` or `kp`
    row("wishart", R0 @ A @ R0 + np.trace(A @ R0) * R0)
    # tr(Xi_{m,k} Xi_{m',k'}) = s_{m,k} s_{m',k'} t2
    s, t2 = stats.xi_scale, stats.t2
    for m in range(M):
        for k in range(K):
            at = (..., m, k)
            row(f"kappa[{m},{k}]", stats.kappa[m, k], lambda x: x["kappa"][at])
            row(f"fourth[{m},{k}]", 2.0 * stats.kappa[m, k] ** 2 + 2.0 * (s[m, k] * s[m, k] * t2),
                lambda x: x["fourth"][at])
    if M > 1 and K > 1:
        row("cross[mk|m'k']", stats.kappa[0, 0] * stats.kappa[1, 1])
        row("cyclic", s[0, 1] * s[1, 0] * t2)
    if M > 1:
        row("cross[mk|m'k]", stats.kappa[0, 0] * stats.kappa[1, 0] + s[0, 0] * s[1, 0] * t2)
        unit = float(np.sqrt(stats.kappa[0, 0] * stats.kappa[1, 0]))
        row("uncorrelated", 0.0, lambda x: np.abs(x["uncorrelated"]) / unit)
    if K > 1:
        row("cross[mk|mk']", stats.kappa[0, 0] * stats.kappa[0, 1] + s[0, 0] * s[0, 1] * t2)
    row("alpha_an", stats.alpha_an[0, 0])
    row("aris_power", aris_output_power(realization, ris_state.a))

    for m in range(M):
        for k in range(K):
            at = (..., m, k)
            row(f"gamma[{m},{k}]", stats.gamma[m, k], lambda x: x["gamma"][at])
            row(f"err_var[{m},{k}]", stats.kappa[m, k] - stats.gamma[m, k], lambda x: x["err_var"][at])
            row(f"nmse[{m},{k}]", stats.nmse[m, k], lambda x: x["err_var"][at] / x["kappa"][at])
    # 0 under perfect estimation (no error); then, as in `row`, the absolute value
    unit = float(np.sqrt(stats.gamma[0, 0] * (stats.kappa[0, 0] - stats.gamma[0, 0]))) or 1.0
    row("orthogonality", 0.0, lambda x: np.abs(x["orthogonality"]) / unit)
    if M > 1:
        coset = np.flatnonzero(sc.coset_mask[0])
        row("corollary1", stats.c[0, 0] * stats.c[1, 0] * t2 * s[0, 0] * float(s[1, coset].sum()))

    # SINR groups of user 0: ds = rho_u |E T_0|^2, bu = rho_u (E|T_0|^2 - |E T_0|^2),
    # ui_j = rho_u E|T_j|^2 for j != 0, an = E|qhat_0^H p|^2, no = E|qhat_0^H w|^2,
    # and the SINR, 0 where ds is 0, from the entry means x.
    def sinr_groups(x):
        ds = sc.rho_u * np.abs(x["T_0"]) ** 2
        bu = sc.rho_u * (x["|T_j|^2"][..., 0] - np.abs(x["T_0"]) ** 2)
        ui = sc.rho_u * x["|T_j|^2"]
        ui[..., 0] = 0.0
        rest = bu + ui.sum(axis=-1) + x["sinr_an_exact"] + x["sinr_no_exact"]
        return ds, bu, ui, np.divide(ds, rest, out=np.zeros_like(ds), where=ds > 0)

    ds_ana, sinr_ana, bu_ana, ui_ana, _, _ = sinr_user(stats, 0)
    row("sinr_ds", ds_ana, lambda x: sinr_groups(x)[0])
    row("sinr_bu", bu_ana, lambda x: sinr_groups(x)[1])
    for kp in range(1, K):
        row(f"sinr_ui[{kp}]", ui_ana[kp], lambda x: sinr_groups(x)[2][..., kp])
    row("sinr_an_exact", exact_active_noise_power(stats, 0))
    row("sinr_no_exact", exact_ap_noise_power(stats, 0))
    row("sinr_total", sinr_ana, lambda x: sinr_groups(x)[3])
    return rows
