"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N (...): PASS|FAIL` line. The
Monte Carlo criteria run at their full trial counts, so this module carries
most of the suite's runtime (a few minutes overall).
"""

import time
from dataclasses import replace

import numpy as np

from ariscf import oracle
from ariscf.channel import compute_stats
from ariscf.perf import evaluate_phases, sinr_all
from ariscf.ris import RisState, amplitude_gain, aris_power_consumption
from ariscf.sac.agent import SacConfig, train
from ariscf.sac.env import RisEnv
from ariscf.scenario import Scenario, sample_layout
from ariscf.cli import main as cli_main

from _instances import cascade_instance, empirical_sinr
from test_sac import FD_TOL, fd_grad, smooth_agent_and_batch


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[acceptance] criterion {num} ({label}): {status}{suffix}")
    return ok


def test_criterion_1_moment_identities():
    """Wishart, second/fourth moments, all cross cases, active-noise moment,
    and Corollary-1 cross-covariance within 5% of Monte Carlo at 1e6 trials,
    inside the five-minute budget."""
    started = time.monotonic()
    failures = []
    # cascade-dominated instance: every Xi-dependent identity is detectable
    rl, state = oracle.benchmark_instance()
    rows_a = oracle.verify_moment_identities(rl, state, 1_000_000, master_seed=101)
    # sampled-geometry instance at N = 8, singleton cosets, strong pilots
    sc_b = Scenario(M=3, K=3, N_H=2, N_V=4, tau_p=3, radius=100.0, rho=10.0,
                    rho_u=0.1, a_max=1e6)
    rl_b = sample_layout(sc_b, 1)
    a_b = amplitude_gain(sc_b, rl_b.alpha_bar)
    rows_b = oracle.verify_moment_identities(rl_b, RisState(phases=np.zeros(8), a=a_b),
                                             1_000_000, master_seed=102)
    for tag, rows in (("cascade", rows_a), ("layout", rows_b)):
        failures += [f"{tag}:{r.name}={r.rel_err:.3f}[{r.status}]" for r in rows
                     if r.status != "pass" or r.rel_err > 0.05]
    elapsed = time.monotonic() - started
    if elapsed > 300:
        failures.append(f"runtime={elapsed:.0f}s>300s")
    ok = report(1, "moment identities vs Monte Carlo", not failures, ";".join(failures[:4]))
    assert ok, failures


def test_criterion_2_lmmse_closed_forms():
    """Estimate variance, error variance, and NMSE within 2% at 1e5 trials;
    estimate-error correlation below 0.01."""
    sc, rl, phases = cascade_instance(tau_p=1)
    rows = oracle.verify_moment_identities(rl, RisState(phases=phases, a=2.0),
                                           100_000, master_seed=7)
    families = ("gamma", "err_var", "nmse")
    checked = [r for r in rows if r.name.split("[")[0] in families]
    orth = [r for r in rows if r.name == "orthogonality"]
    assert len(checked) == 12 and len(orth) == 1
    bad = [f"{r.name}={r.rel_err:.4f}" for r in checked if r.rel_err > 0.02]
    bad += [f"orth={r.rel_err:.4f}" for r in orth if r.rel_err > 0.01]
    ok = report(2, "LMMSE closed forms", not bad, ";".join(bad))
    assert ok, bad


def test_criterion_3_sinr_oracle_equivalence():
    """Closed-form SINR within 5% of the Monte Carlo oracle at 1e6 trials on
    (i) orthogonal pilots, (ii) shared pilots, (iii) the passive-off state,
    inside the fifteen-minute budget."""
    started = time.monotonic()
    configs = [
        ("no-contamination", cascade_instance(tau_p=2), 2.0),
        ("shared-pilots", cascade_instance(tau_p=1), 2.0),
        ("a=0", cascade_instance(tau_p=1, a=0.0), 0.0),
    ]
    details, ok = [], True
    for label, (sc, rl, phases), a in configs:
        state = RisState(phases=phases, a=a)
        stats = compute_stats(rl, state)
        closed = sinr_all(stats).sinr[0]
        emp = empirical_sinr(rl, state, 1_000_000, master_seed=31).sinr
        rel = abs(emp - closed) / closed
        details.append(f"{label}:{rel:.4f}")
        ok &= rel <= 0.05
    elapsed = time.monotonic() - started
    ok &= elapsed <= 900
    ok = report(3, "SINR oracle equivalence", ok, " ".join(details + [f"{elapsed:.0f}s"]))
    assert ok, details


def test_criterion_4_pilot_contamination_floor():
    """NMSE falls with pilot power, then plateaus at 1 - kappa/sum(coset kappa)."""
    sc, rl, phases = cascade_instance(tau_p=1)  # K=2 sharing one pilot
    state = RisState(phases=phases, a=2.0)
    nmse = []
    for rho in np.logspace(-6, 6, 25):
        sc2 = Scenario(M=2, K=2, N_H=2, N_V=2, tau_p=1, rho=float(rho), rho_u=sc.rho_u,
                       sigma2=sc.sigma2, sigma2_bar=sc.sigma2_bar, a_max=sc.a_max)
        stats = compute_stats(replace(rl, scenario=sc2), state)
        nmse.append(stats.nmse[0, 0])
    floor = 1.0 - stats.kappa[0, 0] / stats.kappa[0, :].sum()
    decreasing = all(a > b for a, b in zip(nmse, nmse[1:]))
    plateaued = abs(nmse[-1] - nmse[-2]) < 1e-3 * nmse[-1]
    floor_ok = abs(nmse[-1] - floor) <= 0.02 * floor
    ok = report(4, "pilot-contamination floor", decreasing and plateaued and floor_ok,
                f"floor={floor:.4f} plateau={nmse[-1]:.4f}")
    assert ok


def test_criterion_5_equal_phase_nmse_optimality():
    """Equal phases give NMSE no worse than 100 random phase vectors on each
    of 5 random realizations, for every link; zero violations allowed."""
    sc = Scenario(M=3, K=4, N_H=4, N_V=4, tau_p=4, radius=200.0, a_max=1e6)
    violations = 0
    rng = np.random.default_rng(55)
    for seed in range(5):
        rl = sample_layout(sc, seed)
        a = amplitude_gain(sc, rl.alpha_bar)
        eq = compute_stats(rl, RisState(phases=np.zeros(sc.N), a=a)).nmse
        for _ in range(100):
            ph = rng.uniform(0, 2 * np.pi, sc.N)
            rand = compute_stats(rl, RisState(phases=ph, a=a)).nmse
            violations += int(np.any(eq > rand + 1e-12))
    ok = report(5, "equal-phase NMSE optimality", violations == 0,
                f"violations={violations}/500")
    assert ok


def test_criterion_6_amplitude_budget_round_trip():
    """Power accounting inverts the budget exactly on the un-clamped branch;
    the amplitude gain is non-increasing in N, K, and element area."""
    round_trip_ok = True
    for seed in range(10):
        sc = Scenario(M=3, K=4, N_H=2, N_V=2, a_max=1e12)
        rl = sample_layout(sc, seed)
        a = amplitude_gain(sc, rl.alpha_bar)
        round_trip_ok &= abs(aris_power_consumption(rl, a) - sc.P_aris) <= 1e-12 * sc.P_aris

    alpha_bar = np.full(4, 1e-7)
    lam = Scenario().wavelength
    in_n = [amplitude_gain(Scenario(M=2, K=4, N_H=n, N_V=1, a_max=1e12), alpha_bar)
            for n in range(1, 21)]
    in_k = [amplitude_gain(Scenario(M=2, K=4, N_H=2, N_V=2, a_max=1e12), np.full(k, 1e-7))
            for k in range(1, 21)]
    in_area = [amplitude_gain(
        Scenario(M=2, K=4, N_H=2, N_V=2, d_H=s * lam, d_V=s * lam, a_max=1e12), alpha_bar)
        for s in np.linspace(0.05, 1.2, 20)]
    mono = all(all(a1 >= a2 - 1e-15 for a1, a2 in zip(seq, seq[1:]))
               for seq in (in_n, in_k, in_area))
    ok = report(6, "amplitude budget round trip and monotonicity", round_trip_ok and mono)
    assert ok


def test_criterion_7_sum_se_unimodal_in_n():
    """Sum SE over a 12-point element sweep rises then falls exactly once,
    peaking where the amplitude leaves the a_max branch."""
    lam = Scenario().wavelength
    Ns = [4, 6, 9, 14, 20, 30, 45, 64, 90, 120, 150, 180]
    ses, switch_candidates = [], []
    for n in Ns:
        # half-wavelength line array: identity correlation, cascade power
        # exactly linear in N on the clamped branch
        sc = Scenario(M=4, K=3, N_H=n, N_V=1, d_H=lam / 2, d_V=lam / 2, tau_p=3,
                      radius=200.0, a_max=1e4, P_aris=0.1, grid_indexing="row_major")
        rl = sample_layout(sc, 7)
        a = amplitude_gain(sc, rl.alpha_bar)
        if a == sc.a_max:
            switch_candidates.append(n)
        se, _ = evaluate_phases(rl, np.zeros(sc.N), a)
        ses.append(se.sum())
    signs = np.sign(np.diff(ses))
    single_change = int(np.sum(np.diff(signs) != 0)) == 1 and signs[0] > 0 and signs[-1] < 0
    peak = Ns[int(np.argmax(ses))]
    switch = max(switch_candidates)
    ok = report(7, "sum SE unimodal in N", single_change and peak == switch,
                f"peak={peak} switch={switch}")
    assert ok, (ses, peak, switch)


def test_criterion_8_sac_gradient_checks():
    """All four manual gradients within 1e-4 (norm-relative) of central finite
    differences on reduced networks at smooth evaluation points."""
    rels = {}
    agent, (obs, act, rew, nxt, eps) = smooth_agent_and_batch(seed=42, hidden=8)
    _, g = agent.value_loss_and_grads(obs, eps)
    fd = fd_grad(agent.value, lambda: agent.value_loss_and_grads(obs, eps)[0])
    rels["value"] = np.linalg.norm(g - fd) / np.linalg.norm(fd)
    for idx, net in ((0, agent.q1), (1, agent.q2)):
        g = agent.q_loss_and_grads(obs, act, rew, nxt)[1][idx]
        fd = fd_grad(net, lambda: agent.q_loss_and_grads(obs, act, rew, nxt)[0][idx])
        rels[f"q{idx + 1}"] = np.linalg.norm(g - fd) / np.linalg.norm(fd)
    _, g = agent.policy_loss_and_grads(obs, eps)
    fd = fd_grad(agent.policy, lambda: agent.policy_loss_and_grads(obs, eps)[0])
    rels["policy"] = np.linalg.norm(g - fd) / np.linalg.norm(fd)
    ok = report(8, "SAC gradient checks", all(v < FD_TOL for v in rels.values()),
                " ".join(f"{k}={v:.2e}" for k, v in rels.items()))
    assert ok, rels


def test_criterion_9_sac_optimization_quality():
    """Toy single-element run lands within 2% of a 360-point grid search; the
    N=16 instance beats equal phases and the best of 100 random vectors with a
    non-decreasing learning trend, inside the thirty-minute desk budget."""
    started = time.monotonic()
    # single-element toy against exhaustive grid
    sc1 = Scenario(M=1, K=1, N_H=1, N_V=1, tau_p=1, radius=100.0, a_max=1e6)
    rl1 = sample_layout(sc1, 3)
    a1 = amplitude_gain(sc1, rl1.alpha_bar)
    grid = [evaluate_phases(rl1, np.array([p]), a1)[0].sum()
            for p in np.linspace(0, 2 * np.pi, 360, endpoint=False)]
    env1 = RisEnv(rl1, a1)
    res1 = train(env1, SacConfig(episodes=8, episode_len=50, batch=16, buffer_capacity=2000),
                 master_seed=1)
    toy_ok = res1.best_sum_se >= (1 - 0.02) * max(grid)

    # the 16-element, 4-AP, 3-user instance
    sc = Scenario(M=4, K=3, N_H=4, N_V=4, tau_p=2, radius=200.0, a_max=1e6)
    rl = sample_layout(sc, 123)
    a = amplitude_gain(sc, rl.alpha_bar)
    rng = np.random.default_rng(2024)
    random_se = [evaluate_phases(rl, rng.uniform(0, 2 * np.pi, sc.N), a)[0].sum()
                 for _ in range(100)]
    best_random = max(random_se)
    equal_se = evaluate_phases(rl, np.zeros(sc.N), a)[0].sum()
    env = RisEnv(rl, a)
    cfg = SacConfig(episodes=120, episode_len=100)
    res = train(env, cfg, master_seed=7)
    curve = np.array(res.episode_rewards)
    decile = max(1, curve.size // 10)
    trend_ok = curve[-decile:].mean() >= curve[:decile].mean()
    beats = res.best_sum_se >= equal_se and res.best_sum_se >= best_random
    in_budget = time.monotonic() - started <= 1800
    # per-step means: what the policy earns, next to what uniform phases earn
    first, last = curve[:decile].mean() / cfg.episode_len, curve[-decile:].mean() / cfg.episode_len
    ok = report(9, "SAC optimization quality", toy_ok and beats and trend_ok and in_budget,
                f"toy={res1.best_sum_se:.4f}/{max(grid):.4f} best={res.best_sum_se:.4f} "
                f"equal={equal_se:.4f} rand={best_random:.4f} "
                f"step_mean first_decile={first:.4f} last_decile={last:.4f} "
                f"rand_mean={np.mean(random_se):.4f}")
    assert ok


def test_criterion_10_csv_determinism(tmp_path):
    """Repeated commands with one seed emit byte-identical CSVs regardless of
    the sweep parallelism degree."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("M: 2\nK: 2\nN_H: 2\nN_V: 2\nradius: 150.0\ntau_p: 1\na_max: 1.0e+6\n")
    same = True

    blobs = []
    for name, jobs in (("s1.csv", "1"), ("s2.csv", "1"), ("s3.csv", "3")):
        out = tmp_path / name
        assert cli_main(["sweep", "--config", str(cfg), "--param", "N_H",
                         "--values", "1,2,4", "--seeds", "0,1", "--jobs", jobs,
                         "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    same &= blobs[0] == blobs[1] == blobs[2]

    blobs = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert cli_main(["train", "--config", str(cfg), "--seed", "4",
                         "--episodes", "2", "--steps", "40", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    same &= blobs[0] == blobs[1]

    blobs, codes = [], []
    for name in ("v1.csv", "v2.csv"):
        out = tmp_path / name
        codes.append(cli_main(["validate", "--trials", "20000", "--seed", "2",
                               "--out", str(out)]))
        blobs.append(out.read_bytes())
    same &= blobs[0] == blobs[1] and codes[0] == codes[1]

    ok = report(10, "byte-identical CSV reruns", same)
    assert ok
