"""Command-line front end: validate (oracle suite), sweep (closed-form experiments), train (SAC)."""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from . import oracle
from .perf import energy_efficiency, evaluate_phases
from .ris import RisState, amplitude_gain
from .sac.agent import SacConfig, TrainingDiverged, save_checkpoint, load_checkpoint, train
from .sac.env import RisEnv
from .scenario import Scenario, config_field, config_fields, load_config, sample_layout

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    pass


def _load_config(config_path: str | None) -> tuple[dict, Scenario]:
    """The config's {field: value} map and its Scenario; the built-in default has no entries."""
    try:
        fields = {} if config_path is None else config_fields(load_config(config_path))
        return fields, Scenario(**fields)
    except (OSError, ValueError, KeyError, TypeError, yaml.YAMLError) as exc:
        raise UsageError(f"cannot load config {config_path!r}: {exc}") from exc


def _write_csv(path: str | None, comments: list[str], header: list[str], rows: list[list[str]]):
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        for line in comments:
            out.write(f"# {line}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _fmt(x) -> str:
    return repr(float(x))


def _check_out_dir(path: str | None, flag: str) -> None:
    """Refuse an output path that is a directory, or whose directory is missing,
    before any work is done."""
    if path:
        if os.path.isdir(path):
            raise UsageError(f"{flag} {path!r} is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise UsageError(f"{flag} {path!r}: directory {parent!r} does not exist")


def _check_seed(seed: int, flag: str = "--seed") -> None:
    """Layout and oracle streams are keyed by non-negative integers only."""
    if seed < 0:
        raise UsageError(f"{flag} must be >= 0, got {seed}")


def _instance(scenario: Scenario, seed: int):
    """Layout and amplitude gain for one seed; the gain is 0.0 exactly when the
    power budget is exhausted."""
    realization = sample_layout(scenario, seed)
    return realization, amplitude_gain(scenario, realization.alpha_bar)


# ---------------------------------------------------------------------------
# validate

def cmd_validate(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    _check_seed(args.seed)
    _check_out_dir(args.out, "--out")
    if args.config is None:
        # built-in synthetic benchmark: conditioning guaranteed by construction
        realization, state = oracle.benchmark_instance()
        scenario = realization.scenario
    else:
        _, scenario = _load_config(args.config)
        realization, a = _instance(scenario, args.seed)
        state = RisState(phases=np.zeros(scenario.N), a=a)

    rows = oracle.verify_moment_identities(realization, state, n_trials=args.trials,
                                           master_seed=args.seed)
    authoritative = args.trials >= oracle.MIN_AUTHORITATIVE_TRIALS
    comments = [
        f"config_sha256={scenario.config_hash()}",
        f"master_seed={args.seed}",
        f"n_trials={args.trials}",
        f"authoritative={int(authoritative)}",
    ]
    if not authoritative:
        comments.append(f"warning=fewer than {oracle.MIN_AUTHORITATIVE_TRIALS} trials; report is not authoritative")
    _write_csv(args.out, comments, oracle.CSV_HEADER, [r.csv_row() for r in rows])

    failed = [r for r in rows if r.status == "FAIL"]
    for r in failed:
        print(f"FAIL {r.name}: empirical={r.empirical:.6e} analytic={r.analytic:.6e} "
              f"rel_err={r.rel_err:.4f} tol={r.tol}", file=sys.stderr)
    underpowered = [r.name for r in rows if r.status == "underpowered"]
    if underpowered:
        print(f"underpowered at {args.trials} trials (no verdict): {', '.join(underpowered)}",
              file=sys.stderr)
    if not authoritative:
        print(f"non-authoritative run ({args.trials} < {oracle.MIN_AUTHORITATIVE_TRIALS} trials)",
              file=sys.stderr)
    return EXIT_VALIDATION if failed or not authoritative else EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def _load_phases(spec: str):
    """Parse --phases once per sweep: "equal", "random", or the trained phase vector."""
    if spec in ("equal", "random"):
        return spec
    if spec.startswith("trained:"):
        path = spec.split(":", 1)[1]
        try:
            return load_checkpoint(path)["best_phases"]
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load checkpoint {path!r}: {exc}") from exc
    raise UsageError(f"--phases must be equal, random, or trained:<path>, got {spec!r}")


def _point_phases(phases, N: int, seed: int) -> np.ndarray:
    """The phase vector of one sweep point from what `_load_phases` returned."""
    if isinstance(phases, np.ndarray):
        if phases.size != N:
            raise UsageError(f"checkpoint phases have N={phases.size}, scenario needs N={N}")
        return phases
    if phases == "equal":
        return np.zeros(N)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9155)))
    return rng.uniform(0.0, 2.0 * np.pi, N)


def _sweep_group(payload):
    """Rows of the points of one (geometry, seed) group, in the order given.

    A point's phases depend on (N, seed) alone, so the group draws them once;
    its points then evaluate one geometry at one phase vector in a row, which
    `channel.phase_traces` keeps the traces of.
    """
    points, seed, phases, prelog = payload
    phases = _point_phases(phases, points[0][0].N, seed)
    rows = []
    for sc, label in points:
        realization, a = _instance(sc, seed)
        se, stats = evaluate_phases(realization, phases, a, prelog)
        se_total = float(se.sum())
        ee = energy_efficiency(realization, se_total, a)
        rows.append([label, str(seed), _fmt(se_total), _fmt(float(stats.nmse.mean())), _fmt(a),
                     _fmt(ee), "1" if a != 0.0 else "0"])
    return rows


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    _check_out_dir(args.out, "--out")
    fields, scenario = _load_config(args.config)
    swept = []
    for text in filter(None, args.values.split(",")):
        # the config's fields, the swept one as `param: text` sets it; labelled as an int or as the number given
        try:
            field, value = config_field(args.param, text)
            label = str(value) if isinstance(value, int) else _fmt(text)
            swept.append((Scenario(**{**fields, field: value}), label))
        except ValueError as exc:
            raise UsageError(f"--param {args.param} --values {text}: {exc}") from exc
    if not swept:
        raise UsageError("--values must be a non-empty comma list")
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError as exc:
        raise UsageError(f"bad --seeds: {exc}") from exc
    if not seeds:
        raise UsageError("--seeds must be a non-empty comma list")
    for seed in seeds:
        _check_seed(seed, "--seeds entries")

    phases = _load_phases(args.phases)
    # Geometries in order of first appearance, each with all its seeds: the
    # one-slot `ris_correlation` cache then builds each geometry once.
    # Repeated values or seeds stay separate points of their group.
    groups = {}
    for sc, label in swept:
        for seed in seeds:
            groups.setdefault((sc.geometry, seed), []).append((sc, label))
    payloads = [(points, seed, phases, args.prelog) for (_, seed), points in groups.items()]
    jobs = min(args.jobs, len(payloads))  # a pool forks all its workers at its first submit
    if jobs > 1:
        # imported here: it loads multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for group in pool.map(_sweep_group, payloads) for row in group]
    else:
        rows = [row for p in payloads for row in _sweep_group(p)]
    rows.sort(key=lambda r: (float(r[0]), int(r[1])))

    comments = [
        f"config_sha256={scenario.config_hash()}",
        f"master_seed={','.join(str(s) for s in seeds)}",
        f"param={args.param}",
        f"phases={args.phases}",
    ]
    header = ["param_value", "seed", "sum_se", "nmse_mean", "a", "ee", "feasible"]
    _write_csv(args.out, comments, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    _check_seed(args.seed)
    _check_out_dir(args.out, "--out")
    _check_out_dir(args.checkpoint, "--checkpoint")
    _, scenario = _load_config(args.config)
    overrides = {}
    if args.episodes:  # 0 = baseline only: keep the default, still check the other options
        overrides["episodes"] = args.episodes
    if args.steps is not None:
        overrides["episode_len"] = args.steps
    if args.lr is not None:
        overrides["lr"] = args.lr
    if args.optimizer is not None:
        overrides["optimizer"] = args.optimizer
    try:
        config = replace(SacConfig(), **overrides)
    except ValueError as exc:
        raise UsageError(f"bad training options: {exc}") from exc

    realization, a = _instance(scenario, args.seed)
    env = RisEnv(realization, a, prelog=args.prelog)
    baseline = env.equal_phase_se
    rows = []
    if args.episodes:
        if a == 0.0:
            print("active-RIS power budget exhausted (a = 0): every phase vector gives the "
                  "same sum SE, so training sees a constant reward", file=sys.stderr)
        try:
            result = train(env, config, args.seed)
        except TrainingDiverged as exc:
            diag_path = (args.out or "training") + ".diverged.npz"
            np.savez(diag_path, **exc.snapshot)
            print(f"training diverged: {exc}; diagnostics at {diag_path}", file=sys.stderr)
            return EXIT_DIVERGED
        steps = config.episodes * config.episode_len
        if steps < config.batch:  # the buffer never held a batch: the policy is the initial one
            print(f"no gradient update: {steps} steps never reached the batch of {config.batch}",
                  file=sys.stderr)
        rows = [[str(i), _fmt(r)] for i, r in enumerate(result.episode_rewards)]

    comments = [f"config_sha256={scenario.config_hash()}", f"master_seed={args.seed}",
                f"baseline_equal_sum_se={_fmt(baseline)}"]
    _write_csv(args.out, comments, ["episode", "cumulative_reward"], rows)
    if args.episodes:
        if args.checkpoint:
            save_checkpoint(args.checkpoint, result)
        print(f"best sum SE found: {result.best_sum_se:.6f}")
        print(f"equal-phase baseline sum SE: {baseline:.6f}")
    else:
        if args.checkpoint:
            print("no checkpoint written: --episodes 0 runs no training", file=sys.stderr)
        print(f"baseline equal-phase sum SE: {baseline:.6f} (no training requested)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ariscf",
                                     description="Active-RIS cell-free uplink toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the Monte Carlo identity suite")
    p.add_argument("--config", help="scenario YAML (defaults to a built-in small instance)")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV report path (stdout if omitted)")

    p = sub.add_parser("sweep", help="closed-form parameter sweep to CSV")
    p.add_argument("--config", help="base scenario YAML")
    p.add_argument("--param", required=True,
                   help="swept config key: a Scenario field, <power>_dbm or carrier_frequency")
    p.add_argument("--values", required=True, help="comma-separated values, read as config values")
    p.add_argument("--seeds", default="0", help="comma-separated layout seeds")
    p.add_argument("--phases", default="equal", help="equal | random | trained:<checkpoint>")
    p.add_argument("--prelog", action="store_true", help="apply the (1 - tau_p/tau_c) prelog")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers over the (geometry, seed) groups of sweep points")
    p.add_argument("--out", help="CSV path (stdout if omitted)")

    p = sub.add_parser("train", help="optimize RIS phases with SAC")
    p.add_argument("--config", help="scenario YAML")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, help="override training episodes (0 = baseline only)")
    p.add_argument("--steps", type=int, help="override steps per episode")
    p.add_argument("--lr", type=float, help="override learning rate")
    p.add_argument("--optimizer", choices=["sgd", "adam"], help="override optimizer")
    p.add_argument("--prelog", action="store_true")
    p.add_argument("--out", help="learning-curve CSV path (stdout if omitted)")
    p.add_argument("--checkpoint", help="write weights/best-phases npz here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process. It keeps no state between
    parses, and names its commands only, so a patched `cmd_*` is the one that runs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
