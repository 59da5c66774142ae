"""Benchmark workloads: the CLI command of every op, its inputs, and its output checks.

Every op is one `ariscf.cli.main([...])` call. Op inputs come from a finite
pool of layout seeds whose outputs are recorded in `reference/<name>.json`
(see record.py); the workload seed only chooses the order in which the pool
is visited, so any seed gives checkable ops. The pools are larger than the
number of ops one run issues at the recorded speed, so a run does not
revisit an input unless the program gets several times faster.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Relative tolerance for the recorded floating-point outputs: wide enough for
# a reordered sum (ulp-level changes), far below any modelling change.
REL_TOL = 1e-9

SWEEP_VALUES = ("0.01", "1.0")  # rho_u in watts: 10 dBm and 30 dBm
SWEEP_HEADER = ["param_value", "seed", "sum_se", "nmse_mean", "a", "ee", "feasible"]
VALIDATE_HEADER = ["identity", "empirical", "analytic", "rel_err", "stderr_rel",
                   "n_trials", "tol", "status"]
VALIDATE_TRIALS = 12288      # three whole 4096-trial oracle blocks, >= 10^4 (authoritative)
TRAIN_STEPS = 400


class CheckFailed(Exception):
    """An op's output does not pass its check."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # sweep | validate | train
    config: str           # path relative to the repository root
    pool: int             # number of recorded layout seeds
    seeds_per_op: int
    unit: str             # what `work_per_s` counts on this workload
    kernel: str           # calibrate.Kernel kind matching the workload's dominant layer

    @property
    def work_per_op(self) -> int:
        if self.command == "sweep":
            return len(SWEEP_VALUES) * self.seeds_per_op
        if self.command == "validate":
            return VALIDATE_TRIALS
        return TRAIN_STEPS

    def op_keys(self, seed: int):
        """Endless op-input sequence for a workload seed: a seeded permutation
        of the pool, taken `seeds_per_op` seeds at a time and cycled."""
        perm = list(range(self.pool))
        random.Random(f"{self.name}/{seed}").shuffle(perm)
        i = 0
        while True:
            yield tuple(perm[(i + j) % self.pool] for j in range(self.seeds_per_op))
            i += self.seeds_per_op

    def argv(self, key: tuple) -> list[str]:
        config = str(REPO_ROOT / self.config)
        if self.command == "sweep":
            return ["sweep", "--config", config, "--param", "rho_u",
                    "--values", ",".join(SWEEP_VALUES),
                    "--seeds", ",".join(str(s) for s in key), "--phases", "random"]
        if self.command == "validate":
            return ["validate", "--config", config, "--trials", str(VALIDATE_TRIALS),
                    "--seed", str(key[0])]
        return ["train", "--config", config, "--episodes", "1", "--steps", str(TRAIN_STEPS),
                "--seed", str(key[0])]

    def load_reference(self) -> dict:
        with open(REFERENCE_DIR / f"{self.name}.json") as fh:
            return json.load(fh)

    def check(self, key: tuple, rc: int, out: str, err: str, reference: dict) -> dict:
        """Raise CheckFailed unless the op's output is correct; return its counts."""
        if self.command == "sweep":
            return _check_sweep(key, rc, out, reference)
        if self.command == "validate":
            return _check_validate(key, rc, out, err, reference)
        return _check_train(key, rc, out, reference)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-default", "sweep", "configs/default.yaml", pool=2048, seeds_per_op=2,
             unit="sweep points", kernel="small-loop"),
    Workload("sweep-wide-ris", "sweep", "perfbench/configs/wide_ris.yaml", pool=96,
             seeds_per_op=2, unit="sweep points", kernel="gemm"),
    Workload("validate-default", "validate", "configs/default.yaml", pool=32, seeds_per_op=1,
             unit="Monte Carlo trials", kernel="draws"),
    Workload("train-small", "train", "configs/train_small.yaml", pool=512, seeds_per_op=1,
             unit="SAC env steps", kernel="dense-net"),
)}


# ---------------------------------------------------------------------------
# output parsing and checks

def split_csv(out: str) -> tuple[dict, list[str], list[list[str]]]:
    """Comment `key=value` pairs, header and rows of a CLI CSV on stdout.

    Lines after the rows that are not CSV (the train summary prints) end the table.
    """
    comments, table = {}, []
    for line in out.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            comments[k] = v
        elif "," in line or line and not table:   # a row, or the header
            table.append(line)
        else:
            break
    rows = list(csv.reader(table))
    if not rows:
        raise CheckFailed("no CSV header on stdout")
    return comments, rows[0], rows[1:]


def _finite(text: str, what: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise CheckFailed(f"{what} is not a number: {text!r}") from exc
    if not math.isfinite(x):
        raise CheckFailed(f"{what} is not finite: {text!r}")
    return x


def _close(value: float, recorded: float, what: str) -> None:
    if abs(value - recorded) > REL_TOL * abs(recorded):
        raise CheckFailed(f"{what}={value!r} differs from the recorded {recorded!r}")


def _check_sweep(key, rc, out, reference) -> dict:
    if rc != 0:
        raise CheckFailed(f"sweep exited {rc}")
    _, header, rows = split_csv(out)
    if header != SWEEP_HEADER:
        raise CheckFailed(f"unexpected sweep header {header}")
    want = {(v, str(s)) for v in SWEEP_VALUES for s in key}
    got = {(r[0], r[1]) for r in rows}
    if len(rows) != len(want) or got != want:
        raise CheckFailed(f"sweep rows {sorted(got)} != requested {sorted(want)}")
    for row in rows:
        where = f"point ({row[0]}, {row[1]})"
        sum_se, nmse, a, ee = (_finite(x, f"{where} {name}")
                               for x, name in zip(row[2:6], SWEEP_HEADER[2:6]))
        if not 0.0 < nmse < 1.0:
            raise CheckFailed(f"{where} nmse_mean {nmse} outside (0, 1)")
        if row[6] not in ("0", "1") or (row[6] == "1") != (a > 0.0):
            raise CheckFailed(f"{where} feasible={row[6]} inconsistent with a={a}")
        recorded = reference["points"][row[1]][SWEEP_VALUES.index(row[0])]
        for value, rec, name in zip((sum_se, nmse, a, ee), recorded, SWEEP_HEADER[2:6]):
            _close(value, rec, f"{where} {name}")
        if int(row[6]) != recorded[4]:
            raise CheckFailed(f"{where} feasible={row[6]} differs from the recorded {recorded[4]}")
    return {}


def analytic_digest(rows: list[list[str]]) -> str:
    """SHA-256 over the identity names and the exact analytic column text."""
    h = hashlib.sha256()
    for row in rows:
        h.update(f"{row[0]}\t{row[2]}\n".encode())
    return h.hexdigest()


def _check_validate(key, rc, out, err, reference) -> dict:
    comments, header, rows = split_csv(out)
    if header != VALIDATE_HEADER:
        raise CheckFailed(f"unexpected validate header {header}")
    if comments.get("n_trials") != str(VALIDATE_TRIALS) or comments.get("authoritative") != "1":
        raise CheckFailed(f"not an authoritative {VALIDATE_TRIALS}-trial report: {comments}")
    recorded = reference["seeds"][str(key[0])]
    if len(rows) != recorded["rows"] or analytic_digest(rows) != recorded["analytic_sha256"]:
        raise CheckFailed("identity names or analytic column differ from the recorded report")
    for row in rows:
        _finite(row[1], f"{row[0]} empirical")
    status = [row[7] for row in rows]
    unknown = set(status) - {"pass", "FAIL", "underpowered"}
    if unknown:
        raise CheckFailed(f"unknown verdicts {sorted(unknown)}")
    fails = status.count("FAIL")
    # Exit 1 is accepted only when FAIL verdicts caused it (the known
    # closed-form defect on the shipped config); any other exit 1 is an error.
    if rc != (1 if fails else 0):
        raise CheckFailed(f"validate exited {rc} with {fails} FAIL rows")
    if sum(line.startswith("FAIL ") for line in err.splitlines()) != fails:
        raise CheckFailed("stderr FAIL lines do not match the FAIL rows")
    return {"rows": len(rows), "fail_rows": fails,
            "underpowered_rows": status.count("underpowered")}


def _check_train(key, rc, out, reference) -> dict:
    if rc != 0:
        raise CheckFailed(f"train exited {rc}")
    comments, header, rows = split_csv(out)
    if header != ["episode", "cumulative_reward"]:
        raise CheckFailed(f"unexpected train header {header}")
    if [r[0] for r in rows] != ["0"]:
        raise CheckFailed(f"learning curve has episodes {[r[0] for r in rows]}, want [0]")
    for r in rows:
        _finite(r[1], f"episode {r[0]} reward")
    baseline = _finite(comments.get("baseline_equal_sum_se", "nan"), "baseline_equal_sum_se")
    _close(baseline, reference["baseline_equal_sum_se"][str(key[0])], "baseline_equal_sum_se")
    return {}
