"""Record the reference outputs that every benchmark op is checked against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs the op command of each pool entry through `ariscf.cli.main` and writes
`perfbench/reference/<workload>.json`. Re-record only when a change to the
program is meant to change its outputs, and say so with that change.
"""

from __future__ import annotations

import json
import platform
import sys

from worker import import_ariscf, run_op
from workloads import (REFERENCE_DIR, REL_TOL, SWEEP_HEADER, SWEEP_VALUES, WORKLOADS,
                       analytic_digest, split_csv)

SIGNIFICANT_DIGITS = 13   # stored precision; well inside REL_TOL


def _stored(text: str) -> float:
    return float(f"{float(text):.{SIGNIFICANT_DIGITS}g}")


def _run(cli, argv, ok_codes=(0,)):
    rc, out, err, _, error = run_op(cli, argv)
    if error is not None or rc not in ok_codes:
        raise SystemExit(f"{argv} failed (exit {rc}):\n{error or err}")
    return rc, out, err


def record(cli, workload) -> dict:
    pool = range(workload.pool)
    data = {"workload": workload.name, "pool": workload.pool, "rel_tol": REL_TOL,
            "python": platform.python_version()}
    if workload.command == "sweep":
        argv = workload.argv(tuple(pool))
        _, out, _ = _run(cli, argv)
        _, header, rows = split_csv(out)
        if header != SWEEP_HEADER:
            raise SystemExit(f"unexpected sweep header {header}")
        points = {str(s): [None] * len(SWEEP_VALUES) for s in pool}
        for row in rows:
            points[row[1]][SWEEP_VALUES.index(row[0])] = \
                [_stored(x) for x in row[2:6]] + [int(row[6])]
        data["command"] = argv[:8] + ["<seeds>"] + argv[9:]
        data["points"] = points
    elif workload.command == "validate":
        seeds = {}
        for s in pool:
            argv = workload.argv((s,))
            _, out, _ = _run(cli, argv, ok_codes=(0, 1))
            comments, _, rows = split_csv(out)
            if comments.get("authoritative") != "1":
                raise SystemExit(f"{argv}: report is not authoritative")
            status = [r[7] for r in rows]
            seeds[str(s)] = {"rows": len(rows), "analytic_sha256": analytic_digest(rows),
                             "fail_rows": status.count("FAIL"),
                             "underpowered_rows": status.count("underpowered")}
            print(f"{workload.name} seed {s}: {seeds[str(s)]}", file=sys.stderr)
        data["command"] = argv[:-1] + ["<seed>"]
        data["seeds"] = seeds
    else:
        # The baseline is computed before training starts, so --episodes 0
        # records it without the training run.
        baseline = {}
        for s in pool:
            argv = ["train", "--config", workload.argv((s,))[2], "--episodes", "0",
                    "--seed", str(s)]
            _, out, _ = _run(cli, argv)
            comments, _, _ = split_csv(out)
            baseline[str(s)] = _stored(comments["baseline_equal_sum_se"])
        data["command"] = argv[:-1] + ["<seed>"]
        data["baseline_equal_sum_se"] = baseline
    data["command"][2] = workload.config
    return data


def main() -> int:
    import_ariscf()
    from ariscf import cli
    names = sys.argv[1:] or sorted(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        data = record(cli, WORKLOADS[name])
        with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
