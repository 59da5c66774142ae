"""ariscf benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 the last stdout line holds
the end-to-end metrics, with --trace 1 the per-layer ones (see README.md).
Lines before it record the environment and a readable summary. The timed
ops run in one worker process; set-up is measured in that worker and in two
more that stop after set-up, and the median of the three is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, REFERENCE_DIR, REPO_ROOT, WORKLOADS

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
# One BLAS thread per worker: on a shared two-core machine a second,
# spin-waiting BLAS thread turns any outside load into a multi-fold slowdown.
BLAS_THREADS = 1


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree (read without running git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ariscf").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def missing_inputs() -> list[str]:
    needed = [REPO_ROOT / "src" / "ariscf" / "__init__.py"]
    for spec in WORKLOADS.values():
        needed += [REPO_ROOT / spec.config, REFERENCE_DIR / f"{spec.name}.json"]
    return [str(p.relative_to(REPO_ROOT)) for p in dict.fromkeys(needed) if not p.is_file()]


def spawn(args, env, deadline, setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    missing = missing_inputs()
    if missing:
        print(f"error: not a complete ariscf checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    try:
        main_run = spawn(args, env, deadline, setup_only=False)
        setups = [main_run["setup"]]
        if not args.trace:
            setups += [spawn(args, env, deadline, setup_only=True)["setup"]
                       for _ in range(SETUP_SAMPLES - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    spec = WORKLOADS[args.workload]
    env_record = dict(main_run["env"], cpu=cpu_model(), nproc=nproc,
                      git_commit=git_commit(REPO_ROOT), src_sha256=src_digest(REPO_ROOT),
                      workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace)
    print("env " + json.dumps(env_record))
    for line in main_run["errors"]:
        print(f"failed op: {line}", file=sys.stderr)

    attempted, failed = main_run["attempted"], main_run["failed"]
    if args.trace:
        metrics = main_run["per_layer"]
        print(f"trace written to {main_run['trace_file']}")
        for name, ms in main_run["top_self"]:
            print(f"  self {ms:10.3f} ms/op  {name}")
    else:
        wall, adjusted = main_run["seconds"], main_run["adjusted_seconds"]
        n = len(adjusted)
        setup_wall = [s["seconds"] for s in setups]
        metrics = {
            "setup_s": {"value": statistics.median(s["seconds"] * s["speed"] for s in setups),
                        "unit": "s"},
            "work_per_s": {"value": spec.work_per_op * n / sum(adjusted), "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(adjusted), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(s["rss_mb"] for s in setups),
                            "unit": "MB"},
        }
        print("times at reference speed (wall-clock in brackets):")
        print(f"setup_s     {metrics['setup_s']['value']:.4f} s "
              f"[{statistics.median(setup_wall):.4f}; median of {len(setups)} set-ups]")
        print(f"work_per_s  {metrics['work_per_s']['value']:.4f} {spec.unit} per second "
              f"[{spec.work_per_op * n / sum(wall):.4f}; {spec.work_per_op} per op]")
        print(f"op_ms_p50   {metrics['op_ms_p50']['value']:.4f} ms "
              f"[{1e3 * statistics.median(wall):.4f}; n={n}]")
        if n >= 100:
            print(f"op_ms_p90   {1e3 * statistics.quantiles(adjusted, n=10)[-1]:.4f} ms "
                  f"[{1e3 * statistics.quantiles(wall, n=10)[-1]:.4f}; n={n}]")
        print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB after set-up "
              f"[{main_run['run_rss_mb']:.1f} MB over the whole timed run]")
        print(f"error_rate  {failed / attempted:.4f} ({failed}/{attempted} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
