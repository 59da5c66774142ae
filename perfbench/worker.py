"""One benchmark process: set up, then (unless --setup-only) run the timed closed loop.

Started by run.py, which sets the BLAS thread count in the environment before
numpy loads. Set-up is imports, the config, the first layout and one warm-up
op; `setup_s` runs from the parent's spawn timestamp to the end of set-up.
The timed loop issues one `ariscf.cli.main([...])` op at a time (one client,
closed loop) until --seconds have passed, checks every output, and prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import REPO_ROOT, WORKLOADS, CheckFailed

MAX_ERRORS_SHOWN = 5


def import_ariscf():
    """Import ariscf from this checkout's src/, never from an installed copy."""
    src = REPO_ROOT / "src"
    sys.path.insert(0, str(src))
    import ariscf
    if not Path(ariscf.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"ariscf imported from {ariscf.__file__}, not from {src}")
    return ariscf


def run_op(cli, argv):
    """One op with stdout/stderr captured; returns (rc, out, err, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a dead benchmark
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds, error


def blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": None}
    # Ask the loaded OpenBLAS itself when its symbol is reachable.
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def compute_stats_key(args, kwargs):
    """Identity of a compute_stats input: (realization, phases, a).

    A realization is its scenario plus its drawn large-scale gains; R follows
    from the scenario.
    """
    rl = args[0] if args else kwargs["realization"]
    state = args[1] if len(args) > 1 else kwargs["ris_state"]
    return (rl.scenario, rl.beta.tobytes(), rl.alpha.tobytes(), rl.alpha_bar.tobytes(),
            state.phases.tobytes(), float(state.a))


def per_layer_metrics(tracer, workload, scenario, ops, counts, distinct):
    """Every per-layer metric, from the spans of the traced ops.

    `ops` holds (op id, wall seconds, seconds at reference speed, traced).
    """
    from tracer import LAYERS

    traced = [(op, s) for op, s, _, t in ops if t]
    n = len(traced)
    totals = tracer.summarize(op for op, _ in traced)
    op_ns = sum(seconds for _, seconds in traced) * 1e9

    def stat(name, key):
        return totals.get(name, {}).get(key, 0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    calls = ["perf.sinr_closed_form", "perf.evaluate_phases", "scenario.sample_layout",
             "channel.compute_stats", "channel.complex_normal", "sac.agent.update",
             "sac.nets.forward", "sac.env.step", "sac.env.sum_se_of",
             "estimation.compute_estimation_stats"]
    inclusive = ["perf.sinr_closed_form", "perf.energy_efficiency",
                 "scenario.build_correlation_matrix", "scenario.psd_factor",
                 "scenario.load_scenario", "channel.compute_stats", "channel.complex_normal",
                 "sac.nets.forward", "sac.nets.backward", "sac.buffer.sample", "sac.agent.act",
                 "sac.env.step", "estimation.compute_estimation_stats", "ris.amplitude_gain"]
    self_time = ["perf.per_user_se", "scenario.sample_layout",
                 "oracle.verify_moment_identities", "sac.agent.update", "cli.main"]
    for name in calls:
        put(f"{name}.calls_per_op", stat(name, "calls") / n, "count")
    for name in inclusive:
        put(f"{name}.ms_per_op", stat(name, "ns") / n / 1e6, "ms")
    for name in self_time:
        put(f"{name}.self_ms_per_op", stat(name, "self_ns") / n / 1e6, "ms")

    cs_calls = stat("channel.compute_stats", "calls")
    put("channel.compute_stats.distinct_ratio",
        sum(len(distinct[op]) for op, _ in traced) / cs_calls if cs_calls else 0.0, "ratio")
    # Computed, not measured: W = (P o R) R as a complex GEMM (8 N^3, R is cast
    # to complex), R @ R as a real GEMM (2 N^3), and the three N x N
    # elementwise passes (P o R, tr(W W^T), tr((P o R)(R R)^T)): 20 N^2.
    N = scenario.N
    put("channel.compute_stats.flop_per_call", 10 * N ** 3 + 20 * N ** 2, "flop")
    # Computed, not measured: complex128 values drawn per oracle trial -- h, z,
    # g, pilot-phase RIS/AP noise, data-phase RIS/AP noise, one Wishart vector.
    M, K, P = scenario.M, scenario.K, min(scenario.K, scenario.tau_p)
    draws = M * N + K * N + M * K + P * N + M * P + N + M + N
    put("oracle.draw_bytes_per_trial", 16 * draws if workload.command == "validate" else 0, "B")
    for key in ("rows", "fail_rows", "underpowered_rows"):
        put(f"oracle.{key}", sum(counts[op].get(key, 0) for op, _ in traced) / n, "count")

    for layer in LAYERS:
        layer_ns = sum(t["self_ns"] for name, t in totals.items() if tracer.layer_of[name] == layer)
        put(f"share.{layer}.self_pct", 100.0 * layer_ns / op_ns, "%")
    ref_traced = statistics.median(a for _, _, a, t in ops if t)
    ref_untraced = statistics.median(a for _, _, a, t in ops if not t)
    put("trace.overhead_pct", 100.0 * (ref_traced / ref_untraced - 1.0), "%")
    put("trace.traced_ops", n, "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    # ---- set-up: imports, config, first layout, one warm-up op
    import_ariscf()
    import numpy as np
    from ariscf import cli
    from ariscf.scenario import load_scenario, sample_layout
    from calibrate import Kernel

    reference = workload.load_reference()
    scenario = load_scenario(str(REPO_ROOT / workload.config))
    keys = workload.op_keys(args.seed)
    warm_key = next(keys)
    sample_layout(scenario, warm_key[0])
    error = run_op(cli, workload.argv(warm_key))[-1]
    if error is not None:
        print(f"warm-up op raised:\n{error}", file=sys.stderr)
        return 1
    setup = {"seconds": time.monotonic() - args.spawned,
             "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    kernel = Kernel(workload.kernel)
    setup["speed"] = kernel.speed()
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    # ---- timed closed loop
    tracer = None
    counts, distinct = {}, {}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.hooks["channel.compute_stats"] = \
            lambda a, kw: distinct[tracer.op].add(compute_stats_key(a, kw))
    speed = [kernel.speed()]   # speed[i] just before op i, speed[-1] after the last op
    ops, errors = [], []       # ops: (op id, wall seconds, traced)
    failed = 0
    end = time.perf_counter() + args.seconds
    min_ops = 2 if args.trace else 1
    # Stop before an op that would end past the deadline, judged by the last op.
    while len(ops) < min_ops or time.perf_counter() + ops[-1][1] <= end:
        op = len(ops)
        key = next(keys)
        traced = tracer is not None and op % 2 == 0
        if traced:
            tracer.op = op
            distinct[op] = set()
            tracer.install()
        rc, out, err, seconds, error = run_op(cli, workload.argv(key))
        if traced:
            tracer.uninstall()
        try:
            if error is not None:
                raise CheckFailed(f"raised:\n{error}")
            counts[op] = workload.check(key, rc, out, err, reference)
        except CheckFailed as exc:
            failed += 1
            counts[op] = {}
            if len(errors) < MAX_ERRORS_SHOWN:
                errors.append(f"op {op} {workload.argv(key)}: {exc}")
        ops.append((op, seconds, traced))
        speed.append(kernel.speed())

    # Each op's time at reference speed, from the speeds measured either side of it.
    ops = [(op, s, s * (speed[i] + speed[i + 1]) / 2, t) for i, (op, s, t) in enumerate(ops)]
    result = {
        "setup": setup,
        "seconds": [s for _, s, _, t in ops if not t],
        "adjusted_seconds": [a for _, _, a, t in ops if not t],
        "attempted": len(ops),
        "failed": failed,
        "errors": errors,
        "run_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": blas_info(np),
                "scenario": {"M": scenario.M, "K": scenario.K, "N": scenario.N}},
    }
    if tracer is not None:
        traced_ops = [op for op, _, _, t in ops if t]
        result["per_layer"] = per_layer_metrics(tracer, workload, scenario, ops, counts, distinct)
        out_dir = REPO_ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(path, {"workload": workload.name, "seed": args.seed,
                            "traced_ops": traced_ops})
        result["trace_file"] = str(path.relative_to(REPO_ROOT))
        result["top_self"] = sorted(
            ((name, t["self_ns"] / len(traced_ops) / 1e6)
             for name, t in tracer.summarize(traced_ops).items()),
            key=lambda x: -x[1])[:12]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
