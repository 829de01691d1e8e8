"""pismg benchmark: one workload, one seed, one result line.

Usage (from the checkout root):

    python3 perfbench/run.py --workload corpus --seed 424242 --seconds 15 --trace 0

Workloads (the "why" of each is in BENCHMARK.json):

    corpus    many distinct small random games (n 2-6, 1-3 actions)
    wide      D1 = D2 = 100 on four states: one random game, one decoupled
    long      n = 150 sparse states, D1 = D2 = 16
    simulate  estimate_payoff on the saddle pair of a mixed-sojourn game

The driver is closed-loop and single-process: one operation at a time,
nothing else in flight. The games come from ``--seed``; pismg receives
them only as JSON text.

``--trace 0`` prints the end-to-end metrics: work per second (pure pairs
per second of ``solve()``, or decision epochs per second of
``estimate_payoff()``), the median latency of one such call, the peak
RSS of the measuring process when its first round ends, and the set-up
time (median of fresh interpreters that import pismg and parse and
validate the first round). ``--trace 1`` measures untraced as above,
then replays the same operations traced in a fresh process, and prints
the per-layer metrics derived from the spans with the tracing overhead.
Spans are written to ``perfbench/out/trace-<workload>.npz``.

All workloads in turn:

    for w in corpus wide long simulate; do
        python3 perfbench/run.py --workload $w --seed 424242 --seconds 15 --trace 0
    done

``python3 perfbench/smoke.py`` checks the benchmark itself at tiny size.

Every operation is checked for correctness (see worker.py). The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report with machine info, workload descriptors and sample
counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# every run ends within this many seconds, or fails
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "game.parse_s": "s",
    "game.validate_s": "s",
    "game.validate.calls": "count",
    "strategies.enumerate_pure.calls": "count",
    "strategies.enumerate_pure_s": "s",
    "strategies.induce.calls": "count",
    "strategies.induce_s": "s",
    "strategies.induce_us_per_call": "us",
    "markov.cesaro.calls": "count",
    "markov.cesaro_s": "s",
    "markov.cesaro_us_per_call": "us",
    "solve.payoff_vector.calls": "count",
    "solve.payoff_vector_self_s": "s",
    "solve.pair_reuse": "ratio",
    "solve.build_payoff_matrix_self_s": "s",
    "solve.solve_self_s": "s",
    "solve.find_pure_saddle.calls": "count",
    "solve.find_pure_saddle_s": "s",
    "solve.check_all_2x2.calls": "count",
    "solve.check_all_2x2_s": "s",
    "solve.quadruples_full_sweep": "count",
    "solve.check_all_2x2_ns_per_quadruple": "ns",
    "solve.certificate_pass_share": "ratio",
    "simulate.estimate_payoff.calls": "count",
    "simulate.estimate_payoff_s": "s",
    "simulate.epochs": "count",
    "simulate.ns_per_epoch": "ns",
    "trace.overhead_frac": "ratio",
}


class BenchmarkError(Exception):
    """A step of the benchmark itself could not run; no result is printed."""


def _child(cmd: list[str], deadline: float, stdin: bytes | None = None) -> str:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, input=stdin, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"{cmd[1]} ran past the deadline") from e
    if done.returncode != 0:
        raise BenchmarkError(f"{cmd[1]} exited with {done.returncode}")
    return done.stdout.decode()


def measure_setup(workload: str, seed: int, tiny: bool, deadline: float) -> list[float]:
    stream = gen.games(workload, seed, tiny)
    texts = [json.dumps(next(stream)) for _ in range(gen.round_size(workload, tiny))]
    payload = "\0".join(texts).encode()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)]
    return [float(_child(cmd, deadline, payload)) for _ in range(SETUP_REPEATS)]


def run_worker(workload: str, seed: int, tiny: bool, deadline: float, *,
               seconds: float | None = None, ops: int | None = None,
               traced: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    cmd += ["--seconds", str(seconds)] if ops is None else ["--ops", str(ops)]
    if traced is not None:
        cmd += ["--traced", str(traced)]
    if tiny:
        cmd.append("--tiny")
    return json.loads(_child(cmd, deadline).strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(args, run: dict) -> list[str]:
    m = run["machine"]
    d = run["descriptor"]
    lines = [
        f"pismg benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}{' (tiny)' if args.tiny else ''}",
        f"machine: python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
        f"{m['machine']}, nproc {m['nproc']}, blas threads {m['blas_threads']}",
        "workload: " + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                                 for k, v in d.items()),
        f"checks: example_s5 plus every operation, recomputed by "
        f"{run['check_methods'] or 'the solved value'}",
    ]
    return lines


def end_to_end(args, run: dict, setup: list[float]) -> tuple[dict, list[str]]:
    op_s = run["op_s"]
    if not op_s:
        raise BenchmarkError("no operation completed")
    work_per_s = run["work"] / sum(op_s)
    p50_ms = 1e3 * statistics.median(op_s)
    failed_frac = run["failed"] / run["attempted"]
    if args.workload == "simulate":
        names = ("epochs_per_s", "epochs/s", "estimate_ms_p50")
    else:
        names = ("pairs_per_s", "pairs/s", "solve_ms_p50")
    lines = [
        f"  {names[0]:<16} {work_per_s:12.6g} {names[1]:<9} = work_per_s "
        f"({run['work']} over {len(op_s)} calls, {sum(op_s):.3f} s)",
        f"  {names[2]:<16} {p50_ms:12.6g} ms        = op_ms_p50 (n = {len(op_s)})",
    ]
    if len(op_s) >= 2:
        p95 = statistics.quantiles(op_s, n=20, method="inclusive")[-1]
        beyond = sum(x > p95 for x in op_s)
        if beyond >= 10:
            lines.append(f"  {names[2][:-3] + 'p95':<16} {1e3 * p95:12.6g} ms        "
                         f"(n = {len(op_s)}, {beyond} beyond)")
        else:
            lines.append(f"  {names[2][:-3] + 'p95':<16} {'-':>12}           "
                         f"(not reported: {beyond} samples beyond, fewer than 10)")
    setup_s = statistics.median(setup)
    lines += [
        f"  {'peak_rss_mb':<16} {run['peak_rss_mb']:12.6g} MB",
        f"  {'setup_s':<16} {setup_s:12.6g} s         (median of {len(setup)} fresh interpreters)",
        f"  {'failed_frac':<16} {failed_frac:12.6g} ratio     "
        f"({run['failed']} of {run['attempted']})",
    ]
    values = {"work_per_s": work_per_s, "op_ms_p50": p50_ms,
              "peak_rss_mb": run["peak_rss_mb"], "setup_s": setup_s}
    return {k: metric(values[k], unit) for k, unit in END_TO_END_UNITS.items()}, lines


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    base = sum(plain["op_s"])
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = (sum(traced["op_s"]) - base) / base if base else 0.0
    metrics = {k: metric(values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    lines = [f"  {k:<38} {v['value']:14.6g} {v['unit']}" for k, v in metrics.items()]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every game (the benchmark's smoke test)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "pismg").is_dir():
        print(f"benchmark: no pismg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.tiny, deadline,
                               seconds=args.seconds)
            spans = HERE / "out" / f"trace-{args.workload}.npz"
            traced = run_worker(args.workload, args.seed, args.tiny, deadline,
                                ops=plain["workload_ops"], traced=spans)
            metrics, lines = per_layer(plain, traced)
            runs = (plain, traced)
            lines.append(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            setup = measure_setup(args.workload, args.seed, args.tiny, deadline)
            plain = run_worker(args.workload, args.seed, args.tiny, deadline,
                               seconds=args.seconds)
            metrics, lines = end_to_end(args, plain, setup)
            runs = (plain,)
    except BenchmarkError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    print("\n".join(describe(args, runs[-1]) + lines))
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
