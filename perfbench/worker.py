"""One measured pass over a workload, in a process of its own.

Usage: python3 perfbench/worker.py WORKLOAD SEED (--seconds S | --ops N)
       [--traced TRACE_FILE] [--tiny]

Runs closed-loop, one operation at a time: a ``solve()`` of a game the
process has not solved before (corpus, wide, long) or one
``estimate_payoff()`` call (simulate). With ``--seconds`` it runs whole
rounds until the timed operations add up to S seconds; with ``--ops`` it
runs exactly N operations, which is how a traced pass replays the
untraced one. Every operation is checked outside the timed region.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gen
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE = Path(__file__).with_name("example_s5.json")

# state values of example_s5.json, with the tolerances the acceptance
# tests pin them to
EXAMPLE_VALUES = ((154 / 67, 5e-4), (154 / 67, 5e-4), (2.9, 1e-12), (364 / 137, 1e-6))

# Cross-check tolerances on phi, relative to max(1, |value|). Lazari
# matches the structural limit within 1e-8 entrywise and averaging within
# 1e-6 (acceptance criterion 3); rewards are at most 5 in size and mean
# sojourns at least 0.5, which scales those by 10 on phi.
LAZARI_TOL = 1e-7
AVERAGING_TOL = 1e-5
LAZARI_N_MAX = 12

SIM_REPS = 16
SIM_HORIZON = 31_250   # 500k epochs per estimate
SIM_START = 1


def load_pismg():
    """Import pismg from this checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "pismg" / "__init__.py").is_file():
        sys.exit(f"benchmark: no pismg sources under {src}")
    sys.path.insert(0, str(src))
    import pismg
    if Path(pismg.__file__).resolve().parent != (src / "pismg").resolve():
        sys.exit(f"benchmark: imported pismg from {pismg.__file__}, not {src}")
    return pismg


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it reports one."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def _mean_sojourn(model: dict) -> float:
    kind = model["kind"]
    if kind == "mean":
        return model["value"]
    if kind == "deterministic":
        return model["t"]
    if kind == "exponential":
        return 1.0 / model["rate"]
    return 0.5 * (model["a"] + model["b"])


def pair_phi(pismg, obj: dict, f, g) -> tuple[np.ndarray, str]:
    """phi(., f, g) rebuilt from the game's JSON object, not from the
    parsed spec, through another Cesaro method than the solver's:
    lazari for n <= 12 (averaging if lazari refuses the chain), else
    averaging. Returns the vector and the method used."""
    n = len(obj["states"])
    choice = dict(zip(f.states, f.actions)) | dict(zip(g.states, g.actions))
    q = np.zeros((n, n))
    r = np.zeros(n)
    tau = np.zeros(n)
    for i, st in enumerate(obj["states"]):
        act = st["actions"][choice[st["id"]]]
        for tr in act["transitions"]:
            q[i, tr["to"] - 1] = tr["prob"]
            tau[i] += tr["prob"] * _mean_sojourn(tr.get("sojourn", act.get("sojourn")))
        q[i] /= q[i].sum()
        r[i] = act["reward"]
    markov = importlib.import_module("pismg.markov")
    method = "averaging"
    if n <= LAZARI_N_MAX:
        try:
            q_star = markov.cesaro_lazari(q).q_star
            method = "lazari"
        except pismg.NumericalError:
            pass
    if method == "averaging":
        q_star = markov.cesaro_averaging(q, tol=1e-10, n_max=2**40).q_star
    return (q_star @ r) / (q_star @ tau), method


def check_report(pismg, obj: dict, report, methods: dict) -> list[str]:
    """Recompute every state's value at its reported saddle pair.
    Returns one message per disagreement."""
    n = len(obj["states"])
    if len(report.value) != n:
        return [f"{obj['name']}: {len(report.value)} values for {n} states"]
    errors = []
    cache = {}
    for s in range(1, n + 1):
        f = report.maximiser.for_state(s)
        g = report.minimiser.for_state(s)
        key = (f.ordinal, g.ordinal)
        if key not in cache:
            cache[key] = pair_phi(pismg, obj, f, g)
            methods[cache[key][1]] = methods.get(cache[key][1], 0) + 1
        phi, method = cache[key]
        got = report.value[s - 1]
        tol = (LAZARI_TOL if method == "lazari" else AVERAGING_TOL) * max(1.0, abs(phi[s - 1]))
        if not abs(got - phi[s - 1]) <= tol:
            errors.append(
                f"{obj['name']} state {s}: solve gives {got!r}, {method} gives {phi[s - 1]!r}"
            )
    return errors


def check_example(pismg) -> list[str]:
    report = pismg.solve(pismg.parse_game(EXAMPLE.read_text()))
    return [
        f"example_s5 state {s}: value {got!r}, expected {want!r}"
        for s, (got, (want, tol)) in enumerate(zip(report.value, EXAMPLE_VALUES), start=1)
        if not abs(got - want) <= tol
    ]


class Run:
    """Counters and samples of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []   # timed wall time of each operation that returned
        self.busy = 0.0               # timed wall time of every operation
        self.work = 0                 # pure pairs solved, or epochs simulated
        self.methods: dict[str, int] = {}
        self.descriptor: dict = {}
        self.peak_rss_mb = 0.0

    def first_round_done(self) -> None:
        """Peak RSS is read once, when the first round ends: after that
        it would grow with the number of rounds that fit in the time
        (pismg's payoff cache keeps every pair it has seen)."""
        if not self.peak_rss_mb:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def fail(self, messages) -> None:
        self.failed += 1
        for m in messages:
            print(f"benchmark: {m}", file=sys.stderr)


def more(run: Run, args) -> bool:
    """Whether to start another operation (or round of them)."""
    return run.attempted < args.ops if args.ops is not None else run.busy < args.seconds


def timed_call(run: Run, label: str, fn, *fn_args):
    """Call fn once, adding its wall time to ``run.busy``. Returns
    (result, seconds), or None after recording the failure."""
    t0 = time.perf_counter()
    try:
        result = fn(*fn_args)
    except Exception:
        run.busy += time.perf_counter() - t0
        run.fail([f"{label}: {traceback.format_exc()}"])
        return None
    seconds = time.perf_counter() - t0
    run.busy += seconds
    return result, seconds


def run_solves(pismg, run: Run, args, tracer: Tracer) -> None:
    # module attributes are looked up per call, so a traced pass goes
    # through the wrappers
    game_mod = importlib.import_module("pismg.game")
    solve_mod = importlib.import_module("pismg.solve")
    stream = gen.games(args.workload, args.seed, args.tiny)
    sizes = set()
    states = passed = 0
    with tracer if args.traced else contextlib.nullcontext():
        while more(run, args):
            for _ in range(gen.round_size(args.workload, args.tiny)):
                obj = next(stream)
                text = json.dumps(obj)
                tracer.op = run.attempted
                run.attempted += 1
                parsed = timed_call(run, obj["name"], game_mod.parse_game, text)
                solved = parsed and timed_call(run, obj["name"], solve_mod.solve, parsed[0])
                if not solved:
                    continue
                report, seconds = solved
                run.op_s.append(seconds)
                run.work += report.diagnostics["d1"] * report.diagnostics["d2"]
                sizes.add(len(obj["states"]))
                states += len(obj["states"])
                passed += sum(bool(c) for c in report.diagnostics["certificate_2x2"])
                errors = check_report(pismg, obj, report, run.methods)
                if errors:
                    run.fail(errors)
            run.first_round_done()
    run.descriptor = {
        "games": run.attempted,
        "n": f"{min(sizes)}-{max(sizes)}" if sizes else "",
        "pairs": run.work,
        "certificate_pass_share": passed / states if states else 0.0,
    }


def run_simulations(pismg, run: Run, args, tracer: Tracer) -> None:
    obj = next(gen.games("simulate", args.seed))
    spec = pismg.parse_game(json.dumps(obj))
    solved = pismg.solve(spec)
    f = solved.maximiser.for_state(SIM_START)
    g = solved.minimiser.for_state(SIM_START)
    phi = solved.value[SIM_START - 1]
    reps, horizon = (8, 25_000) if args.tiny else (SIM_REPS, SIM_HORIZON)
    sim_mod = importlib.import_module("pismg.simulate")
    with tracer if args.traced else contextlib.nullcontext():
        while more(run, args):
            # replication k of operation i uses Philox key (seed << 32 | i << 8) ^ k
            sim_seed = (args.seed << 32) | (run.attempted << 8)
            tracer.op = run.attempted
            run.attempted += 1
            done = timed_call(run, f"estimate {sim_seed}", sim_mod.estimate_payoff,
                              spec, f, g, SIM_START, horizon, reps, sim_seed)
            if not done:
                continue
            est, seconds = done
            run.op_s.append(seconds)
            run.work += reps * horizon
            if not abs(est.point - phi) <= max(0.01 * abs(phi), 3.0 * est.stderr):
                run.fail([f"estimate {sim_seed}: {est.point!r} +- {est.stderr!r}, solved phi {phi!r}"])
            run.first_round_done()
    run.descriptor = {
        "games": 1,
        "n": str(spec.n),
        "pair": [f.label, g.label],
        "phi": phi,
        "reps": reps,
        "horizon": horizon,
        "estimates": run.attempted,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=gen.WORKLOADS)
    parser.add_argument("seed", type=int)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--ops", type=int)
    parser.add_argument("--traced", type=Path, help="record spans and write them here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    pismg = load_pismg()
    run = Run()
    errors = check_example(pismg)
    if errors:
        run.fail(errors)
    tracer = Tracer()
    runner = run_simulations if args.workload == "simulate" else run_solves
    runner(pismg, run, args, tracer)
    out = {
        "attempted": run.attempted + 1,   # the example check is one more
        "failed": run.failed,
        "workload_ops": run.attempted,
        "op_s": run.op_s,
        "work": run.work,
        "check_methods": run.methods,
        "peak_rss_mb": run.peak_rss_mb,
        "descriptor": run.descriptor,
        "machine": machine_info(),
    }
    if args.traced:
        tracer.write(args.traced)
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
