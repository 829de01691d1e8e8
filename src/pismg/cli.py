"""Command-line front end.

Subcommands: ``validate``, ``enumerate``, ``cesaro``, ``solve``,
``simulate``. Exit codes: 0 success, 1 domain error (bad file, invalid
game, numerical failure), 2 usage error (argparse). Text output holds
numbers to 6 significant digits and may start with a version banner
(``--no-banner`` suppresses it); JSON output is machine-oriented, uses
full float precision and sorted keys, and is byte-identical across runs
with the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import PismgError
from .game import GameSpec, PLAYER_I, PLAYER_II, parse_game, validate
from . import markov
from .simulate import estimate_payoff
from .solve import solve
from .strategies import (
    PureStationaryStrategy,
    enumerate_pure,
    strategy_count,
    strategy_from_labels,
    strategy_from_ordinal,
)


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _banner(args: argparse.Namespace, out: list[str]) -> None:
    if args.format == "text" and not args.no_banner:
        out.append(f"pismg {__version__}")


def _load_game(args: argparse.Namespace) -> GameSpec:
    return parse_game(Path(args.game).read_text())


def _cesaro_options(args: argparse.Namespace) -> dict:
    """The tolerance flags of :func:`_add_method_flags`, as keywords of
    :func:`markov.cesaro`."""
    return {
        "deflation_tol": args.deflation_tol,
        "averaging_tol": args.averaging_tol,
        "averaging_n_max": args.averaging_n_max,
    }


def _strategy_jsonable(spec: GameSpec, strat: PureStationaryStrategy) -> dict:
    return {
        "ordinal": strat.ordinal,
        "label": strat.label,
        "actions": {
            str(s): spec.state(s).actions[a].label
            for s, a in zip(strat.states, strat.actions)
        },
    }


def _parse_strategy(spec: GameSpec, player: str, text: str) -> PureStationaryStrategy:
    """Accepts either an ordinal ('2') or a choice list ('1=a2,2=a1')."""
    try:
        ordinal = int(text)
    except ValueError:
        pass
    else:
        return strategy_from_ordinal(spec, player, ordinal)
    chosen: dict[int, str] = {}
    for part in text.split(","):
        state_text, _, label = part.partition("=")
        try:
            if not label:
                raise ValueError
            chosen[int(state_text)] = label
        except ValueError:
            raise ValueError(
                f"bad strategy spec {part!r}; expected 'state=label' or an ordinal"
            ) from None
    return strategy_from_labels(spec, player, chosen)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_game(args)
    report = validate(spec)
    if args.format == "json":
        obj = {"game": spec.name, "n": spec.n, "ok": True, **dataclasses.asdict(report)}
        print(json.dumps(obj, indent=2, sort_keys=True))
        return 0
    out: list[str] = []
    _banner(args, out)
    out.append(f"game: {spec.name}")
    out.append(f"states: {spec.n}")
    out.append(
        f"player I states: {list(report.s1)}   actions per state: "
        f"{list(report.player1_action_counts)}   D1 = {report.d1}"
    )
    out.append(
        f"player II states: {list(report.s2)}   actions per state: "
        f"{list(report.player2_action_counts)}   D2 = {report.d2}"
    )
    if report.warnings:
        for w in report.warnings:
            out.append(f"warning: {w}")
    else:
        out.append("warnings: (none)")
    out.append("ok")
    print("\n".join(out))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _load_game(args)
    d1 = strategy_count(spec, PLAYER_I)
    d2 = strategy_count(spec, PLAYER_II)
    if args.format == "json":
        obj: dict = {"game": spec.name, "d1": d1, "d2": d2}
        if args.tables:
            obj["maximiser"] = [
                _strategy_jsonable(spec, f) for f in enumerate_pure(spec, PLAYER_I)
            ]
            obj["minimiser"] = [
                _strategy_jsonable(spec, g) for g in enumerate_pure(spec, PLAYER_II)
            ]
        print(json.dumps(obj, indent=2, sort_keys=True))
        return 0
    out: list[str] = []
    _banner(args, out)
    out.append(f"game: {spec.name}")
    out.append(f"player I:  D1 = {d1} pure stationary strategies")
    out.append(f"player II: D2 = {d2} pure stationary strategies")
    if args.tables:
        out.append("player I strategies:")
        for f in enumerate_pure(spec, PLAYER_I):
            out.append(f"  {f.describe(spec)}")
        out.append("player II strategies:")
        for g in enumerate_pure(spec, PLAYER_II):
            out.append(f"  {g.describe(spec)}")
    print("\n".join(out))
    return 0


def _read_matrix(path: str) -> tuple[np.ndarray, str]:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in text.strip().splitlines()
        ]
        return np.array(rows, dtype=float), "csv"
    obj = json.loads(text)
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValueError(f"{path}: expected a JSON array of row arrays")
    return np.array(obj, dtype=float), "json"


def _matrix_text(q: np.ndarray, fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(repr(float(x)) for x in row) for row in q)
    return json.dumps([[float(x) for x in row] for row in q])


def _cmd_cesaro(args: argparse.Namespace) -> int:
    q, fmt = _read_matrix(args.matrix)
    result = markov.cesaro(q, args.method, **_cesaro_options(args))
    print(_matrix_text(result.q_star, fmt))
    diag = [f"method: {result.method}"]
    if result.m1 is not None:
        diag.append(f"unit-root multiplicity: {result.m1}")
    if result.iterations is not None:
        diag.append(f"iterations: {result.iterations}")
        diag.append(f"converged: {str(result.converged).lower()}")
    if result.decomposition is not None:
        dec = result.decomposition
        diag.append(f"recurrent classes: {len(dec.recurrent_classes)}")
        diag.append(f"transient states: {len(dec.transient)}")
    print("; ".join(diag), file=sys.stderr)
    return 0


def _solve_jsonable(spec: GameSpec, report) -> dict:
    certified = report.diagnostics["certificate_2x2"]
    return {
        "game": spec.name,
        "method": report.method,
        "value": report.value,
        "maximiser": [
            dict(state=s, **_strategy_jsonable(spec, report.maximiser.for_state(s)))
            for s in range(1, spec.n + 1)
        ],
        "minimiser": [
            dict(state=s, **_strategy_jsonable(spec, report.minimiser.for_state(s)))
            for s in range(1, spec.n + 1)
        ],
        "saddles": [
            {
                "state": s,
                "row": sr.row,
                "col": sr.col,
                "value": sr.value,
                "multiplicity": len(sr.all_saddles),
                "all_saddles": sr.all_saddles,
                "certificate_2x2": certified[s - 1],
            }
            for s, sr in enumerate(report.per_state, start=1)
        ],
        "diagnostics": report.diagnostics,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    spec = _load_game(args)
    report = solve(spec, args.method, saddle_eps=args.saddle_tol,
                   **_cesaro_options(args))
    if args.format == "json":
        obj = _solve_jsonable(spec, report)
        if args.emit_matrices:
            obj["matrices"] = [
                {"initial_state": s, "entries": report.payoffs[:, :, s - 1].tolist()}
                for s in range(1, spec.n + 1)
            ]
            obj["strategy_tables"] = {
                "maximiser": [
                    _strategy_jsonable(spec, f) for f in enumerate_pure(spec, PLAYER_I)
                ],
                "minimiser": [
                    _strategy_jsonable(spec, g) for g in enumerate_pure(spec, PLAYER_II)
                ],
            }
        print(json.dumps(obj, indent=2, sort_keys=True))
        return 0
    out: list[str] = []
    _banner(args, out)
    out.append(f"game: {spec.name}")
    out.append(
        f"method: {report.method}   D1 = {report.diagnostics['d1']}   "
        f"D2 = {report.diagnostics['d2']}"
    )
    out.append("value:")
    for s, sr in enumerate(report.per_state, start=1):
        f_label = report.maximiser.for_state(s).label
        g_label = report.minimiser.for_state(s).label
        out.append(
            f"  state {s}: {_fmt(report.value[s - 1])}   "
            f"saddle ({f_label}, {g_label}), multiplicity {len(sr.all_saddles)}"
        )
    out.append("maximiser:")
    for s in range(1, spec.n + 1):
        out.append(f"  state {s}: {report.maximiser.for_state(s).describe(spec)}")
    out.append("minimiser:")
    for s in range(1, spec.n + 1):
        out.append(f"  state {s}: {report.minimiser.for_state(s).describe(spec)}")
    if all(report.diagnostics["certificate_2x2"]):
        out.append("2x2 certificate: pass for all initial states")
    else:
        for s, violation in enumerate(
            report.diagnostics["certificate_violations"], start=1
        ):
            if violation is not None:
                i, i2, j, j2 = violation
                out.append(
                    f"2x2 certificate: VIOLATION at state {s}: "
                    f"rows ({i}, {i2}), cols ({j}, {j2})"
                )
    deltas = report.diagnostics["reference_deltas"]
    if deltas:
        out.append("reference deltas:")
        for d in deltas:
            out.append(
                f"  state {d['state']}: computed {_fmt(d['computed'])} vs "
                f"reference {_fmt(d['reference'])} (delta {_fmt(d['delta'])})"
            )
    elif spec.reference_values is not None:
        out.append("reference deltas: none (all within tolerance)")
    if args.emit_matrices:
        for s in range(1, spec.n + 1):
            out.append(f"payoff matrix, initial state {s}:")
            for row in report.payoffs[:, :, s - 1]:
                out.append("  " + "  ".join(f"{_fmt(x):>12}" for x in row))
    print("\n".join(out))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _load_game(args)
    f = _parse_strategy(spec, PLAYER_I, args.max_arg)
    g = _parse_strategy(spec, PLAYER_II, args.min_arg)
    estimate = estimate_payoff(
        spec, f, g, args.start, args.horizon, args.reps, args.seed
    )
    if args.format == "json":
        obj = {
            "game": spec.name,
            "maximiser": _strategy_jsonable(spec, f),
            "minimiser": _strategy_jsonable(spec, g),
            "start": args.start,
            **dataclasses.asdict(estimate),
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
        return 0
    out: list[str] = []
    _banner(args, out)
    out.append(f"game: {spec.name}")
    out.append(
        f"pair: ({f.label}, {g.label})   start: {args.start}   "
        f"horizon: {estimate.horizon}   reps: {estimate.reps}   seed: {estimate.seed}"
    )
    out.append(f"estimate: {_fmt(estimate.point)}   (stderr {_fmt(estimate.stderr)})")
    out.append(f"note: {estimate.note}")
    print("\n".join(out))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_format_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")
    sub.add_argument("--no-banner", action="store_true",
                     help="suppress the version banner in text output")


def _add_method_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", choices=markov.METHODS, default="structural",
                     help="limiting-matrix method (default: structural)")
    sub.add_argument("--deflation-tol", type=float, default=markov.DEFLATION_TOL,
                     help="relative tolerance for unit-root deflation")
    sub.add_argument("--averaging-tol", type=float, default=markov.AVERAGING_TOL,
                     help="convergence tolerance for the averaging method")
    sub.add_argument("--averaging-n-max", type=int, default=markov.AVERAGING_N_MAX,
                     help="iteration cap for the averaging method")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pismg",
        description="Solve and simulate zero-sum perfect-information "
                    "semi-Markov games under the long-run average-reward "
                    "criterion.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p = subparsers.add_parser("validate", help="check a game file and report its shape")
    p.add_argument("game", help="path to a game JSON file")
    _add_format_flags(p)

    p = subparsers.add_parser("enumerate", help="count (and list) pure stationary strategies")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--tables", action="store_true", help="list every strategy")
    _add_format_flags(p)

    p = subparsers.add_parser("cesaro", help="limiting matrix of a stochastic matrix")
    p.add_argument("--matrix", required=True,
                   help="matrix file: JSON array of row arrays, or CSV (*.csv)")
    _add_method_flags(p)

    p = subparsers.add_parser("solve", help="value vector and optimal pure strategies")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--emit-matrices", action="store_true",
                   help="include every per-initial-state payoff matrix and the strategy tables")
    p.add_argument("--saddle-tol", type=float, default=None,
                   help="override the scaled saddle comparison tolerance")
    _add_method_flags(p)
    _add_format_flags(p)

    p = subparsers.add_parser("simulate", help="Monte-Carlo estimate for a fixed pure pair")
    p.add_argument("game", help="path to a game JSON file")
    p.add_argument("--max", required=True, dest="max_arg", metavar="STRATEGY",
                   help="maximiser strategy: ordinal or 'state=label,...'")
    p.add_argument("--min", required=True, dest="min_arg", metavar="STRATEGY",
                   help="minimiser strategy: ordinal or 'state=label,...'")
    p.add_argument("--start", type=int, default=1, help="initial state (default: 1)")
    p.add_argument("--horizon", type=int, default=10000,
                   help="decision epochs per replication (default: 10000)")
    p.add_argument("--reps", type=int, default=100,
                   help="independent replications (default: 100)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    _add_format_flags(p)

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "cesaro": _cmd_cesaro,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (PismgError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
