"""The expected CLI outputs in tests/data, and an exact check of them
through the installed ``pismg`` command.

``GOLDEN`` lists one case per file: ``(file, game, argv)``, the
expected output ``tests/data/<file>``, the game the case reads, and the
command line, where "{game}" stands for the game's path. The game
"example" is example_s5.json at the repository root; any other game is
``tests/data/<game>.json``. Regenerate a file with
`pismg <argv> > tests/data/<file>`.

tests/test_cli.py runs every case in process and lets floats in JSON
differ by 1e-12 relative, since LAPACK builds may differ in the last
ulp. Run as a script, this module runs every case through the installed
command and compares its output byte for byte::

    python tests/_golden.py

It prints each case that differs and exits 1 if any does. It imports
the standard library alone, so it runs where only the package is
installed. Text output rounds to 6 digits, and the JSON cases hold
values that the computation fixes to the last bit (see the comments),
so the exact comparison holds on any platform.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
EXAMPLE = DATA.parents[1] / "example_s5.json"

GOLDEN = [
    # the structural solve of the example, as text (it pins the "method:
    # structural" line) and as JSON
    ("solve_example_s5.txt", "example", ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    ("solve_example_s5.json", "example",
     ["solve", "{game}", "--no-banner", "--emit-matrices", "--format", "json"]),
    # the two-sinks game of test_solve.py, whose state-1 matrix violates
    # the all-pairs 2x2 certificate, so the sweep's confirmed first
    # violation is pinned; every entry is 0 or 1
    ("solve_two_sinks.txt", "two_sinks", ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    # the unreachable-from-choices game of test_solve.py, whose one-action
    # states are the transient states 3, 6 and 7 and the decision-free
    # closed class {4, 5}: pins the censoring of both
    ("solve_one_action.txt", "one_action",
     ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    ("solve_two_sinks.json", "two_sinks",
     ["solve", "{game}", "--no-banner", "--emit-matrices", "--format", "json"]),
    # two independent two-state sub-games, one per player, and the
    # one-action state 5 that may enter both, so its payoff mixes them
    ("solve_decoupled.txt", "decoupled", ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    # a decision state inside a cycle of one-action states, a one-action
    # cycle that drains into a decision state and a closed class, and a
    # closed class entered only through transient states: pins the open
    # states, closed classes and entry supports of the censoring
    ("solve_cycles.txt", "cycles", ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    # a loop that escapes with probability 1e-10 per round: each
    # diagonal entry of the absorption solve keeps its digits, and every
    # value is 2
    ("solve_thin_loop.txt", "thin_loop", ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    # the decision pair (couple, couple) closes a class of two states
    # coupled at 1e-10 per round: GTH state reduction keeps every digit
    # of its stationary row, and every entry is within one unit in the
    # last place of the exact payoff (see test_weak_coupling_golden_is_exact)
    ("solve_weak_coupling.json", "weak_coupling",
     ["solve", "{game}", "--no-banner", "--emit-matrices", "--format", "json"]),
    # decision state 1 enters a one-action class of two states coupled at
    # 1e-10 per round: its stationary row keeps every digit, and every
    # value is 7/3 within an ulp
    ("solve_weak_closed_class.json", "weak_closed_class",
     ["solve", "{game}", "--no-banner", "--emit-matrices", "--format", "json"]),
    # a node value that overflows to inf under "go", where state 1 is
    # transient: every value is 1 and every matrix entry 1 or 2
    ("solve_transient_overflow.txt", "transient_overflow",
     ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    # uniform, deterministic and mean sojourns as transition overrides:
    # the expected sojourns of actions whose transitions override their
    # default model
    ("solve_uniform_sojourns.txt", "uniform_sojourns",
     ["solve", "{game}", "--no-banner", "--emit-matrices"]),
    # the report holds no floats
    ("validate_example_s5.json", "example", ["validate", "{game}", "--format", "json"]),
    # the example's sojourns are all "mean", so no libm call touches the
    # bytes
    ("simulate_example_s5.json", "example",
     ["simulate", "{game}", "--max", "2", "--min", "0", "--start", "1",
      "--horizon", "1000", "--reps", "10", "--seed", "3", "--format", "json"]),
    # uniform, deterministic and mean sojourns, as action defaults and as
    # transition overrides, and a probability-0 transition: the sojourn
    # kind each transition draws is pinned, and a uniform draw is IEEE
    # arithmetic with no libm call
    ("simulate_uniform_sojourns.json", "uniform_sojourns",
     ["simulate", "{game}", "--max", "0", "--min", "0", "--start", "2",
      "--horizon", "1000", "--reps", "10", "--seed", "5", "--format", "json"]),
    # the grid of this pair is {0.3, 0.5, 0.6}, not dyadic, and 1001
    # epochs end in a part of a group: pins the last epochs of a
    # trajectory and the uniforms that fall between grid points
    ("simulate_uniform_sojourns_1001.json", "uniform_sojourns",
     ["simulate", "{game}", "--max", "1", "--min", "0", "--start", "2",
      "--horizon", "1001", "--reps", "10", "--seed", "9", "--format", "json"]),
    # 40 distinct grid points on 20 states: the pair has a table, but a
    # map of two-epoch blocks would not fit, so its blocks are one epoch
    ("simulate_one_epoch_blocks.json", "one_epoch_blocks",
     ["simulate", "{game}", "--max", "0", "--min", "0", "--start", "1",
      "--horizon", "1001", "--reps", "10", "--seed", "11", "--format", "json"]),
]


def command(game: str, argv: list[str]) -> list[str]:
    """The case's arguments, with "{game}" replaced by the game's path."""
    path = EXAMPLE if game == "example" else DATA / f"{game}.json"
    return [a.format(game=path) for a in argv]


def main() -> int:
    failed = 0
    for name, game, argv in GOLDEN:
        run = subprocess.run(["pismg", *command(game, argv)], capture_output=True)
        same = run.stdout == (DATA / name).read_bytes()
        if run.returncode or run.stderr or not same:
            failed += 1
            print(f"{name}: exit {run.returncode}, output "
                  f"{'matches' if same else 'differs from'} tests/data/{name}")
            sys.stdout.write(run.stderr.decode(errors="replace"))
    print(f"{len(GOLDEN) - failed} of {len(GOLDEN)} golden outputs match byte for byte")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
