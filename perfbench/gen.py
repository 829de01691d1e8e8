"""Seeded game generators for the benchmark workloads.

Every generator returns plain JSON-ready dicts in the pismg game file
format; the program under test only ever sees them as JSON text. The
same seed gives the same games, and every game carries a distinct name,
so no two games of one run are equal ``GameSpec`` values.
"""

from __future__ import annotations

import itertools

import numpy as np

WORKLOADS = ("corpus", "wide", "long", "simulate")
SOJOURN_KINDS = ("mean", "deterministic", "exponential", "uniform")


def _sojourn(rng: np.random.Generator, kind: str) -> dict:
    if kind == "mean":
        return {"kind": "mean", "value": float(rng.uniform(0.5, 3.0))}
    if kind == "deterministic":
        return {"kind": "deterministic", "t": float(rng.uniform(0.5, 3.0))}
    if kind == "exponential":
        return {"kind": "exponential", "rate": float(rng.uniform(0.4, 2.0))}
    a = float(rng.uniform(0.0, 1.5))
    return {"kind": "uniform", "a": a, "b": a + float(rng.uniform(0.5, 2.0))}


def _random_sojourn(rng: np.random.Generator) -> dict:
    # "mean" twice: the same kind weights as the test-suite corpus
    kind = ("mean", "mean", "deterministic", "exponential", "uniform")[
        int(rng.integers(0, 5))
    ]
    return _sojourn(rng, kind)


def _random_action(rng: np.random.Generator, label: str, dests) -> dict:
    weights = rng.integers(1, 10, size=len(dests)).astype(float)
    probs = weights / weights.sum()
    reward = float(np.round(rng.uniform(-5.0, 5.0), 4))
    return {
        "label": label,
        "reward": reward,
        "sojourn": _random_sojourn(rng),
        "transitions": [
            {"to": int(d), "prob": float(p)} for d, p in zip(dests, probs)
        ],
    }


def corpus_game(rng: np.random.Generator, name: str) -> dict:
    """One small random game: 2-6 states, 1-3 actions per state, random
    successor sets and mixed sojourn kinds. The draws follow the test
    suite's corpus generator call for call, so seed 424242 reproduces
    its corpus-200."""
    n = int(rng.integers(2, 7))
    states = []
    for sid in range(1, n + 1):
        player = "I" if rng.random() < 0.5 else "II"
        actions = []
        for a in range(int(rng.integers(1, 4))):
            n_dest = int(rng.integers(1, n + 1))
            dests = rng.choice(n, size=n_dest, replace=False) + 1
            actions.append(_random_action(rng, f"a{a + 1}", dests))
        states.append({"id": sid, "player": player, "actions": actions})
    return {"name": name, "states": states}


def wide_game(rng: np.random.Generator, name: str, decoupled: bool,
              actions: int = 10) -> dict:
    """Four states, two per player, ``actions`` actions each: with ten,
    D1 = D2 = 100.

    In a decoupled game each player's states move only among
    themselves, so phi(s) depends on one player's strategy alone, every
    2x2 submatrix has a saddle and the certificate sweeps all
    quadruples. Otherwise successors range over all four states."""
    owner = {1: "I", 2: "I", 3: "II", 4: "II"}
    states = []
    for sid in range(1, 5):
        pool = [s for s in owner if owner[s] == owner[sid]] if decoupled else list(owner)
        acts = []
        for a in range(actions):
            n_dest = int(rng.integers(1, len(pool) + 1))
            dests = rng.choice(pool, size=n_dest, replace=False)
            acts.append(_random_action(rng, f"a{a + 1}", dests))
        states.append({"id": sid, "player": owner[sid], "actions": acts})
    return {"name": name, "states": states}


def long_game(rng: np.random.Generator, name: str, n: int = 150) -> dict:
    """``n`` sparse states (1-3 successors per action). Four states per
    player have two actions, the rest one: D1 = D2 = 16."""
    chosen = rng.choice(n, size=8, replace=False) + 1
    two_actions = {int(s): ("I" if k < 4 else "II") for k, s in enumerate(chosen)}
    states = []
    for sid in range(1, n + 1):
        player = two_actions.get(sid, "I" if rng.random() < 0.5 else "II")
        actions = []
        for a in range(2 if sid in two_actions else 1):
            n_dest = int(rng.integers(1, 4))
            dests = rng.choice(n, size=n_dest, replace=False) + 1
            actions.append(_random_action(rng, f"a{a + 1}", dests))
        states.append({"id": sid, "player": player, "actions": actions})
    return {"name": name, "states": states}


def simulate_game(rng: np.random.Generator, name: str, n: int = 6) -> dict:
    """``n`` states alternating between the players, two actions each.
    Every action moves with probability 1/4 to each of four distinct
    states, one of them the next state on a ring (so every pure pair
    induces an irreducible chain), and each of the four transitions has
    its own sojourn kind. Every pair therefore spends the same share of
    epochs on each kind whatever the seed. Rewards are positive, so
    phi stays well away from 0."""
    states = []
    for sid in range(1, n + 1):
        actions = []
        for a in range(2):
            others = [s for s in range(1, n + 1) if s != sid % n + 1]
            dests = [sid % n + 1, *(int(d) for d in rng.choice(others, size=3, replace=False))]
            kinds = rng.permutation(len(SOJOURN_KINDS))
            actions.append({
                "label": f"a{a + 1}",
                "reward": float(np.round(rng.uniform(1.0, 5.0), 4)),
                "transitions": [
                    {"to": d, "prob": 0.25, "sojourn": _sojourn(rng, SOJOURN_KINDS[k])}
                    for d, k in zip(dests, kinds)
                ],
            })
        states.append({"id": sid, "player": "I" if sid % 2 else "II", "actions": actions})
    return {"name": name, "states": states}


def round_size(workload: str, tiny: bool = False) -> int:
    """Games per round. A run always finishes the round it started, and
    set-up parses and validates the first round."""
    return {"corpus": 10 if tiny else 200, "wide": 2}.get(workload, 1)


def games(workload: str, seed: int, tiny: bool = False):
    """Endless stream of the workload's games. ``tiny`` shrinks every
    game for the benchmark's own smoke test."""
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        name = f"{workload}-{seed}-{i}"
        if workload == "corpus":
            yield corpus_game(rng, name)
        elif workload == "wide":
            yield wide_game(rng, name, decoupled=i % 2 == 1, actions=3 if tiny else 10)
        elif workload == "long":
            yield long_game(rng, name, n=20 if tiny else 150)
        else:
            yield simulate_game(rng, name)
