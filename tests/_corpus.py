"""Deterministic random-instance generators shared by the test modules.

Everything is driven by an explicit numpy Generator seeded by the
caller, so a corpus is fully pinned by (count, seed) and test runs are
reproducible.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from pismg import (
    ActionSpec,
    GameSpec,
    SojournModel,
    StateSpec,
    Transition,
    validate,
)

MATRIX_SIZES = (2, 3, 4, 5, 6, 7, 8)


def random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Row-stochastic matrix with varied structure: dense, sparse,
    block-reducible (transient states draining into a closed block), or
    near-permutation (periodic chains)."""
    style = int(rng.integers(0, 4))
    w = rng.integers(1, 10, size=(n, n)).astype(float)
    if style == 1:
        w = w * (rng.random((n, n)) < 0.5)
    elif style == 2 and n >= 2:
        k = max(1, n // 2)
        w[:k, k:] = 0.0
    elif style == 3:
        w = np.zeros((n, n))
        perm = rng.permutation(n)
        for i in range(n):
            w[i, perm[i]] = 3.0
        w = w + (rng.random((n, n)) < 0.15) * rng.integers(1, 4, size=(n, n))
    for i in range(n):
        if w[i].sum() == 0.0:
            w[i, int(rng.integers(0, n))] = 1.0
    return w / w.sum(axis=1, keepdims=True)


def matrix_corpus(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        random_stochastic(rng, MATRIX_SIZES[i % len(MATRIX_SIZES)])
        for i in range(count)
    ]


def _random_sojourn(rng: np.random.Generator) -> SojournModel:
    kind = ("mean", "mean", "deterministic", "exponential", "uniform")[
        int(rng.integers(0, 5))
    ]
    return _random_sojourn_of(rng, kind)


def _random_sojourn_of(rng: np.random.Generator, kind: str) -> SojournModel:
    if kind in ("mean", "deterministic"):
        return SojournModel(kind, (float(rng.uniform(0.5, 3.0)),))
    if kind == "exponential":
        return SojournModel("exponential", (float(rng.uniform(0.4, 2.0)),))
    a = float(rng.uniform(0.0, 1.5))
    return SojournModel("uniform", (a, a + float(rng.uniform(0.5, 2.0))))


def random_game(rng: np.random.Generator, name: str, max_states: int = 6,
                max_actions: int = 3, min_actions: int = 1) -> GameSpec:
    """Random valid game: integer-weight transition rows, rewards in
    [-5, 5], sojourn means in roughly [0.5, 3]."""
    n = int(rng.integers(2, max_states + 1))
    states = []
    for sid in range(1, n + 1):
        controller = "I" if rng.random() < 0.5 else "II"
        actions = []
        for a in range(int(rng.integers(min_actions, max_actions + 1))):
            n_dest = int(rng.integers(1, n + 1))
            dests = rng.choice(n, size=n_dest, replace=False) + 1
            weights = rng.integers(1, 10, size=n_dest).astype(float)
            probs = weights / weights.sum()
            actions.append(
                ActionSpec(
                    label=f"a{a + 1}",
                    reward=float(np.round(rng.uniform(-5.0, 5.0), 4)),
                    transitions=tuple(
                        Transition(int(d), float(p)) for d, p in zip(dests, probs)
                    ),
                    default_sojourn=_random_sojourn(rng),
                )
            )
        states.append(StateSpec(sid, controller, tuple(actions)))
    spec = GameSpec(name, tuple(states))
    validate(spec)
    return spec


def sparse_game(rng: np.random.Generator, n: int = 150, per_player: int = 4) -> GameSpec:
    """n states with 1-3 successors per action; ``per_player`` states per
    player have two actions and the rest one, so D1 = D2 =
    2^per_player (16 by default)."""
    two_actions = [int(s) + 1 for s in rng.choice(n, size=2 * per_player, replace=False)]
    states = []
    for sid in range(1, n + 1):
        if sid in two_actions:
            controller = "I" if two_actions.index(sid) < per_player else "II"
        else:
            controller = "I" if sid % 2 else "II"
        actions = []
        for a in range(2 if sid in two_actions else 1):
            dests = rng.choice(n, size=int(rng.integers(1, 4)), replace=False) + 1
            weights = rng.integers(1, 10, size=dests.size).astype(float)
            actions.append(
                ActionSpec(
                    label=f"a{a + 1}",
                    reward=float(np.round(rng.uniform(-5.0, 5.0), 4)),
                    transitions=tuple(
                        Transition(int(d), float(p))
                        for d, p in zip(dests, weights / weights.sum())
                    ),
                    default_sojourn=_random_sojourn(rng),
                )
            )
        states.append(StateSpec(sid, controller, tuple(actions)))
    spec = GameSpec(f"sparse-{n}", tuple(states))
    validate(spec)
    return spec


def decoupled_game(rng: np.random.Generator) -> GameSpec:
    """Four states, two per player, ten actions each, as in the
    benchmark's decoupled wide game: each player's states move only
    among themselves, so the game is two independent sub-games."""
    owner = {1: "I", 2: "I", 3: "II", 4: "II"}
    states = []
    for sid, controller in owner.items():
        pool = [s for s in owner if owner[s] == controller]
        acts = []
        for a in range(10):
            dests = rng.choice(pool, size=int(rng.integers(1, 3)), replace=False)
            weights = rng.integers(1, 10, size=dests.size).astype(float)
            acts.append(ActionSpec(
                label=f"a{a + 1}",
                reward=float(np.round(rng.uniform(-5.0, 5.0), 4)),
                transitions=tuple(
                    Transition(int(d), float(p)) for d, p in zip(dests, weights / weights.sum())
                ),
                default_sojourn=_random_sojourn(rng),
            ))
        states.append(StateSpec(sid, controller, tuple(acts)))
    spec = GameSpec("decoupled", tuple(states))
    validate(spec)
    return spec


def disjoint_union(first: GameSpec, second: GameSpec, link: bool = False) -> GameSpec:
    """The two games side by side, ``second``'s states renumbered after
    ``first``'s. With ``link``, one more state, with one action, enters
    each game's state 1 with probability 1/2, so its payoff mixes both."""
    shift = first.n
    states = list(first.states) + [
        replace(st, id=st.id + shift, actions=tuple(
            replace(act, transitions=tuple(replace(tr, to=tr.to + shift)
                                           for tr in act.transitions))
            for act in st.actions))
        for st in second.states
    ]
    if link:
        states.append(StateSpec(len(states) + 1, "I", (ActionSpec(
            "link", 1.5, (Transition(1, 0.5), Transition(shift + 1, 0.5)),
            SojournModel("mean", (1.0,))),)))
    spec = GameSpec(f"{first.name}+{second.name}{'+link' if link else ''}", tuple(states))
    validate(spec)
    return spec


def dense_game(rng: np.random.Generator, n: int = 200) -> GameSpec:
    """n states with one action each, moving to between 1 and n states
    with integer weights, as the rows of ``random_game`` do."""
    states = []
    for sid in range(1, n + 1):
        dests = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) + 1
        weights = rng.integers(1, 10, size=dests.size).astype(float)
        action = ActionSpec(
            label="a1",
            reward=float(np.round(rng.uniform(-5.0, 5.0), 4)),
            transitions=tuple(
                Transition(int(d), float(p)) for d, p in zip(dests, weights / weights.sum())
            ),
            default_sojourn=_random_sojourn(rng),
        )
        states.append(StateSpec(sid, "I" if sid % 2 else "II", (action,)))
    spec = GameSpec(f"dense-{n}", tuple(states))
    validate(spec)
    return spec


def mixed_sojourn_game(rng: np.random.Generator, n: int = 6) -> GameSpec:
    """n states alternating between the players, two actions each, as in
    the benchmark's simulate workload: every action moves with
    probability 1/4 to the next state on a ring and to three other
    states, and its four transitions carry one sojourn kind each."""
    kinds = ("mean", "deterministic", "exponential", "uniform")
    states = []
    for sid in range(1, n + 1):
        actions = []
        for a in range(2):
            others = [s for s in range(1, n + 1) if s != sid % n + 1]
            dests = [sid % n + 1, *(int(d) for d in rng.choice(others, size=3, replace=False))]
            actions.append(ActionSpec(
                label=f"a{a + 1}",
                reward=float(np.round(rng.uniform(1.0, 5.0), 4)),
                transitions=tuple(
                    Transition(d, 0.25, _random_sojourn_of(rng, kinds[k]))
                    for d, k in zip(dests, rng.permutation(len(kinds)))
                ),
            ))
        states.append(StateSpec(sid, "I" if sid % 2 else "II", tuple(actions)))
    spec = GameSpec(f"mixed-{n}", tuple(states))
    validate(spec)
    return spec


def game_corpus(count: int, seed: int, **kw) -> list[GameSpec]:
    rng = np.random.default_rng(seed)
    return [random_game(rng, f"corpus-{seed}-{i}", **kw) for i in range(count)]


def _scale_model(model: SojournModel | None, factor: float) -> SojournModel | None:
    if model is None:
        return None
    if model.kind in ("mean", "deterministic"):
        return SojournModel(model.kind, (model.params[0] * factor,))
    if model.kind == "exponential":
        return SojournModel("exponential", (model.params[0] / factor,))
    a, b = model.params
    return SojournModel("uniform", (a * factor, b * factor))


def scale_rewards(spec: GameSpec, factor: float) -> GameSpec:
    states = tuple(
        replace(
            st,
            actions=tuple(
                replace(act, reward=act.reward * factor) for act in st.actions
            ),
        )
        for st in spec.states
    )
    return replace(spec, states=states)


def scale_sojourns(spec: GameSpec, factor: float) -> GameSpec:
    """Multiply every holding-time mean by ``factor`` (parameters are
    transformed per kind so the mean scales exactly)."""
    states = tuple(
        replace(
            st,
            actions=tuple(
                replace(
                    act,
                    default_sojourn=_scale_model(act.default_sojourn, factor),
                    transitions=tuple(
                        replace(tr, sojourn=_scale_model(tr.sojourn, factor))
                        for tr in act.transitions
                    ),
                )
                for act in st.actions
            ),
        )
        for st in spec.states
    )
    return replace(spec, states=states)
