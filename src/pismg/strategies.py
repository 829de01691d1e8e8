"""Pure stationary strategies and the Markov chain a pair of them induces.

A pure stationary strategy fixes one action in every state its player
controls; states controlled by the opponent do not appear in the choice
map (the player is a dummy there, and the full-profile notation is
recovered by inserting the opponent-controlled states with their single
implicit choice). A player controlling no states has exactly one, empty,
strategy.

Enumeration is odometer order over the controlled states taken
ascending: the choice at the lowest-indexed controlled state is the most
significant digit, so the choice at the highest-indexed one varies
fastest. Ordinals are 0-based positions in that order; display labels
f1..fD1 and g1..gD2 are the 1-based positions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError
from .game import GameSpec, PLAYER_I, expected_sojourn

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class PureStationaryStrategy:
    """One deterministic choice per controlled state.

    ``states`` lists the controlled states ascending, ``actions`` the
    0-based chosen action index per state (same order), ``ordinal`` the
    strategy's 0-based rank in enumeration order.
    """

    player: str
    states: tuple[int, ...]
    actions: tuple[int, ...]
    ordinal: int

    def action_at(self, state: int) -> int:
        return self.actions[self.states.index(state)]

    @property
    def label(self) -> str:
        prefix = "f" if self.player == PLAYER_I else "g"
        return f"{prefix}{self.ordinal + 1}"

    def describe(self, spec: GameSpec) -> str:
        if not self.states:
            return f"{self.label}: (no controlled states)"
        parts = ", ".join(
            f"{s}->{spec.state(s).actions[a].label}"
            for s, a in zip(self.states, self.actions)
        )
        return f"{self.label}: {parts}"


@dataclass(frozen=True)
class SemiStationaryStrategy:
    """A pure stationary strategy chosen per initial state: entry s - 1
    is the strategy the player commits to when play starts in state s."""

    player: str
    per_initial_state: tuple[PureStationaryStrategy, ...]

    def for_state(self, state: int) -> PureStationaryStrategy:
        return self.per_initial_state[state - 1]


@dataclass(frozen=True, eq=False)
class InducedChain:
    """Transition matrix, reward vector and expected-sojourn vector of
    the semi-Markov chain a fixed pure pair induces (0-based rows)."""

    q: np.ndarray
    r: np.ndarray
    tau: np.ndarray


def controlled_states(spec: GameSpec, player: str) -> tuple[int, ...]:
    return tuple(st.id for st in spec.states if st.controller == player)


def strategy_count(spec: GameSpec, player: str) -> int:
    return math.prod(
        len(spec.state(s).actions) for s in controlled_states(spec, player)
    )


def enumerate_pure(spec: GameSpec, player: str,
                   cap: int = ENUMERATION_CAP) -> tuple[PureStationaryStrategy, ...]:
    """All pure stationary strategies of one player, in odometer order.

    Refuses to materialize more than ``cap`` strategies; the raised
    :class:`EnumerationLimitError` carries the exact count."""
    states = controlled_states(spec, player)
    count = strategy_count(spec, player)
    if count > cap:
        raise EnumerationLimitError(
            f"player {player} has {count} pure stationary strategies, "
            f"above the cap of {cap}",
            count=count,
        )
    radices = [range(len(spec.state(s).actions)) for s in states]
    return tuple(
        PureStationaryStrategy(player, states, combo, ordinal)
        for ordinal, combo in enumerate(itertools.product(*radices))
    )


def strategy_from_ordinal(spec: GameSpec, player: str,
                          ordinal: int) -> PureStationaryStrategy:
    """Decode an ordinal without enumerating (mixed radix, lowest-indexed
    controlled state most significant)."""
    states = controlled_states(spec, player)
    radices = [len(spec.state(s).actions) for s in states]
    total = math.prod(radices)
    if not 0 <= ordinal < total:
        raise ValueError(
            f"ordinal {ordinal} out of range for player {player} "
            f"({total} strategies)"
        )
    digits: list[int] = []
    rest = ordinal
    for r in reversed(radices):
        rest, d = divmod(rest, r)
        digits.append(d)
    return PureStationaryStrategy(player, states, tuple(reversed(digits)), ordinal)


def ordinal_of(spec: GameSpec, player: str, actions: tuple[int, ...]) -> int:
    """Inverse of :func:`strategy_from_ordinal` on the choice tuple."""
    states = controlled_states(spec, player)
    if len(actions) != len(states):
        raise ValueError(
            f"player {player} controls {len(states)} states, got "
            f"{len(actions)} choices"
        )
    ordinal = 0
    for s, a in zip(states, actions):
        d = len(spec.state(s).actions)
        if not 0 <= a < d:
            raise ValueError(f"state {s}: action index {a} out of range 0..{d - 1}")
        ordinal = ordinal * d + a
    return ordinal


def strategy_from_labels(spec: GameSpec, player: str,
                         chosen: dict[int, str]) -> PureStationaryStrategy:
    """Build a strategy from a {state: action label} map covering exactly
    the player's controlled states. A label that two actions of its
    state share names neither, so it raises ValueError."""
    states = controlled_states(spec, player)
    if set(chosen) != set(states):
        raise ValueError(
            f"player {player} controls states {list(states)}, "
            f"got choices for {sorted(chosen)}"
        )
    actions = []
    for s in states:
        labels = [a.label for a in spec.state(s).actions]
        matches = [a for a, label in enumerate(labels) if label == chosen[s]]
        if not matches:
            raise ValueError(
                f"state {s}: no action labelled {chosen[s]!r} "
                f"(available: {labels})"
            )
        if len(matches) > 1:
            raise ValueError(
                f"state {s}: actions {matches[0] + 1} and {matches[1] + 1} are both "
                f"labelled {chosen[s]!r}; give the strategy as an ordinal"
            )
        actions.append(matches[0])
    actions_t = tuple(actions)
    return PureStationaryStrategy(
        player, states, actions_t, ordinal_of(spec, player, actions_t)
    )


def selected_action(spec: GameSpec, state: int,
                    f: PureStationaryStrategy, g: PureStationaryStrategy):
    """The action played at ``state`` under the pair (f, g)."""
    st = spec.state(state)
    strat = f if st.controller == PLAYER_I else g
    return st.actions[strat.action_at(state)]


def induce(spec: GameSpec, f: PureStationaryStrategy,
           g: PureStationaryStrategy) -> InducedChain:
    """Chain induced by a fixed pure pair: each state's row of
    :func:`action_tables` under the action its controller's strategy
    chooses."""
    q, r, tau = action_tables(spec)
    states = np.arange(spec.n)
    actions = [(f if st.controller == PLAYER_I else g).action_at(st.id)
               for st in spec.states]
    return InducedChain(q=q[states, actions], r=r[states, actions],
                        tau=tau[states, actions])


def action_tables(spec: GameSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, tau): ``q[s - 1, a]`` is the transition row of action a in
    state s, divided by its sum when that is not exactly 1 (validation
    already bounded the deviation), so it is stochastic to machine
    precision; ``r`` and ``tau`` hold the action's reward and expected
    sojourn. Rows past a state's last action are zero."""
    n = spec.n
    width = max(len(st.actions) for st in spec.states)
    r, tau = np.zeros((n, width)), np.zeros((n, width))
    real = np.zeros(n * width, dtype=bool)
    slots, heads, probs = [], [], []
    for st in spec.states:
        for a, act in enumerate(st.actions):
            slot = (st.id - 1) * width + a
            real[slot] = True
            r[st.id - 1, a] = act.reward
            tau[st.id - 1, a] = expected_sojourn(act)
            for tr in act.transitions:
                slots.append(slot)
                heads.append(tr.to - 1)
                probs.append(tr.prob)
    rows = np.zeros((n * width, n))
    rows[slots, heads] = probs
    total = rows.sum(axis=1)
    scale = real & (total != 1.0)
    rows[scale] /= total[scale, None]
    return rows.reshape(n, width, n), r, tau
