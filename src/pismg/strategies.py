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

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError
from .game import GameSpec, PLAYER_I, PLAYER_II, validate

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
        # a bisection over the ascending states: a chain's compile asks
        # once per state
        i = bisect.bisect_left(self.states, state)
        if i == len(self.states) or self.states[i] != state:
            raise ValueError(f"player {self.player} does not control state {state}")
        return self.actions[i]

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
        if not 1 <= state <= len(self.per_initial_state):
            raise ValueError(f"state {state} out of range 1..{len(self.per_initial_state)}")
        return self.per_initial_state[state - 1]


@dataclass(frozen=True, eq=False)
class InducedChain:
    """Transition matrix, reward vector and expected-sojourn vector of
    the semi-Markov chain a fixed pure pair induces (0-based rows)."""

    q: np.ndarray
    r: np.ndarray
    tau: np.ndarray


def _partition(spec: GameSpec, player: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The states ``player`` controls, ascending, their action counts and
    the player's strategy count, from the validation report; KeyError
    for a player other than 'I' and 'II'."""
    report = validate(spec)
    return {PLAYER_I: (report.s1, report.player1_action_counts, report.d1),
            PLAYER_II: (report.s2, report.player2_action_counts, report.d2)}[player]


def controlled_states(spec: GameSpec, player: str) -> tuple[int, ...]:
    return _partition(spec, player)[0]


def strategy_count(spec: GameSpec, player: str) -> int:
    return _partition(spec, player)[2]


def enumerate_pure(spec: GameSpec, player: str,
                   cap: int = ENUMERATION_CAP) -> tuple[PureStationaryStrategy, ...]:
    """All pure stationary strategies of one player, in odometer order.

    Refuses to materialize more than ``cap`` strategies; the raised
    :class:`EnumerationLimitError` carries the exact count."""
    states, counts, count = _partition(spec, player)
    if count > cap:
        raise EnumerationLimitError(
            f"player {player} has {count} pure stationary strategies, "
            f"above the cap of {cap}",
            count=count,
        )
    return tuple(
        PureStationaryStrategy(player, states, combo, ordinal)
        for ordinal, combo in enumerate(itertools.product(*map(range, counts)))
    )


def strategy_from_ordinal(spec: GameSpec, player: str,
                          ordinal: int) -> PureStationaryStrategy:
    """Decode an ordinal without enumerating (mixed radix, lowest-indexed
    controlled state most significant)."""
    states, radices, total = _partition(spec, player)
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
    states, counts, _ = _partition(spec, player)
    if len(actions) != len(states):
        raise ValueError(
            f"player {player} controls {len(states)} states, got "
            f"{len(actions)} choices"
        )
    ordinal = 0
    for s, a, d in zip(states, actions, counts):
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


def _choices(spec: GameSpec, f: PureStationaryStrategy,
             g: PureStationaryStrategy) -> list[int]:
    """The action (0-based) each state plays under the pair (f, g), once
    each strategy is checked to list exactly its player's controlled
    states, in order, and :func:`ordinal_of` that each choice is an
    action of its state."""
    for strat in (f, g):
        states = controlled_states(spec, strat.player)
        if tuple(strat.states) != states:
            raise ValueError(f"player {strat.player} controls states {list(states)}, "
                             f"got {list(strat.states)}")
        ordinal_of(spec, strat.player, strat.actions)
    return [(f if st.controller == PLAYER_I else g).action_at(st.id) for st in spec.states]


def induce(spec: GameSpec, f: PureStationaryStrategy,
           g: PureStationaryStrategy) -> InducedChain:
    """Chain induced by a fixed pure pair: each state's row of
    :func:`action_tables` under the action its controller's strategy
    chooses."""
    q, r, tau = action_tables(spec)
    states, actions = np.arange(spec.n), _choices(spec, f, g)
    return InducedChain(q=q[states, actions], r=r[states, actions], tau=tau[states, actions])


def action_tables(spec: GameSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, tau): ``q[s - 1, a]`` is the transition row of action a in
    state s, divided by its sum when that is not exactly 1 (validation
    already bounded the deviation), so it is stochastic to machine
    precision; ``r`` and ``tau`` hold the action's reward and expected
    sojourn. Rows past a state's last action are zero. Entry (s - 1, a)
    is slot (s - 1) * width + a of the flat tables :func:`validate`
    keeps, and all three are one scatter of them."""
    validate(spec)
    t = spec._tables
    n, width = spec.n, t.width
    r, tau = np.zeros(n * width), np.zeros(n * width)
    r[t.slot], tau[t.slot] = t.reward, t.tau
    rows = np.zeros((n * width, n))
    rows[t.slot[t.owner], t.dest] = t.prob
    total = rows.sum(axis=1)[t.slot]
    scale = total != 1.0
    rows[t.slot[scale]] /= total[scale, None]
    return rows.reshape(n, width, n), r.reshape(n, width), tau.reshape(n, width)
