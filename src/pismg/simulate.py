"""Seeded Monte-Carlo evaluation of a fixed pure strategy pair.

Randomness comes from numpy's Philox generator (counter-based), keyed
directly by the user seed, so runs reproduce bit-for-bit across
platforms and processes. :func:`estimate_payoff` gives replication k its
own independent stream keyed ``seed ^ k``.

Within one trajectory the draw discipline is fixed so that results stay
stable under refactoring: one block of ``horizon`` uniforms is drawn up
front and drives the state transitions (one uniform per decision epoch,
inverted through the cumulative transition row), and stochastic
holding-time models draw lazily from the same stream in trajectory
order. ``deterministic`` sojourns consume no randomness; the
analytic-only ``mean`` kind declares no shape, so it is simulated as a
constant at its mean, which preserves the ratio-of-expectations target.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .game import GameSpec
from .strategies import PureStationaryStrategy, selected_action

SIMULATION_NOTE = "fixed-horizon ratio estimate; the long-run limit is not certified"


@dataclass(frozen=True)
class TrajectoryStats:
    """One simulated trajectory: accumulated reward and elapsed time over
    ``steps`` decision epochs, the state after the last transition, and
    the per-state visit counts at decision epochs (index s - 1)."""

    cum_reward: float
    cum_time: float
    steps: int
    final_state: int
    visits: tuple[int, ...]

    @property
    def ratio(self) -> float:
        """Single-path reward/time ratio. A sample-path quantity: for
        transient starts it need not match the ratio-of-expectations
        payoff."""
        return self.cum_reward / self.cum_time


@dataclass(frozen=True)
class PayoffEstimate:
    """Ratio-of-means estimate over independent replications, with a
    delta-method standard error."""

    point: float
    stderr: float
    reps: int
    horizon: int
    seed: int
    note: str = SIMULATION_NOTE


def _runtime_table(spec: GameSpec, f: PureStationaryStrategy,
                   g: PureStationaryStrategy):
    """Per state: reward, destination list, cumulative probabilities and
    sojourn models, restricted to positive-probability transitions."""
    table = []
    for st in spec.states:
        act = selected_action(spec, st.id, f, g)
        dests: list[int] = []
        probs: list[float] = []
        sojourns = []
        for tr in act.transitions:
            if tr.prob <= 0.0:
                continue
            dests.append(tr.to)
            probs.append(tr.prob)
            sojourns.append(tr.sojourn if tr.sojourn is not None else act.default_sojourn)
        weights = np.asarray(probs)
        weights = weights / weights.sum()
        cumulative = np.cumsum(weights)
        cumulative[-1] = 1.0
        table.append((act.reward, dests, cumulative.tolist(), sojourns))
    return table


def _sample_sojourn(model, rng: np.random.Generator) -> float:
    if model.kind == "mean" or model.kind == "deterministic":
        return model.params[0]
    if model.kind == "exponential":
        return -math.log1p(-rng.random()) / model.params[0]
    a, b = model.params
    return a + (b - a) * rng.random()


def _run(table, start: int, horizon: int, rng: np.random.Generator) -> TrajectoryStats:
    u = rng.random(horizon)
    state = start
    cum_reward = 0.0
    cum_time = 0.0
    visits = [0] * len(table)
    for m in range(horizon):
        reward, dests, cumulative, sojourns = table[state - 1]
        visits[state - 1] += 1
        cum_reward += reward
        k = bisect_right(cumulative, u[m])
        if k >= len(dests):
            k = len(dests) - 1
        cum_time += _sample_sojourn(sojourns[k], rng)
        state = dests[k]
    return TrajectoryStats(
        cum_reward=cum_reward,
        cum_time=cum_time,
        steps=horizon,
        final_state=state,
        visits=tuple(visits),
    )


def simulate(spec: GameSpec, f: PureStationaryStrategy,
             g: PureStationaryStrategy, start: int, horizon: int,
             seed: int) -> TrajectoryStats:
    """One trajectory of ``horizon`` decision epochs under (f, g) from
    ``start``, driven by the Philox stream keyed ``seed``."""
    if not 1 <= start <= spec.n:
        raise ValueError(f"start state {start} out of range 1..{spec.n}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    # Philox keys are unsigned 128-bit integers
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed {seed} out of range 0..2**128 - 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _run(_runtime_table(spec, f, g), start, horizon, rng)


def estimate_payoff(spec: GameSpec, f: PureStationaryStrategy,
                    g: PureStationaryStrategy, start: int, horizon: int,
                    reps: int, seed: int) -> PayoffEstimate:
    """Ratio-of-means payoff estimate over ``reps`` independent
    replications: point = mean(cum_reward) / mean(cum_time), stderr by
    the delta method for a ratio of correlated means. Replication k uses
    the Philox stream keyed ``seed ^ k``, so any replication can be
    reproduced in isolation with :func:`simulate`."""
    if reps < 2:
        raise ValueError("reps must be at least 2 for a standard error")
    runs = [simulate(spec, f, g, start, horizon, seed ^ k) for k in range(reps)]
    rewards = np.array([stats.cum_reward for stats in runs])
    times = np.array([stats.cum_time for stats in runs])
    mean_reward = float(rewards.mean())
    mean_time = float(times.mean())
    point = mean_reward / mean_time
    var_reward = float(rewards.var(ddof=1))
    var_time = float(times.var(ddof=1))
    cov = float(np.cov(rewards, times, ddof=1)[0, 1])
    variance = (
        var_reward - 2.0 * point * cov + point * point * var_time
    ) / (reps * mean_time * mean_time)
    stderr = math.sqrt(max(variance, 0.0))
    return PayoffEstimate(
        point=point, stderr=stderr, reps=reps, horizon=horizon, seed=seed
    )
