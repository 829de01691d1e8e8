"""Scalar reference simulator: one decision epoch at a time, in Python.

The draw discipline of :mod:`pismg.simulate`, written as the plain loop
it describes. Replication k is keyed ``seed ^ k`` on Philox; one block of
``horizon`` uniforms drives the transitions, each inverted by
``bisect_right`` through its state's cumulative row; each stochastic
sojourn then draws one more uniform from the same stream, in trajectory
order (``math.log1p`` for exponential, ``a + (b - a) * v`` for uniform);
reward and time are summed in epoch order from 0.0. The library's block
path must give the same :class:`pismg.TrajectoryStats`, bit for bit.

The oracle reads the spec's dataclasses, action by action and transition
by transition, and shares no code with the flat tables the library
compiles its chain from.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from pismg import PLAYER_I, TrajectoryStats


def selected_action(spec, state: int, f, g):
    """The action played at ``state`` under the pair (f, g)."""
    st = spec.state(state)
    strat = f if st.controller == PLAYER_I else g
    return st.actions[strat.action_at(state)]


def _table(spec, f, g):
    table = []
    for st in spec.states:
        act = selected_action(spec, st.id, f, g)
        moves = [tr for tr in act.transitions if tr.prob > 0.0]
        weights = np.array([tr.prob for tr in moves])
        cumulative = np.cumsum(weights / weights.sum())
        cumulative[-1] = 1.0
        sojourns = [tr.sojourn if tr.sojourn is not None else act.default_sojourn
                    for tr in moves]
        table.append((act.reward, [tr.to for tr in moves], cumulative.tolist(), sojourns))
    return table


def _sojourn(model, rng) -> float:
    if model.kind in ("mean", "deterministic"):
        return model.params[0]
    if model.kind == "exponential":
        return -math.log1p(-rng.random()) / model.params[0]
    a, b = model.params
    return a + (b - a) * rng.random()


def trajectory(spec, f, g, start: int, horizon: int, seed: int) -> TrajectoryStats:
    """One trajectory, stepped epoch by epoch."""
    table = _table(spec, f, g)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(horizon)
    state, cum_reward, cum_time = start, 0.0, 0.0
    visits = [0] * spec.n
    for m in range(horizon):
        reward, dests, cumulative, sojourns = table[state - 1]
        visits[state - 1] += 1
        cum_reward += reward
        k = bisect_right(cumulative, u[m])
        cum_time += _sojourn(sojourns[k], rng)
        state = dests[k]
    return TrajectoryStats(cum_reward=cum_reward, cum_time=cum_time, steps=horizon,
                           final_state=state, visits=tuple(visits))


def estimate(spec, f, g, start: int, horizon: int, reps: int, seed: int):
    """(point, stderr) of the ratio-of-means estimate over the scalar
    trajectories keyed ``seed ^ k``, in the library's arithmetic."""
    runs = [trajectory(spec, f, g, start, horizon, seed ^ k) for k in range(reps)]
    rewards = np.array([r.cum_reward for r in runs])
    times = np.array([r.cum_time for r in runs])
    mean_reward, mean_time = float(rewards.mean()), float(times.mean())
    point = mean_reward / mean_time
    cov = float(np.cov(rewards, times, ddof=1)[0, 1])
    variance = (float(rewards.var(ddof=1)) - 2.0 * point * cov
                + point * point * float(times.var(ddof=1))) / (reps * mean_time * mean_time)
    return point, math.sqrt(max(variance, 0.0))
