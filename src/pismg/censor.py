"""Censoring a chain to a set of its states (the stochastic complement),
and the pure pairs of a game evaluated on its censored game.

A chain watched only when it is in the chosen states, here a game's
decision states, is again a Markov chain on those states, once the
closed classes that never reach them are added as absorbing nodes
(Meyer, SIAM Review 31, 1989; Kemeny and Snell, Finite Markov Chains,
1960). With the values each epoch earns accumulated between visits, a
semi-Markov chain censored this way keeps its long-run averages, so
every pure pair of a game can be evaluated on its censored chain.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .game import GameSpec
from .markov import (
    EPS_EDGE,
    EPS_PROJ,
    _absorption,
    _closure,
    _max_abs,
    _stationary,
    structural_limits,
)
from .strategies import action_tables


def _sink_reach(rows: np.ndarray, decision: np.ndarray) -> np.ndarray:
    """Reflexive reachability closure of the (n, n) transition ``rows``
    (edges > EPS_EDGE) with the ``decision`` states made sinks: entry
    (i, j) is 1 when some path from i to j enters no decision state
    before its end."""
    edges = rows > EPS_EDGE
    edges[decision] = False
    return _closure((edges | np.eye(len(rows), dtype=bool)).astype(float))


def censor(rows, decision, values) -> tuple:
    """Censor the (n, n) stochastic ``rows`` to the ``decision`` states
    (the stochastic complement) and accumulate the (n, p) ``values``.

    The chain is watched only at its c decision states and its m
    decision-free closed classes, the nodes: the i-th decision state is
    node i and the j-th closed class node c + j. Returns ``(closed,
    exits, enters, accumulated, means)``: the closed classes' states;
    the (n, c + m) distribution of the first node each state enters (an
    indicator row on the nodes' own states) and its 0/1 support from
    path counts; the expected sum of each value column over the epochs
    spent before that entry; and the (m, p) stationary per-epoch means
    of the value columns on each closed class.

    Only the rows outside ``decision`` are read. With the decision
    states made sinks, a decision-free state is closed when every state
    it reaches reaches it back; the other decision-free states U drain
    into the decision states and the closed classes, and one LU of
    I - Q_UU gives both their exit distribution and their accumulated
    values. The solve's residual and the exit rows' sums are checked,
    and each closed class's stationary row as in the structural
    method."""
    rows = np.asarray(rows, dtype=float)
    values = np.asarray(values, dtype=float)
    n, c = len(rows), len(decision)
    reach0 = _sink_reach(rows, decision)
    # a decision state is a sink here: it reaches itself only, so it is
    # never open, and it looks closed
    open_ = (reach0 > reach0.T).any(axis=1)
    nodes = np.zeros((n, c))
    nodes[decision, np.arange(c)] = 1.0
    classes: tuple[np.ndarray, ...] = ()
    closed = ~open_
    closed[decision] = False
    if closed.any():
        # a closed state reaches exactly its own class, whose smallest
        # member is the first state it reaches
        heads = reach0.argmax(axis=1)
        classes = tuple(np.flatnonzero(closed & (heads == h))
                        for h in sorted(set(heads[closed].tolist())))
        member = np.zeros((n, len(classes)))
        for j, idx in enumerate(classes):
            member[idx, j] = 1.0
        nodes = np.concatenate([nodes, member], axis=1)
    s = nodes.shape[1]
    exits, accumulated = nodes.copy(), np.zeros(values.shape)
    transient = np.flatnonzero(open_)
    if transient.size:
        out = rows[transient]
        tt = out[:, transient]
        rhs = np.concatenate([out @ nodes, values[transient]], axis=1)
        x = _absorption(tt, rhs, s)
        residual = _max_abs(x - tt @ x - rhs)
        if residual > EPS_PROJ * max(1.0, _max_abs(x)):
            raise NumericalError(
                f"numerically degenerate chain: absorption residual {residual!r}"
            )
        exits[transient], accumulated[transient] = x[:, :s], x[:, s:]
    means = np.zeros((len(classes), values.shape[1]))
    for j, idx in enumerate(classes):
        pi = _stationary(rows[idx][:, idx][None], idx[None])
        means[j] = pi[0] @ values[idx]
    return classes, exits, np.sign(reach0 @ nodes), accumulated, means


def _ratio(weights: np.ndarray, r: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """(weights @ r) / (weights @ tau) for a stack of chains' weight
    matrices (or one matrix shared by the stack), rewards and sojourns,
    one matrix-vector product per chain: a stacked matmul with a column
    operand runs the same product per chain as ``weights[i] @ r[i]``,
    without a Python loop over the chains."""
    num = (weights @ r[..., None])[..., 0]
    den = (weights @ tau[..., None])[..., 0]
    if float(den.min()) <= 0.0:
        raise NumericalError(
            "nonpositive expected time in the limit; sojourn validation "
            "should have prevented this"
        )
    return num / den


class _CensoredGame:
    """A game censored to its c decision states and m decision-free
    closed classes, itself a game on s = c + m nodes (see
    :func:`censor`), built once per solve. ``q[x, a]`` is
    node x's censored row under action a, ``edges[x, a]`` its 0/1 graph
    from path counts, and ``values[:, x, a]`` the reward, epochs and
    time the full chain accumulates from leaving node x until it enters
    the next node. A closed-class node has one action, which stays put,
    with its class's per-epoch means. Decision state ``decision[i]`` is
    node i; a game without one-action states is its own censored game.

    A state that enters one node only takes that node's payoff; the
    states that may enter several mix the nodes' limits by their exit
    distributions. The rows of ``exits`` are the s nodes' own (the
    identity) and then those of the mixed states, and ``enters`` and
    ``first`` are the supports of the mixed states' rows and their first
    nodes. State s reads its payoff from column ``rows[s]`` of the
    payoffs of the ``exits`` rows."""

    def __init__(self, spec: GameSpec):
        q, r, tau = action_tables(spec)
        self.n = spec.n
        self.decision = np.flatnonzero([len(st.actions) > 1 for st in spec.states])
        table = np.array([r, np.ones(r.shape), tau])
        if len(self.decision) == spec.n:
            self.q, self.edges, self.values = q, q > EPS_EDGE, table
            self.exits, self.enters = np.eye(spec.n), np.zeros((0, spec.n))
            self.first, self.rows = self.decision[:0], self.decision
            return
        closed, exits, enters, accumulated, means = censor(
            q[:, 0], self.decision, table[:, :, 0].T)
        chosen = q[self.decision]
        self.q = chosen @ exits
        self.edges = (chosen > EPS_EDGE).astype(float) @ enters > 0
        self.values = (table[:, self.decision]
                       + (chosen @ accumulated).transpose(2, 0, 1))
        if closed:
            c, m = len(self.decision), len(closed)
            stay = np.zeros((m, q.shape[1], c + m))
            stay[np.arange(m), 0, np.arange(c, c + m)] = 1.0
            tail = np.zeros((3, m, q.shape[1]))
            tail[:, :, 0] = means.T
            self.q = np.concatenate([self.q, stay])
            self.edges = np.concatenate([self.edges, stay > 0])
            self.values = np.concatenate([self.values, tail], axis=1)
        s = len(self.q)
        self.rows = enters.argmax(axis=1)
        mixed = enters.sum(axis=1) > 1
        self.first = self.rows[mixed]
        self.rows[mixed] = s + np.arange(len(self.first))
        self.exits = np.concatenate([np.eye(s), exits[mixed]])
        self.enters = enters[mixed]

    def actions(self, fs, gs) -> np.ndarray:
        """Every pair's action at each node, pairs in ordinal order: the
        chosen action at a decision state, 0 at a closed class."""
        profile = np.empty((len(fs), len(gs), self.n), dtype=np.intp)
        profile[..., np.array(fs[0].states, dtype=np.intp) - 1] = [[f.actions] for f in fs]
        profile[..., np.array(gs[0].states, dtype=np.intp) - 1] = [g.actions for g in gs]
        acts = np.zeros((len(fs) * len(gs), len(self.q)), dtype=np.intp)
        acts[:, :len(self.decision)] = profile.reshape(-1, self.n)[:, self.decision]
        return acts

    def payoffs(self, acts: np.ndarray) -> np.ndarray:
        """phi(s, f, g) for every state s of the pairs whose node actions
        are the rows of ``acts``, from one stack of censored chains.

        Per class K of a censored chain, the full chain's per-epoch means
        are mu_K.R / mu_K.N and mu_K.T / mu_K.N (renewal-reward), so the
        rows of ``rates`` = lower @ (upper / mu.N) weight R and T as the
        full chain's Q* weights r and tau, and a state's exit
        distribution carries that to every state (QQ* = Q*). A node or
        state that reaches a single class takes that class's value
        exactly: the weight 1 comes from the 0/1 reachability, so all
        states of a class share bits."""
        nodes = np.arange(acts.shape[1])
        lower, upper, reaches = structural_limits(self.q[nodes, acts],
                                                  self.edges[nodes, acts])
        reward, epochs, time = self.values[:, nodes, acts]
        lower = np.where(reaches.sum(axis=2, keepdims=True) == 1, reaches, lower)
        span = (upper * epochs[:, None]).sum(axis=2, keepdims=True)
        # a padded class has no stationary row and no span
        rates = lower @ (upper / np.maximum(span, np.finfo(float).tiny))
        phi = _ratio(self.exits, (rates @ reward[..., None])[..., 0],
                     (rates @ time[..., None])[..., 0])
        if len(self.first):
            whole = ((self.enters @ reaches) > 0).sum(axis=2) == 1
            mixed = phi[:, len(nodes):]
            mixed[whole] = phi[:, self.first][whole]
        return phi[:, self.rows]
