"""Censoring a chain to a set of its states (the stochastic complement),
and the pure pairs of a game evaluated on its censored game.

A chain watched only when it is in the chosen states, here a game's
decision states, is again a Markov chain on those states, once the
closed classes that never reach them are added as absorbing nodes
(Meyer, SIAM Review 31, 1989; Kemeny and Snell, Finite Markov Chains,
1960). With the values each epoch earns accumulated between visits, a
semi-Markov chain censored this way keeps its long-run averages, so
every pure pair of a game can be evaluated on its censored chain.

The structure of the censoring comes from one strongly connected
components pass (Tarjan, SIAM J. Comput. 1, 1972) over the transitions,
with the decision states made sinks, in time linear in the transitions:
no closure of the full chain is taken. The components of the censored
game's node graph come from the same pass. The other per-game step of
a solve that walks every transition, validation, runs once per spec: a
parsed spec keeps its report (:func:`pismg.game.validate`).

The censoring solves its transient block, of up to n states, once per
game by dense LU (:func:`pismg.markov._absorption`), where a Python loop
of elimination steps would lose to LAPACK. Every stationary row comes
from the one structural kernel, the masked GTH pass of
:func:`pismg.markov._structural_stack`: each decision-free closed class
runs as a stack of one, and the censored chains of a game's pairs,
small and many, as chain-last stacks through
:func:`pismg.markov.structural_limits`. The kernel checks the factors L
and U of Q* as they come out (UQ = U, QL = L, UL = I, and L's rows and
U's real rows probability vectors), which bounds the gap of each
projection identity, so Q* is never formed. Every product of
:meth:`_CensoredGame.payoffs` runs along the stack's leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .game import GameSpec
from .markov import (
    EPS_EDGE,
    EPS_PROJ,
    _absorption,
    _max_abs,
    _structural_stack,
    structural_limits,
)
from .strategies import action_tables


def _components(n: int, src: np.ndarray, dst: np.ndarray) -> tuple:
    """Strongly connected components of the graph on n states with the
    edges ``src[k] -> dst[k]``, ``src`` ascending (as ``np.nonzero``
    gives them), by one iterative pass of Tarjan's algorithm (SIAM J.
    Comput. 1, 1972) in O(n + e).

    Returns the lists ``(comp, reach, sinks)``: each state's component,
    numbered in the order the pass completes them, so that an edge never
    leads to a component of a larger number (reverse topological order);
    per state, the integer bitmask of the sink components (those no edge
    leaves) its component reaches, bit b for ``sinks[b]``; and the sink
    components in the order they complete. A component completes after every
    component it reaches, so its mask is the OR of the masks its edges
    lead to, or a new bit of its own when no edge leaves it. The pass
    starts from the states in ascending order, so on a symmetric graph
    the components are numbered by smallest member."""
    succ = dst.tolist()
    start = np.searchsorted(src, np.arange(n + 1)).tolist()
    index, low, comp, reach = [-1] * n, [0] * n, [-1] * n, [0] * n
    sinks: list[int] = []
    stack: list[int] = []
    count = done = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        # the depth-first path, and the next edge to follow from each state
        path, pos = [root], [start[root]]
        while path:
            v, i = path[-1], pos[-1]
            end = start[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    break
                if comp[w] >= 0:
                    # a completed component, whose mask is final
                    reach[v] |= reach[w]
                elif index[w] < low[v]:
                    # a state still on the stack: the edge closes a cycle
                    low[v] = index[w]
            else:
                path.pop()
                pos.pop()
                if low[v] == index[v]:
                    mask = reach[v]
                    if not mask:
                        mask = 1 << len(sinks)
                        sinks.append(done)
                    while True:
                        w = stack.pop()
                        comp[w], reach[w] = done, mask
                        if w == v:
                            break
                    done += 1
                if path:
                    u = path[-1]
                    reach[u] |= reach[v]
                    if low[v] < low[u]:
                        low[u] = low[v]
                continue
            pos[-1] = i
            index[w] = low[w] = count
            count += 1
            stack.append(w)
            path.append(w)
            pos.append(start[w])
    return comp, reach, sinks


def _sinks(rows: np.ndarray, decision: np.ndarray) -> tuple:
    """The structure of the (n, n) transition ``rows`` (edges >
    EPS_EDGE) with the ``decision`` states made sinks, from one pass of
    :func:`_components`. Returns ``(open_, classes, enters)``: whether
    each state is open, reaching a state that does not reach it back;
    the decision-free closed classes, by smallest member, each an array
    of its states ascending; and the (n, c + m) 0/1 support of the nodes
    each state may enter, the i-th decision state node i and the j-th
    closed class node c + j.

    The closed components are the sinks of the pass; a decision state,
    whose row is dropped, is one of its own. The nodes each state may
    enter are the bits of its mask, reordered from the order the sinks
    complete to the order of the nodes."""
    n = len(rows)
    edges = rows > EPS_EDGE
    edges[decision] = False
    comp, reach, sinks = _components(n, *np.nonzero(edges))
    bit = {h: b for b, h in enumerate(sinks)}
    heads = [comp[x] for x in decision.tolist()]
    order, seen = [bit[h] for h in heads], set(heads)
    classes = []
    # in ascending order, each closed class shows first at its smallest
    # member
    for x, h in enumerate(comp):
        if h in bit and h not in seen:
            seen.add(h)
            classes.append(np.array([y for y in range(x, n) if comp[y] == h]))
            order.append(bit[h])
    width = (len(sinks) + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in reach), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(n, width), axis=1, count=len(sinks), bitorder="little")
    # C order, as a product would give: a column gather leaves F order
    enters = bits[:, order].astype(float, order="C")
    return np.array([h not in bit for h in comp]), tuple(classes), enters


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
    it reaches reaches it back, which one strongly connected components
    pass finds along with the support (see :func:`_sinks`); the other
    decision-free states U drain into the decision states and the
    closed classes, and one LU of
    I - Q_UU gives both their exit distribution and their accumulated
    values. The solve's residual and the exit rows' sums are checked.
    Each closed class's stationary row comes from the structural kernel
    as a stack of one, and is checked as its factors are there."""
    rows = np.asarray(rows, dtype=float)
    values = np.asarray(values, dtype=float)
    open_, classes, enters = _sinks(rows, decision)
    # a state that is not open enters its own node only
    nodes = np.where(open_[:, None], 0.0, enters)
    s = nodes.shape[1]
    exits, accumulated = nodes.copy(), np.zeros(values.shape)
    transient = np.flatnonzero(open_)
    if transient.size:
        out = rows[transient]
        tt = out[:, transient]
        rhs = np.concatenate([out @ nodes, values[transient]], axis=1)
        # values past the largest double overflow to inf without a
        # warning, and the state they accumulate from is named below
        with np.errstate(over="ignore"):
            x = _absorption(tt, rhs, s)
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            state = transient[finite.argmin()] + 1
            raise NumericalError(
                f"numerically degenerate chain: values accumulated from state {state} "
                "are not finite"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            residual = abs(x - tt @ x - rhs).max(axis=1)
        # a NaN residual fails too
        passed = residual <= EPS_PROJ * max(1.0, _max_abs(x))
        if not passed.all():
            worst = passed.argmin()
            raise NumericalError(
                f"numerically degenerate chain: absorption residual "
                f"{float(residual[worst])!r} at state {transient[worst] + 1}"
            )
        exits[transient], accumulated[transient] = x[:, :s], x[:, s:]
    means = np.zeros((len(classes), values.shape[1]))
    for j, idx in enumerate(classes):
        # the class's rows lose the mass at or below EPS_EDGE that leaves
        # it, so they are not checked stochastic again
        upper = _structural_stack(rows[idx][:, idx, None], states=[(x,) for x in idx.tolist()])[1]
        means[j] = upper[0, :, 0] @ values[idx]
    return classes, exits, enters, accumulated, means


def _product(weights: np.ndarray, v: np.ndarray, masked: bool) -> np.ndarray:
    """weights @ v per chain of a C-ordered chain-last stack: ``weights``
    is (a, b, m), or (a, b) shared by the stack, and ``v`` is (b, m).

    A stack's own weights are summed along a leading axis, so on a stack
    of two or more chains each chain's terms add in index order. Shared
    weights take one matrix-vector product per chain, as a stacked
    matmul with a column operand runs it, the same product whatever the
    stack. With ``masked``, the sum runs over the positive weights alone,
    so a value that overflowed to inf adds nothing where its weight is 0,
    where 0 * inf would add nan."""
    if weights.ndim == 2 and not masked:
        return (weights @ v.T[..., None])[..., 0].T
    if weights.ndim == 2:
        weights = weights[..., None]
    terms = weights * v
    if masked:
        terms = np.where(weights > 0, terms, 0.0)
    return terms.sum(axis=1)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, the expected time ``den`` checked positive."""
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
    node i. ``states[x]`` lists the 0-based states node x stands for, so
    an error names a class by its states.

    A state that enters one node only takes that node's payoff; the
    states that may enter several, ``mixed``, mix the nodes' limits by
    their exit distributions. ``rows[x]`` is the first node state x may
    enter, and state x reads its payoff there unless it is mixed and
    reaches more than one class. ``exits`` and ``enters`` hold the mixed
    states' exit distributions and 0/1 supports, in the order of
    ``mixed``.

    The nodes fall into components (see :meth:`components`) that no
    action and no state links, and Q* is block-diagonal over them, so
    each state's payoff depends only on the actions inside its own
    component. A solve evaluates each component's pairs once and copies
    the entries to every pair that plays the same actions inside it;
    every entry is still phi of that pair's own chain, bit for bit."""

    def __init__(self, spec: GameSpec):
        q, r, tau = action_tables(spec)
        self.n = spec.n
        self.decision = np.flatnonzero([len(st.actions) > 1 for st in spec.states])
        table = np.array([r, np.ones(r.shape), tau])
        closed, exits, enters, accumulated, means = censor(
            q[:, 0], self.decision, table[:, :, 0].T)
        self.states = [(x,) for x in self.decision.tolist()] + [c.tolist() for c in closed]
        chosen = q[self.decision]
        c, s = len(self.decision), len(self.states)
        # the decision nodes' censored rows, then the closed classes' one
        # action each, which stays put
        self.q = np.zeros((s, q.shape[1], s))
        self.q[:c] = chosen @ exits
        self.q[np.arange(c, s), 0, np.arange(c, s)] = 1.0
        self.edges = self.q > 0
        self.edges[:c] = (chosen > EPS_EDGE).astype(float) @ enters > 0
        self.values = np.zeros((3, s, q.shape[1]))
        # a node's value may overflow to inf as phi may; payoffs then
        # weighs it only where its weight is positive, and names the first
        # state whose payoff it leaves infinite
        with np.errstate(over="ignore"):
            self.values[:, :c] = table[:, self.decision] + (chosen @ accumulated).transpose(2, 0, 1)
        self.values[:, c:, 0] = means.T
        self.overflowed = not np.isfinite(self.values).all()
        self.rows = enters.argmax(axis=1)
        self.mixed = np.flatnonzero(enters.sum(axis=1) > 1)
        self.exits = exits[self.mixed]
        self.enters = enters[self.mixed]

    def actions(self, fs, gs) -> np.ndarray:
        """Every pair's action at each node, pairs in ordinal order: the
        chosen action at a decision state, 0 at a closed class. A decision
        state belongs to one player, whose profile holds its action there;
        the other player's holds 0."""
        d1, c = len(fs), len(self.decision)
        acts = np.zeros((d1, len(gs), len(self.q)), dtype=np.intp)
        profile = np.zeros((d1 + len(gs), self.n), dtype=np.intp)
        profile[:d1, np.array(fs[0].states, dtype=np.intp) - 1] = [f.actions for f in fs]
        profile[d1:, np.array(gs[0].states, dtype=np.intp) - 1] = [g.actions for g in gs]
        profile = profile[:, self.decision]
        np.add(profile[:d1, None], profile[d1:], out=acts[..., :c])
        return acts.reshape(-1, len(self.q))

    def components(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The weakly connected pieces of the node graph, as ``(nodes,
        states)`` arrays of 0-based indices, by smallest node. Two nodes
        are joined when an action of one may enter the other, or when a
        mixed state may enter both, since its payoff mixes their limits;
        every state lies in the component of the nodes it may enter."""
        s = len(self.q)
        link = self.edges.any(axis=1) | (self.enters.T @ self.enters > 0)
        # the strongly connected components of the symmetrised graph,
        # numbered by smallest node
        comp = np.array(_components(s, *np.nonzero(link | link.T))[0])
        owner = comp[self.rows]
        return [(np.flatnonzero(comp == h), np.flatnonzero(owner == h))
                for h in range(int(comp.max()) + 1)]

    def payoffs(self, acts: np.ndarray) -> np.ndarray:
        """phi(s, f, g) for every state s (rows) of the pairs (columns)
        whose node actions are the rows of ``acts``, from one chain-last
        stack of censored chains.

        Per class K of a censored chain, the full chain's per-epoch means
        are mu_K.R / mu_K.N and mu_K.T / mu_K.N (renewal-reward), so the
        rows of ``rates`` = lower @ (upper / mu.N) weight R and T as the
        full chain's Q* weights r and tau, and a mixed state's exit
        distribution carries that to it (QQ* = Q*). A node or state that
        reaches a single class takes that class's value exactly: the
        weight 1 comes from the 0/1 reachability, so all states of a
        class share bits. Every product runs along a leading axis or per
        chain (see :func:`_product`); a single chain runs as a stack of
        two, as in :func:`pismg.markov._structural_stack`, so a chain's
        bits never depend on its stack."""
        chains = len(acts)
        acts = acts.T if chains > 1 else acts.T.repeat(2, axis=1)
        s, width, _ = self.q.shape
        # each node's row under its action in every chain, as flat
        # indices into the action tables
        cell = np.arange(s)[:, None] * width + acts
        at = cell[:, None] * s + np.arange(s)[:, None]
        lower, upper, reaches = structural_limits(
            self.q.reshape(-1).take(at), self.edges.reshape(-1).take(at), self.states)
        reward, epochs, time = self.values.reshape(3, -1)[:, cell]
        lower = np.where(reaches.sum(axis=1, keepdims=True) == 1, reaches, lower)
        # a padded class has no stationary row and no span
        span = np.maximum(_product(upper, epochs, False), np.finfo(float).tiny)
        rates = _product(lower[:, :, None], upper / span[:, None], False)
        # a valid game's values may overflow phi to inf, or to nan where
        # infs of both signs meet; a node value that overflowed counts
        # only where its weight is positive. The check below names the
        # first such state, without a warning
        masked = self.overflowed
        with np.errstate(over="ignore", invalid="ignore"):
            num, den = _product(rates, reward, masked), _product(rates, time, masked)
            # every state from its first node, then a mixed state that
            # reaches more than one class from its own exits row
            phi = _ratio(num, den)[self.rows]
            if self.mixed.size:
                split = _ratio(_product(self.exits, num, masked),
                               _product(self.exits, den, masked))
                hits = self.enters @ reaches.reshape(s, -1) > 0
                whole = hits.reshape(len(split), -1, reaches.shape[2]).sum(axis=1) == 1
                phi[self.mixed] = np.where(whole, phi[self.mixed], split)
        if not np.isfinite(phi).all():
            chain, state = np.argwhere(~np.isfinite(phi.T))[0]
            raise NumericalError(
                f"payoff of state {state + 1} is not finite: {float(phi[state, chain])!r}")
        return phi[:, :chains]
