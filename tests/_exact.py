"""Exact rational phi(s, f, g) for small games, and the exact limiting
matrix Q* of a small chain: an oracle that shares no floating-point
arithmetic with the solver.

Every input is read from its decimal text (``Fraction(repr(x))``), each
transition row is divided by its exact sum, and the stationary and
absorption systems are solved by Gaussian elimination over fractions.
Only the chain's edges come from the solver's rule, a transition of
probability above ``EPS_EDGE``; its recurrent classes and transient
states are found from them by a reachability closure over sets, so the
oracle still answers where a floating-point decomposition of the chain
would fail its own checks.
"""

from __future__ import annotations

from fractions import Fraction

from pismg import induce
from pismg.markov import EPS_EDGE


def _exact(x: float) -> Fraction:
    return Fraction(repr(x))


def _mean(model) -> Fraction:
    params = [_exact(p) for p in model.params]
    if model.kind in ("mean", "deterministic"):
        return params[0]
    if model.kind == "exponential":
        return 1 / params[0]
    return (params[0] + params[1]) / 2


def _solve(a: list, b: list) -> list:
    """x with a x = b by Gauss-Jordan elimination; b holds one row of
    right-hand sides per equation."""
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [[x / rows[r][r] for x in rows[r][n:]] for r in range(n)]


def _structure(q) -> tuple[list, list]:
    """Recurrent classes and transient states of the float matrix ``q``
    with its entries above EPS_EDGE as edges: a state is recurrent when
    every state it reaches reaches it back."""
    n = len(q)
    reach = [{y for y in range(n) if q[x][y] > EPS_EDGE} | {x} for x in range(n)]
    # k rounds cover every path of up to 2^k edges
    for _ in range(n.bit_length()):
        reach = [set().union(*(reach[y] for y in r)) for r in reach]
    recurrent = [x for x in range(n) if all(x in reach[y] for y in reach[x])]
    classes = sorted({tuple(sorted(reach[x])) for x in recurrent})
    return classes, [x for x in range(n) if x not in recurrent]


def _limit(q: list, classes: list, transient: list) -> list:
    """Q* of the exact stochastic matrix ``q`` (lists of fractions) whose
    recurrent classes and transient states are given."""
    n = len(q)
    q_star = [[Fraction(0)] * n for _ in range(n)]
    stationary = []
    for cls in classes:
        # pi (Q_KK - I) = 0 with the last balance equation replaced by sum(pi) = 1
        a = [[q[x][y] - (x == y) for x in cls] for y in cls]
        a[-1] = [Fraction(1)] * len(cls)
        stationary.append([row[0] for row in _solve(a, [[0]] * (len(cls) - 1) + [[1]])])
        for x in cls:
            for y, p in zip(cls, stationary[-1]):
                q_star[x][y] = p
    if transient:
        a = [[(x == y) - q[x][y] for y in transient] for x in transient]
        b = [[sum(q[x][y] for y in cls) for cls in classes] for x in transient]
        for x, weights in zip(transient, _solve(a, b)):
            for w, cls, pi in zip(weights, classes, stationary):
                for y, p in zip(cls, pi):
                    q_star[x][y] = w * p
    return q_star


def exact_limit(q) -> list[list[Fraction]]:
    """Q* of the float stochastic matrix ``q`` as exact fractions, each
    row read from its decimal text and divided by its exact sum."""
    rows = [[_exact(float(x)) for x in row] for row in q]
    return _limit([[x / sum(row) for x in row] for row in rows], *_structure(q))


def exact_phi(spec, f, g) -> list[Fraction]:
    """phi(s, f, g) for every state s, indexed s - 1, as exact fractions."""
    n = spec.n
    q = [[Fraction(0)] * n for _ in range(n)]
    r, tau = [], []
    for i, st in enumerate(spec.states):
        act = st.actions[(f if st.controller == f.player else g).action_at(st.id)]
        probs = {tr.to - 1: _exact(tr.prob) for tr in act.transitions}
        total = sum(probs.values())
        for j, p in probs.items():
            q[i][j] = p / total
        r.append(_exact(act.reward))
        tau.append(sum(q[i][tr.to - 1] * _mean(tr.sojourn or act.default_sojourn)
                       for tr in act.transitions))
    q_star = _limit(q, *_structure(induce(spec, f, g).q))
    return [sum(w * x for w, x in zip(row, r)) / sum(w * x for w, x in zip(row, tau))
            for row in q_star]
