"""Exact rational phi(s, f, g) for small games, an oracle that shares no
floating-point arithmetic with the solver.

Every input is read from its decimal text (``Fraction(repr(x))``), each
transition row is divided by its exact sum, and the stationary and
absorption systems are solved by Gaussian elimination over fractions.
Only the chain's structure, its recurrent classes and transient states,
comes from :func:`pismg.decompose_chain`.
"""

from __future__ import annotations

from fractions import Fraction

from pismg import decompose_chain, induce


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
    dec = decompose_chain(induce(spec, f, g).q)
    means = []
    for cls in dec.recurrent_classes:
        # pi (Q_KK - I) = 0 with the last balance equation replaced by sum(pi) = 1
        a = [[q[x][y] - (x == y) for x in cls] for y in cls]
        a[-1] = [Fraction(1)] * len(cls)
        pi = [row[0] for row in _solve(a, [[0]] * (len(cls) - 1) + [[1]])]
        means.append((sum(p * r[x] for p, x in zip(pi, cls)),
                      sum(p * tau[x] for p, x in zip(pi, cls))))
    weights = {x: [Fraction(k == c) for c in range(len(means))]
               for k, cls in enumerate(dec.recurrent_classes) for x in cls}
    if dec.transient:
        t = dec.transient
        a = [[(x == y) - q[x][y] for y in t] for x in t]
        b = [[sum(q[x][y] for y in cls) for cls in dec.recurrent_classes] for x in t]
        weights.update(zip(t, _solve(a, b)))
    return [sum(w * m[0] for w, m in zip(weights[s], means))
            / sum(w * m[1] for w, m in zip(weights[s], means)) for s in range(n)]
