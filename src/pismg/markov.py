"""Stochastic-matrix algebra: characteristic polynomials, unit-root
deflation, Cesaro limiting matrices, and recurrent/transient structure.

Everything here works on plain square row-stochastic matrices with
0-based indices. The central object is the Cesaro limit

    Q* = lim_{n -> inf} (1/n) * sum_{m=1..n} Q^m

which always exists for a finite stochastic Q and is the spectral
projection onto the unit eigenspace. Three independent routes compute
it:

``cesaro_lazari``
    Characteristic polynomial via the Faddeev-LeVerrier recurrence,
    synthetic division to strip the (z - 1)^m1 factor, Horner evaluation
    of the quotient at Q, then row normalization. Exact up to roundoff
    but limited to small dimensions (the coefficients grow fast).

``cesaro_averaging``
    Plain partial averages of powers, accelerated by a doubling
    recurrence. Converges like O(1/n), so it is a cross-check, not a
    precision tool.

``cesaro_structural``
    Decompose the chain into recurrent classes and transient states,
    solve for each class's stationary distribution and the transient
    absorption probabilities, and assemble Q* from them. The robust
    default.

Polynomials are coefficient arrays in ascending order: p[k] is the
coefficient of z^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NumericalError

# validation tolerances for inputs and results; EPS_STOCH also bounds
# the row sums of a game's transition rows (game.validate)
EPS_STOCH = 1e-9
EPS_PROJ = 1e-8
EPS_ROWSUM = 1e-6
# entries at or below this threshold do not count as edges of the
# transition graph
EPS_EDGE = 1e-12

DEFLATION_TOL = 1e-7
N_MAX_LAZARI = 12
AVERAGING_TOL = 1e-10
AVERAGING_N_MAX = 10**6

METHODS = ("structural", "lazari", "averaging")


@dataclass(frozen=True, eq=False)
class ChainDecomposition:
    """Recurrent/transient structure of one stochastic matrix.

    ``recurrent_classes`` are tuples of 0-based state indices, ordered by
    smallest member; ``stationary[k]`` is the stationary distribution of
    class k over its own members; ``absorption[t, k]`` is the probability
    that transient state ``transient[t]`` is eventually absorbed in class
    k.
    """

    recurrent_classes: tuple[tuple[int, ...], ...]
    transient: tuple[int, ...]
    stationary: tuple[np.ndarray, ...]
    absorption: np.ndarray


@dataclass(frozen=True, eq=False)
class CesaroResult:
    """Limiting matrix plus method diagnostics.

    ``m1`` is the unit-root multiplicity found by deflation (lazari
    only), ``iterations`` the final n of the averaging run, ``converged``
    False only when averaging hit its cap, ``decomposition`` the chain
    structure (structural only).
    """

    q_star: np.ndarray
    method: str
    m1: int | None = None
    iterations: int | None = None
    converged: bool = True
    decomposition: ChainDecomposition | None = None


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def validate_stochastic(q) -> np.ndarray:
    """Check that q is a finite square row-stochastic matrix (row sums
    within EPS_STOCH of 1, entries >= -EPS_STOCH) and return it as a
    float array."""
    a = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise NumericalError(f"not a stochastic matrix: shape {a.shape}")
    _check_stochastic(a)
    return a


def _check_stochastic(a: np.ndarray) -> None:
    # also on a stack of matrices, naming the first offending chain's row
    if not np.all(np.isfinite(a)):
        raise NumericalError("not a stochastic matrix: non-finite entries")
    if np.any(a < -EPS_STOCH):
        at = tuple(np.argwhere(a < -EPS_STOCH)[0])
        i, j = at[-2:]
        raise NumericalError(
            f"not a stochastic matrix: negative entry {float(a[at])!r} at ({i}, {j})"
        )
    sums = a.sum(axis=-1)
    bad = np.abs(sums - 1.0) > EPS_STOCH
    if np.any(bad):
        at = tuple(np.argwhere(bad)[0])
        raise NumericalError(
            f"not a stochastic matrix: row {at[-1]} sums to {float(sums[at])!r}"
        )


def char_poly(q) -> np.ndarray:
    """Coefficients of det(Q - zI), ascending, via the Faddeev-LeVerrier
    trace recurrence. Leading coefficient is exactly (-1)^n. Refuses
    n > N_MAX_LAZARI: the coefficients grow combinatorially and the
    downstream deflation loses meaning."""
    a = np.asarray(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericalError(f"char_poly needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > N_MAX_LAZARI:
        raise NumericalError(
            f"char_poly refuses dimension {n} > {N_MAX_LAZARI}; "
            "use the structural method instead"
        )
    # Faddeev-LeVerrier on det(zI - A), then flip sign for odd n
    c = np.zeros(n + 1)
    c[n] = 1.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = a @ m
        c[n - k] = -np.trace(am) / k
        m = am + c[n - k] * np.eye(n)
    if n % 2:
        c = -c
    return c


def _divide_by_unit_root(p: np.ndarray) -> tuple[np.ndarray, float]:
    """Synthetic division of p by (z - 1); returns (quotient, remainder).
    The remainder equals p(1)."""
    deg = p.size - 1
    b = np.empty(deg)
    b[deg - 1] = p[deg]
    for k in range(deg - 1, 0, -1):
        b[k - 1] = p[k] + b[k]
    rem = p[0] + b[0]
    return b, float(rem)


def deflate_unit_root(p, tol: float = DEFLATION_TOL) -> tuple[int, np.ndarray]:
    """Strip the maximal (z - 1)^m1 factor from p.

    ``tol`` is relative: a division remainder counts as zero when
    |rem| <= tol * max(1, max|p_k|). Returns (m1, quotient). Raises if
    p(1) is not numerically zero (the matrix behind p was not
    stochastic) or if the deflated quotient still nearly vanishes at 1
    (multiplicity too ill-conditioned to trust)."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise NumericalError("deflation needs a polynomial of degree >= 1")
    threshold = tol * max(1.0, _max_abs(p))
    at_one = float(npoly.polyval(1.0, p))
    if abs(at_one) > threshold:
        raise NumericalError(
            f"input not stochastic-like: p(1) = {at_one!r} exceeds "
            f"tolerance {threshold!r}"
        )
    current = p
    m1 = 0
    while current.size > 1:
        quotient, rem = _divide_by_unit_root(current)
        if abs(rem) > threshold:
            break
        current = quotient
        m1 += 1
    remaining = float(npoly.polyval(1.0, current))
    if abs(remaining) <= threshold:
        raise NumericalError(
            "ill-conditioned unit-root multiplicity: the deflated quotient "
            f"still nearly vanishes at 1 ({remaining!r}); "
            "use the structural method instead"
        )
    return m1, current


def _check_limit(q_star: np.ndarray, q: np.ndarray, method: str,
                 factors: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Rows of Q* sum to 1 and its entries lie in [0, 1]; with ``factors``
    (lower, upper), where Q* = lower @ upper, also the three projection
    identities Q*Q = QQ* = Q*Q* = Q*. The products run through the
    factors, so a rank-k Q* costs O(k n^2) per chain; the factors
    (Q*, I) give the dense products."""
    if _max_abs(q_star.sum(axis=-1) - 1.0) > EPS_PROJ:
        raise NumericalError(f"{method}: limiting matrix rows do not sum to 1")
    if float(q_star.min()) < -EPS_PROJ or float(q_star.max()) > 1.0 + EPS_PROJ:
        raise NumericalError(f"{method}: limiting matrix entries leave [0, 1]")
    if factors is not None:
        lower, upper = factors
        for label, prod in (
            ("Q*Q", lower @ (upper @ q)),
            ("QQ*", (q @ lower) @ upper),
            ("Q*Q*", lower @ ((upper @ lower) @ upper)),
        ):
            if _max_abs(prod - q_star) > EPS_PROJ:
                raise NumericalError(
                    f"{method}: projection identity {label} = Q* violated "
                    f"by {_max_abs(prod - q_star)!r}; "
                    "fall back to the structural method"
                )


def cesaro_lazari(q, tol: float = DEFLATION_TOL) -> CesaroResult:
    """Limiting matrix through the characteristic polynomial.

    Writes det(Q - zI) = (z - 1)^m1 * T(z) with T(1) != 0, evaluates W =
    T(Q) by Horner's rule, and normalizes: row sums of W all equal T(1),
    so W / T(1) is the spectral projection onto the unit eigenspace,
    which is Q*. Equal row sums are asserted (relative spread EPS_ROWSUM)
    rather than assumed."""
    q = validate_stochastic(q)
    n = q.shape[0]
    p = char_poly(q)
    m1, t = deflate_unit_root(p, tol)
    eye = np.eye(n)
    w = t[-1] * eye
    for coeff in t[-2::-1]:
        w = w @ q + coeff * eye
    row_sums = w.sum(axis=1)
    mean_sum = float(row_sums.mean())
    spread = float(row_sums.max() - row_sums.min())
    if spread > EPS_ROWSUM * max(1.0, abs(mean_sum)):
        raise NumericalError(
            f"lazari: normalization failed, row sums of T(Q) spread by {spread!r}; "
            "use the structural method instead"
        )
    if abs(mean_sum) <= tol * max(1.0, _max_abs(w)):
        raise NumericalError(
            "lazari: normalization failed, row sums of T(Q) vanish; "
            "use the structural method instead"
        )
    q_star = w / mean_sum
    _check_limit(q_star, q, "lazari", (q_star, eye))
    return CesaroResult(q_star=q_star, method="lazari", m1=m1)


def cesaro_averaging(q, tol: float = AVERAGING_TOL,
                     n_max: int = AVERAGING_N_MAX) -> CesaroResult:
    """Limiting matrix by partial averages A_n = (1/n) sum_{m<=n} Q^m.

    Uses the doubling recurrence S_2n = S_n + P_n S_n, P_2n = P_n^2 and
    compares A_n with A_2n along n = 1, 2, 4, ...; returns A_n at the
    first n where max|A_n - A_2n| < tol. If doubling would pass n_max the
    best available average is returned with converged=False. Convergence
    is O(1/n), so tight tolerances need a generous n_max."""
    q = validate_stochastic(q)
    if n_max < 1:
        raise NumericalError("averaging needs n_max >= 1")
    n = 1
    s_n = q.copy()   # sum of the first n powers
    p_n = q.copy()   # Q^n
    while True:
        s_2n = s_n + p_n @ s_n
        a_n = s_n / n
        a_2n = s_2n / (2 * n)
        if _max_abs(a_n - a_2n) < tol:
            result = CesaroResult(q_star=a_n, method="averaging",
                                  iterations=n, converged=True)
            break
        if 2 * n >= n_max:
            result = CesaroResult(q_star=a_2n, method="averaging",
                                  iterations=2 * n, converged=False)
            break
        p_n = p_n @ p_n
        # rows of Q^n sum to 1 and rows of S_n sum to n; re-pinning both
        # here stops row-sum drift, which repeated squaring would
        # otherwise double on every pass (n * eps by the time n is large)
        p_n /= p_n.sum(axis=1, keepdims=True)
        n *= 2
        s_n = s_2n * (n / s_2n.sum(axis=1, keepdims=True))
    _check_limit(result.q_star, q, "averaging")
    return result


def _closure(reach: np.ndarray) -> np.ndarray:
    """Transitive closure of a reflexive 0/1 float matrix, or a stack of
    them, by squaring. Squared as floats, where BLAS runs the product
    (numpy's boolean matmul is far slower); the sign of a path count
    marks reachability. k squarings cover every path of up to 2^k edges,
    and a simple path has at most n - 1, so the loop stops once
    2^k >= n - 1."""
    span = 1
    while span < reach.shape[-1] - 1:
        reach, span = np.sign(reach @ reach), 2 * span
    return reach


def _sink_reach(rows: np.ndarray, decision: np.ndarray) -> np.ndarray:
    """Reflexive reachability closure of the (n, n) transition ``rows``
    (edges > EPS_EDGE) with the ``decision`` states made sinks: entry
    (i, j) is 1 when some path from i to j enters no decision state
    before its end. With the rows that every chain of a game shares, it
    is the same for every chain and is computed once per game."""
    edges = rows > EPS_EDGE
    edges[decision] = False
    return _closure((edges | np.eye(len(rows), dtype=bool)).astype(float))


def _structural_stack(qs: np.ndarray, decision: np.ndarray | None = None,
                      reach0: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """Factors ``lower`` (m, n, k) and ``upper`` (m, k, n) of the
    (unchecked) Q* = lower @ upper of every chain of a validated (m, n, n)
    stack, and one ``(classes, transient, pis, absorption)`` per class
    signature: each state's smallest class member, or -1 if it is
    transient.

    Edges are transitions with probability > EPS_EDGE. Rows outside
    ``decision`` must be the same in every chain, and ``reach0`` is their
    :func:`_sink_reach`; None for both makes every state a decision
    state and ``reach0`` the identity. The reachability closure then
    runs through the c decision states only: ``step`` marks where a
    decision state gets by staying put or by one transition and a
    decision-free path; the closure of its decision-state columns times
    ``step`` is everything a decision state reaches, and ``reach0``
    extends that to every state, in O(c n^2) per chain. All of it is 0/1
    path counts, so it equals the closure over every state exactly. A
    state is recurrent when every state it reaches reaches it back, and
    then its closure row is its class.

    The chains ``qs[members]`` share classes (ordered by smallest
    member) and transient states. ``pis[i, k]`` is class k's stationary
    row in chain ``members[i]`` (one balance equation replaced with
    normalization, dense LU); ``absorption[i]`` solves
    (I - Q_TT) x = Q_T,C 1. ``upper[i, k]`` is ``pis[i, k]`` and
    ``lower[i, :, k]`` is 1 on class k and the absorption probabilities
    into it on the transient states, with k padded to the stack's
    largest class count."""
    m, n, _ = qs.shape
    if decision is None:
        decision, reach0 = np.arange(n), np.eye(n)
    # reach0's decision-state rows are identity rows, so staying put
    # survives the product
    out = (qs[:, decision] > EPS_EDGE) | np.eye(n, dtype=bool)[decision]
    step = np.sign(out.astype(float) @ reach0)
    reach_c = np.sign(_closure(step[:, :, decision]) @ step)
    reach = np.sign(reach0 + reach0[:, decision] @ reach_c)
    recurrent = ~(reach > reach.transpose(0, 2, 1)).any(axis=2)
    # a recurrent state reaches exactly its own class, so the first state
    # it reaches is the class's smallest member
    signatures = np.where(recurrent, reach.argmax(axis=2), -1)
    by_signature: dict[tuple, list[int]] = {}
    for i, key in enumerate(map(tuple, signatures.tolist())):
        by_signature.setdefault(key, []).append(i)
    width = max(len(set(key) - {-1}) for key in by_signature)
    lower, upper = np.zeros((m, n, width)), np.zeros((m, width, n))
    groups = []
    for key, members in by_signature.items():
        sub_q = qs[members]
        signature = signatures[members[0]]
        classes = [np.flatnonzero(signature == c) for c in sorted(set(key) - {-1})]
        transient = np.flatnonzero(signature < 0)
        # pis[:, k] is class k's stationary row spread over all n states;
        # the classes are disjoint, so each entry of lower @ upper has at
        # most one nonzero term
        pis = np.zeros((len(members), len(classes), n))
        low = np.zeros((len(members), n, width))
        for k, idx in enumerate(classes):
            sub = sub_q[:, idx[:, None], idx]
            a = sub.transpose(0, 2, 1) - np.eye(idx.size)
            a[:, -1, :] = 1.0
            b = np.broadcast_to(np.eye(idx.size)[:, -1:], (len(members), idx.size, 1))
            label = tuple(idx.tolist())
            try:
                pi = np.linalg.solve(a, b)[..., 0]
            except np.linalg.LinAlgError as e:
                raise NumericalError(
                    f"numerically degenerate chain: stationary solve failed for "
                    f"class {label}: {e}"
                ) from e
            residual = np.abs((pi[:, None, :] @ sub)[:, 0] - pi).max(axis=1)
            bad = (residual > EPS_PROJ) | (pi.min(axis=1) < -EPS_PROJ)
            if bad.any():
                raise NumericalError(
                    f"numerically degenerate chain: stationary residual "
                    f"{float(residual[bad.argmax()])!r} for class {label}"
                )
            pi = np.clip(pi, 0.0, None)
            pi /= pi.sum(axis=1, keepdims=True)
            pis[:, k, idx] = pi
            low[:, idx, k] = 1.0
        absorption = np.zeros((len(members), 0, len(classes)))
        if transient.size:
            rows = sub_q[:, transient]
            tt = rows[:, :, transient]
            rhs = np.stack([rows[:, :, idx].sum(axis=2) for idx in classes], 2)
            try:
                absorption = np.linalg.solve(np.eye(transient.size) - tt, rhs)
            except np.linalg.LinAlgError as e:
                raise NumericalError(
                    f"numerically degenerate chain: absorption solve failed: {e}"
                ) from e
            if _max_abs(absorption.sum(axis=2) - 1.0) > EPS_PROJ:
                raise NumericalError(
                    "numerically degenerate chain: absorption rows do not sum to 1"
                )
            absorption = np.clip(absorption, 0.0, 1.0)
            low[:, transient, :len(classes)] = absorption
        lower[members] = low
        upper[members, :len(classes)] = pis
        groups.append((classes, transient, pis, absorption))
    return lower, upper, groups


def structural_limits(qs, decision=None, reach0=None) -> np.ndarray:
    """Q* of every chain of an (m, n, n) stack by the structural method;
    chains with one class signature share stacked LAPACK solves. The
    chains may differ only in the rows of the ``decision`` states, and
    ``reach0`` is the :func:`_sink_reach` of the other rows (None for
    both: any rows). A check failing anywhere raises; on a stack of one
    the message is exact."""
    qs = np.asarray(qs, dtype=float)
    _check_stochastic(qs)
    lower, upper, _ = _structural_stack(qs, decision, reach0)
    q_star = lower @ upper
    _check_limit(q_star, qs, "structural", (lower, upper))
    return q_star


def _decomposition(group: tuple) -> ChainDecomposition:
    classes, transient, pis, absorption = group
    return ChainDecomposition(
        recurrent_classes=tuple(tuple(int(i) for i in idx) for idx in classes),
        transient=tuple(int(i) for i in transient),
        stationary=tuple(pis[0, k, idx] for k, idx in enumerate(classes)),
        absorption=absorption[0],
    )


def decompose_chain(q) -> ChainDecomposition:
    """Recurrent classes, transient states, stationary distributions and
    absorption probabilities of one stochastic matrix (a stack of one)."""
    *_, (group,) = _structural_stack(validate_stochastic(q)[None])
    return _decomposition(group)


def cesaro_structural(q) -> CesaroResult:
    """Limiting matrix assembled from the chain structure (a stack of one)."""
    qs = validate_stochastic(q)[None]
    lower, upper, (group,) = _structural_stack(qs)
    q_star = lower @ upper
    _check_limit(q_star, qs, "structural", (lower, upper))
    return CesaroResult(q_star=q_star[0], method="structural",
                        decomposition=_decomposition(group))


def cesaro(q, method: str = "structural", *,
           deflation_tol: float = DEFLATION_TOL,
           averaging_tol: float = AVERAGING_TOL,
           averaging_n_max: int = AVERAGING_N_MAX) -> CesaroResult:
    """Dispatch to one of the three limiting-matrix routines."""
    if method == "structural":
        return cesaro_structural(q)
    if method == "lazari":
        return cesaro_lazari(q, tol=deflation_tol)
    if method == "averaging":
        return cesaro_averaging(q, tol=averaging_tol, n_max=averaging_n_max)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
