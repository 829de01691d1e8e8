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
    default; :func:`structural_limits` runs it on a stack of chains.

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
    return float(abs(a).max()) if a.size else 0.0


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
    if not np.isfinite(a).all():
        raise NumericalError("not a stochastic matrix: non-finite entries")
    if a.min() < -EPS_STOCH:
        at = tuple(np.argwhere(a < -EPS_STOCH)[0])
        i, j = at[-2:]
        raise NumericalError(
            f"not a stochastic matrix: negative entry {float(a[at])!r} at ({i}, {j})"
        )
    sums = a.sum(axis=-1)
    bad = abs(sums - 1.0) > EPS_STOCH
    if bad.any():
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
                 projection: bool = True) -> None:
    """Rows of Q* (or of a stack of them) sum to 1 and its entries lie
    in [0, 1]; with ``projection``, also the three projection identities
    Q*Q = QQ* = Q*Q* = Q*."""
    if _max_abs(q_star.sum(axis=-1) - 1.0) > EPS_PROJ:
        raise NumericalError(f"{method}: limiting matrix rows do not sum to 1")
    if float(q_star.min()) < -EPS_PROJ or float(q_star.max()) > 1.0 + EPS_PROJ:
        raise NumericalError(f"{method}: limiting matrix entries leave [0, 1]")
    if projection:
        for label, left, right in (("Q*Q", q_star, q), ("QQ*", q, q_star),
                                   ("Q*Q*", q_star, q_star)):
            gap = _max_abs(left @ right - q_star)
            if gap > EPS_PROJ:
                raise NumericalError(
                    f"{method}: projection identity {label} = Q* violated "
                    f"by {gap!r}; fall back to the structural method"
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
    _check_limit(q_star, q, "lazari")
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
    _check_limit(result.q_star, q, "averaging", projection=False)
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


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack of systems; 1 x 1 systems are the
    one division LAPACK would make, without its call overhead."""
    if a.shape[-1] == 1:
        if not a.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return b / a
    return np.linalg.solve(a, b)


def _stationary(sub: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Stationary rows of a stack of (g, c, c) class blocks, block j over
    the states ``members[j]``: one balance equation replaced with
    normalization, dense LU, residual checked, clipped at 0 and
    renormalised. A failure names the first failing block's states."""
    g, c, _ = sub.shape
    a = sub.transpose(0, 2, 1).copy()
    a.reshape(g, c * c)[:, ::c + 1] -= 1.0
    a[:, -1] = 1.0
    b = np.zeros((g, c, 1))
    b[:, -1] = 1.0
    try:
        pi = _solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        # name the first singular block
        for j in range(g):
            try:
                _solve(a[j:j + 1], b[j:j + 1])
            except np.linalg.LinAlgError as e:
                raise NumericalError(
                    f"numerically degenerate chain: stationary solve failed for "
                    f"class {tuple(members[j].tolist())}: {e}"
                ) from e
        raise
    residual = abs((pi[:, None, :] @ sub)[:, 0] - pi).max(axis=1)
    if residual.max() > EPS_PROJ or pi.min() < -EPS_PROJ:
        j = ((residual > EPS_PROJ) | (pi.min(axis=1) < -EPS_PROJ)).argmax()
        raise NumericalError(
            f"numerically degenerate chain: stationary residual "
            f"{float(residual[j])!r} for class {tuple(members[j].tolist())}"
        )
    np.maximum(pi, 0.0, out=pi)
    pi /= pi.sum(axis=1, keepdims=True)
    return pi


def _absorption(tt: np.ndarray, rhs: np.ndarray, k: int) -> np.ndarray:
    """x solving (I - tt) x = rhs for a (stack of) transient block(s).
    The first ``k`` columns of ``rhs`` are the one-step probabilities
    into each of k absorbing sets, so those columns of x are absorption
    probabilities: their rows must sum to 1, and they are clipped to
    [0, 1]. Any further columns are returned as solved."""
    try:
        x = _solve(np.eye(tt.shape[-1]) - tt, rhs)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            f"numerically degenerate chain: absorption solve failed: {e}"
        ) from e
    if _max_abs(x[..., :k].sum(axis=-1) - 1.0) > EPS_PROJ:
        raise NumericalError(
            "numerically degenerate chain: absorption rows do not sum to 1"
        )
    probs = x[..., :k]
    np.minimum(np.maximum(probs, 0.0, out=probs), 1.0, out=probs)
    return x


def _structural_stack(qs: np.ndarray, edges: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors ``lower`` (m, n, k) and ``upper`` (m, k, n) of the
    (unchecked) Q* = lower @ upper of every chain of a validated (m, n, n)
    stack, the 0/1 ``reaches`` (m, n, k) and the class ``signatures``
    (m, n): each state's smallest class member, or -1 if it is
    transient.

    ``edges`` is the stack's 0/1 transition graph; None takes the
    transitions with probability > EPS_EDGE. A state is recurrent when
    every state it reaches (reflexive closure) reaches it back, and then
    its closure row is its class. Each chain's classes are numbered by
    smallest member and k is padded to the stack's largest class count.
    ``upper[i, k]`` is class k's stationary row in chain i, ``lower[i,
    :, k]`` is 1 on class k and the absorption probabilities into it on
    the transient states, and ``reaches[i, :, k]`` is 1 on the states
    that reach class k. The classes are disjoint, so each entry of
    lower @ upper has at most one nonzero term.

    The solves are stacked across chains: one stationary solve per class
    size (one balance equation replaced with normalization, dense LU)
    and one absorption solve, (I - Q_TT) x = Q_T,C 1, per number of
    transient states."""
    m, n, _ = qs.shape
    if edges is None:
        edges = qs > EPS_EDGE
    reach = _closure((edges | np.eye(n, dtype=bool)).astype(float))
    recurrent = ~(reach > reach.transpose(0, 2, 1)).any(axis=2)
    # a recurrent state reaches exactly its own class, so the first state
    # it reaches is the class's smallest member, its head
    first = reach.argmax(axis=2)
    heads = recurrent & (first == np.arange(n))
    width = int(heads.sum(axis=1).max())
    rank = heads.cumsum(axis=1) - 1
    # a state's row of reaches counts the heads it reaches, which for a
    # recurrent state is its own class's only
    reaches = reach @ ((rank[:, :, None] == np.arange(width)) & heads[:, :, None])
    lower = reaches * recurrent[:, :, None]
    upper = np.zeros((m, width, n))
    sizes = lower.sum(axis=1).astype(np.intp)
    # states in class order, ascending within a class, transient last
    order = np.argsort(np.where(recurrent, first, n), axis=1, kind="stable")
    starts = sizes.cumsum(axis=1) - sizes
    for c in sorted(set(sizes[sizes > 0].tolist())):
        ci, ck = np.nonzero(sizes == c)
        idx = order[ci[:, None], starts[ci, ck][:, None] + np.arange(c)]
        sub = qs[ci[:, None, None], idx[:, :, None], idx[:, None, :]]
        upper[ci[:, None], ck[:, None], idx] = _stationary(sub, idx)
    transient = n - sizes.sum(axis=1)
    for t in sorted(set(transient[transient > 0].tolist())):
        ci = np.flatnonzero(transient == t)
        idx = order[ci, n - t:]
        tt = qs[ci[:, None, None], idx[:, :, None], idx[:, None, :]]
        # each row's mass on each class, as n right-hand sides whatever
        # the stack's class count: BLAS and LAPACK may round a column
        # differently with another number of columns
        member = np.zeros((len(ci), n, n))
        member[..., :width] = lower[ci]
        lower[ci[:, None], idx] = _absorption(tt, qs[ci[:, None], idx] @ member, n)[..., :width]
    return lower, upper, reaches, np.where(recurrent, first, -1)


def structural_limits(qs, edges=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q* of every chain of an (m, n, n) stack by the structural method,
    as its factors ``(lower, upper)`` (Q* = lower @ upper) and the 0/1
    ``reaches``, each state's reachable classes (see
    :func:`_structural_stack`). ``edges`` is the stack's 0/1 transition
    graph (None: the transitions above EPS_EDGE). The rows are checked
    stochastic, and Q* sums to 1 by row, lies in [0, 1] and satisfies
    the projection identities; a check failing anywhere raises, and on a
    stack of one the message is exact."""
    qs = np.asarray(qs, dtype=float)
    _check_stochastic(qs)
    lower, upper, reaches, _ = _structural_stack(qs, edges)
    _check_limit(lower @ upper, qs, "structural")
    return lower, upper, reaches


def _decomposition(lower: np.ndarray, upper: np.ndarray,
                   signature: np.ndarray) -> ChainDecomposition:
    heads = sorted(set(signature.tolist()) - {-1})
    classes = [np.flatnonzero(signature == h) for h in heads]
    transient = np.flatnonzero(signature < 0)
    return ChainDecomposition(
        recurrent_classes=tuple(tuple(idx.tolist()) for idx in classes),
        transient=tuple(transient.tolist()),
        stationary=tuple(upper[k, idx] for k, idx in enumerate(classes)),
        absorption=lower[transient, :len(classes)],
    )


def decompose_chain(q) -> ChainDecomposition:
    """Recurrent classes, transient states, stationary distributions and
    absorption probabilities of one stochastic matrix (a stack of one)."""
    lower, upper, _, signatures = _structural_stack(validate_stochastic(q)[None])
    return _decomposition(lower[0], upper[0], signatures[0])


def cesaro_structural(q) -> CesaroResult:
    """Limiting matrix assembled from the chain structure (a stack of one)."""
    qs = validate_stochastic(q)[None]
    lower, upper, _, signatures = _structural_stack(qs)
    q_star = lower @ upper
    _check_limit(q_star, qs, "structural")
    return CesaroResult(q_star=q_star[0], method="structural",
                        decomposition=_decomposition(lower[0], upper[0], signatures[0]))


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
