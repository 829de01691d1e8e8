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

The structural method stores a stack of m chains chain-last, as (n, n,
m) with the chain axis contiguous, so each per-chain reduction runs
along a leading axis over all chains at once, and solves the whole
stack in one masked pass of GTH state reduction (Grassmann, Taksar and
Heyman, 1985), which subtracts nothing and keeps each entry's relative
accuracy however weakly the states are coupled; a single chain is a
stack of one. Q* comes out as factors L (absorption columns) and U
(stationary rows), and the factors are checked, not their product
(:func:`_check_factors`): with L's rows probability vectors and each
column of U holding at most one nonzero entry, in [0, 1], each gap of
Q*Q - Q* = L(UQ - U), QQ* - Q* = (QL - L)U and Q*Q* - Q* = L(UL - I)U
is at most the largest entry of its middle factor. Only
:func:`cesaro_structural`, which returns Q*, forms it. Every stationary
row comes from this kernel, the censoring's closed classes' too; only
the censoring's transient block, one per game with up to n states, keeps
dense LU (:func:`_absorption`), where a Python loop of n elimination
steps over one chain would lose to LAPACK.

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


def _check_stochastic(a: np.ndarray, states=None) -> None:
    # also on a chain-last stack of matrices, naming an offending row;
    # node x stands for the states ``states[x]`` (None: node x is state x)
    if not np.isfinite(a).all():
        raise NumericalError("not a stochastic matrix: non-finite entries")
    if a.min() < -EPS_STOCH:
        at = tuple(np.argwhere(a < -EPS_STOCH)[0])
        i, j = (_node_name(x, states) for x in at[:2])
        raise NumericalError(
            f"not a stochastic matrix: negative entry {float(a[at])!r} at ({i}, {j})"
        )
    sums = a.sum(axis=1)
    bad = abs(sums - 1.0) > EPS_STOCH
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise NumericalError(
            f"not a stochastic matrix: row {_node_name(at[0], states)} "
            f"sums to {float(sums[at])!r}"
        )


def _node_name(x, states=None):
    """Node x by the 0-based game states it stands for: the state, or the
    tuple of a closed class's states (see :func:`_class_name`)."""
    members = _class_name(np.array([x]), states)
    return members[0] if len(members) == 1 else members


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


def deflate_unit_root(p, tol: float = DEFLATION_TOL) -> tuple[int, np.ndarray]:
    """Strip the maximal (z - 1)^m1 factor from p.

    ``tol`` is relative: a division remainder counts as zero when
    |rem| <= tol * max(1, max|p_k|). Returns (m1, quotient). Raises if
    p(1) is not numerically zero (the matrix behind p was not
    stochastic) or if the deflated quotient still nearly vanishes at 1
    (multiplicity too ill-conditioned to trust).

    Each division by (z - 1) is numpy's ``polydiv``, synthetic division
    from the top coefficient down, whose remainder is p(1) as that
    recurrence sums it. It drops zero top coefficients first, so they
    change neither m1 nor the quotient's other coefficients."""
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
        quotient, rem = npoly.polydiv(current, [-1.0, 1.0])
        if abs(float(rem[0])) > threshold:
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
    # written so that a NaN fails
    if not _max_abs(q_star.sum(axis=-1) - 1.0) <= EPS_PROJ:
        raise NumericalError(f"{method}: limiting matrix rows do not sum to 1")
    if float(q_star.min()) < -EPS_PROJ or float(q_star.max()) > 1.0 + EPS_PROJ:
        raise NumericalError(f"{method}: limiting matrix entries leave [0, 1]")
    if projection:
        for label, left, right in (("Q*Q", q_star, q), ("QQ*", q, q_star),
                                   ("Q*Q*", q_star, q_star)):
            gap = _max_abs(left @ right - q_star)
            if not gap <= EPS_PROJ:
                advice = "" if method == "structural" else "; fall back to the structural method"
                raise NumericalError(
                    f"{method}: projection identity {label} = Q* violated "
                    f"by {gap!r}{advice}"
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


def _closure(edges: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure of a chain-last (n, n, m) stack of
    0/1 graphs by Warshall's algorithm (J. ACM 9, 1962): after step k,
    entry (i, j) holds when a path from i to j passes through no node
    above k on its way."""
    reach = edges | np.eye(len(edges), dtype=bool)[..., None]
    for k in range(len(reach)):
        reach |= reach[:, k, None] & reach[k]
    return reach


def _class_name(members: np.ndarray, states=None) -> tuple:
    """The 0-based states of a class of chain nodes ``members``; a node x
    stands for the states ``states[x]`` (None: node x is state x)."""
    if states is None:
        return tuple(members.tolist())
    return tuple(sorted(s for x in members.tolist() for s in states[x]))


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve``; a 1 x 1 system is the one division LAPACK
    would make, without its call overhead."""
    if a.shape[-1] == 1:
        if not a.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return b / a
    return np.linalg.solve(a, b)


def _absorption(tt: np.ndarray, rhs: np.ndarray, k: int) -> np.ndarray:
    """x solving (I - tt) x = rhs for the transient block ``tt`` of one
    chain. The first ``k`` columns of ``rhs`` are the one-step
    probabilities into each of k absorbing sets, so those columns of x
    are absorption probabilities: their rows must sum to 1, and they are
    clipped to [0, 1]. Any further columns are returned as solved.

    Each diagonal entry of I - tt is formed as its row's exit mass plus
    its off-diagonal mass, never as 1 - tt_ii (Grassmann, Taksar and
    Heyman, Operations Research 33, 1985): a block that escapes with
    probability 1e-10 per round keeps its digits. The censoring solves
    one such block per game, with up to n states, where one dense LU
    beats the elimination of :func:`_structural_stack`."""
    a = -tt
    # a view that writes through in any memory order; a reshape of
    # F-ordered blocks would copy them, and the write would be lost
    diagonal = np.einsum("...ii->...i", a)
    diagonal[...] = 0.0
    np.subtract(rhs[..., :k].sum(axis=-1), a.sum(axis=-1), out=diagonal)
    try:
        x = _solve(a, rhs)
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


def _structural_stack(qs: np.ndarray, edges: np.ndarray | None = None, states=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors ``lower`` (n, k, m) and ``upper`` (k, n, m) of Q* of every
    chain of a validated chain-last (n, n, m) stack, ``qs[i, j, c]`` the
    transition i -> j of chain c, with Q*[i, j] = sum over k of
    lower[i, k] upper[k, j]; the 0/1 ``reaches`` (n, k, m); and whether
    each state is ``recurrent`` (n, m).

    ``edges`` is the stack's 0/1 transition graph; None takes the
    transitions with probability > EPS_EDGE. ``states`` names a failing
    class by the states its nodes stand for (see :func:`_class_name`).
    A state is recurrent when every state it reaches (reflexive closure)
    reaches it back, and then its closure row is its class. Each chain's
    classes are numbered by their heads, their smallest members, and k
    is padded to the stack's largest class count.
    ``upper[k, :, i]`` is class k's stationary row in chain i, ``lower[:,
    k, i]`` is 1 on class k and the absorption probabilities into it on
    the transient states, and ``reaches[:, k, i]`` is 1 on the states
    that reach class k. The classes are disjoint, so each entry of Q* has
    at most one nonzero term.

    The solves are one masked pass of GTH state reduction (Grassmann,
    Taksar and Heyman, Operations Research 33, 1985) over the whole
    stack: every state but the heads is eliminated, in descending index,
    each step dividing by the eliminated row's remaining off-diagonal
    mass, so nothing is subtracted and every entry keeps its relative
    accuracy (O'Cinneide, Numer. Math. 65, 1993). A recurrent state
    enters only its own class, so each class reduces to its head while
    the transient states fold into the classes they enter. One ascending
    pass of back-substitution then gives each transient state's
    absorption row from the rows of the states it could still enter, and
    each other recurrent state's stationary weight relative to its head.

    The chain axis is last and contiguous, so every reduction runs along
    a leading axis and adds in index order. On a stack of one numpy would
    add pairwise instead, so a single chain runs twice, and a chain's
    bits never depend on the other chains of its stack. The factors are
    checked before they are returned (see :func:`_check_factors`)."""
    n, _, m = qs.shape
    if edges is None:
        edges = qs > EPS_EDGE
    if m == 1:
        factors = _structural_stack(qs.repeat(2, axis=2), edges.repeat(2, axis=2), states)
        return tuple(x[..., :1] for x in factors)
    reach = _closure(edges)
    recurrent = ~(reach > reach.transpose(1, 0, 2)).any(axis=1)
    # a recurrent state reaches exactly its own class, so it is the head
    # when it reaches no smaller state
    heads = recurrent & ~(reach & np.tri(n, k=-1, dtype=bool)[..., None]).any(axis=1)
    width = int(heads.sum(axis=0).max())
    # hot[j, k]: state j is the head of class k, the k-th head by index
    hot = heads[:, None] & (heads.cumsum(axis=0)[:, None] == np.arange(1, width + 1)[:, None])
    # a state reaches a class when it reaches its head, and a recurrent
    # state reaches its own class's head only
    reaches = (reach[:, :, None] & hot).any(axis=1)
    member = reaches & recurrent[:, None]
    transient, inner = ~recurrent, recurrent & ~heads
    a = qs.copy()
    alive, mass = np.ones((n, m)), np.ones((n, m))
    for k in range(n - 1, -1, -1):
        out = ~heads[k]
        if not out.any():
            continue
        alive[k] = heads[k]
        row = a[k] * alive
        # the chains that keep state k divide by 1 and add nothing
        mass[k] = np.where(out, row.sum(axis=0), 1.0)
        a += (a[:, k] * alive * out)[:, None] * (row / mass[k])
        # a transient row keeps only the states it could still enter
        a[k] = np.where(transient[k], row, a[k])
    # a[k] is transient k's row and a[:, k] inner state k's column as
    # they were when k was eliminated; in ascending order, the states
    # eliminated before k have no absorption row or weight yet when k's
    # is found
    lower, weight = member.astype(float), heads.astype(float)
    for k in range(n):
        if transient[k].any():
            lower[k] += (a[k][:, None] * lower).sum(axis=0) / mass[k] * transient[k]
        if inner[k].any():
            weight[k] += (a[:, k] * weight).sum(axis=0) / mass[k] * inner[k]
    # a head's weight is 1, so a class's total is at least 1, and a padded
    # class, with no members, divides 0 by 1
    total = (member * weight[:, None]).sum(axis=0)
    upper = np.ascontiguousarray((member * (weight[:, None] / np.maximum(total, 1.0)))
                                 .transpose(1, 0, 2))
    _check_factors(qs, lower, upper, member, states)
    return lower, upper, reaches, recurrent


def _check_factors(qs: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   member: np.ndarray, states=None) -> None:
    """Check the factors of Q* = lower @ upper of every chain of a
    chain-last stack (see :func:`_structural_stack`), where
    ``member[:, k, c]`` marks the states of class k of chain c; a failing
    class is named by its states (see :func:`_class_name`).

    In order: each class's stationary row U_k meets U_k Q = U_k
    (stationary residual); its absorption column L_k meets Q L_k = L_k
    (absorption residual); U L = I (projection residual, per row of U);
    L_k is nonnegative and U_k lies in [0, 1] and sums to 1 (range
    residual); and each state's row of L sums to 1. A padded class has an
    empty row and column, so it meets every check. Once these hold, L's
    rows are probability vectors and each column of U has at most one
    nonzero entry, in [0, 1], since the classes are disjoint; so each gap
    of the projection identities is at most the largest entry of its
    middle factor (Kemeny and Snell, Finite Markov Chains, 1960):

        Q*Q - Q* = L(UQ - U),  QQ* - Q* = (QL - L)U,  Q*Q* - Q* = L(UL - I)U.

    The products take O(n^2 k) per chain, where forming Q* and checking
    its identities take O(n^3). They are einsums over the chain-last
    stacks as they are, with no chain-first copy. einsum forms these
    residuals only, never a number that is returned, since its sums may
    round apart from the kernel's. Each check reduces over the whole
    stack, and only a failing one per class: a reduction along a short
    trailing axis costs more than the products."""
    real = member.any(axis=0)
    # each gap, and the axis its (class, chain) residual takes the largest
    # entry along; the range residual is per class and chain already
    checks = (
        ("stationary residual", abs(np.einsum("ksc,stc->ktc", upper, qs) - upper), 1),
        ("absorption residual", abs(np.einsum("stc,tkc->skc", qs, lower) - lower), 0),
        ("projection residual", abs(np.einsum("ksc,sjc->kjc", upper, lower)
                                    - np.eye(len(upper))[..., None] * real[:, None]), 1),
        ("range residual", np.maximum.reduce([
            -lower.min(axis=0), -upper.min(axis=1), upper.max(axis=1) - 1.0,
            abs(upper.sum(axis=1) - real)]), None),
    )
    for label, gap, axis in checks:
        # written so that a NaN fails
        if not gap.max() <= EPS_PROJ:
            residual = gap if axis is None else gap.max(axis=axis)
            # the first chain with a failing class, and its first one
            c, k = np.argwhere(~(residual.T <= EPS_PROJ))[0]
            raise NumericalError(
                f"numerically degenerate chain: {label} {float(residual[k, c])!r} for class "
                f"{_class_name(np.flatnonzero(member[:, k, c]), states)}"
            )
    if not (abs(lower.sum(axis=1) - 1.0) <= EPS_PROJ).all():
        raise NumericalError(
            "numerically degenerate chain: absorption rows do not sum to 1"
        )


def structural_limits(qs, edges=None, states=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q* of every chain of a chain-last (n, n, m) stack by the structural
    method, as its factors ``(lower, upper)`` and the 0/1 ``reaches``,
    each state's reachable classes (see :func:`_structural_stack`).
    ``edges`` is the stack's 0/1 transition graph (None: the transitions
    above EPS_EDGE), and ``states[x]`` the states node x stands for,
    which name a failing row or class (None: node x is state x). The
    rows are checked stochastic, and Q* is checked through its factors,
    never formed (see :func:`_check_factors`): each gap of the projection
    identities Q*Q = QQ* = Q*Q* = Q* is at most the largest entry of the
    factor residual UQ - U, QL - L or UL - I, and Q*'s rows are
    probability vectors. A check failing anywhere raises, and on a stack
    of one the message is exact."""
    qs = np.asarray(qs, dtype=float)
    _check_stochastic(qs, states)
    return _structural_stack(qs, edges, states)[:3]


def decompose_chain(q) -> ChainDecomposition:
    """Recurrent classes, transient states, stationary distributions and
    absorption probabilities of one stochastic matrix, as the structural
    method finds and checks them (see :func:`cesaro_structural`)."""
    return cesaro_structural(q).decomposition


def cesaro_structural(q) -> CesaroResult:
    """Limiting matrix assembled from the chain structure (a stack of one)."""
    q = validate_stochastic(q)
    lower, upper, reaches, recurrent = (x[..., 0] for x in _structural_stack(q[..., None]))
    q_star = lower @ upper
    _check_limit(q_star, q, "structural")
    classes = [np.flatnonzero(reaches[:, k] & recurrent) for k in range(upper.shape[0])]
    transient = np.flatnonzero(~recurrent)
    return CesaroResult(q_star=q_star, method="structural", decomposition=ChainDecomposition(
        recurrent_classes=tuple(tuple(idx.tolist()) for idx in classes),
        transient=tuple(transient.tolist()),
        stationary=tuple(upper[k, idx] for k, idx in enumerate(classes)),
        absorption=lower[transient],
    ))


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
