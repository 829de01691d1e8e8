"""Long-run average payoffs and pure saddle-point solving.

For a fixed pure stationary pair (f, g) the induced chain's Cesaro
limits exist, so the lim-inf in the undiscounted payoff criterion is an
actual limit and the payoff from initial state s is computed directly as

    phi(s, f, g) = [Q* r](s) / [Q* tau](s)

(the denominator is positive because expected sojourns are). Per initial
state the payoff matrix over all pure pairs is searched for a pure
saddle point with the row player maximising; the per-state saddle rows
and columns assemble the optimal semi-stationary strategies. A missing
saddle is a hard error: perfect-information games are expected to
always have one. States whose payoff matrices are equal, as those of
one recurrent class are, share one search. The accompanying 2x2
certificate sweeps every 2x2 submatrix for a saddle-free one; it is a
diagnostic, not a consequence of the theorem, and a saddle-free 2x2
block can occur in a solvable game (see ``TestAdjacentPairProperty`` in
``tests/test_solve.py``). The sweep filters row pairs by interval
overlap (a rising and a falling column must overlap) in both of the
block test's rounding forms, ``x < y - eps`` and ``y > x + eps``, and
confirms each flagged row pair with the block test itself. phi(s, f, g)
depends only on the choices at states the chain from s can reach, so
strategies that differ only elsewhere give equal rows or columns; a
block with equal rows or equal columns is never saddle-free, since a
tolerance is never negative, so the filter runs over the distinct
columns and the row pairs of unequal rows only. See
:func:`check_all_2x2`.

A solve evaluates each pure pair at most once, into the (D1, D2, N)
payoff tensor ``SolveReport.payoffs``: ``payoffs[i, j, s - 1]`` is
phi(s, f, g) for the maximiser's strategy of ordinal i and the
minimiser's of ordinal j, so the slice ``payoffs[:, :, s - 1]`` is the
payoff matrix of initial state s. The tensor is a view of one
state-major (N, D1, D2) array, the only array of its size a solve
holds: each state's matrix is contiguous there, and the saddle search
and the 2x2 sweep read it in place. Q* comes from the structural method
only; the other limiting-matrix methods of :mod:`pismg.markov` are
cross-checks and do not run in a solve.

A pair's actions differ only at the c decision states (states with more
than one action), so the one-action rows are censored once per solve
(:func:`pismg.censor.censor`, the stochastic complement): what is left
is a game on c + m nodes, the decision states and the m decision-free
closed classes, whose rows, rewards, epoch counts and times accumulate
the one-action states passed through. By renewal-reward, each recurrent
class K of a censored chain has the full chain's per-epoch means
mu_K.R / mu_K.N and mu_K.T / mu_K.N, and every state takes the payoff of
the nodes it may enter, weighted by its exit distribution (QQ* = Q*).
The censored chains are gathered from the censored action tables in
stacks of at most ``_CHUNK_ENTRIES`` entries, stored chain-last, (n, n,
m) with the chain axis contiguous, and each stack's stationary and
absorption solves are one masked pass of GTH state reduction over all
its chains (:func:`pismg.markov.structural_limits`), which subtracts
nothing, so a weakly coupled class keeps its digits. A stack's payoffs
are the columns of the state-major tensor. A game with n = 150 states
of which 8 choose runs chains of about 9 nodes.

The nodes fall into components that no action and no state links (see
:meth:`pismg.censor._CensoredGame.components`). Q* is block-diagonal
over them (Kemeny and Snell), so a state's payoff depends only on the
actions at its own component's nodes, and its D1 x D2 matrix is a
broadcast of that component's smaller set of pairs. So pairs are
evaluated once per component: its representative pairs, which play
action 0 at every node outside it, run through the same stacks on the
full node set, and every pair copies its entries at the component's
states from the representative with the same actions inside. Every
entry is still phi of that pair's own chain, bit for bit. A game of one
component evaluates all D1 D2 pairs; two independent sub-games of 100
strategies each evaluate 200 chains, not 10,000.

Every pair is evaluated this one way: :func:`payoff_vector` is the
tensor of one pair. A failed check names the first pair, in ordinal
order, whose own chain fails, with that chain's own error text, from a
second pass of stacks over the censored game already built (see
:func:`_payoff_tensor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .censor import _CensoredGame
from .errors import NumericalError, SaddlePointError
from .game import GameSpec, PLAYER_I, PLAYER_II, validate
# induce and cesaro are not called here: they stay module attributes for
# the benchmark's tracer (perfbench/spans.py), which wraps them by name
from .markov import _max_abs, cesaro
from .strategies import (
    PureStationaryStrategy,
    SemiStationaryStrategy,
    _choices,
    enumerate_pure,
    induce,
)

EPS_SADDLE_REL = 1e-9
# a computed value this far from a bundled reference value gets flagged
REFERENCE_FLAG_TOL = 1e-3
# float64 entries per stacked array of a solve: (pairs, s, s) censored
# chains of s nodes, or both rounding forms of a block of row pairs in the
# 2x2 sweep
_CHUNK_ENTRIES = 2**15


@dataclass(frozen=True)
class SaddleResult:
    """Outcome of the pure saddle search on one payoff matrix, in a
    solve the slice ``payoffs[:, :, s - 1]`` of :class:`SolveReport`.

    ``row``/``col`` are the lexicographically smallest saddle cell
    (0-based ordinals, the i and j of ``payoffs[i, j, s - 1]``),
    ``all_saddles`` every saddle cell in row-major order.
    """

    exists: bool
    row: int | None
    col: int | None
    value: float | None
    all_saddles: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SaddleCertificate:
    """Verdict of the exhaustive 2x2 submatrix sweep. ``violation`` is
    the first saddle-free quadruple (i, i', j, j'), 1-based, if any."""

    passed: bool
    violation: tuple[int, int, int, int] | None = None


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Full solve outcome: value vector (index s - 1 for state s),
    optimal semi-stationary strategies for both players, the per-state
    saddle results, the payoff tensor and a diagnostics dict.

    ``payoffs`` is the (D1, D2, N) array with phi(s, f, g) at
    ``[i, j, s - 1]`` for the maximiser's strategy of ordinal i and the
    minimiser's of ordinal j; ``payoffs[:, :, s - 1]`` is the payoff
    matrix of initial state s. It is a view of a state-major (N, D1, D2)
    array, so ``payoffs.transpose(2, 0, 1)`` is contiguous and each
    matrix ``payoffs[:, :, s - 1]`` is a strided view."""

    value: tuple[float, ...]
    maximiser: SemiStationaryStrategy
    minimiser: SemiStationaryStrategy
    per_state: tuple[SaddleResult, ...]
    payoffs: np.ndarray
    diagnostics: dict


def saddle_tolerance(entries) -> float:
    """Comparison tolerance scaled to the matrix: EPS_SADDLE_REL *
    max(1, max|entry|)."""
    a = np.asarray(entries, dtype=float)
    return EPS_SADDLE_REL * max(1.0, _max_abs(a))


def _check_tolerance(eps: float | None) -> None:
    if eps is not None and not 0.0 <= eps < math.inf:
        raise ValueError(f"saddle tolerance must be finite and >= 0, got {eps!r}")


def payoff_vector(spec: GameSpec, f: PureStationaryStrategy,
                  g: PureStationaryStrategy) -> np.ndarray:
    """phi(s, f, g) for every initial state s, as an array indexed
    s - 1: the payoff tensor of the one pair, each component's chain a
    stack of one, once the pair is checked as :func:`induce` checks it."""
    _choices(spec, f, g)
    return _payoff_tensor(spec, (f,), (g,))[0, 0]


def _payoff_tensor(spec: GameSpec, fs, gs) -> np.ndarray:
    """phi(s, f, g) at [f.ordinal, g.ordinal, s - 1] for every pure pair,
    a (D1, D2, N) view of a state-major (N, D1, D2) array, whose
    ``[s - 1]`` is the contiguous payoff matrix of state s. A stack's
    payoffs and a component's copies are written into the pairs' columns.

    Per component of the censored game (see
    :meth:`pismg.censor._CensoredGame.components`), only its
    representative pairs are evaluated, in stacks in ordinal order: those
    that play action 0 at every node outside it. Every other pair then
    copies its entries at the component's states from the representative
    with the same actions inside. A representative's row is written whole,
    so the entries it holds outside the component are those of its own
    chain; a later component's copies overwrite only their own states.

    A failed check raises :class:`NumericalError` naming the first pair,
    in ordinal order, whose own chain fails; the censoring reads no
    player's choices, so its failure names the first pair. A check is a
    maximum or an ``any`` over its stack's chains, and a chain's bits do
    not depend on the other chains of its stack, so a stack fails exactly
    when one of its chains fails alone. On a failure, every pair's own
    chain therefore runs again in ordinal-order stacks on the same
    censored game, and the first failing stack one chain at a time,
    which gives that chain's own error text."""
    tensor = np.empty((spec.n, len(fs), len(gs)))
    flat = tensor.reshape(spec.n, -1)
    try:
        game = _CensoredGame(spec)
    except NumericalError as e:
        raise NumericalError(f"pair ({fs[0].label}, {gs[0].label}): {e}") from e
    acts = game.actions(fs, gs)
    step = max(1, _CHUNK_ENTRIES // acts.shape[1] ** 2)
    try:
        # the pairs count through the nodes' actions in mixed radix, so a
        # pair's index is the sum of its actions times their place values:
        # at each node, the index of the first pair that plays action 1
        # there (0 at a node with one action)
        place = (acts == 1).argmax(axis=0)
        for nodes, states in game.components():
            rep = acts[:, nodes] @ place[nodes]
            own = rep == np.arange(len(rep))
            reps = np.flatnonzero(own)
            for lo in range(0, len(reps), step):
                chunk = reps[lo:lo + step]
                flat[:, chunk] = game.payoffs(acts[chunk])
            copies = np.flatnonzero(~own)
            flat[states[:, None], copies] = flat[states[:, None], rep[copies]]
    except NumericalError:
        # a failing representative is itself a pair, so some stack below
        # fails too
        for lo in range(0, len(acts), step):
            try:
                game.payoffs(acts[lo:lo + step])
            except NumericalError:
                for k in range(len(acts))[lo:lo + step]:
                    try:
                        game.payoffs(acts[k:k + 1])
                    except NumericalError as e:
                        f, g = fs[k // len(gs)], gs[k % len(gs)]
                        raise NumericalError(f"pair ({f.label}, {g.label}): {e}") from e
        raise
    return tensor.transpose(1, 2, 0)


def build_payoff_matrix(spec: GameSpec, initial_state: int) -> np.ndarray:
    """The D1 x D2 payoff matrix for one initial state, the slice
    ``payoffs[:, :, initial_state - 1]`` of a solve's tensor. :func:`solve`
    does not call it."""
    if not 1 <= initial_state <= spec.n:
        raise ValueError(f"initial state {initial_state} out of range 1..{spec.n}")
    fs = enumerate_pure(spec, PLAYER_I)
    gs = enumerate_pure(spec, PLAYER_II)
    tensor = _payoff_tensor(spec, fs, gs)
    return tensor[:, :, initial_state - 1]


def find_pure_saddle(entries, eps: float | None = None) -> SaddleResult:
    """All pure saddle cells of a matrix game with the row player
    maximising.

    A cell qualifies when it is within ``eps`` of both its row minimum
    and its column maximum; this coincides with the classic test
    max-of-row-mins >= min-of-col-maxes up to comparison fuzz (when that
    inequality holds within eps, the (argmax, argmin) cell always
    qualifies). Reported row/col is the row-major first cell. Saddle
    values are asserted to agree within 2 eps (interchangeability). An
    ``eps`` that is negative or non-finite raises ValueError."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"payoff matrix must be 2-D and non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("payoff matrix has non-finite entries")
    _check_tolerance(eps)
    if eps is None:
        eps = saddle_tolerance(a)
    row_min = a.min(axis=1)
    col_max = a.max(axis=0)
    mask = (a <= row_min[:, None] + eps) & (a >= col_max[None, :] - eps)
    cells = np.argwhere(mask)
    if cells.size == 0:
        return SaddleResult(False, None, None, None, ())
    values = a[mask]
    if float(values.max() - values.min()) > 2 * eps:
        raise NumericalError(
            "saddle cells disagree beyond tolerance: values span "
            f"[{float(values.min())!r}, {float(values.max())!r}] "
            f"with eps {float(eps)!r}"
        )
    all_saddles = tuple(map(tuple, cells.tolist()))
    i, j = all_saddles[0]
    return SaddleResult(
        exists=True,
        row=i,
        col=j,
        value=float(a[i, j]),
        all_saddles=all_saddles,
    )


def _overlap(top: np.ndarray, bot: np.ndarray, eps: float) -> np.ndarray:
    """Per row pair (a row of ``top`` against the same row of ``bot``):
    whether, in either rounding form (p, m) = (0, eps) or (eps, 0), some
    column u rises (``top + p < bot - m``) and some column d falls
    (``bot + p < top - m``) with overlapping intervals,
    ``lo_u + p < hi_d - m`` and ``lo_d + p < hi_u - m``.

    With the columns sorted by ``lo``, an overlapping pair shows at the
    later of its two columns: the running maximum of ``hi - m`` over the
    earlier columns of the other direction exceeds its ``lo + p``. Ties
    in ``lo`` overlap whatever their order, so one unstable sort serves
    both forms, which are stacked on a leading axis."""
    lo, hi = np.minimum(top, bot), np.maximum(top, bot)
    flat = np.argsort(lo, axis=1) + np.arange(0, top.size, top.shape[1])[:, None]
    top, bot, lo, hi = (x.ravel()[flat] for x in (top, bot, lo, hi))
    p = np.array([0.0, eps])[:, None, None]
    m = p[::-1]
    up, down = top + p < bot - m, bot + p < top - m
    start, end = lo + p, hi - m
    reach_up = np.maximum.accumulate(np.where(up, end, -np.inf), axis=2)
    reach_down = np.maximum.accumulate(np.where(down, end, -np.inf), axis=2)
    return ((down & (reach_up > start)) | (up & (reach_down > start))).any(axis=(0, 2))


def _first_equal(a: np.ndarray) -> np.ndarray:
    """For each row of ``a``, the index of the first row with the same
    bytes (exact equality, no tolerance)."""
    raw, width = a.tobytes(), a.shape[1] * a.itemsize
    first: dict[bytes, int] = {}
    return np.array([first.setdefault(raw[k:k + width], i)
                     for i, k in enumerate(range(0, len(raw), width))])


def check_all_2x2(entries, eps: float | None = None) -> SaddleCertificate:
    """Sweep every 2x2 submatrix (row pair x column pair) for the
    saddle-free pattern: with corners a=(i,j), b=(i,j'), c=(i',j),
    d=(i',j'), a 2x2 matrix has no pure saddle exactly when
    min(a, d) > max(b, c) or max(a, d) < min(b, c) (strictly, beyond
    ``eps``). Matrices with fewer than two rows or columns pass
    vacuously. The first violation in lexicographic (i, i', j, j') order
    is reported 1-based.

    A row pair holds a saddle-free block only if some column rises from
    row i to row i' by more than ``eps``, some column falls by more than
    ``eps`` and the two columns' intervals overlap by more than ``eps``:
    sorting the columns by their lower ends and a running maximum of
    upper ends find that in O(D2 log D2) per row pair. Rounding makes
    the block test depend on column order, though: a block whose rising
    column comes first compares ``x < y - eps`` and one whose falling
    column comes first ``y > x + eps``, and the two can round apart. So
    the overlap test runs in each form and a row pair is flagged when
    either holds. Row pairs are taken in lexicographic order, in blocks
    of at most ``_CHUNK_ENTRIES // (2 D2)``; when they fill more than one
    block, the blocks start at four row pairs and double, so a matrix
    that fails early pays for about twice the row pairs up to its first
    violation, not a whole block. Each flagged row pair is confirmed with
    the block test on its C(D2, 2) column pairs, and the first confirmed
    block is the violation; the verdict and violation do not depend on
    the blocks. The whole sweep costs O(D1^2 D2 log D2).

    Since ``eps >= 0``, a block with two equal rows or two equal columns
    fails both strict tests, and a row pair's flag depends only on the
    set of its columns' value pairs. So the overlap test runs on the
    distinct columns only (D2 above counts those), over the row pairs
    whose two rows differ, and a matrix with fewer than two distinct
    columns passes at once; rows and columns are compared by their
    bytes. Confirmation still runs on the full row pair, so the first
    violation is the same. An ``eps`` that is negative or non-finite
    raises ValueError, as in :func:`find_pure_saddle`; so do non-finite
    entries without an explicit ``eps`` (the default tolerance of such a
    matrix would be inf or nan)."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D, got shape {a.shape}")
    _check_tolerance(eps)
    if eps is None:
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff matrix has non-finite entries")
        eps = saddle_tolerance(a)
    d1, d2 = a.shape
    if d1 < 2 or d2 < 2:
        return SaddleCertificate(True, None)
    first_row = _first_equal(a)
    cols = np.flatnonzero(_first_equal(a.T) == np.arange(d2))
    if cols.size < 2:
        return SaddleCertificate(True, None)
    # row pairs i < i' of unequal rows in lexicographic order, as
    # np.triu_indices(d1, 1) gives them but at a fixed cost that the many
    # tiny matrices feel
    rows_i, rows_j = np.nonzero(np.less.outer(np.arange(d1), np.arange(d1))
                                & (first_row[:, None] != first_row))
    # the column pairs j < j' that confirm a flagged row pair, in the same way
    cols_i, cols_j = np.nonzero(np.less.outer(np.arange(d2), np.arange(d2)))
    distinct = a[:, cols]
    step = max(1, _CHUNK_ENTRIES // (2 * cols.size))
    # row pairs that fill more than one block start in a block of four and
    # double up to step, so a sweep that fails early stops near its first
    # violation
    size = step if rows_i.size <= step else min(step, 4)
    lo = 0
    while lo < rows_i.size:
        block_i, block_j = rows_i[lo:lo + size], rows_j[lo:lo + size]
        lo, size = lo + size, min(2 * size, step)
        for k in np.flatnonzero(_overlap(distinct[block_i], distinct[block_j], eps)):
            top, bot = a[block_i[k]], a[block_j[k]]
            tl, tr = top[cols_i], top[cols_j]
            bl, br = bot[cols_i], bot[cols_j]
            bad = ((np.maximum(tl, br) < np.minimum(tr, bl) - eps)
                   | (np.minimum(tl, br) > np.maximum(tr, bl) + eps))
            if bad.any():
                cp = int(np.argmax(bad))
                return SaddleCertificate(
                    passed=False,
                    violation=(int(block_i[k]) + 1, int(block_j[k]) + 1,
                               int(cols_i[cp]) + 1, int(cols_j[cp]) + 1),
                )
    return SaddleCertificate(True, None)


def _reference_deltas(spec: GameSpec, values: tuple[float, ...]) -> tuple[dict, ...]:
    if spec.reference_values is None:
        return ()
    out = []
    for s, (got, ref) in enumerate(zip(values, spec.reference_values), start=1):
        if abs(got - ref) > REFERENCE_FLAG_TOL * max(1.0, abs(ref)):
            out.append(
                {"state": s, "computed": got, "reference": ref, "delta": got - ref}
            )
    return tuple(out)


def solve(spec: GameSpec, *, saddle_eps: float | None = None) -> SolveReport:
    """Value vector and optimal pure semi-stationary strategies.

    Builds the payoff tensor from the structural limit of every pure
    pair's chain, locates each initial state's pure saddle cells,
    searching each distinct matrix once, takes the lexicographically
    smallest cell per state, and assembles one strategy per player whose
    state-s component is that cell's row/column strategy. A state
    without a saddle raises :class:`SaddlePointError`; a failed
    numerical check raises :class:`NumericalError` naming the first
    failing pair. Diagnostics carry the strategy-space sizes, per-state
    saddle multiplicity, the 2x2 certificate verdicts (a state passes
    when its first violation is None), and deltas against bundled
    reference values if the game has any.
    A ``saddle_eps`` that is negative or non-finite raises ValueError."""
    _check_tolerance(saddle_eps)
    report = validate(spec)
    fs = enumerate_pure(spec, PLAYER_I)
    gs = enumerate_pure(spec, PLAYER_II)
    payoffs = _payoff_tensor(spec, fs, gs)
    per_state: list[SaddleResult] = []
    violations: list[tuple[int, int, int, int] | None] = []
    # states of one recurrent class share a payoff matrix: search it once,
    # keyed by its bytes, a contiguous slice of the state-major tensor
    matrices = payoffs.transpose(2, 0, 1)
    searched: dict[bytes, tuple[tuple[int, int, int, int] | None, SaddleResult]] = {}
    for s in range(1, spec.n + 1):
        entries = matrices[s - 1]
        key = entries.tobytes()
        if key not in searched:
            eps = saddle_eps if saddle_eps is not None else saddle_tolerance(entries)
            # the saddle search first: it rejects non-finite entries, whose
            # default tolerance the sweep would reject as inf or nan
            found = find_pure_saddle(entries, eps)
            searched[key] = (check_all_2x2(entries, eps).violation, found)
        violation, found = searched[key]
        violations.append(violation)
        if not found.exists:
            raise SaddlePointError(
                f"no pure saddle point in the payoff matrix for initial "
                f"state {s}; the perfect-information guarantee failed",
                matrix=entries,
            )
        per_state.append(found)
    value = tuple(sr.value for sr in per_state)
    diagnostics = {
        "d1": report.d1,
        "d2": report.d2,
        "saddle_multiplicity": tuple(len(sr.all_saddles) for sr in per_state),
        "certificate_2x2": tuple(v is None for v in violations),
        "certificate_violations": tuple(violations),
        "reference_deltas": _reference_deltas(spec, value),
    }
    return SolveReport(
        value=value,
        maximiser=SemiStationaryStrategy(PLAYER_I, tuple(fs[sr.row] for sr in per_state)),
        minimiser=SemiStationaryStrategy(PLAYER_II, tuple(gs[sr.col] for sr in per_state)),
        per_state=tuple(per_state),
        payoffs=payoffs,
        diagnostics=diagnostics,
    )
