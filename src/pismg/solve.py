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
always have one. The accompanying 2x2 certificate sweeps every 2x2
submatrix for a saddle-free one; it is a diagnostic, not a consequence
of the theorem, and a saddle-free 2x2 block can occur in a solvable game
(see ``TestAdjacentPairProperty`` in ``tests/test_solve.py``). The sweep
takes one first row at a time against all later rows and all column
pairs, so it holds one (D1 - 1) x C(D2, 2) block at a time.

A solve evaluates each pure pair once, into the (D1, D2, N) payoff
tensor ``SolveReport.payoffs``: ``payoffs[i, j, s - 1]`` is phi(s, f, g)
for the maximiser's strategy of ordinal i and the minimiser's of ordinal
j, so the slice ``payoffs[:, :, s - 1]`` is the payoff matrix of initial
state s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SaddlePointError
from .game import GameSpec, PLAYER_I, PLAYER_II, validate
from .markov import _max_abs, cesaro
from .strategies import (
    PureStationaryStrategy,
    SemiStationaryStrategy,
    enumerate_pure,
    induce,
)

EPS_SADDLE_REL = 1e-9
# a computed value this far from a bundled reference value gets flagged
REFERENCE_FLAG_TOL = 1e-3


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
    matrix of initial state s."""

    value: tuple[float, ...]
    maximiser: SemiStationaryStrategy
    minimiser: SemiStationaryStrategy
    per_state: tuple[SaddleResult, ...]
    payoffs: np.ndarray
    method: str
    diagnostics: dict


def saddle_tolerance(entries) -> float:
    """Comparison tolerance scaled to the matrix: EPS_SADDLE_REL *
    max(1, max|entry|)."""
    a = np.asarray(entries, dtype=float)
    return EPS_SADDLE_REL * max(1.0, _max_abs(a))


def payoff_vector(spec: GameSpec, f: PureStationaryStrategy,
                  g: PureStationaryStrategy, method: str = "structural",
                  **cesaro_options) -> np.ndarray:
    """phi(s, f, g) for every initial state s, as an array indexed
    s - 1. ``cesaro_options`` are passed to :func:`cesaro` unchanged."""
    try:
        chain = induce(spec, f, g)
        q_star = cesaro(chain.q, method, **cesaro_options).q_star
        denominator = q_star @ chain.tau
        if float(denominator.min()) <= 0.0:
            raise NumericalError(
                "nonpositive expected time in the limit; sojourn validation "
                "should have prevented this"
            )
    except NumericalError as e:
        raise NumericalError(f"pair ({f.label}, {g.label}): {e}") from e
    return (q_star @ chain.r) / denominator


def _payoff_tensor(spec: GameSpec, fs, gs, method: str,
                   cesaro_options: dict) -> np.ndarray:
    """phi(s, f, g) at [f.ordinal, g.ordinal, s - 1] for every pure pair,
    one :func:`payoff_vector` call per pair."""
    tensor = np.empty((len(fs), len(gs), spec.n))
    for f in fs:
        for g in gs:
            tensor[f.ordinal, g.ordinal] = payoff_vector(
                spec, f, g, method, **cesaro_options
            )
    return tensor


def build_payoff_matrix(spec: GameSpec, initial_state: int,
                        method: str = "structural",
                        **cesaro_options) -> np.ndarray:
    """The D1 x D2 payoff matrix for one initial state, the slice
    ``payoffs[:, :, initial_state - 1]`` of a solve's tensor. :func:`solve`
    does not call it."""
    if not 1 <= initial_state <= spec.n:
        raise ValueError(f"initial state {initial_state} out of range 1..{spec.n}")
    fs = enumerate_pure(spec, PLAYER_I)
    gs = enumerate_pure(spec, PLAYER_II)
    tensor = _payoff_tensor(spec, fs, gs, method, cesaro_options)
    return tensor[:, :, initial_state - 1]


def find_pure_saddle(entries, eps: float | None = None) -> SaddleResult:
    """All pure saddle cells of a matrix game with the row player
    maximising.

    A cell qualifies when it is within ``eps`` of both its row minimum
    and its column maximum; this coincides with the classic test
    max-of-row-mins >= min-of-col-maxes up to comparison fuzz (when that
    inequality holds within eps, the (argmax, argmin) cell always
    qualifies). Reported row/col is the row-major first cell. Saddle
    values are asserted to agree within 2 eps (interchangeability)."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"payoff matrix must be 2-D and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("payoff matrix has non-finite entries")
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
            f"[{values.min()!r}, {values.max()!r}] with eps {eps!r}"
        )
    i, j = (int(x) for x in cells[0])
    return SaddleResult(
        exists=True,
        row=i,
        col=j,
        value=float(a[i, j]),
        all_saddles=tuple((int(r), int(c)) for r, c in cells),
    )


def check_all_2x2(entries, eps: float | None = None) -> SaddleCertificate:
    """Sweep every 2x2 submatrix (row pair x column pair) for the
    saddle-free pattern: with corners a=(i,j), b=(i,j'), c=(i',j),
    d=(i',j'), a 2x2 matrix has no pure saddle exactly when
    min(a, d) > max(b, c) or max(a, d) < min(b, c) (strictly, beyond
    ``eps``). Matrices with fewer than two rows or columns pass
    vacuously. The first violation in lexicographic (i, i', j, j') order
    is reported 1-based.

    The columns of every column pair j < j' are gathered once; then, for
    one first row i at a time, row i is compared with all later rows at
    once and the sweep stops at the first i that has a violation. The
    working set is one (D1 - 1) x C(D2, 2) block, about 0.5 million
    entries at D1 = D2 = 100. It outgrows a block of 10^7 quadruples
    above D1 = D2 = 270 or so, where the sweep, whose time grows as
    D1^2 D2^2, already runs for tens of seconds per matrix."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D, got shape {a.shape}")
    d1, d2 = a.shape
    if d1 < 2 or d2 < 2:
        return SaddleCertificate(True, None)
    if eps is None:
        eps = saddle_tolerance(a)
    cols_i, cols_j = np.triu_indices(d2, k=1)   # lexicographic column pairs
    left = a[:, cols_i]
    right = a[:, cols_j]
    for i in range(d1 - 1):
        tl, tr = left[i], right[i]
        bl, br = left[i + 1:], right[i + 1:]
        diag_low = (tl < tr - eps) & (tl < bl - eps) & (br < tr - eps) & (br < bl - eps)
        diag_high = (tl > tr + eps) & (tl > bl + eps) & (br > tr + eps) & (br > bl + eps)
        bad = diag_low | diag_high
        if bad.any():
            rp, cp = divmod(int(np.argmax(bad)), cols_i.size)
            return SaddleCertificate(
                passed=False,
                violation=(i + 1, i + rp + 2, int(cols_i[cp]) + 1, int(cols_j[cp]) + 1),
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


def solve(spec: GameSpec, method: str = "structural", *,
          saddle_eps: float | None = None, **cesaro_options) -> SolveReport:
    """Value vector and optimal pure semi-stationary strategies.

    Builds the payoff tensor, locates each initial state's pure
    saddle cells (raising :class:`SaddlePointError` if a state has
    none), takes the lexicographically smallest cell per state, and
    assembles one strategy per player whose state-s component is that
    cell's row/column strategy. Diagnostics carry the strategy-space
    sizes, per-state saddle multiplicity, the 2x2 certificate verdicts
    (a state passes when its first violation is None), and deltas
    against bundled reference values if the game has any.
    A ``saddle_eps`` that is negative or non-finite raises ValueError."""
    if saddle_eps is not None and not 0.0 <= saddle_eps < math.inf:
        raise ValueError(f"saddle tolerance must be finite and >= 0, got {saddle_eps!r}")
    report = validate(spec)
    fs = enumerate_pure(spec, PLAYER_I)
    gs = enumerate_pure(spec, PLAYER_II)
    payoffs = _payoff_tensor(spec, fs, gs, method, cesaro_options)
    per_state: list[SaddleResult] = []
    violations: list[tuple[int, int, int, int] | None] = []
    for s in range(1, spec.n + 1):
        entries = payoffs[:, :, s - 1]
        eps = saddle_eps if saddle_eps is not None else saddle_tolerance(entries)
        violations.append(check_all_2x2(entries, eps).violation)
        found = find_pure_saddle(entries, eps)
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
        method=method,
        diagnostics=diagnostics,
    )
