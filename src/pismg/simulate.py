"""Seeded Monte-Carlo evaluation of a fixed pure strategy pair.

Randomness comes from numpy's Philox generator (counter-based), keyed
directly by the user seed, so runs reproduce bit-for-bit across
platforms and processes. :func:`estimate_payoff` gives replication k its
own independent stream keyed ``seed ^ k``.

Within one trajectory the draw discipline is fixed so that results stay
stable under refactoring: one block of ``horizon`` uniforms is drawn up
front and drives the state transitions (one uniform per decision epoch,
inverted through the cumulative transition row), and stochastic
holding-time models draw lazily from the same stream in trajectory
order. ``deterministic`` sojourns consume no randomness; the
analytic-only ``mean`` kind declares no shape, so it is simulated as a
constant at its mean, which preserves the ratio-of-expectations target.

A pair's chain is compiled by array gathers from the flat tables that
:func:`pismg.game.validate` keeps on the spec, with no Python step per
transition. The tables hold each transition's holding time in the form
it is drawn in, a constant, an exponential rate or a uniform's base and
width, so no sojourn kind of the file format is decoded here. A
trajectory is computed in array passes and one Python step per block of
epochs, and equals the epoch-by-epoch loop bit for bit:

- Every state's cumulative row is a subset of one sorted grid, so the
  grid puts each epoch's uniform in a bucket, and within a bucket every
  row inverts to the same transition. Where the answers for every state
  and bucket fit in ``_TABLE_ENTRIES`` they are a table, and a uniform
  finds its bucket in a table of cells: one exact multiply by a power
  of two and one gather, plus one comparison for each grid entry that
  lies strictly inside a cell. Elsewhere the bucket is a ``searchsorted``
  and the transition a binary search in a sorted array with one integer
  key per transition, so the compiled chain stays linear in the
  transition count.
- With s buckets there are only s one-epoch maps of the states, so
  where there is a table the map of every block of K epochs is
  tabulated, K the largest power of two whose n * s^K entries fit in
  ``_BLOCK_ENTRIES``: the block tabulation of the "four Russians"
  (Arlazarov, Dinic, Kronrod & Faradzev, Soviet Math. Dokl. 11, 1970).
- The state at the head of each block follows from the last in one
  Python step: a read of the block map, or where there is no table a
  ``bisect`` of the transition keys. The map is a list, which reads
  fastest, or above ``_BLOCK_ENTRIES`` entries a memoryview, which holds
  no Python int per entry. The inner epochs of all blocks then follow
  one epoch at a time, and every epoch's transition is one gather.
- The transitions fix which epochs draw a sojourn before any sojourn is
  drawn, so one block of exactly that many uniforms follows the
  transition block; on Philox a block equals the same draws taken one
  at a time. The epochs that draw, and which of them draw an exponential
  or a uniform sojourn, are index arrays. Exponential sojourns go
  through ``math.log1p`` per draw, as the loop did, because ``np.log1p``
  may round the last bit differently.
- Each epoch's reward and visit are read off its transition. Reward
  and time are summed with ``cumsum``, which adds in epoch order as the
  loop did; ``np.sum`` adds pairwise and would change bits.

Every integer array is ``np.intp``, numpy's own index type: numpy casts
an index array of any other type to it on every fancy index, so int32
indices save memory but cost time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .game import GameSpec, validate
from .strategies import PureStationaryStrategy, _choices

# the largest (states x buckets) transition table a chain precomputes
_TABLE_ENTRIES = 2**20
# the largest map of the states after a block of epochs a chain tabulates
_BLOCK_ENTRIES = 2**14
SIMULATION_NOTE = "fixed-horizon ratio estimate; the long-run limit is not certified"


@dataclass(frozen=True)
class TrajectoryStats:
    """One simulated trajectory: accumulated reward and elapsed time over
    ``steps`` decision epochs, the state after the last transition, and
    the per-state visit counts at decision epochs (index s - 1)."""

    cum_reward: float
    cum_time: float
    steps: int
    final_state: int
    visits: tuple[int, ...]

    @property
    def ratio(self) -> float:
        """Single-path reward/time ratio. A sample-path quantity: for
        transient starts it need not match the ratio-of-expectations
        payoff."""
        return self.cum_reward / self.cum_time


@dataclass(frozen=True)
class PayoffEstimate:
    """Ratio-of-means estimate over independent replications, with a
    delta-method standard error."""

    point: float
    stderr: float
    reps: int
    horizon: int
    seed: int
    note: str = SIMULATION_NOTE


def _total(values: np.ndarray) -> float:
    """The sum of ``values`` in order from 0.0, as a loop adds them:
    ``cumsum`` adds sequentially, and adding 0.0 turns the -0.0 that a
    sum of negative zeros leaves into the loop's 0.0."""
    return float(np.cumsum(values, out=values)[-1]) + 0.0


def _readable(a: np.ndarray):
    """``a`` for reads of one entry at a time: a list up to
    ``_BLOCK_ENTRIES`` entries, since a list reads fastest, and above that
    a memoryview, which makes one Python int per read."""
    return a.tolist() if len(a) <= _BLOCK_ENTRIES else memoryview(a)


class _Cells:
    """The bucket of a uniform u, ``searchsorted(grid, u, "right")``,
    found by cells: the unit interval is cut into ``size`` = 2^m cells,
    more than four per grid entry, and u lies in cell ``int(u * size)``;
    the product is exact, since size is a power of two. ``bucket[c]``,
    of length size, counts the grid entries <= c / size, which u passes;
    the entries strictly inside cell c are the rows of ``edges`` at
    column c (2.0, above any uniform, where a cell has fewer), and u
    passes those it is at or above. An entry on a cell edge thus costs
    nothing, and one strictly inside a cell one comparison per uniform
    and row."""

    def __init__(self, bucket: np.ndarray, edges: np.ndarray):
        self.bucket, self.edges = bucket, edges

    @classmethod
    def of(cls, grid: np.ndarray) -> _Cells | None:
        """The cells of ``grid``, or None where more entries share a
        cell than a binary search over the grid makes comparisons, or
        the cells would not fit in ``_TABLE_ENTRIES``."""
        size = 1 << (4 * len(grid)).bit_length()
        inner = grid[grid * size != np.floor(grid * size)]
        cell = (inner * size).astype(np.intp)
        # the entries of a cell are consecutive in the sorted grid
        rank = np.arange(len(inner)) - np.searchsorted(cell, cell)
        rows = int(rank.max(initial=-1)) + 1
        if rows > len(grid).bit_length() or (rows + 1) * size > _TABLE_ENTRIES:
            return None
        edges = np.full((rows, size), 2.0)
        edges[rank, cell] = inner
        return cls(np.searchsorted(grid, np.arange(size) / size, side="right"), edges)

    def lookup(self, u: np.ndarray, out: np.ndarray) -> None:
        """Writes the bucket of every uniform of ``u`` to ``out``."""
        # truncated to an index as astype would, with no float temporary
        cell = np.multiply(u, len(self.bucket), out=np.empty_like(out), casting="unsafe")
        # an index out of range cannot occur; "raise" would buffer out
        np.take(self.bucket, cell, out=out, mode="clip")
        for edges in self.edges:
            out += u >= edges[cell]


class _Chain:
    """The runtime table of the chain (f, g) induces, compiled once for
    any number of trajectories.

    The transitions are the positive-probability ones of every state's
    chosen action, in state order, gathered from the flat tables the
    spec's validation keeps (:func:`pismg.game.validate`); each state's
    cumulative row is ``cumsum(w / w.sum())`` of its weights w, as the
    per-epoch loop builds it. ``dest`` holds each transition's next
    state, ``reward`` its state's reward, and ``row_start`` the first
    transition of every state. ``kind``, ``base`` and ``scale`` are the
    tables' ``draw``, ``base`` and ``scale`` (see
    :func:`pismg.game._check_sojourn`): for a uniform draw v the holding
    time is ``base``, -log1p(-v) / ``scale`` or ``base`` + ``scale`` * v
    for kind 0, 1 and 2 (an exponential's ``base`` is not read).
    ``grid`` is the sorted union of the cumulative rows' entries below
    1, and a uniform u falls in bucket ``searchsorted(grid, u,
    "right")``, the count of grid entries <= u; there are ``stride``
    buckets. An entry of row s counts from the bucket after its grid
    index on, and an entry >= 1 never does, so the ascending ``keys``
    hold s * stride + that first bucket for every entry (``stride`` for
    one >= 1). The transition state s takes in bucket b is then
    ``searchsorted(keys, s * stride + b, "right")``: the transitions of
    the rows before s plus the count of its entries <= u, which is what
    ``bisect_right`` returns on the row. So far the chain is linear in
    its transitions.

    Where the answers for every s * stride + b fit in ``_TABLE_ENTRIES``,
    ``table`` holds them and ``cells`` finds buckets (see
    :class:`_Cells`; None where it would not pay), and ``next`` holds the
    state each s * stride + b moves to, times stride. A block is K =
    ``span`` epochs, for the largest power of two K whose n * stride^K
    map entries fit in ``_BLOCK_ENTRIES`` (1 where even two epochs do
    not), and ``jump`` maps s * stride^K + (the number buckets b_1 .. b_K
    write in base stride) to the state after the block, times stride^K:
    the map of 2K epochs is that of K composed with itself. At K = 1 it
    is ``next``. Without a table, ``walk_keys`` are the ``keys`` and
    ``jump`` the ``dest`` the walk reads, and ``next`` is None."""

    def __init__(self, spec: GameSpec, f: PureStationaryStrategy,
                 g: PureStationaryStrategy):
        validate(spec)
        n, t = spec.n, spec._tables
        chosen = np.zeros(len(t.slot), dtype=bool)
        chosen[np.searchsorted(t.slot, np.arange(n) * t.width + _choices(spec, f, g))] = True
        # the chosen actions' positive transitions, in state order
        moves = np.flatnonzero(chosen[t.owner] & (t.prob > 0.0))
        lengths = np.bincount(t.slot[t.owner[moves]] // t.width, minlength=n)
        ends = np.cumsum(lengths)
        cum = np.concatenate([np.cumsum(w / w.sum()) for w in np.split(t.prob[moves], ends[:-1])])
        cum[ends - 1] = 1.0
        inner = cum < 1.0
        grid = np.sort(cum[inner])
        # np.unique would import numpy.ma, about 1 MB
        self.grid = grid[np.diff(grid, prepend=-1.0) > 0]
        stride = self.stride = len(self.grid) + 1
        first = np.where(inner, np.searchsorted(self.grid, cum) + 1, stride)
        self.keys = np.repeat(np.arange(n), lengths) * stride + first
        self.dest = t.dest[moves]
        self.table = self.cells = self.next = self.walk_keys = None
        self.span = 1
        if n * stride <= _TABLE_ENTRIES:
            self.table = np.searchsorted(self.keys, np.arange(n * stride), side="right")
            self.cells = _Cells.of(self.grid)
            self.next = jump = self.dest[self.table] * stride
            width = stride
            while stride > 1 and len(jump) * width <= _BLOCK_ENTRIES:
                # the map of 2K epochs is that of K composed with itself
                jump = jump.reshape(n, width)[jump // width].ravel() * width
                width *= width
                self.span *= 2
            self.jump = _readable(jump)
        else:
            self.walk_keys, self.jump = _readable(self.keys), _readable(self.dest)
        # every transition's state: its reward, and the index of the
        # state's first transition
        self.reward = t.reward[t.owner[moves]]
        self.row_start = ends - lengths
        self.kind, self.base, self.scale = t.draw[moves], t.base[moves], t.scale[moves]

    def _step(self, keys: np.ndarray) -> np.ndarray:
        """The transitions taken at ``keys``, each a 0-based state times
        stride plus a bucket."""
        if self.table is None:
            return np.searchsorted(self.keys, keys, side="right")
        return self.table[keys]

    def run(self, start: int, horizon: int, seed: int) -> TrajectoryStats:
        """One trajectory of ``horizon`` epochs from 1-based ``start`` on
        the Philox stream keyed ``seed``."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        stride, span = self.stride, self.span
        u = rng.random(horizon)
        # bucket 0 pads the last block to full length
        buckets = np.zeros(-(-horizon // span) * span, dtype=np.intp)
        if self.cells is None:
            buckets[:horizon] = np.searchsorted(self.grid, u, side="right")
        else:
            self.cells.lookup(u, buckets[:horizon])
        del u
        by_block = buckets.reshape(-1, span)
        codes = by_block[:, 0]
        for j in range(1, span):
            codes = codes * stride + by_block[:, j]
        # the state at the head of every block, times stride^span, one
        # block a step; fromiter keeps no Python int per block
        heads = np.empty(len(codes), dtype=np.intp)
        heads[0] = state = (start - 1) * stride**span
        jump, keys = self.jump, self.walk_keys
        if keys is None:
            walk = (state := jump[state + code] for code in memoryview(codes[:-1]))
        else:
            walk = (state := jump[bisect_right(keys, state + code)] * stride
                    for code in memoryview(codes[:-1]))
        heads[1:] = np.fromiter(walk, dtype=np.intp, count=len(heads) - 1)
        # fromiter stops at count, so the walk still holds the buckets
        del walk
        # the epochs of all blocks follow one at a time, and each bucket
        # becomes its epoch's key, a state times stride plus the bucket
        state = heads // stride ** (span - 1)
        del heads
        for j in range(span):
            by_block[:, j] += state
            if j < span - 1:
                state = self.next[by_block[:, j]]
        moves = self._step(buckets[:horizon])
        del buckets, by_block, codes, state
        final_state = int(self.dest[moves[-1]]) + 1
        cum_reward = _total(self.reward[moves])
        visits = tuple(np.add.reduceat(np.bincount(moves, minlength=len(self.dest)),
                                       self.row_start).tolist())

        time = self.base[moves]
        drawn = np.flatnonzero(self.kind[moves])
        moves = moves[drawn]
        kind = self.kind[moves]
        exponential = np.flatnonzero(kind == 1)
        uniform = np.flatnonzero(kind == 2)
        del kind
        draws = rng.random(len(drawn))
        rates = self.scale[moves[exponential]]
        logs = np.fromiter(map(math.log1p, memoryview(-draws[exponential])),
                           dtype=float, count=len(rates))
        draws[exponential] = -logs / rates
        moves = moves[uniform]
        draws[uniform] = self.base[moves] + self.scale[moves] * draws[uniform]
        time[drawn] = draws
        return TrajectoryStats(
            cum_reward=cum_reward,
            cum_time=_total(time),
            steps=horizon,
            final_state=final_state,
            visits=visits,
        )


def _check(spec: GameSpec, start: int, horizon: int, seed: int) -> None:
    if not 1 <= start <= spec.n:
        raise ValueError(f"start state {start} out of range 1..{spec.n}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    # Philox keys are unsigned 128-bit integers
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed {seed} out of range 0..2**128 - 1")


def simulate(spec: GameSpec, f: PureStationaryStrategy,
             g: PureStationaryStrategy, start: int, horizon: int,
             seed: int) -> TrajectoryStats:
    """One trajectory of ``horizon`` decision epochs under (f, g) from
    ``start``, driven by the Philox stream keyed ``seed``."""
    _check(spec, start, horizon, seed)
    return _Chain(spec, f, g).run(start, horizon, seed)


def estimate_payoff(spec: GameSpec, f: PureStationaryStrategy,
                    g: PureStationaryStrategy, start: int, horizon: int,
                    reps: int, seed: int) -> PayoffEstimate:
    """Ratio-of-means payoff estimate over ``reps`` independent
    replications: point = mean(cum_reward) / mean(cum_time), stderr by
    the delta method for a ratio of correlated means. Replication k uses
    the Philox stream keyed ``seed ^ k``, so any replication can be
    reproduced in isolation with :func:`simulate`."""
    if reps < 2:
        raise ValueError("reps must be at least 2 for a standard error")
    _check(spec, start, horizon, seed)
    chain = _Chain(spec, f, g)
    runs = [chain.run(start, horizon, seed ^ k) for k in range(reps)]
    rewards = np.array([stats.cum_reward for stats in runs])
    times = np.array([stats.cum_time for stats in runs])
    mean_reward = float(rewards.mean())
    mean_time = float(times.mean())
    point = mean_reward / mean_time
    var_reward = float(rewards.var(ddof=1))
    var_time = float(times.var(ddof=1))
    cov = float(np.cov(rewards, times, ddof=1)[0, 1])
    variance = (
        var_reward - 2.0 * point * cov + point * point * var_time
    ) / (reps * mean_time * mean_time)
    stderr = math.sqrt(max(variance, 0.0))
    return PayoffEstimate(
        point=point, stderr=stderr, reps=reps, horizon=horizon, seed=seed
    )
