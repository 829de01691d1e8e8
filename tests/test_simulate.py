import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from pismg import (
    ActionSpec,
    GameSpec,
    SojournModel,
    StateSpec,
    Transition,
    estimate_payoff,
    parse_game,
    simulate,
    strategy_from_ordinal,
    validate,
)

import _corpus
import _scalar_sim


SIMULATE_MODULE = importlib.import_module("pismg.simulate")

PHI_F3 = float(Fraction(154, 67))

SELF_LOOP = (
    '{"name": "loop", "states": [{"id": 1, "player": "I", "actions": '
    '[{"label": "stay", "reward": 2.0, '
    '"sojourn": {"kind": "deterministic", "t": 0.5}, '
    '"transitions": [{"to": 1, "prob": 1.0}]}]}]}'
)


@pytest.fixture(scope="module")
def loop_spec():
    return parse_game(SELF_LOOP)


def _pair(spec, f_ordinal, g_ordinal):
    return (
        strategy_from_ordinal(spec, "I", f_ordinal),
        strategy_from_ordinal(spec, "II", g_ordinal),
    )


class TestSimulate:
    def test_deterministic_self_loop(self, loop_spec):
        f, g = _pair(loop_spec, 0, 0)
        stats = simulate(loop_spec, f, g, start=1, horizon=10, seed=1)
        assert stats.cum_reward == 20.0
        assert stats.cum_time == 5.0
        assert stats.steps == 10
        assert stats.final_state == 1
        assert stats.visits == (10,)
        assert stats.ratio == 4.0

    def test_absorbing_state_of_example(self, example_spec):
        f, g = _pair(example_spec, 0, 0)
        stats = simulate(example_spec, f, g, start=3, horizon=100, seed=5)
        assert stats.cum_reward == pytest.approx(300.0)
        assert stats.cum_time == pytest.approx(100.0)
        assert stats.visits == (0, 0, 100, 0)
        assert stats.final_state == 3

    def test_same_seed_same_trajectory(self, example_spec):
        f, g = _pair(example_spec, 2, 0)
        a = simulate(example_spec, f, g, start=1, horizon=500, seed=42)
        b = simulate(example_spec, f, g, start=1, horizon=500, seed=42)
        assert a == b

    def test_different_seeds_differ(self, example_spec):
        f, g = _pair(example_spec, 2, 0)
        a = simulate(example_spec, f, g, start=1, horizon=500, seed=42)
        b = simulate(example_spec, f, g, start=1, horizon=500, seed=43)
        assert a != b

    def test_occupancy_matches_stationary_distribution(self, example_spec):
        # chain of (f3, g1) restricted to {1, 2} has stationary (3/7, 4/7)
        f, g = _pair(example_spec, 2, 0)
        horizon = 20000
        stats = simulate(example_spec, f, g, start=1, horizon=horizon, seed=13)
        freq = stats.visits[0] / horizon
        target = 3 / 7
        stderr = math.sqrt(target * (1 - target) / horizon)
        assert abs(freq - target) <= 3 * stderr

    def test_argument_validation(self, example_spec):
        f, g = _pair(example_spec, 0, 0)
        with pytest.raises(ValueError, match="out of range"):
            simulate(example_spec, f, g, start=9, horizon=10, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            simulate(example_spec, f, g, start=1, horizon=0, seed=0)

    def test_stochastic_sojourns_consume_stream(self):
        spec = parse_game(
            '{"name": "exp", "states": [{"id": 1, "player": "II", "actions": '
            '[{"label": "b", "reward": 1.0, '
            '"sojourn": {"kind": "exponential", "rate": 2.0}, '
            '"transitions": [{"to": 1, "prob": 1.0}]}]}]}'
        )
        f, g = _pair(spec, 0, 0)
        stats = simulate(spec, f, g, start=1, horizon=4000, seed=3)
        # mean holding time 1/2; the sample mean should be near it
        assert stats.cum_time / 4000 == pytest.approx(0.5, rel=0.1)
        assert stats.cum_time != 2000.0


class TestEstimatePayoff:
    def test_deterministic_estimate_has_zero_stderr(self, loop_spec):
        f, g = _pair(loop_spec, 0, 0)
        est = estimate_payoff(loop_spec, f, g, start=1, horizon=50, reps=10, seed=0)
        assert est.point == 4.0
        assert est.stderr == 0.0

    def test_replications_use_xor_derived_streams(self, example_spec):
        f, g = _pair(example_spec, 2, 0)
        seed = 1000
        est = estimate_payoff(
            example_spec, f, g, start=1, horizon=200, reps=4, seed=seed
        )
        singles = [
            simulate(example_spec, f, g, start=1, horizon=200, seed=seed ^ k)
            for k in range(4)
        ]
        # the expression estimate_payoff evaluates, so the bits must agree
        point = (float(np.array([s.cum_reward for s in singles]).mean())
                 / float(np.array([s.cum_time for s in singles]).mean()))
        assert est.point == point

    def test_estimate_is_reproducible(self, example_spec):
        f, g = _pair(example_spec, 2, 0)
        a = estimate_payoff(example_spec, f, g, start=1, horizon=300, reps=8, seed=9)
        b = estimate_payoff(example_spec, f, g, start=1, horizon=300, reps=8, seed=9)
        assert a == b

    def test_recurrent_start_matches_analytic_value(self, example_spec):
        f, g = _pair(example_spec, 2, 0)
        est = estimate_payoff(
            example_spec, f, g, start=1, horizon=5000, reps=60, seed=2718
        )
        assert abs(est.point - PHI_F3) <= max(0.01 * PHI_F3, 3 * est.stderr)

    def test_transient_start_matches_ratio_of_expectations(self, example_spec):
        # phi(4, f1, g1) = 2.55: half the mass settles in class {1, 2}
        # (ratio 2.1), half in state 3 (ratio 3.0)
        f, g = _pair(example_spec, 0, 0)
        est = estimate_payoff(
            example_spec, f, g, start=4, horizon=10000, reps=100, seed=31415
        )
        assert abs(est.point - 2.55) <= max(0.01 * 2.55, 3 * est.stderr)

    def test_mean_kind_is_simulated_at_its_mean(self, example_spec):
        # under (f1, g1) every sojourn model is 'mean' with value 1.0
        f, g = _pair(example_spec, 0, 0)
        stats = simulate(example_spec, f, g, start=1, horizon=250, seed=8)
        assert stats.cum_time == pytest.approx(250.0)

    def test_requires_two_reps(self, example_spec):
        f, g = _pair(example_spec, 0, 0)
        with pytest.raises(ValueError, match="reps"):
            estimate_payoff(example_spec, f, g, start=1, horizon=10, reps=1, seed=0)

    @pytest.mark.parametrize("start, horizon, message", [
        (9, 10, "start state 9 out of range 1..4"),
        (1, 0, "horizon must be at least 1"),
    ], ids=["start", "horizon"])
    def test_bad_start_and_horizon_as_simulate_rejects_them(
        self, example_spec, start, horizon, message
    ):
        f, g = _pair(example_spec, 0, 0)
        for run in (
            lambda: simulate(example_spec, f, g, start, horizon, seed=0),
            lambda: estimate_payoff(example_spec, f, g, start, horizon, reps=2, seed=0),
        ):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
    def test_seed_out_of_range_as_simulate_rejects_it(self, example_spec, seed):
        # Philox keys are 128-bit unsigned; numpy's own message does not
        # name the bad value
        f, g = _pair(example_spec, 0, 0)
        for run in (
            lambda: simulate(example_spec, f, g, 1, 10, seed),
            lambda: estimate_payoff(example_spec, f, g, 1, 10, reps=2, seed=seed),
        ):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == f"seed {seed} out of range 0..2**128 - 1"

    def test_largest_seed_runs(self, example_spec):
        f, g = _pair(example_spec, 0, 0)
        est = estimate_payoff(example_spec, f, g, 1, 10, reps=2, seed=2**128 - 1)
        assert est.seed == 2**128 - 1

    def test_corpus_games_simulate_without_error(self):
        for spec in _corpus.game_corpus(5, seed=83):
            f = strategy_from_ordinal(spec, "I", 0)
            g = strategy_from_ordinal(spec, "II", 0)
            est = estimate_payoff(spec, f, g, start=1, horizon=500, reps=4, seed=1)
            assert np.isfinite(est.point)
            assert np.isfinite(est.stderr)


def _stochastic(spec) -> bool:
    return any(
        model is not None and model.kind in ("exponential", "uniform")
        for st in spec.states for act in st.actions
        for model in (act.default_sojourn, *(tr.sojourn for tr in act.transitions))
    )


MIXED = _corpus.mixed_sojourn_game(np.random.default_rng(424242))
# the games with stochastic sojourns among 40 corpus games at seed 83
CORPUS = [spec for spec in _corpus.game_corpus(40, seed=83) if _stochastic(spec)]
# in blocks of four epochs, 1, 2 and 3 end inside the first block, 1008
# and 1024 fill their last block, and 1001 ends inside it
HORIZONS = (1, 2, 3, 1001, 1008, 1024)
SEEDS = (0, 2**128 - 1)
# every row of DENSE reaches up to 200 states, so its grid has about as
# many buckets as the game has transitions and no table fits. On RING
# every state moves one or two steps on at the same uniform, so paths
# from different states never meet.
DENSE = _corpus.dense_game(np.random.default_rng(61), n=200)
RING = GameSpec("ring-200", tuple(
    StateSpec(sid, "I", (ActionSpec(
        "a", float(sid % 7), (Transition(sid % 200 + 1, 0.5), Transition((sid + 1) % 200 + 1, 0.5)),
        SojournModel("exponential", (2.0,))),))
    for sid in range(1, 201)
))

MODELS = (SojournModel("mean", (1.5,)), SojournModel("deterministic", (0.25,)),
          SojournModel("exponential", (3.0,)), SojournModel("uniform", (0.5, 2.0)))
# state s's action has the sojourn of kind (s - 1) % 4 as its default,
# which one transition takes; three transitions override it with every
# other kind, and a probability-0 transition that would draw comes first
DEFAULTS = GameSpec("defaults-and-overrides", tuple(
    StateSpec(s, "I" if s % 2 else "II", (ActionSpec(
        "a", float(s), (
            Transition(s, 0.0, MODELS[2]),
            Transition(s % 5 + 1, 0.4),
            *(Transition((s + d) % 5 + 1, 0.2, MODELS[(s - 1 + d) % 4]) for d in (1, 2, 3)),
        ), MODELS[(s - 1) % 4]),))
    for s in range(1, 6)
))
validate(DEFAULTS)


class TestScalarOracle:
    """The block simulator against the epoch-by-epoch loop in
    ``_scalar_sim``: equal TrajectoryStats, float bits included."""

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "2**128-1"])
    def test_mixed_sojourn_game(self, horizon, seed):
        for f_ordinal, g_ordinal, start in ((0, 0, 1), (5, 2, 4), (7, 7, 6)):
            f, g = _pair(MIXED, f_ordinal, g_ordinal)
            assert simulate(MIXED, f, g, start, horizon, seed) == \
                _scalar_sim.trajectory(MIXED, f, g, start, horizon, seed)

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("seed", SEEDS, ids=["0", "2**128-1"])
    def test_corpus_games_with_stochastic_sojourns(self, horizon, seed):
        assert len(CORPUS) >= 10
        for spec in CORPUS:
            f, g = _pair(spec, 0, 0)
            start = spec.n
            assert simulate(spec, f, g, start, horizon, seed) == \
                _scalar_sim.trajectory(spec, f, g, start, horizon, seed)

    @pytest.mark.parametrize("spec", [DENSE, RING], ids=lambda s: s.name)
    @pytest.mark.parametrize("horizon", (1, 7, 4099))
    def test_large_games(self, spec, horizon):
        f, g = _pair(spec, 0, 0)
        for seed in SEEDS:
            assert simulate(spec, f, g, 2, horizon, seed) == \
                _scalar_sim.trajectory(spec, f, g, 2, horizon, seed)

    @pytest.mark.parametrize("n", [150, 300])
    def test_tabled_games_with_one_epoch_blocks(self, n):
        # both pairs have a table but too many buckets for blocks of two
        # epochs; a block's map has n * stride entries, 10,200 at n = 150
        # and 32,400, above _BLOCK_ENTRIES, at n = 300
        spec = _corpus.sparse_game(np.random.default_rng(7), n=n)
        f, g = _pair(spec, 0, 0)
        chain = SIMULATE_MODULE._Chain(spec, f, g)
        assert chain.table is not None and chain.span == 1
        assert (n * chain.stride > SIMULATE_MODULE._BLOCK_ENTRIES) == (n == 300)
        for horizon in (*range(1, 10), 1001, 4099):
            for seed in SEEDS:
                assert simulate(spec, f, g, 2, horizon, seed) == \
                    _scalar_sim.trajectory(spec, f, g, 2, horizon, seed)

    def test_binary_search_equals_the_table(self, monkeypatch):
        # games whose tables fit, simulated without one
        monkeypatch.setattr(SIMULATE_MODULE, "_TABLE_ENTRIES", 0)
        for spec in [MIXED, *CORPUS[:5]]:
            f, g = _pair(spec, 0, 0)
            for horizon in (3, 1001):
                assert simulate(spec, f, g, 1, horizon, 2**128 - 1) == \
                    _scalar_sim.trajectory(spec, f, g, 1, horizon, 2**128 - 1)

    @pytest.mark.parametrize("table_entries", [None, 0], ids=["table", "binary-search"])
    def test_action_defaults_and_transition_overrides(self, monkeypatch, table_entries):
        if table_entries is not None:
            monkeypatch.setattr(SIMULATE_MODULE, "_TABLE_ENTRIES", table_entries)
        f, g = _pair(DEFAULTS, 0, 0)
        for start in range(1, 6):
            for horizon in HORIZONS:
                for seed in SEEDS:
                    assert simulate(DEFAULTS, f, g, start, horizon, seed) == \
                        _scalar_sim.trajectory(DEFAULTS, f, g, start, horizon, seed)

    @pytest.mark.parametrize("span", [1, 2])
    def test_shorter_blocks_equal_the_loop(self, monkeypatch, span):
        # MIXED and DEFAULTS tabulate blocks of 4 epochs; a map-size
        # bound of 0 leaves blocks of one epoch, and one of n * stride^2
        # blocks of two
        for spec, pairs in ((MIXED, ((0, 0, 1), (5, 2, 4), (7, 7, 6))),
                            (DEFAULTS, tuple((0, 0, start) for start in range(1, 6)))):
            stride = SIMULATE_MODULE._Chain(spec, *_pair(spec, 0, 0)).stride
            monkeypatch.setattr(SIMULATE_MODULE, "_BLOCK_ENTRIES",
                                0 if span == 1 else spec.n * stride ** 2)
            for f_ordinal, g_ordinal, start in pairs:
                f, g = _pair(spec, f_ordinal, g_ordinal)
                assert SIMULATE_MODULE._Chain(spec, f, g).span == span
                for horizon in (*range(1, 10), 1001):
                    for seed in SEEDS:
                        assert simulate(spec, f, g, start, horizon, seed) == \
                            _scalar_sim.trajectory(spec, f, g, start, horizon, seed)

    def test_blocks_of_four_on_the_benchmark_game(self):
        chain = SIMULATE_MODULE._Chain(MIXED, *_pair(MIXED, 0, 0))
        assert (chain.stride, chain.span) == (4, 4)
        assert len(chain.jump) == MIXED.n * 4**4

    def test_every_integer_array_is_intp(self):
        # numpy casts any other index type to intp on every fancy index;
        # the cells are an object of their own, so a scan of the chain
        # alone would miss them. DENSE's walk reads memoryviews.
        for spec in (MIXED, DENSE):
            chain = SIMULATE_MODULE._Chain(spec, *_pair(spec, 0, 0))
            arrays = {name: np.asarray(a) for name, a in vars(chain).items()
                      if isinstance(a, (np.ndarray, memoryview))}
            if chain.cells is not None:
                arrays.update((f"cells.{name}", a) for name, a in vars(chain.cells).items())
            want = {"keys", "dest", "kind"}
            if spec is MIXED:
                want |= {"table", "next", "cells.bucket", "cells.edges"}
            else:
                want |= {"jump", "walk_keys"}
            assert want <= set(arrays)
            for name, a in arrays.items():
                assert a.dtype.kind == "f" or a.dtype == np.intp, name

    def test_dense_game_compiles_in_space_linear_in_its_transitions(self):
        chain = SIMULATE_MODULE._Chain(DENSE, *_pair(DENSE, 0, 0))
        assert chain.table is None
        size = sum(a.nbytes for a in vars(chain).values() if isinstance(a, np.ndarray))
        assert size <= 64 * len(chain.dest)

    def test_example_game(self, example_spec):
        for f_ordinal in range(3):
            f, g = _pair(example_spec, f_ordinal, 1)
            for start in range(1, 5):
                assert simulate(example_spec, f, g, start, 999, 7) == \
                    _scalar_sim.trajectory(example_spec, f, g, start, 999, 7)

    def test_grid_whose_entries_crowd_one_cell_is_searched(self):
        # four grid entries lie strictly inside the cell of 0.5: more
        # rows of cell comparisons than the three a binary search over
        # the six entries makes, so the table path searches the grid
        tiny = 1e-10
        spec = GameSpec("crowded", (
            StateSpec(1, "I", (ActionSpec("a", 1.0, (
                Transition(1, 0.5), *(Transition(to, tiny) for to in range(2, 6)),
                Transition(6, 0.5 - 4 * tiny)), SojournModel("uniform", (0.5, 1.5))),)),
            *(StateSpec(s, "II", (ActionSpec("b", float(s), (Transition(1, 0.75),
                                                            Transition(s, 0.25)),
                                             SojournModel("exponential", (2.0,))),))
              for s in range(2, 7)),
        ))
        validate(spec)
        f, g = _pair(spec, 0, 0)
        chain = SIMULATE_MODULE._Chain(spec, f, g)
        assert chain.table is not None and chain.cells is None
        for horizon in (1, 9, 1001):
            assert simulate(spec, f, g, 1, horizon, 5) == \
                _scalar_sim.trajectory(spec, f, g, 1, horizon, 5)

    def test_uniform_on_a_breakpoint_takes_the_next_transition(self):
        # the first uniform of stream 5 is state 1's first cumulative
        # entry; bisect_right counts an equal entry, so the move is to 2
        u = float(np.random.Generator(np.random.Philox(key=5)).random())
        spec = parse_game(json.dumps({"name": "tie", "states": [
            {"id": 1, "player": "I", "actions": [{
                "label": "a", "reward": 1.0, "sojourn": {"kind": "uniform", "a": 0.5, "b": 2.0},
                "transitions": [{"to": 1, "prob": u}, {"to": 2, "prob": 1.0 - u}]}]},
            {"id": 2, "player": "II", "actions": [{
                "label": "b", "reward": 2.0, "sojourn": {"kind": "exponential", "rate": 3.0},
                "transitions": [{"to": 1, "prob": 1.0}]}]},
        ]}))
        f, g = _pair(spec, 0, 0)
        stats = simulate(spec, f, g, start=1, horizon=1, seed=5)
        assert stats.final_state == 2
        for horizon in (1, 2, 9):
            assert simulate(spec, f, g, 1, horizon, 5) == \
                _scalar_sim.trajectory(spec, f, g, 1, horizon, 5)

    def test_negative_zero_rewards_sum_to_positive_zero(self, loop_spec):
        # the loop adds -0.0 to its 0.0 start; TrajectoryStats equality
        # cannot see the sign of a zero, but the JSON bytes can
        spec = _corpus.scale_rewards(loop_spec, -0.0)
        f, g = _pair(spec, 0, 0)
        for stats in (simulate(spec, f, g, 1, 10, 1), _scalar_sim.trajectory(spec, f, g, 1, 10, 1)):
            assert math.copysign(1.0, stats.cum_reward) == 1.0

    @pytest.mark.parametrize("spec", [MIXED, *CORPUS[:3]], ids=lambda s: s.name)
    def test_estimate_equals_oracle_estimate(self, spec):
        f, g = _pair(spec, 0, 0)
        est = estimate_payoff(spec, f, g, start=1, horizon=257, reps=5, seed=2**128 - 3)
        point, stderr = _scalar_sim.estimate(spec, f, g, 1, 257, 5, 2**128 - 3)
        assert (est.point, est.stderr) == (point, stderr)


def _cell_probes(grid, size):
    """Every grid entry and its neighbouring doubles, every cell edge,
    0.0 and the largest double below 1, then random uniforms."""
    below_one = np.nextafter(1.0, 0.0)
    probes = np.concatenate([
        grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
        np.arange(size) / size, [0.0, below_one],
        np.random.default_rng(len(grid)).random(1000),
    ])
    return probes[(probes >= 0.0) & (probes < 1.0)]


def _lookup(cells, u):
    out = np.empty(len(u), dtype=np.intp)
    cells.lookup(u, out)
    return out


class TestCells:
    """The cell lookup against ``np.searchsorted(grid, u, "right")``."""

    @pytest.mark.parametrize("size", [0, 1, 3, 10, 100, 1000])
    def test_random_grids(self, size):
        for seed in range(5):
            grid = np.sort(np.random.default_rng(seed).random(size))
            cells = SIMULATE_MODULE._Cells.of(grid)
            assert cells is not None
            u = _cell_probes(grid, len(cells.bucket))
            assert np.array_equal(_lookup(cells, u), np.searchsorted(grid, u, side="right"))

    def test_grids_with_entries_on_cell_edges(self):
        # dyadic entries sit on cell edges; the grid {0.3, 0.5, 0.6} has
        # one on an edge and two inside cells
        for grid in ([0.25, 0.5, 0.75], [0.3, 0.5, 0.6], [0.125, 0.3, 0.3125, 0.5, 0.9375],
                     np.arange(1, 64) / 64, np.arange(1, 10) / 10):
            grid = np.array(grid, dtype=float)
            cells = SIMULATE_MODULE._Cells.of(grid)
            u = _cell_probes(grid, len(cells.bucket))
            assert np.array_equal(_lookup(cells, u), np.searchsorted(grid, u, side="right"))

    def test_dyadic_grid_needs_no_comparison(self):
        cells = SIMULATE_MODULE._Cells.of(np.array([0.25, 0.5, 0.75]))
        assert cells.edges.shape[0] == 0

    def test_crowded_cell_falls_back_to_the_binary_search(self):
        grid = 0.5 + np.arange(5) * 1e-10
        assert SIMULATE_MODULE._Cells.of(grid) is None
