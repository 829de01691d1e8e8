import math
from fractions import Fraction

import numpy as np
import pytest

from pismg import (
    estimate_payoff,
    parse_game,
    simulate,
    strategy_from_ordinal,
)

import _corpus


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
        point = sum(s.cum_reward for s in singles) / sum(s.cum_time for s in singles)
        assert est.point == pytest.approx(point, abs=1e-14)

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
