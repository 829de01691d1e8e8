import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from pismg import (
    ActionSpec,
    EnumerationLimitError,
    GameSpec,
    PureStationaryStrategy,
    SojournModel,
    StateSpec,
    Transition,
    controlled_states,
    enumerate_pure,
    estimate_payoff,
    expected_sojourn,
    induce,
    ordinal_of,
    parse_game,
    payoff_vector,
    simulate,
    strategy_count,
    strategy_from_labels,
    strategy_from_ordinal,
    validate_stochastic,
)
from pismg.strategies import action_tables

import _corpus

ROOT = Path(__file__).resolve().parents[1]


def _mixed_radix_game():
    """State 1: player I, 2 actions; state 2: player I, 3 actions;
    state 3: player II, 1 action."""
    soj = SojournModel("mean", (1.0,))
    loop = lambda sid: (Transition(sid, 1.0),)  # noqa: E731
    return GameSpec(
        "radix",
        (
            StateSpec(
                1,
                "I",
                tuple(ActionSpec(f"a{k}", 0.0, loop(1), soj) for k in (1, 2)),
            ),
            StateSpec(
                2,
                "I",
                tuple(ActionSpec(f"a{k}", 0.0, loop(2), soj) for k in (1, 2, 3)),
            ),
            StateSpec(3, "II", (ActionSpec("b1", 0.0, loop(3), soj),)),
        ),
    )


class TestEnumeration:
    def test_example_counts(self, example_spec):
        assert strategy_count(example_spec, "I") == 4
        assert strategy_count(example_spec, "II") == 4

    def test_example_order_and_labels(self, example_spec):
        fs = enumerate_pure(example_spec, "I")
        assert [f.actions for f in fs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [f.label for f in fs] == ["f1", "f2", "f3", "f4"]
        gs = enumerate_pure(example_spec, "II")
        assert [g.actions for g in gs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [g.label for g in gs] == ["g1", "g2", "g3", "g4"]

    def test_mixed_radix_order(self):
        spec = _mixed_radix_game()
        fs = enumerate_pure(spec, "I")
        assert [f.actions for f in fs] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        # the highest-indexed controlled state is the fastest digit
        assert fs[4].actions == (1, 1)

    def test_ordinals_match_positions(self, example_spec):
        for player in ("I", "II"):
            for pos, strat in enumerate(enumerate_pure(example_spec, player)):
                assert strat.ordinal == pos

    def test_no_duplicates_on_corpus(self):
        for spec in _corpus.game_corpus(10, seed=99):
            for player in ("I", "II"):
                strategies = enumerate_pure(spec, player)
                assert len({s.actions for s in strategies}) == len(strategies)
                assert len(strategies) == strategy_count(spec, player)

    def test_cap_enforced_with_exact_count(self, example_spec):
        with pytest.raises(EnumerationLimitError) as exc_info:
            enumerate_pure(example_spec, "I", cap=3)
        assert exc_info.value.count == 4

    def test_player_without_states_has_one_empty_strategy(self):
        spec = parse_game(
            '{"name": "solo", "states": [{"id": 1, "player": "I", "actions": '
            '[{"label": "x", "reward": 1.0, '
            '"sojourn": {"kind": "mean", "value": 1.0}, '
            '"transitions": [{"to": 1, "prob": 1.0}]}]}]}'
        )
        gs = enumerate_pure(spec, "II")
        assert len(gs) == 1
        assert gs[0].states == ()
        assert gs[0].actions == ()
        assert controlled_states(spec, "II") == ()

    def test_action_at_matches_the_choice_tuple(self):
        # the bisection finds each controlled state's own action, and a
        # state the player does not control raises
        for spec in _corpus.game_corpus(200, seed=424242):
            for player in ("I", "II"):
                for strat in enumerate_pure(spec, player):
                    for st in spec.states:
                        if st.id in strat.states:
                            want = strat.actions[strat.states.index(st.id)]
                            assert strat.action_at(st.id) == want
                        else:
                            with pytest.raises(ValueError, match="does not control"):
                                strat.action_at(st.id)


@pytest.mark.parametrize("helper", [
    controlled_states, strategy_count, enumerate_pure,
    lambda spec, player: strategy_from_ordinal(spec, player, 0),
    lambda spec, player: ordinal_of(spec, player, ()),
], ids=["controlled_states", "strategy_count", "enumerate_pure", "strategy_from_ordinal",
        "ordinal_of"])
def test_unknown_player_is_refused(example_spec, helper):
    with pytest.raises(KeyError, match="'III'"):
        helper(example_spec, "III")


@pytest.mark.parametrize("states, actions, message", [
    ((1, 2), (2, 0), "state 1: action index 2 out of range 0..1"),
    ((1, 2), (-1, 0), "state 1: action index -1 out of range 0..1"),
    ((2, 1), (0, 0), "player I controls states [1, 2], got [2, 1]"),
], ids=["2", "-1", "states-out-of-order"])
def test_action_a_state_lacks_is_refused(example_spec, states, actions, message):
    # (1, 2) -> (2, 0) or (-1, 0) names no action of state 1 (two
    # actions), and (2, 1) lists player I's states out of order; a slot
    # of the flat tables would silently read another state's action
    f = PureStationaryStrategy("I", states, actions, 0)
    g = strategy_from_ordinal(example_spec, "II", 0)
    for run in (lambda: induce(example_spec, f, g),
                lambda: payoff_vector(example_spec, f, g),
                lambda: simulate(example_spec, f, g, 1, 10, 0),
                lambda: estimate_payoff(example_spec, f, g, 1, 10, 2, 0)):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == message


class TestOrdinalCodec:
    def test_decode_matches_enumeration(self):
        spec = _mixed_radix_game()
        fs = enumerate_pure(spec, "I")
        for f in fs:
            assert strategy_from_ordinal(spec, "I", f.ordinal) == f
            assert ordinal_of(spec, "I", f.actions) == f.ordinal

    def test_decode_out_of_range(self):
        spec = _mixed_radix_game()
        with pytest.raises(ValueError, match="out of range"):
            strategy_from_ordinal(spec, "I", 6)

    def test_from_labels(self, example_spec):
        f = strategy_from_labels(example_spec, "I", {1: "a2", 2: "a1"})
        assert f.ordinal == 2
        assert f.label == "f3"
        with pytest.raises(ValueError, match="no action labelled"):
            strategy_from_labels(example_spec, "I", {1: "zz", 2: "a1"})
        with pytest.raises(ValueError, match="controls states"):
            strategy_from_labels(example_spec, "I", {1: "a1"})


class TestInduce:
    def test_pair_f3_g1(self, example_spec):
        f = strategy_from_ordinal(example_spec, "I", 2)
        g = strategy_from_ordinal(example_spec, "II", 0)
        chain = induce(example_spec, f, g)
        expected_q = np.array(
            [
                [1 / 3, 2 / 3, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        assert np.allclose(chain.q, expected_q, atol=1e-15)
        assert np.array_equal(chain.r, [1.0, 3.1, 3.0, 4.0])
        assert np.array_equal(chain.tau, [0.9, 1.0, 1.0, 2.0])

    def test_rows_renormalized_to_machine_precision(self, example_spec):
        f = strategy_from_ordinal(example_spec, "I", 3)
        g = strategy_from_ordinal(example_spec, "II", 0)
        chain = induce(example_spec, f, g)
        assert np.max(np.abs(chain.q.sum(axis=1) - 1.0)) <= 1e-12

    def test_dummy_choice_is_ignored(self, example_spec):
        g = strategy_from_ordinal(example_spec, "II", 0)
        chains = [
            induce(example_spec, strategy_from_ordinal(example_spec, "I", k), g)
            for k in range(4)
        ]
        for chain in chains[1:]:
            # rows of player II's states do not depend on f
            assert np.array_equal(chain.q[2:], chains[0].q[2:])
            assert np.array_equal(chain.r[2:], chains[0].r[2:])
            assert np.array_equal(chain.tau[2:], chains[0].tau[2:])

    def test_induced_chain_is_valid_on_corpus(self):
        rng = np.random.default_rng(2024)
        for spec in _corpus.game_corpus(10, seed=77):
            fs = enumerate_pure(spec, "I")
            gs = enumerate_pure(spec, "II")
            f = fs[int(rng.integers(0, len(fs)))]
            g = gs[int(rng.integers(0, len(gs)))]
            chain = induce(spec, f, g)
            validate_stochastic(chain.q)
            assert chain.tau.min() > 0.0


def _walked_tables(spec):
    """The action tables built by walking the spec's dataclasses, action
    by action and transition by transition, each action's expected
    sojourn computed from its transitions: the oracle for the scatter of
    the flat tables that validation keeps."""
    n = spec.n
    width = max(len(st.actions) for st in spec.states)
    r, tau = np.zeros((n, width)), np.zeros((n, width))
    real = np.zeros(n * width, dtype=bool)
    slots, heads, probs = [], [], []
    for st in spec.states:
        for a, act in enumerate(st.actions):
            slot = (st.id - 1) * width + a
            real[slot] = True
            r[st.id - 1, a] = act.reward
            tau[st.id - 1, a] = expected_sojourn(act)
            for tr in act.transitions:
                slots.append(slot)
                heads.append(tr.to - 1)
                probs.append(tr.prob)
    rows = np.zeros((n * width, n))
    rows[slots, heads] = probs
    total = rows.sum(axis=1)
    scale = real & (total != 1.0)
    rows[scale] /= total[scale, None]
    return rows.reshape(n, width, n), r, tau


def _benchmark_games():
    """The benchmark's games of every workload at two seeds."""
    loader = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    for workload, count in (("corpus", 200), ("long", 3), ("wide", 2), ("simulate", 1)):
        for seed in (101, 424242):
            stream = gen.games(workload, seed)
            for _ in range(count):
                yield parse_game(json.dumps(next(stream)))


def _data_games():
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        if "states" in json.loads(path.read_text()):
            yield parse_game(path.read_text())


class TestActionTables:
    """The scatter of the flat tables equals the walk of the dataclasses
    bit for bit, on every kind of game the tests and the benchmark run."""

    @pytest.mark.parametrize("games", [
        lambda: [parse_game((ROOT / "example_s5.json").read_text()), *_data_games()],
        lambda: _corpus.game_corpus(200, seed=424242),
        _benchmark_games,
    ], ids=["data", "corpus-200", "benchmark"])
    def test_scatter_equals_walk(self, games):
        count = 0
        for spec in games():
            for got, want in zip(action_tables(spec), _walked_tables(spec)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), spec.name
            count += 1
        assert count >= 10
