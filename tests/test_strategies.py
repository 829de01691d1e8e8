import numpy as np
import pytest

from pismg import (
    ActionSpec,
    EnumerationLimitError,
    GameSpec,
    SojournModel,
    StateSpec,
    Transition,
    controlled_states,
    enumerate_pure,
    induce,
    ordinal_of,
    parse_game,
    strategy_count,
    strategy_from_labels,
    strategy_from_ordinal,
    validate_stochastic,
)

import _corpus


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
