import dataclasses
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pismg import (
    ActionSpec,
    GameFormatError,
    GameSpec,
    GameValidationError,
    PureStationaryStrategy,
    SojournModel,
    StateSpec,
    Transition,
    enumerate_pure,
    estimate_payoff,
    expected_sojourn,
    induce,
    parse_game,
    payoff_vector,
    serialize_game,
    simulate,
    solve,
    validate,
)

import _corpus

GAME_MODULE = importlib.import_module("pismg.game")


MINIMAL = """
{"name": "loop", "states": [
  {"id": 1, "player": "I", "actions": [
    {"label": "stay", "reward": 2.0,
     "sojourn": {"kind": "deterministic", "t": 0.5},
     "transitions": [{"to": 1, "prob": 1.0}]}]}]}
"""


def _patch_example(example_path, mutate):
    obj = json.loads(example_path.read_text())
    mutate(obj)
    return json.dumps(obj)


class TestParsing:
    def test_example_shape(self, example_spec):
        assert example_spec.name == "example_s5"
        assert example_spec.n == 4
        assert [st_.controller for st_ in example_spec.states] == ["I", "I", "II", "II"]
        assert [len(st_.actions) for st_ in example_spec.states] == [2, 2, 2, 2]
        assert example_spec.reference_values == (2.2985, 2.2985, 2.9, 0.9)

    def test_minimal_game(self):
        spec = parse_game(MINIMAL)
        assert spec.n == 1
        assert spec.state(1).actions[0].default_sojourn == SojournModel(
            "deterministic", (0.5,)
        )

    def test_syntax_error_reports_position(self):
        with pytest.raises(GameFormatError, match=r"line 2 column"):
            parse_game('{"name": "x",\n "states": [}')

    def test_missing_field(self, example_path):
        text = _patch_example(example_path, lambda o: o["states"][0].pop("actions"))
        with pytest.raises(GameFormatError, match="missing field 'actions'"):
            parse_game(text)

    def test_rejects_unknown_player_tag(self, example_path):
        def mutate(o):
            o["states"][2]["player"] = "both"

        with pytest.raises(GameFormatError, match="player must be 'I' or 'II'"):
            parse_game(_patch_example(example_path, mutate))

    def test_rejects_unknown_sojourn_kind(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["sojourn"] = {"kind": "pareto", "alpha": 2}

        with pytest.raises(GameFormatError, match="unknown sojourn kind"):
            parse_game(_patch_example(example_path, mutate))

    def test_reward_must_be_numeric(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["reward"] = "high"

        with pytest.raises(GameFormatError, match="expected a number"):
            parse_game(_patch_example(example_path, mutate))


class TestStateLookup:
    @pytest.mark.parametrize("sid", [0, -1, 5])
    def test_state_outside_one_to_n_is_rejected(self, example_spec, sid):
        # an index of sid - 1 would wrap 0 and -1 round to states 4 and 3
        with pytest.raises(ValueError) as exc:
            example_spec.state(sid)
        assert str(exc.value) == f"state {sid} out of range 1..4"


class TestValidation:
    def test_row_sum_violation_names_state(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["transitions"][0]["prob"] = 0.4

        with pytest.raises(GameValidationError, match="state 1 action 1"):
            parse_game(_patch_example(example_path, mutate))

    def test_row_sum_within_tolerance_accepted(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["transitions"][0]["prob"] = 0.5 + 4e-10

        spec = parse_game(_patch_example(example_path, mutate))
        # stored verbatim, not renormalized in place
        assert spec.state(1).actions[0].transitions[0].prob == 0.5 + 4e-10

    def test_unknown_destination(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["transitions"][0]["to"] = 9

        with pytest.raises(GameValidationError, match="unknown state 9"):
            parse_game(_patch_example(example_path, mutate))

    def test_duplicate_destination(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["transitions"][1]["to"] = 1

        with pytest.raises(GameValidationError, match="duplicate transition"):
            parse_game(_patch_example(example_path, mutate))

    def test_ids_must_be_consecutive(self, example_path):
        def mutate(o):
            o["states"][1]["id"] = 5

        with pytest.raises(GameValidationError, match="position 2 holds id 5"):
            parse_game(_patch_example(example_path, mutate))

    def test_nonpositive_sojourn_rejected(self, example_path):
        def mutate(o):
            o["states"][0]["actions"][0]["sojourn"] = {"kind": "mean", "value": 0.0}

        with pytest.raises(GameValidationError, match="nonpositive sojourn"):
            parse_game(_patch_example(example_path, mutate))

    def test_missing_sojourn_coverage(self, example_path):
        def mutate(o):
            del o["states"][0]["actions"][0]["sojourn"]

        with pytest.raises(GameValidationError, match="no sojourn model"):
            parse_game(_patch_example(example_path, mutate))

    def test_reference_values_length_checked(self, example_path):
        def mutate(o):
            o["reference_values"] = [1.0, 2.0]

        with pytest.raises(GameValidationError, match="reference_values"):
            parse_game(_patch_example(example_path, mutate))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_reference_values_must_be_finite(self, example_path, bad):
        def mutate(o):
            o["reference_values"][2] = bad

        with pytest.raises(GameValidationError, match=r"reference_values\[2\]"):
            parse_game(_patch_example(example_path, mutate))

    @pytest.mark.parametrize("model, message", [
        (SojournModel("gamma", (1.0, 2.0)), "unknown sojourn kind 'gamma'"),
        (SojournModel("uniform", (1.0,)), "uniform sojourn takes 2 parameter(s), got 1"),
        (SojournModel("mean", ()), "mean sojourn takes 1 parameter(s), got 0"),
        (SojournModel("mean", ("1.5",)), "sojourn parameter '1.5' is not a number"),
        (SojournModel("uniform", (0.5, None)), "sojourn parameter None is not a number"),
    ], ids=["unknown-kind", "uniform-one-parameter", "mean-no-parameter", "mean-string",
            "uniform-none"])
    @pytest.mark.parametrize("override", [False, True], ids=["default", "override"])
    def test_malformed_sojourn_built_in_code(self, model, message, override):
        # the parser rejects such models with its own texts; a spec built
        # through the library reaches validate with them
        soj = SojournModel("mean", (1.0,))
        action = ActionSpec("b", 1.0, (Transition(1, 0.5),
                                       Transition(2, 0.5, model if override else None)),
                            soj if override else model)
        spec = GameSpec("bad", (
            StateSpec(1, "I", (ActionSpec("a", 1.0, (Transition(2, 1.0),), soj),)),
            StateSpec(2, "II", (ActionSpec("a", 1.0, (Transition(1, 1.0),), soj), action)),
        ))
        with pytest.raises(GameValidationError) as exc:
            validate(spec)
        where = "state 2 action 2 transition 2" if override else "state 2 action 2"
        assert str(exc.value) == f"{where}: {message}"

    @pytest.mark.parametrize("first, reward, message", [
        (Transition("1", 0.5), 1.0, " transition 1: destination '1' is not a state id"),
        (Transition(True, 0.5), 1.0, " transition 1: destination True is not a state id"),
        (Transition(1.0, 0.5), 1.0, " transition 1: destination 1.0 is not a state id"),
        (Transition(1, "0.5"), 1.0, " transition 1: probability '0.5' is not a number"),
        (Transition(1, 0.5), "1", ": reward '1' is not a number"),
    ], ids=["string-destination", "bool-destination", "float-destination",
            "string-probability", "string-reward"])
    def test_non_numeric_field_built_in_code(self, first, reward, message):
        # the parser rejects these with its own texts; validate names the
        # state, action and transition instead of leaking a TypeError
        soj = SojournModel("mean", (1.0,))
        spec = GameSpec("bad", (
            StateSpec(1, "I", (ActionSpec("a", 1.0, (Transition(2, 1.0),), soj),)),
            StateSpec(2, "II", (ActionSpec("a", 1.0, (Transition(1, 1.0),), soj),
                                ActionSpec("b", reward, (first, Transition(2, 0.5)), soj))),
        ))
        with pytest.raises(GameValidationError) as exc:
            validate(spec)
        assert str(exc.value) == f"state 2 action 2{message}"

    def test_report_partition(self, example_spec):
        report = validate(example_spec)
        assert report.s1 == (1, 2)
        assert report.s2 == (3, 4)
        assert report.player1_action_counts == (2, 2)
        assert report.player2_action_counts == (2, 2)
        assert report.d1 == 4
        assert report.d2 == 4
        assert report.warnings == ()

    def test_one_sided_game_has_trivial_opponent_count(self):
        spec = parse_game(MINIMAL)
        report = validate(spec)
        assert report.s2 == ()
        assert report.d2 == 1

    def test_duplicate_labels_warn(self):
        trans = (Transition(1, 1.0),)
        soj = SojournModel("mean", (1.0,))
        spec = GameSpec(
            "dup",
            (
                StateSpec(
                    1,
                    "I",
                    (
                        ActionSpec("a", 1.0, trans, soj),
                        ActionSpec("a", 2.0, trans, soj),
                    ),
                ),
            ),
        )
        report = validate(spec)
        assert any("duplicate action labels" in w for w in report.warnings)


class _Unreadable:
    """Stands in for an action's transitions: any use of it fails."""

    def _fail(self, *args):
        raise AssertionError("an action's transitions were read after validation")

    __iter__ = __len__ = __getitem__ = __bool__ = __contains__ = _fail


class TestValidationOnce:
    """A spec that passed :func:`validate` keeps its report and its flat
    tables: a second call neither walks the transitions nor builds a new
    report, and the solver and the simulator read the tables alone. The
    memo lives on the spec, so a spec built by ``dataclasses.replace`` is
    validated afresh, and a failing spec keeps nothing and raises on
    every call."""

    @staticmethod
    def _count_walks(monkeypatch):
        calls = []
        original = GAME_MODULE.expected_sojourn

        def counted(action):
            calls.append(action)
            return original(action)

        monkeypatch.setattr(GAME_MODULE, "expected_sojourn", counted)
        return calls

    def test_second_call_returns_the_same_report(self, example_path, monkeypatch):
        calls = self._count_walks(monkeypatch)
        spec = parse_game(example_path.read_text())
        assert len(calls) == sum(len(st.actions) for st in spec.states)
        calls.clear()
        first = validate(spec)
        assert validate(spec) is first
        assert calls == []

    def test_replaced_spec_is_validated_afresh(self, example_path, monkeypatch):
        spec = parse_game(example_path.read_text())
        calls = self._count_walks(monkeypatch)
        renamed = dataclasses.replace(spec, name="renamed")
        assert renamed._report is None and renamed._tables is None
        report = validate(renamed)
        assert len(calls) == sum(len(st.actions) for st in spec.states)
        assert report == validate(spec) and report is not validate(spec)
        assert renamed._tables is not spec._tables
        for fresh, kept in zip(renamed._tables, spec._tables):
            assert np.array_equal(fresh, kept)
        broken = dataclasses.replace(spec, reference_values=(1.0,))
        with pytest.raises(GameValidationError, match="reference_values has 1 entries"):
            validate(broken)

    def test_invalid_spec_raises_on_every_call(self, example_path):
        spec = parse_game(example_path.read_text())
        first = spec.state(1).actions[0]
        bad = dataclasses.replace(
            first, transitions=(dataclasses.replace(first.transitions[0], prob=0.25),
                                *first.transitions[1:]))
        states = list(spec.states)
        states[0] = dataclasses.replace(states[0], actions=(bad, *states[0].actions[1:]))
        broken = dataclasses.replace(spec, states=tuple(states))
        messages = []
        for _ in range(3):
            with pytest.raises(GameValidationError) as exc:
                validate(broken)
            messages.append(str(exc.value))
        assert messages[0].startswith("state 1 action 1: transition probabilities sum to")
        assert messages == messages[:1] * 3
        assert broken._report is None and broken._tables is None

    def test_solver_and_simulator_read_no_transitions(self, example_path):
        # with every action's transitions unreadable after parsing, a
        # solve and a simulation still run, on the tables validate kept,
        # and give the values of an untouched spec bit for bit
        def run(spec):
            f, g = enumerate_pure(spec, "I")[2], enumerate_pure(spec, "II")[1]
            return solve(spec), estimate_payoff(spec, f, g, 1, 200, 3, 5)

        want_report, want_estimate = run(parse_game(example_path.read_text()))
        spec = parse_game(example_path.read_text())
        for st in spec.states:
            for act in st.actions:
                object.__setattr__(act, "transitions", _Unreadable())
        report, estimate = run(spec)
        assert np.array_equal(report.payoffs, want_report.payoffs)
        assert report.value == want_report.value
        assert report.diagnostics == want_report.diagnostics
        assert estimate == want_estimate


def _unvalidated(transitions) -> GameSpec:
    """A two-state spec built in code and never validated: state 1
    (player I) plays ``transitions``, state 2 (player II) stays put."""
    mean = SojournModel("mean", (1.0,))
    return GameSpec("unvalidated", (
        StateSpec(1, "I", (ActionSpec("a", 1.0, tuple(transitions), mean),)),
        StateSpec(2, "II", (ActionSpec("b", 2.0, (Transition(2, 1.0),), mean),)),
    ))


class TestUnvalidatedSpec:
    """Every consumer of a spec validates it first, so a spec built in
    code that breaks the model is refused with validate's own message,
    not evaluated or failed on deep inside."""

    @staticmethod
    def _consumers():
        f = PureStationaryStrategy("I", (1,), (0,), 0)
        g = PureStationaryStrategy("II", (2,), (0,), 0)
        return {
            "payoff_vector": lambda spec: payoff_vector(spec, f, g),
            "induce": lambda spec: induce(spec, f, g),
            "simulate": lambda spec: simulate(spec, f, g, 1, 10, 0),
            "estimate_payoff": lambda spec: estimate_payoff(spec, f, g, 1, 10, 2, 0),
            "enumerate_pure": lambda spec: enumerate_pure(spec, "I"),
        }

    def _assert_refused(self, transitions, message):
        for name, consume in self._consumers().items():
            with pytest.raises(GameValidationError) as exc:
                consume(_unvalidated(transitions))
            assert str(exc.value) == message, name

    def test_negative_probability(self):
        self._assert_refused((Transition(1, -0.5), Transition(2, 1.5)),
                             "state 1 action 1: probability -0.5 outside [0, 1]")

    def test_row_summing_to_half(self):
        self._assert_refused((Transition(1, 0.25), Transition(2, 0.25)),
                             "state 1 action 1: transition probabilities sum to 0.5, not 1")

    def test_transition_to_unknown_state(self):
        self._assert_refused((Transition(9, 1.0),),
                             "state 1 action 1: transition to unknown state 9")


class TestExpectedSojourn:
    def test_default_only_is_exact(self, example_spec):
        act = example_spec.state(1).actions[1]
        assert expected_sojourn(act) == 0.9

    def test_weighted_mix(self):
        act = ActionSpec(
            "a",
            0.0,
            (
                Transition(1, 0.5, SojournModel("exponential", (2.0,))),
                Transition(2, 0.5, SojournModel("uniform", (0.0, 3.0))),
            ),
        )
        # 0.5 * (1/2) + 0.5 * 1.5
        assert expected_sojourn(act) == pytest.approx(1.0, abs=1e-15)

    def test_transition_model_overrides_default(self):
        act = ActionSpec(
            "a",
            0.0,
            (
                Transition(1, 0.25, SojournModel("deterministic", (4.0,))),
                Transition(2, 0.75),
            ),
            default_sojourn=SojournModel("mean", (2.0,)),
        )
        assert expected_sojourn(act) == pytest.approx(0.25 * 4.0 + 0.75 * 2.0, abs=1e-15)

    def test_model_means(self):
        assert SojournModel("mean", (1.3,)).mean == 1.3
        assert SojournModel("deterministic", (0.7,)).mean == 0.7
        assert SojournModel("exponential", (4.0,)).mean == 0.25
        assert SojournModel("uniform", (1.0, 2.0)).mean == 1.5


class TestRoundTrip:
    def test_example_round_trips_exactly(self, example_path, example_spec):
        assert parse_game(serialize_game(example_spec)) == example_spec

    def test_serialize_is_idempotent(self, example_spec):
        once = serialize_game(example_spec)
        assert serialize_game(parse_game(once)) == once

    def test_corpus_round_trips(self):
        for spec in _corpus.game_corpus(10, seed=424242):
            assert parse_game(serialize_game(spec)) == spec


# hypothesis-driven all-float round trip

_finite = dict(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _sojourns(draw):
    kind = draw(st.sampled_from(("mean", "deterministic", "exponential", "uniform")))
    if kind == "uniform":
        a = draw(st.floats(0.0, 2.0, **_finite))
        return SojournModel("uniform", (a, a + draw(st.floats(0.25, 3.0, **_finite))))
    return SojournModel(kind, (draw(st.floats(0.05, 5.0, **_finite)),))


@st.composite
def _games(draw):
    n = draw(st.integers(1, 4))
    states = []
    for sid in range(1, n + 1):
        actions = []
        for a in range(draw(st.integers(1, 2))):
            dests = draw(
                st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
            )
            weights = draw(
                st.lists(
                    st.integers(1, 9), min_size=len(dests), max_size=len(dests)
                )
            )
            total = sum(weights)
            actions.append(
                ActionSpec(
                    label=f"a{a + 1}",
                    reward=draw(st.floats(-5.0, 5.0, **_finite)),
                    transitions=tuple(
                        Transition(d, w / total) for d, w in zip(dests, weights)
                    ),
                    default_sojourn=draw(_sojourns()),
                )
            )
        states.append(
            StateSpec(sid, draw(st.sampled_from(("I", "II"))), tuple(actions))
        )
    return GameSpec("hyp", tuple(states))


@settings(max_examples=60, deadline=None)
@given(_games())
def test_round_trip_property(spec):
    validate(spec)
    assert parse_game(serialize_game(spec)) == spec


@settings(max_examples=60, deadline=None)
@given(_games())
def test_expected_sojourn_is_convex_combination(spec):
    for state in spec.states:
        for act in state.actions:
            means = [
                (tr.sojourn or act.default_sojourn).mean for tr in act.transitions
            ]
            tau = expected_sojourn(act)
            assert min(means) - 1e-12 <= tau <= max(means) + 1e-12
