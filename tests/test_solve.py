import importlib
import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pismg import (
    SaddlePointError,
    build_payoff_matrix,
    check_all_2x2,
    enumerate_pure,
    find_pure_saddle,
    parse_game,
    payoff_vector,
    saddle_tolerance,
    solve,
    strategy_from_ordinal,
)
from pismg.cli import main

import _corpus
from _adjacent import adjacent_pairs, adjacent_quadruple_gaps

# the package re-exports solve(), which hides the submodule attribute
SOLVE_MODULE = importlib.import_module("pismg.solve")


@pytest.fixture(scope="module")
def example_payoffs(example_spec):
    return solve(example_spec).payoffs


# Closed forms for the bundled example, from the stationary distributions
# of the two-state recurrent class: pi(f2) = (4/7, 3/7), pi(f3) = (3/7, 4/7).
PHI_F3 = float(Fraction(154, 67))   # (3*1.0 + 4*3.1) / (3*0.9 + 4*1.0)
PHI_F2 = float(Fraction(134, 73))   # (4*1.1 + 3*3.0) / (4*1.0 + 3*1.1)
VALUE_4 = float(Fraction(364, 137))  # state 4 splits 1/2 to class {1,2}, 1/2 to {3}

# payoff matrix for initial state 4, rows f1..f4, columns g1..g4
A4 = np.array(
    [
        [2.55, 2.55, float(Fraction(79, 30)), float(Fraction(79, 30))],
        [float(Fraction(344, 143)), float(Fraction(344, 143)),
         float(Fraction(540, 213)), float(Fraction(540, 213))],
        [VALUE_4, VALUE_4,
         float(Fraction(560, 207)), float(Fraction(560, 207))],
        [2.5, 2.5, 2.6, 2.6],
    ]
)

MATCHING_PENNIES = np.array([[1.0, 0.0], [0.0, 1.0]])

# rows (1,3) x cols (1,4) is the first strictly saddle-free quadruple;
# all-9 rows and column 0 can never participate
LATE_VIOLATION = np.array(
    [
        [9.0, 9.0, 9.0, 9.0, 9.0],
        [9.0, 5.0, 0.0, 9.0, 0.0],
        [9.0, 9.0, 9.0, 9.0, 9.0],
        [9.0, 0.0, 0.0, 9.0, 4.0],
        [9.0, 9.0, 9.0, 9.0, 9.0],
    ]
)


def _first_saddle_free_2x2(a, eps):
    """Reference for check_all_2x2: the first 1-based (i, i', j, j') in
    lexicographic order with min(a, d) > max(b, c) + eps or
    max(a, d) < min(b, c) - eps, or None."""
    d1, d2 = a.shape
    for i in range(d1):
        for i2 in range(i + 1, d1):
            for j in range(d2):
                for j2 in range(j + 1, d2):
                    diag = (a[i, j], a[i2, j2])
                    anti = (a[i, j2], a[i2, j])
                    if min(diag) > max(anti) + eps or max(diag) < min(anti) - eps:
                        return (i + 1, i2 + 1, j + 1, j2 + 1)
    return None


@pytest.fixture(scope="module")
def pairs(example_spec):
    fs = enumerate_pure(example_spec, "I")
    gs = enumerate_pure(example_spec, "II")
    return fs, gs


class TestPayoffVector:
    def test_pair_f1_g1(self, example_spec, pairs):
        fs, gs = pairs
        phi = payoff_vector(example_spec, fs[0], gs[0])
        assert phi == pytest.approx([2.1, 2.1, 3.0, 2.55], abs=1e-12)

    def test_pair_f3_all_columns(self, example_spec, pairs):
        fs, gs = pairs
        for g in gs:
            phi = payoff_vector(example_spec, fs[2], g)
            assert phi[0] == pytest.approx(PHI_F3, abs=1e-12)
            assert phi[1] == pytest.approx(PHI_F3, abs=1e-12)

    def test_pair_f2_all_columns(self, example_spec, pairs):
        fs, gs = pairs
        for g in gs:
            phi = payoff_vector(example_spec, fs[1], g)
            assert phi[0] == pytest.approx(PHI_F2, abs=1e-12)

    def test_state3_depends_only_on_its_action(self, example_spec, pairs):
        fs, gs = pairs
        for f in fs:
            assert payoff_vector(example_spec, f, gs[0])[2] == pytest.approx(3.0, abs=1e-12)
            assert payoff_vector(example_spec, f, gs[2])[2] == pytest.approx(2.9, abs=1e-12)

    def test_methods_agree(self, example_spec, pairs):
        fs, gs = pairs
        base = payoff_vector(example_spec, fs[2], gs[0], "structural")
        assert payoff_vector(example_spec, fs[2], gs[0], "lazari") == pytest.approx(
            base, abs=1e-9
        )
        assert payoff_vector(
            example_spec, fs[2], gs[0], "averaging", averaging_n_max=2**35
        ) == pytest.approx(base, abs=1e-6)

    def test_constant_game(self):
        spec = parse_game(
            '{"name": "const", "states": [{"id": 1, "player": "I", "actions": '
            '[{"label": "x", "reward": 3.0, '
            '"sojourn": {"kind": "deterministic", "t": 1.5}, '
            '"transitions": [{"to": 1, "prob": 1.0}]}]}]}'
        )
        f = strategy_from_ordinal(spec, "I", 0)
        g = strategy_from_ordinal(spec, "II", 0)
        assert payoff_vector(spec, f, g) == pytest.approx([2.0], abs=1e-15)


class TestPayoffMatrix:
    def test_state1(self, example_payoffs):
        expected = np.array([[2.1] * 4, [PHI_F2] * 4, [PHI_F3] * 4, [2.0] * 4])
        assert np.allclose(example_payoffs[:, :, 0], expected, atol=1e-12)

    def test_state3(self, example_payoffs):
        expected = np.tile([3.0, 3.0, 2.9, 2.9], (4, 1))
        assert np.allclose(example_payoffs[:, :, 2], expected, atol=1e-12)

    def test_state4(self, example_payoffs):
        assert np.allclose(example_payoffs[:, :, 3], A4, atol=1e-12)

    def test_rejects_bad_state(self, example_spec):
        with pytest.raises(ValueError, match="out of range"):
            build_payoff_matrix(example_spec, 5)


class TestFindPureSaddle:
    def test_simple_saddle(self):
        result = find_pure_saddle(np.array([[1.0, 0.0], [3.0, 2.0]]))
        assert result.exists
        assert (result.row, result.col) == (1, 1)
        assert result.value == 2.0
        assert result.all_saddles == ((1, 1),)

    def test_matching_pennies_has_none(self):
        result = find_pure_saddle(MATCHING_PENNIES)
        assert not result.exists
        assert result.all_saddles == ()
        assert result.value is None

    def test_ties_report_all_cells_lex_first(self, example_payoffs):
        result = find_pure_saddle(example_payoffs[:, :, 0])
        assert result.exists
        assert (result.row, result.col) == (2, 0)
        assert result.all_saddles == ((2, 0), (2, 1), (2, 2), (2, 3))
        assert result.value == pytest.approx(PHI_F3, abs=1e-12)

    def test_state4_saddles(self, example_payoffs):
        result = find_pure_saddle(example_payoffs[:, :, 3])
        assert result.all_saddles == ((2, 0), (2, 1))
        assert result.value == pytest.approx(VALUE_4, abs=1e-12)

    def test_interchangeability_on_saddle_cells(self, example_payoffs):
        for s in range(1, 5):
            entries = example_payoffs[:, :, s - 1]
            result = find_pure_saddle(entries)
            values = [entries[i, j] for i, j in result.all_saddles]
            assert max(values) - min(values) <= saddle_tolerance(entries)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            find_pure_saddle(np.array([[1.0, np.nan], [0.0, 2.0]]))

    def test_single_cell(self):
        result = find_pure_saddle(np.array([[7.0]]))
        assert result.exists
        assert (result.row, result.col) == (0, 0)


class TestCertificate2x2:
    def test_matching_pennies_violation(self):
        cert = check_all_2x2(MATCHING_PENNIES)
        assert not cert.passed
        assert cert.violation == (1, 2, 1, 2)

    def test_anti_diagonal_violation(self):
        cert = check_all_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not cert.passed
        assert cert.violation == (1, 2, 1, 2)

    def test_vacuous_for_single_row(self):
        assert check_all_2x2(np.array([[1.0, 2.0, 3.0]])).passed

    def test_example_matrices_pass(self, example_payoffs):
        for s in range(1, 5):
            cert = check_all_2x2(example_payoffs[:, :, s - 1])
            assert cert.passed
            assert cert.violation is None

    def test_violation_is_lexicographically_first(self):
        cert = check_all_2x2(LATE_VIOLATION)
        assert not cert.passed
        assert cert.violation == (2, 4, 2, 5)

    def test_matches_four_loop_reference(self):
        rng = np.random.default_rng(2024)
        matrices = [LATE_VIOLATION] + [
            rng.integers(0, 3, size=rng.integers(1, 8, size=2)).astype(float)
            for _ in range(600)
        ]
        late = 0
        for a in matrices:
            for eps in (0.0, 0.5, None):
                cert = check_all_2x2(a, eps)
                expected = _first_saddle_free_2x2(
                    a, saddle_tolerance(a) if eps is None else eps
                )
                assert (cert.passed, cert.violation) == (expected is None, expected)
                if expected is not None and expected[0] >= 2 and expected[1] > expected[0] + 1:
                    late += 1
        # first violations away from the first row pair check the
        # row-offset arithmetic
        assert late >= 10

    def test_full_sweep_memory(self):
        # an additive matrix has a saddle in every 2x2 block, so the
        # sweep runs to the end
        rng = np.random.default_rng(5)
        a = rng.random(100)[:, None] + rng.random(100)[None, :]
        tracemalloc.start()
        try:
            cert = check_all_2x2(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.passed
        assert peak < 64 * 2**20

    def test_certificate_matches_saddle_search_on_random_2x2(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            a = rng.integers(0, 4, size=(2, 2)).astype(float)
            has_saddle = find_pure_saddle(a).exists
            assert check_all_2x2(a).passed == has_saddle

    def test_pass_implies_saddle_on_random_matrices(self):
        # one direction of the equivalence on bigger matrices
        rng = np.random.default_rng(654)
        for _ in range(200):
            a = rng.integers(0, 5, size=(4, 5)).astype(float)
            if check_all_2x2(a).passed:
                assert find_pure_saddle(a).exists


def _action(label, reward, to):
    return {
        "label": label,
        "reward": reward,
        "sojourn": {"kind": "mean", "value": 1.0},
        "transitions": [{"to": to, "prob": 1.0}],
    }


# State 1 (I) moves to state 2 or 3 for reward 0; states 2 and 3 (II)
# each self-loop for reward 1 ("hi") or 0 ("lo"). II's strategies in
# odometer order over (state 2, state 3): g1 hi,hi  g2 hi,lo  g3 lo,hi
# g4 lo,lo.
TWO_SINKS = json.dumps({
    "name": "two-sinks",
    "states": [
        {"id": 1, "player": "I",
         "actions": [_action("to2", 0.0, 2), _action("to3", 0.0, 3)]},
        {"id": 2, "player": "II",
         "actions": [_action("hi", 1.0, 2), _action("lo", 0.0, 2)]},
        {"id": 3, "player": "II",
         "actions": [_action("hi", 1.0, 3), _action("lo", 0.0, 3)]},
    ],
})


class TestAdjacentPairProperty:
    """A perfect-information game whose state-1 matrix holds a strictly
    saddle-free 2x2 block, refuting the all-pairs 2x2 property, while
    every block spanned by one-state deviations has a pure saddle."""

    def test_all_pairs_sweep_fails_on_a_saddled_matrix(self):
        spec = parse_game(TWO_SINKS)
        report = solve(spec)
        entries = report.payoffs[:, :, 0]
        assert np.array_equal(entries, [[1, 1, 0, 0], [1, 0, 1, 0]])
        # rows (f1, f2) x columns (g2, g3) is [[1, 0], [0, 1]]
        assert report.diagnostics["certificate_2x2"][0] is False
        assert report.diagnostics["certificate_violations"][0] == (1, 2, 2, 3)
        assert report.per_state[0].all_saddles == ((0, 3), (1, 3))
        assert report.value[0] == 0

    def test_every_adjacent_quadruple_has_a_saddle(self):
        spec = parse_game(TWO_SINKS)
        fs = enumerate_pure(spec, "I")
        gs = enumerate_pure(spec, "II")
        # the violating columns change II's action in both of its states
        assert gs[1].actions == (0, 1)
        assert gs[2].actions == (1, 0)
        ci, ci2 = adjacent_pairs(gs)
        assert list(zip(ci.tolist(), ci2.tolist())) == [(0, 1), (0, 2), (1, 3), (2, 3)]
        entries = solve(spec).payoffs[:, :, 0]
        gaps, *_ = adjacent_quadruple_gaps(entries, fs, gs)
        assert gaps.shape == (1, 4)
        assert np.all(gaps == 0)


class TestSolve:
    def test_example_report(self, example_spec):
        report = solve(example_spec)
        assert report.value[0] == pytest.approx(PHI_F3, abs=1e-12)
        assert report.value[1] == pytest.approx(PHI_F3, abs=1e-12)
        assert report.value[2] == pytest.approx(2.9, abs=1e-12)
        assert report.value[3] == pytest.approx(VALUE_4, abs=1e-12)
        assert [report.maximiser.for_state(s).ordinal for s in range(1, 5)] == [2, 2, 0, 2]
        assert [report.minimiser.for_state(s).ordinal for s in range(1, 5)] == [0, 0, 2, 0]
        assert report.diagnostics["saddle_multiplicity"] == (4, 4, 8, 2)
        assert report.diagnostics["certificate_2x2"] == (True, True, True, True)

    def test_example_reference_deltas(self, example_spec):
        report = solve(example_spec)
        deltas = report.diagnostics["reference_deltas"]
        assert len(deltas) == 1
        assert deltas[0]["state"] == 4
        assert deltas[0]["reference"] == 0.9
        assert deltas[0]["computed"] == pytest.approx(VALUE_4, abs=1e-12)

    @pytest.mark.parametrize("eps", [-1.0, float("nan"), float("inf")])
    def test_bad_saddle_eps_rejected(self, example_spec, eps):
        with pytest.raises(ValueError, match=f"got {eps!r}$"):
            solve(example_spec, saddle_eps=eps)

    def test_zero_saddle_eps_allowed(self, example_spec):
        assert solve(example_spec, saddle_eps=0.0).value == solve(example_spec).value

    def test_no_reference_values_no_deltas(self):
        for spec in _corpus.game_corpus(3, seed=5):
            assert solve(spec).diagnostics["reference_deltas"] == ()

    def test_each_pure_pair_is_evaluated_once_per_solve(self, example_spec, monkeypatch):
        # every per-state matrix is a slice of one payoff tensor, and
        # nothing carries over from an earlier solve
        counts = Counter()
        for name in ("payoff_vector", "cesaro"):
            original = getattr(SOLVE_MODULE, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(SOLVE_MODULE, name, counted)
        for _ in range(2):
            counts.clear()
            report = solve(example_spec)
            pairs = report.diagnostics["d1"] * report.diagnostics["d2"]
            assert counts == {"payoff_vector": pairs, "cesaro": pairs}

    def test_matrices_match_build_payoff_matrix(self, example_spec, example_payoffs):
        assert example_payoffs.shape == (4, 4, example_spec.n)
        for s in range(1, example_spec.n + 1):
            alone = build_payoff_matrix(example_spec, s)
            assert np.array_equal(example_payoffs[:, :, s - 1], alone)

    def test_unknown_cesaro_option_rejected(self, example_spec):
        with pytest.raises(TypeError):
            solve(example_spec, deflation_tolerance=1e-7)

    def test_lazari_method_agrees(self, example_spec):
        a = solve(example_spec, "structural").value
        b = solve(example_spec, "lazari").value
        assert b == pytest.approx(a, abs=1e-9)

    def test_one_sided_game_maximises(self):
        # player II controls nothing: the solve is a pure argmax over rows
        spec = parse_game(
            '{"name": "mdp", "states": ['
            '{"id": 1, "player": "I", "actions": ['
            '{"label": "slow", "reward": 1.0,'
            ' "sojourn": {"kind": "mean", "value": 1.0},'
            ' "transitions": [{"to": 1, "prob": 1.0}]},'
            '{"label": "fast", "reward": 3.0,'
            ' "sojourn": {"kind": "mean", "value": 2.0},'
            ' "transitions": [{"to": 1, "prob": 1.0}]}]}]}'
        )
        report = solve(spec)
        assert report.value[0] == pytest.approx(1.5, abs=1e-15)
        assert report.maximiser.for_state(1).actions == (1,)
        assert report.diagnostics["d2"] == 1

    def test_saddle_error_type_carries_matrix(
        self, monkeypatch, capsys, example_spec, example_path, example_payoffs
    ):
        # perfect-information instances never reach solve's hard error, so
        # the saddle search reports matching pennies' (none) for state 2
        original = SOLVE_MODULE.find_pure_saddle
        calls = []

        def no_saddle_on_second_call(entries, eps=None):
            calls.append(entries)
            return original(MATCHING_PENNIES if len(calls) == 2 else entries, eps)

        monkeypatch.setattr(SOLVE_MODULE, "find_pure_saddle", no_saddle_on_second_call)
        with pytest.raises(SaddlePointError, match="initial state 2;") as exc:
            solve(example_spec)
        assert np.array_equal(exc.value.matrix, example_payoffs[:, :, 1])

        calls.clear()
        assert main(["solve", str(example_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: no pure saddle point in the payoff matrix for initial state 2;"
        )

    def test_corpus_games_solve_cleanly(self):
        # a pure saddle must exist in every matrix; the 2x2 sweep is a
        # sufficient condition only, so its outcome is recorded, not
        # required (strict saddle-free submatrices do occur alongside a
        # full-matrix saddle)
        for spec in _corpus.game_corpus(15, seed=61):
            report = solve(spec)
            assert len(report.value) == spec.n
            for s in range(spec.n):
                a = report.payoffs[:, :, s]
                eps = saddle_tolerance(a)
                assert a.min(axis=1).max() >= a.max(axis=0).min() - eps
            assert all(
                isinstance(flag, bool)
                for flag in report.diagnostics["certificate_2x2"]
            )


class TestScaling:
    def test_reward_scaling(self):
        for spec in _corpus.game_corpus(5, seed=71):
            base = solve(spec)
            scaled = solve(_corpus.scale_rewards(spec, 3.7))
            assert scaled.payoffs == pytest.approx(3.7 * base.payoffs, rel=1e-10)
            for s in range(spec.n):
                assert (
                    scaled.per_state[s].all_saddles == base.per_state[s].all_saddles
                )

    def test_sojourn_scaling(self):
        for spec in _corpus.game_corpus(5, seed=73):
            base = solve(spec)
            scaled = solve(_corpus.scale_sojourns(spec, 2.5))
            assert scaled.payoffs == pytest.approx(base.payoffs / 2.5, rel=1e-10)
            for s in range(spec.n):
                assert (
                    scaled.per_state[s].all_saddles == base.per_state[s].all_saddles
                )
