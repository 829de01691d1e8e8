import functools
import importlib
import inspect
import json
import operator
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pismg import (
    ActionSpec,
    GameSpec,
    NumericalError,
    SaddleCertificate,
    SaddlePointError,
    SojournModel,
    StateSpec,
    Transition,
    build_payoff_matrix,
    cesaro,
    cesaro_structural,
    check_all_2x2,
    enumerate_pure,
    find_pure_saddle,
    induce,
    parse_game,
    payoff_vector,
    saddle_tolerance,
    solve,
    strategy_count,
    strategy_from_ordinal,
)
from pismg.cli import main
from pismg.markov import EPS_EDGE
from pismg.strategies import action_tables

import _corpus
from _adjacent import adjacent_pairs, adjacent_quadruple_gaps
from _exact import exact_phi

# the package re-exports solve(), which hides the submodule attribute
SOLVE_MODULE = importlib.import_module("pismg.solve")
MARKOV_MODULE = importlib.import_module("pismg.markov")
CENSOR_MODULE = importlib.import_module("pismg.censor")


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

NEGATIVE_EPS = r"^saddle tolerance must be finite and >= 0, got -0\.01$"
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
    max(a, d) < min(b, c) - eps, or None. Each is written as four
    comparisons, so a nan entry fails them as it does in numpy (Python's
    min and max can drop a nan)."""
    d1, d2 = a.shape
    for i in range(d1):
        for i2 in range(i + 1, d1):
            for j in range(d2):
                for j2 in range(j + 1, d2):
                    diag = (a[i, j], a[i2, j2])
                    anti = (a[i, j2], a[i2, j])
                    if (all(x > y + eps for x in diag for y in anti)
                            or all(x < y - eps for x in diag for y in anti)):
                        return (i + 1, i2 + 1, j + 1, j2 + 1)
    return None


def _phi_by_method(spec, method, **cesaro_options):
    """phi(s, f, g) at [f.ordinal, g.ordinal, s - 1] with each pair's Q*
    from ``cesaro(q, method, ...)`` on its own chain: a cross-check of a
    solve's structural tensor that shares only ``induce`` with it."""
    fs = enumerate_pure(spec, "I")
    gs = enumerate_pure(spec, "II")
    tensor = np.empty((len(fs), len(gs), spec.n))
    for f in fs:
        for g in gs:
            chain = induce(spec, f, g)
            q_star = cesaro(chain.q, method, **cesaro_options).q_star
            tensor[f.ordinal, g.ordinal] = (q_star @ chain.r) / (q_star @ chain.tau)
    return tensor


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

    def test_methods_agree(self, example_spec, example_payoffs):
        # every pair of the example: lazari to rounding, averaging to its
        # O(1/n) accuracy
        lazari = _phi_by_method(example_spec, "lazari")
        scale = np.maximum(1.0, np.abs(example_payoffs))
        assert np.all(np.abs(lazari - example_payoffs) <= 1e-9 * scale)
        averaging = _phi_by_method(example_spec, "averaging", averaging_n_max=2**40)
        assert np.all(np.abs(averaging - example_payoffs) <= 1e-6)

    def test_state4_is_exactly_364_over_137(self, example_spec, pairs):
        # the exact oracle at the saddle pair (f3, g1), and the solve's
        # value within 1e-15 of it
        fs, gs = pairs
        assert exact_phi(example_spec, fs[2], gs[0])[3] == Fraction(364, 137)
        value = solve(example_spec).value[3]
        assert abs(Fraction(value) - Fraction(364, 137)) <= Fraction(1, 10**15)

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

    @pytest.mark.parametrize("first, swapped, eps", [
        ([[0.67, 0.17], [0.01, 0.8]], [[0.17, 0.67], [0.8, 0.01]], 0.5),
        ([[0.1, 0.45], [0.49, 0.35]], [[0.45, 0.1], [0.35, 0.49]], 0.1),
    ], ids=["minus-form-only", "plus-form-only"])
    def test_rounding_depends_on_column_order(self, first, swapped, eps):
        # the block test compares x < y - eps when the rising column comes
        # first and y > x + eps when the falling one does; on these blocks
        # the two round apart, so swapping the columns flips the verdict
        # and a filter in only one of the two forms misses one of them
        assert _first_saddle_free_2x2(np.array(first), eps) is None
        assert _first_saddle_free_2x2(np.array(swapped), eps) == (1, 2, 1, 2)
        assert check_all_2x2(np.array(first), eps) == SaddleCertificate(True, None)
        assert check_all_2x2(np.array(swapped), eps) == SaddleCertificate(False, (1, 2, 1, 2))

    @pytest.mark.parametrize("kind", ["two-decimal", "non-finite"])
    def test_matches_four_loop_reference_in_small_blocks(self, monkeypatch, kind):
        # 24 entries hold six row pairs of 2 columns down to one of 7 or
        # 8, so blocks of row pairs end inside a matrix
        monkeypatch.setattr(SOLVE_MODULE, "_CHUNK_ENTRIES", 24)
        rng = np.random.default_rng(77)
        for _ in range(400):
            a = np.round(rng.random(rng.integers(2, 9, size=2)), 2)
            if kind == "non-finite":
                a[rng.random(a.shape) < 0.1] = np.inf
                a[rng.random(a.shape) < 0.1] = -np.inf
                a[rng.random(a.shape) < 0.1] = np.nan
            for eps in (0.0, 0.01, 0.5):
                # inf - inf rounds to nan in both sweeps; nan compares false
                with np.errstate(invalid="ignore"):
                    cert = check_all_2x2(a, eps)
                    expected = _first_saddle_free_2x2(a, eps)
                assert (cert.passed, cert.violation) == (expected is None, expected)

    @pytest.mark.parametrize("chunk_entries", [None, 24], ids=["default", "small-blocks"])
    @pytest.mark.parametrize("kind", ["integer", "two-decimal", "signed-zero", "non-finite"])
    def test_repeated_rows_and_columns_match_four_loop_reference(
            self, monkeypatch, kind, chunk_entries):
        # strategies that differ only where the chain cannot reach repeat
        # rows and columns; the filter skips equal rows and repeated
        # columns, which hold no saddle-free block as eps is never negative
        if chunk_entries is not None:
            monkeypatch.setattr(SOLVE_MODULE, "_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(13)
        outcomes = Counter()
        for _ in range(150):
            shape = rng.integers(1, 5, size=2)
            if kind == "integer":
                base = rng.integers(0, 3, size=shape).astype(float)
            elif kind == "signed-zero":
                base = rng.choice([-0.0, 0.0, 1.0], size=shape)
            else:
                base = np.round(rng.random(shape), 2)
            if kind == "non-finite":
                base[rng.random(shape) < 0.15] = np.inf
                base[rng.random(shape) < 0.15] = -np.inf
                base[rng.random(shape) < 0.15] = np.nan
            a = base[np.ix_(rng.integers(0, shape[0], size=rng.integers(1, 9)),
                            rng.integers(0, shape[1], size=rng.integers(1, 9)))]
            finite = kind != "non-finite"
            for eps in (0.0, 0.01, 0.5) + ((None,) if finite else ()):
                with np.errstate(invalid="ignore"):
                    cert = check_all_2x2(a, eps)
                    expected = _first_saddle_free_2x2(
                        a, saddle_tolerance(a) if eps is None else eps)
                assert (cert.passed, cert.violation) == (expected is None, expected)
                outcomes[expected is None] += 1
            with pytest.raises(ValueError, match=NEGATIVE_EPS):
                check_all_2x2(a, -0.01)
            # the saddle search checks its entries first
            with pytest.raises(ValueError,
                               match=NEGATIVE_EPS if np.isfinite(a).all() else "non-finite"):
                find_pure_saddle(a, -0.01)
        # both verdicts occur
        assert len(outcomes) == 2 and min(outcomes.values()) >= 10

    @pytest.mark.parametrize("eps", [-0.01, -1e-300, np.inf, np.nan])
    def test_negative_or_non_finite_eps_raises(self, eps):
        # as solve rejects such a saddle_eps, with the same message
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        for check in (check_all_2x2, find_pure_saddle):
            with pytest.raises(ValueError) as exc:
                check(a, eps)
            assert str(exc.value) == f"saddle tolerance must be finite and >= 0, got {eps!r}"

    @pytest.mark.parametrize("repeated", ["column", "row"])
    def test_one_distinct_column_or_row_skips_the_filter(self, monkeypatch, repeated):
        # the decoupled games' matrices: one player's choice never matters
        a = np.repeat(np.random.default_rng(8).random((100, 1)), 100, axis=1)
        if repeated == "row":
            a = a.T
        calls = []
        overlap = SOLVE_MODULE._overlap
        monkeypatch.setattr(SOLVE_MODULE, "_overlap",
                            lambda *args: calls.append(1) or overlap(*args))
        assert check_all_2x2(a) == SaddleCertificate(True, None)
        assert calls == []

    def test_filter_sees_unequal_row_pairs_on_distinct_columns(self, monkeypatch):
        monkeypatch.setattr(SOLVE_MODULE, "_CHUNK_ENTRIES", 24)
        # rows and columns of the base are pairwise distinct
        base = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0],
                         [1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
        a = base[np.ix_([0, 1, 0, 2, 3, 1, 2], [0, 1, 1, 2, 0])]
        seen = []

        def recording(top, bot, eps):
            assert 2 * top.size <= 24
            seen.append((top.copy(), bot.copy()))
            return np.zeros(len(top), dtype=bool)

        monkeypatch.setattr(SOLVE_MODULE, "_overlap", recording)
        assert check_all_2x2(a, 0.0) == SaddleCertificate(True, None)
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)
                 if not np.array_equal(a[i], a[j])]
        assert len(pairs) == 21 - 3
        rows_i, rows_j = map(list, zip(*pairs))
        distinct = a[:, [0, 1, 3]]
        assert np.array_equal(np.concatenate([top for top, _ in seen]), distinct[rows_i])
        assert np.array_equal(np.concatenate([bot for _, bot in seen]), distinct[rows_j])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_default_eps_rejects_non_finite(self, bad):
        # the default tolerance of such a matrix would be inf or nan, which
        # passes every block; the tests run with warnings as errors, so the
        # sweep must not reach inf - inf either
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        a[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_all_2x2(a)
        with pytest.raises(ValueError, match="non-finite"):
            find_pure_saddle(a)

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


# tests/data/two_sinks.json, the game whose CLI output the two-sinks
# golden files pin. State 1 (I) moves to state 2 or 3 for reward 0; states
# 2 and 3 (II) each self-loop for reward 1 ("hi") or 0 ("lo"). II's
# strategies in odometer order over (state 2, state 3): g1 hi,hi
# g2 hi,lo  g3 lo,hi  g4 lo,lo.
TWO_SINKS = (Path(__file__).parent / "data" / "two_sinks.json").read_text()


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

    @pytest.mark.parametrize("state", [0, -1, 5])
    def test_strategy_for_a_state_outside_one_to_n_is_rejected(self, example_spec, state):
        report = solve(example_spec)
        for strategy in (report.maximiser, report.minimiser):
            with pytest.raises(ValueError) as exc:
                strategy.for_state(state)
            assert str(exc.value) == f"state {state} out of range 1..4"

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

    def test_overflowing_payoff_names_the_entries(self):
        # phi = 1.7e308 / 0.5 overflows a valid game: the tensor names the
        # first pair and its first state whose payoff is not finite, and
        # the overflow emits no warning (warnings are errors here)
        spec = GameSpec("huge", (StateSpec(1, "I", tuple(
            ActionSpec(label, reward, (Transition(1, 1.0),), SojournModel("mean", (0.5,)))
            for label, reward in (("a", 1.7e308), ("b", 1.0)))),))
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == "pair (f1, g1): payoff of state 1 is not finite: inf"

    def test_overflowing_censored_values_name_the_state(self, tmp_path, capsys):
        # the one-action state 2 earns 1e308 per epoch and stays with
        # probability 0.9, so the value it accumulates before state 1
        # overflows: censoring names it with no warning, where a NaN
        # residual once passed its check
        def mean(to):
            return {"reward": 1.0, "sojourn": {"kind": "mean", "value": 1.0},
                    "transitions": [{"to": to, "prob": 1.0}]}
        game = {"name": "overflow", "states": [
            {"id": 1, "player": "I", "actions": [
                {"label": "enter", **mean(2)}, {"label": "stay", **mean(1)}]},
            {"id": 2, "player": "II", "actions": [{
                "label": "b", "reward": 1e308, "sojourn": {"kind": "mean", "value": 1.0},
                "transitions": [{"to": 2, "prob": 0.9}, {"to": 1, "prob": 0.1}]}]},
        ]}
        spec = parse_game(json.dumps(game))
        message = ("pair (f1, g1): numerically degenerate chain: "
                   "values accumulated from state 2 are not finite")
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == message
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(game))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overflowing_node_value_names_the_payoff(self):
        # each value is finite, but a node's reward plus what it
        # accumulates before the next node overflows to inf
        spec = GameSpec("node-overflow", (
            StateSpec(1, "I", tuple(
                ActionSpec(label, reward, (Transition(to, 1.0),), SojournModel("mean", (1.0,)))
                for label, reward, to in (("enter", 1e308, 2), ("stay", 1.0, 1)))),
            StateSpec(2, "II", (ActionSpec("b", 1e308, (Transition(1, 1.0),),
                                           SojournModel("mean", (1.0,))),)),
        ))
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == "pair (f1, g1): payoff of state 1 is not finite: inf"

    def test_node_values_overflowing_with_opposite_signs_name_the_payoff(self):
        # the cycle 1 -> 3 -> 2 -> 4 -> 1 of pair (f1, g1) earns one node
        # value that overflows to inf and one that overflows to -inf
        def state(sid, player, to, reward, stay):
            return StateSpec(sid, player, tuple(
                ActionSpec(label, r, (Transition(dest, 1.0),), SojournModel("mean", (1.0,)))
                for label, r, dest in (("go", reward, to), ("stay", 1.0, sid))[:1 + stay]))
        spec = GameSpec("opposite-overflows", (
            state(1, "I", 3, 1e308, True), state(2, "II", 4, -1e308, True),
            state(3, "I", 2, 1e308, False), state(4, "II", 1, -1e308, False)))
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == "pair (f1, g1): payoff of state 1 is not finite: nan"

    def test_overflowing_transient_node_takes_no_part(self):
        # tests/data/transient_overflow.json: under "go", node 1's value
        # (1e308 at state 1 and 1e308 at state 3) overflows, but state 1 is
        # transient there, so its weight 0 must not turn the payoffs nan;
        # every payoff is 1 or 2
        spec = parse_game((Path(__file__).parent / "data" / "transient_overflow.json").read_text())
        report = solve(spec)
        assert report.value == (1.0, 1.0, 1.0)
        fs, gs = enumerate_pure(spec, "I"), enumerate_pure(spec, "II")
        for f in fs:
            for g in gs:
                assert report.payoffs[f.ordinal, g.ordinal].tolist() == exact_phi(spec, f, g)

    def test_overflowing_recurrent_node_names_its_own_state(self):
        # state 1 loops on its own, with payoff exactly 1 under (f1, g1);
        # the cycle 2 -> 3 -> 2 earns two values of 1e308, so state 2's
        # payoff overflows and it is the state named, not state 1
        def state(sid, player, options):
            return StateSpec(sid, player, tuple(
                ActionSpec(label, reward, (Transition(to, 1.0),), SojournModel("mean", (1.0,)))
                for label, reward, to in options))
        spec = GameSpec("recurrent-overflow", (
            state(1, "I", (("a", 1.0, 1), ("b", 2.0, 1))),
            state(2, "II", (("go", 1e308, 3), ("stay", 1.0, 2))),
            state(3, "I", (("on", 1e308, 2),)),
        ))
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == "pair (f1, g1): payoff of state 2 is not finite: inf"

    def test_zero_saddle_eps_allowed(self, example_spec):
        assert solve(example_spec, saddle_eps=0.0).value == solve(example_spec).value

    def test_no_reference_values_no_deltas(self):
        for spec in _corpus.game_corpus(3, seed=5):
            assert solve(spec).diagnostics["reference_deltas"] == ()

    def test_each_pure_pair_is_evaluated_once_per_solve(self, example_spec, monkeypatch):
        # every per-state matrix is a slice of one payoff tensor, each pair
        # is one censored chain of the stacked structural routine, the
        # per-chain and per-pair paths stay unused, and nothing carries
        # over from an earlier solve
        counts = Counter()
        limits, per_chain = CENSOR_MODULE.structural_limits, SOLVE_MODULE.cesaro
        per_pair = SOLVE_MODULE.payoff_vector

        def counted_limits(qs, *args):
            counts["chains"] += qs.shape[-1]
            return limits(qs, *args)

        def counted_per_chain(*args, **kwargs):
            counts["cesaro"] += 1
            return per_chain(*args, **kwargs)

        def counted_per_pair(*args, **kwargs):
            counts["payoff_vector"] += 1
            return per_pair(*args, **kwargs)

        monkeypatch.setattr(CENSOR_MODULE, "structural_limits", counted_limits)
        monkeypatch.setattr(SOLVE_MODULE, "cesaro", counted_per_chain)
        monkeypatch.setattr(SOLVE_MODULE, "payoff_vector", counted_per_pair)
        for _ in range(2):
            counts.clear()
            report = solve(example_spec)
            pairs = report.diagnostics["d1"] * report.diagnostics["d2"]
            assert counts == {"chains": pairs}

    def test_no_closure_wider_than_the_censored_chains(self, monkeypatch):
        # the censoring finds a 150-state game's open states, closed
        # classes and entry supports in one SCC pass: the only transitive
        # closures a solve takes are those of its censored chains
        spec = _corpus.sparse_game(np.random.default_rng(8), n=150)
        original = MARKOV_MODULE._closure
        widths = []

        def recording(edges):
            widths.append(len(edges))
            return original(edges)

        # every module that holds the function by name
        for module in (MARKOV_MODULE, CENSOR_MODULE, SOLVE_MODULE):
            if getattr(module, "_closure", None) is original:
                monkeypatch.setattr(module, "_closure", recording)
        solve(spec)
        nodes = len(CENSOR_MODULE._CensoredGame(spec).q)
        assert widths and nodes < spec.n
        assert max(widths) <= nodes

    def test_matrices_match_build_payoff_matrix(self, example_spec, example_payoffs):
        assert example_payoffs.shape == (4, 4, example_spec.n)
        for s in range(1, example_spec.n + 1):
            alone = build_payoff_matrix(example_spec, s)
            assert np.array_equal(example_payoffs[:, :, s - 1], alone)

    def test_takes_spec_and_saddle_eps_only(self):
        # the solve runs the structural method only, so it takes no
        # method name or Cesaro tolerance
        params = inspect.signature(solve).parameters
        assert list(params) == ["spec", "saddle_eps"]
        assert params["saddle_eps"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["saddle_eps"].default is None

    def test_lazari_method_agrees(self, example_spec):
        # the solve's tensor against lazari, pair by pair, and the same
        # saddle cells in every state
        for spec in [example_spec, *_corpus.game_corpus(200, seed=424242)]:
            report = solve(spec)
            lazari = _phi_by_method(spec, "lazari")
            scale = np.maximum(1.0, np.abs(report.payoffs))
            assert np.all(np.abs(lazari - report.payoffs) <= 1e-9 * scale), spec.name
            for s, found in enumerate(report.per_state):
                assert (find_pure_saddle(lazari[:, :, s]).all_saddles
                        == found.all_saddles), spec.name

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
        # the saddle search reports matching pennies' (none) for state 3's
        # matrix, the only state with that matrix
        original = SOLVE_MODULE.find_pure_saddle
        state3 = example_payoffs[:, :, 2]

        def no_saddle_for_state3(entries, eps=None):
            return original(MATCHING_PENNIES if np.array_equal(entries, state3) else entries,
                            eps)

        monkeypatch.setattr(SOLVE_MODULE, "find_pure_saddle", no_saddle_for_state3)
        with pytest.raises(SaddlePointError, match="initial state 3;") as exc:
            solve(example_spec)
        assert np.array_equal(exc.value.matrix, state3)

        assert main(["solve", str(example_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: no pure saddle point in the payoff matrix for initial state 3;"
        )

    def test_each_distinct_matrix_is_searched_once(self, example_spec, monkeypatch):
        # states 1 and 2 form one recurrent class and share a matrix
        counts = Counter()

        def counting(name):
            original = getattr(SOLVE_MODULE, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in ("find_pure_saddle", "check_all_2x2"):
            monkeypatch.setattr(SOLVE_MODULE, name, counting(name))
        report = solve(example_spec)
        assert np.array_equal(report.payoffs[:, :, 0], report.payoffs[:, :, 1])
        assert counts == {"find_pure_saddle": 3, "check_all_2x2": 3}
        assert report.diagnostics["saddle_multiplicity"] == (4, 4, 8, 2)

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


def _unreachable_from_choices():
    """States 1 and 2 choose; 3 leads into them. No choice reaches the
    one-action states 4 to 7: 4 and 5 form a closed class, 6 and 7 are
    transient, 6 draining into the choices and 7 into {4, 5}."""
    rows = {
        1: [{1: 0.5, 3: 0.5}, {2: 1.0}],
        2: [{2: 1.0}, {1: 0.25, 2: 0.75}],
        3: [{1: 0.5, 2: 0.5}],
        4: [{5: 1.0}],
        5: [{4: 0.4, 5: 0.6}],
        6: [{6: 0.5, 1: 0.5}],
        7: [{7: 0.25, 4: 0.5, 6: 0.25}],
    }
    states = tuple(
        StateSpec(sid, "I" if sid % 2 else "II", tuple(
            ActionSpec(f"a{a + 1}", float(sid - 3 * a),
                       tuple(Transition(d, p) for d, p in row.items()),
                       SojournModel("mean", (1.0 + 0.5 * a,)))
            for a, row in enumerate(acts)
        ))
        for sid, acts in rows.items()
    )
    return GameSpec("unreachable-from-choices", states)


class TestBatchedPairs:
    """The tensor of a solve stacks the chains of many pairs;
    ``payoff_vector`` evaluates one pair and is the reference."""

    @staticmethod
    def _tensor(spec):
        fs = enumerate_pure(spec, "I")
        gs = enumerate_pure(spec, "II")
        return fs, gs, SOLVE_MODULE._payoff_tensor(spec, fs, gs)

    @pytest.mark.parametrize("count, chunk_entries", [
        (200, None),
        (40, 50),
    ], ids=["corpus200", "stacks-of-1-to-3"])
    def test_matches_payoff_vector_bit_for_bit(self, monkeypatch, count, chunk_entries):
        # 50 entries hold one to three censored chains of 4 to 7 nodes, so
        # stacks end inside a game and the last stack of a game is a
        # short one
        if chunk_entries is not None:
            monkeypatch.setattr(SOLVE_MODULE, "_CHUNK_ENTRIES", chunk_entries)
        for spec in _corpus.game_corpus(count, seed=424242):
            fs, gs, tensor = self._tensor(spec)
            reference = np.array(
                [[payoff_vector(spec, f, g) for g in gs] for f in fs]
            )
            assert np.array_equal(tensor, reference), spec.name

    @pytest.mark.parametrize("method, options, atol, rtol", [
        ("lazari", {}, 0.0, 1e-9),
        ("averaging", {"averaging_n_max": 2**40}, 1e-6, 0.0),
    ], ids=["corpus200-lazari", "corpus200-averaging"])
    def test_matches_other_methods(self, method, options, atol, rtol):
        # every pair of corpus-200 against each pair's own chain under the
        # other limiting-matrix methods, at the tolerances of
        # TestPayoffVector.test_methods_agree
        for spec in _corpus.game_corpus(200, seed=424242):
            _, _, tensor = self._tensor(spec)
            reference = _phi_by_method(spec, method, **options)
            bound = atol + rtol * np.maximum(1.0, np.abs(tensor))
            assert np.all(np.abs(reference - tensor) <= bound), spec.name

    @pytest.mark.parametrize("build", [
        lambda: [_corpus.sparse_game(np.random.default_rng(11), n=150)],
        lambda: _corpus.game_corpus(20, seed=31, max_actions=1),
        lambda: _corpus.game_corpus(20, seed=37, min_actions=2),
        lambda: [_unreachable_from_choices()],
    ], ids=["sparse150", "no-choice", "every-state-a-choice", "unreachable-from-choices"])
    def test_decision_state_reach_matches_payoff_vector(self, build):
        # the tensor closes reachability through the decision states and
        # the rows shared by every chain; payoff_vector closes each chain
        # over every state
        for spec in build():
            fs, gs, tensor = self._tensor(spec)
            reference = np.array(
                [[payoff_vector(spec, f, g) for g in gs] for f in fs]
            )
            assert np.array_equal(tensor, reference), spec.name

    @pytest.mark.parametrize("build, exact", [
        (lambda: [_corpus.sparse_game(np.random.default_rng(11), n=150)], False),
        (lambda: _corpus.game_corpus(20, seed=31, max_actions=1), True),
        (lambda: _corpus.game_corpus(20, seed=37, min_actions=2), True),
        (lambda: [_unreachable_from_choices()], True),
    ], ids=["sparse150", "no-choice", "every-state-a-choice", "unreachable-from-choices"])
    def test_decision_state_reach_matches_full_chain(self, build, exact):
        # the censored tensor against each pair's full chain through
        # cesaro_structural, and against exact rational phi where the
        # game is small; the two paths round differently, within 1e-13
        for spec in build():
            fs, gs, tensor = self._tensor(spec)
            full = np.empty_like(tensor)
            for f in fs:
                for g in gs:
                    chain = induce(spec, f, g)
                    q_star = cesaro_structural(chain.q).q_star
                    full[f.ordinal, g.ordinal] = (q_star @ chain.r) / (q_star @ chain.tau)
                    if exact:
                        for s, x in enumerate(exact_phi(spec, f, g)):
                            got = Fraction(float(tensor[f.ordinal, g.ordinal, s]))
                            assert abs(got - x) <= Fraction(1, 10**13) * max(1, abs(x))
            scale = np.maximum(1.0, np.abs(full))
            assert np.all(np.abs(tensor - full) <= 1e-13 * scale), spec.name

    def test_matches_exact_oracle_on_corpus(self):
        # 60 corpus games, 6522 entries: worst relative error 1.2e-15
        worst = Fraction(0)
        for spec in _corpus.game_corpus(60, seed=424242):
            fs, gs, tensor = self._tensor(spec)
            for f in fs:
                for g in gs:
                    for s, x in enumerate(exact_phi(spec, f, g)):
                        got = Fraction(float(tensor[f.ordinal, g.ordinal, s]))
                        worst = max(worst, abs(got - x) / max(1, abs(x)))
        assert worst <= Fraction(1, 10**13)

    @pytest.mark.parametrize("method, options, tol", [
        ("lazari", {}, 1e-7),
        ("averaging", {"averaging_tol": 1e-10, "averaging_n_max": 2**40}, 1e-5),
    ], ids=["lazari", "averaging"])
    def test_other_methods_match_exact_oracle_on_corpus(self, method, options, tol):
        # each pair's own chain under lazari and averaging against exact
        # rational phi, at the benchmark's cross-check tolerances and
        # averaging settings (perfbench/worker.py), relative to
        # max(1, |phi|); 60 corpus games, 6522 entries
        for spec in _corpus.game_corpus(60, seed=424242):
            got = _phi_by_method(spec, method, **options)
            for f in enumerate_pure(spec, "I"):
                for g in enumerate_pure(spec, "II"):
                    for s, x in enumerate(exact_phi(spec, f, g)):
                        error = abs(Fraction(float(got[f.ordinal, g.ordinal, s])) - x)
                        assert error <= Fraction(tol) * max(1, abs(x)), (spec.name, f.label,
                                                                          g.label, s + 1)

    def test_one_action_golden_is_this_game(self):
        # tests/data/one_action.json pins the CLI output of this game
        data = Path(__file__).parent / "data" / "one_action.json"
        assert parse_game(data.read_text()) == _unreachable_from_choices()

    def test_ratio_takes_each_chains_own_product(self):
        # the stacked product must add each chain's terms in index order,
        # as a chain alone does, so a tensor keeps the bits of a pair
        # evaluated on its own
        rng = np.random.default_rng(3)
        for n in (2, 4, 7, 150):
            m = 2 if n == 150 else 300
            q_star = np.array([_corpus.random_stochastic(rng, n) for _ in range(m)])
            r = rng.uniform(-5.0, 5.0, (m, n))
            tau = rng.uniform(0.5, 3.0, (m, n))

            def in_order(v):
                # every row's sum of products, added left to right
                return np.array([[functools.reduce(operator.add, map(operator.mul, row, vc))
                                  for row in a.tolist()] for a, vc in zip(q_star, v.tolist())])

            expected = in_order(r) / in_order(tau)
            weights, r, tau = (np.ascontiguousarray(x.T)
                               for x in (q_star.transpose(0, 2, 1), r, tau))
            got = CENSOR_MODULE._ratio(CENSOR_MODULE._product(weights, r, False),
                                       CENSOR_MODULE._product(weights, tau, False))
            assert np.array_equal(got, expected.T)

    @pytest.mark.parametrize("eps_proj", [-1.0, 1e-16])
    def test_failed_check_names_the_first_failing_pair(
        self, monkeypatch, example_spec, eps_proj
    ):
        # -1 fails every pair; 1e-16 fails only the pairs whose stationary
        # residual is not exact (4 of 16 pairs, the first of them (f3, g1),
        # in the middle of the stack, with numpy 2.4 and OpenBLAS)
        monkeypatch.setattr(MARKOV_MODULE, "EPS_PROJ", eps_proj)
        expected = None
        for f in enumerate_pure(example_spec, "I"):
            for g in enumerate_pure(example_spec, "II"):
                try:
                    payoff_vector(example_spec, f, g)
                except NumericalError as e:
                    expected = expected or str(e)
        assert expected is not None and expected.startswith("pair (f")
        with pytest.raises(NumericalError) as exc:
            solve(example_spec)
        assert str(exc.value) == expected

    def test_failed_censoring_names_the_first_pair(self, monkeypatch):
        # a check of the once-per-solve censoring fails for every pair, so
        # the solve's error is the first pair's
        monkeypatch.setattr(MARKOV_MODULE, "EPS_PROJ", -1.0)
        spec = _unreachable_from_choices()
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == (
            "pair (f1, g1): numerically degenerate chain: absorption rows do not sum to 1"
        )

    def test_last_pair_failure_is_named_from_one_censored_game(self, monkeypatch):
        # a failure planted at the last of 4,096 pairs: the censored game
        # is built once, and naming the pair takes one pass of stacks in
        # ordinal order and one stack of single chains after the failed
        # pass, not a censoring per pair
        spec = _corpus.sparse_game(np.random.default_rng(101), per_player=6)
        game = CENSOR_MODULE._CensoredGame(spec)
        assert len(game.components()) == 1 and len(game.decision) == 12
        step = max(1, SOLVE_MODULE._CHUNK_ENTRIES // len(game.q) ** 2)
        counts = Counter()
        init, payoffs = CENSOR_MODULE._CensoredGame.__init__, CENSOR_MODULE._CensoredGame.payoffs

        def counted_init(self, *args):
            counts["init"] += 1
            init(self, *args)

        def planted(self, acts):
            counts["payoffs"] += 1
            # the last pair plays the second action at every decision node
            if (acts[:, :12] == 1).all(axis=1).any():
                raise NumericalError("planted")
            return payoffs(self, acts)

        monkeypatch.setattr(CENSOR_MODULE._CensoredGame, "__init__", counted_init)
        monkeypatch.setattr(CENSOR_MODULE._CensoredGame, "payoffs", planted)
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == "pair (f64, g64): planted"
        stacks = -(-4096 // step)
        assert counts["init"] == 1
        assert counts["payoffs"] <= stacks + step + stacks

    def test_game_without_one_action_states_is_its_own_censored_game(self):
        # every state a node, every node its own state, and the tables
        # those of the game, bit for bit
        for spec in _corpus.game_corpus(20, seed=37, min_actions=2):
            game = CENSOR_MODULE._CensoredGame(spec)
            q, r, tau = action_tables(spec)
            assert np.array_equal(game.q, q) and np.array_equal(game.edges, q > EPS_EDGE)
            assert np.array_equal(game.values, np.array([r, np.ones(r.shape), tau]))
            assert game.exits.shape == (0, spec.n)
            assert game.rows.tolist() == list(range(spec.n)) and game.mixed.size == 0
            assert game.enters.shape == (0, spec.n)
            assert game.states == [(x,) for x in range(spec.n)]

    @pytest.mark.parametrize("closed, states", [(False, "(1, 3)"), (True, "(4, 5)")])
    def test_censored_failure_names_the_class_by_its_states(
        self, monkeypatch, closed, states
    ):
        # decision states 2 and 4 are censored nodes 0 and 1, and under
        # (f1, g1) they form one class. With ``closed``, the one-action
        # class {5, 6} is node 2, a class of one node, and under (f1, g2)
        # state 4 enters it, so it is the only class. Censored with the
        # real tolerance, then every check of the stack fails at its
        # first stationary row.
        def action(label, row):
            return ActionSpec(label, 1.0, tuple(Transition(d, p) for d, p in row.items()),
                              SojournModel("mean", (1.0,)))
        spec = GameSpec("nodes-are-not-states", (
            StateSpec(1, "I", (action("a", {2: 0.5, 4: 0.5}),)),
            StateSpec(2, "I", (action("b", {1: 0.3, 4: 0.7}), action("c", {3: 1.0}))),
            StateSpec(3, "II", (action("d", {2: 1.0}),)),
            StateSpec(4, "II", (action("e", {2: 0.3, 3: 0.7}),
                                action("f", {5: 1.0} if closed else {1: 1.0}))),
            *((StateSpec(5, "I", (action("g", {6: 1.0}),)),
               StateSpec(6, "II", (action("h", {5: 1.0}),))) if closed else ()),
        ))
        game = CENSOR_MODULE._CensoredGame(spec)
        g = enumerate_pure(spec, "II")[1 if closed else 0]
        acts = game.actions(enumerate_pure(spec, "I")[:1], [g])
        monkeypatch.setattr(MARKOV_MODULE, "EPS_PROJ", -1.0)
        with pytest.raises(NumericalError) as exc:
            game.payoffs(acts)
        assert str(exc.value).startswith("numerically degenerate chain: stationary residual")
        assert str(exc.value).endswith(f"for class {states}")

    def test_states_reaching_one_class_share_its_payoffs(self):
        # a state that reaches a single recurrent class of a pair's full
        # chain has that class's payoff bit for bit, whether it is a
        # decision state, a one-action state in the class, or transient
        for spec in [*_corpus.game_corpus(200, seed=424242), _unreachable_from_choices(),
                     _corpus.sparse_game(np.random.default_rng(11), n=40)]:
            fs, gs, tensor = self._tensor(spec)
            for f in fs:
                for g in gs:
                    q = induce(spec, f, g).q
                    dec = cesaro_structural(q).decomposition
                    reach = (q > 1e-12) | np.eye(spec.n, dtype=bool)
                    for _ in range(spec.n):
                        reach = reach | (reach.astype(float) @ reach > 0)
                    phi = tensor[f.ordinal, g.ordinal]
                    for members in dec.recurrent_classes:
                        head = members[0]
                        only = reach[:, head] & (reach[:, [c[0] for c in dec.recurrent_classes]].sum(axis=1) == 1)
                        assert np.all(phi[only] == phi[head]), spec.name

    def test_censored_edges_come_from_path_counts(self):
        # state 1 chooses; its first action enters the one-action state 2
        # with probability 1e-7, and 2 moves on to the absorbing state 3
        # with probability 1e-7, else to the absorbing state 4. The
        # censored row of 1 puts 1e-14 <= EPS_EDGE on 3, but the full
        # chain's edges reach 3, so state 1 mixes the two classes
        def action(label, reward, row):
            return ActionSpec(label, reward, tuple(Transition(d, p) for d, p in row.items()),
                              SojournModel("mean", (1.0,)))
        spec = GameSpec("thin-path", (
            StateSpec(1, "I", (action("a", 0.0, {4: 1 - 1e-7, 2: 1e-7}),
                               action("b", 0.0, {4: 1.0}))),
            StateSpec(2, "II", (action("c", 0.0, {3: 1e-7, 4: 1 - 1e-7}),)),
            StateSpec(3, "II", (action("d", 4.0, {3: 1.0}), action("e", 3.0, {3: 1.0}))),
            StateSpec(4, "I", (action("f", 5.0, {4: 1.0}), action("g", 6.0, {4: 1.0}))),
        ))
        fs, gs, tensor = self._tensor(spec)
        for f in fs:
            for g in gs:
                phi = tensor[f.ordinal, g.ordinal]
                chain = induce(spec, f, g)
                q_star = cesaro_structural(chain.q).q_star
                assert np.allclose(phi, (q_star @ chain.r) / (q_star @ chain.tau),
                                   rtol=1e-13, atol=0)
                # through the thin path state 1 sits 1e-14 of the way to 3
                assert (phi[0] < phi[3]) == (f.actions[0] == 0)

    def test_tensor_memory_at_n150(self):
        # one n = 150 chain per stack; stacking all 256 chains of this
        # game at once would hold about 40 MiB
        spec = _corpus.sparse_game(np.random.default_rng(7), n=150)
        tracemalloc.start()
        try:
            fs, gs, tensor = self._tensor(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fs) == len(gs) == 16
        assert np.all(np.isfinite(tensor))
        assert peak < 8 * 2**20

    def test_solve_holds_one_tensor_sized_array(self):
        # 150 states and 128 x 128 pairs: the payoff tensor is the only
        # array of its size a solve holds, with no (D1, D2, n) action
        # profile and no transposed copy for the saddle search
        spec = _corpus.sparse_game(np.random.default_rng(101), per_player=7)
        solve(spec)
        tracemalloc.start()
        try:
            report = solve(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.payoffs.shape == (128, 128, 150)
        assert peak <= 1.6 * report.payoffs.nbytes


class TestComponents:
    """Each component of the censored game evaluates its own pairs only;
    every entry is still phi of its pair's own chain."""

    @staticmethod
    def _action(label, reward, mean, row):
        return ActionSpec(label, reward, tuple(Transition(d, p) for d, p in row.items()),
                          SojournModel("mean", (mean,)))

    def test_mixed_state_joins_the_nodes_it_enters(self):
        # states 1 and 2 are absorbing and linked by no action, but the
        # one-action state 3 enters both, so its payoff mixes them: joined
        # by actions alone, (f2, g2) would copy (f2, g1)'s 5/2
        act = self._action
        spec = GameSpec("mixed-link", (
            StateSpec(1, "I", (act("a", 1.0, 1.0, {1: 1.0}), act("b", 2.0, 1.0, {1: 1.0}))),
            StateSpec(2, "II", (act("c", 3.0, 1.0, {2: 1.0}), act("d", 5.0, 2.0, {2: 1.0}))),
            StateSpec(3, "I", (act("e", 0.0, 1.0, {1: 0.5, 2: 0.5}),)),
        ))
        tensor = solve(spec).payoffs
        want = [[Fraction(2), Fraction(2)], [Fraction(5, 2), Fraction(7, 3)]]
        for f in enumerate_pure(spec, "I"):
            for g in enumerate_pure(spec, "II"):
                exact = exact_phi(spec, f, g)[2]
                assert exact == want[f.ordinal][g.ordinal]
                got = Fraction(float(tensor[f.ordinal, g.ordinal, 2]))
                assert abs(got - exact) <= Fraction(1, 10**15)
        assert [s.tolist() for _, s in CENSOR_MODULE._CensoredGame(spec).components()] == [[0, 1, 2]]

    def test_decoupled_game_evaluates_each_components_pairs_once(self, monkeypatch):
        # two independent sub-games of 10 x 10 pure strategies each: 100
        # chains per component where D1 * D2 = 10,000
        spec = _corpus.decoupled_game(np.random.default_rng(5))
        game = CENSOR_MODULE._CensoredGame(spec)
        assert [(x.tolist(), s.tolist()) for x, s in game.components()] == [
            ([0, 1], [0, 1]), ([2, 3], [2, 3])]
        chains = []
        limits = CENSOR_MODULE.structural_limits

        def counted_limits(qs, *args):
            chains.append(qs.shape[-1])
            return limits(qs, *args)

        monkeypatch.setattr(CENSOR_MODULE, "structural_limits", counted_limits)
        report = solve(spec)
        assert report.diagnostics["d1"] * report.diagnostics["d2"] == 10_000
        assert sum(chains) == 200

    def test_failure_names_the_first_pair_in_ordinal_order(self, monkeypatch):
        # player I's component is evaluated first, on the pairs (f, g1),
        # and fails at (f3, g1), ordinal 200; player II's fails at
        # (f1, g5), ordinal 4, which is the pair to name
        spec = _corpus.decoupled_game(np.random.default_rng(5))
        fs, gs = enumerate_pure(spec, "I"), enumerate_pure(spec, "II")
        game = CENSOR_MODULE._CensoredGame(spec)
        bad_f = game.actions(fs[2:3], gs[:1])[0, :2]
        bad_g = game.actions(fs[:1], gs[4:5])[0, 2:]
        payoffs = CENSOR_MODULE._CensoredGame.payoffs

        def planted(self, acts):
            if ((acts[:, :2] == bad_f).all(axis=1) | (acts[:, 2:] == bad_g).all(axis=1)).any():
                raise NumericalError("planted")
            return payoffs(self, acts)

        monkeypatch.setattr(CENSOR_MODULE._CensoredGame, "payoffs", planted)
        with pytest.raises(NumericalError) as exc:
            solve(spec)
        assert str(exc.value) == "pair (f1, g5): planted"

    @pytest.mark.parametrize("link", [False, True], ids=["disjoint", "linked"])
    def test_disjoint_unions_match_payoff_vector_bit_for_bit(self, link):
        # pairs of corpus games side by side, each its own set of
        # components, and the same with one state that links them
        corpus = _corpus.game_corpus(120, seed=424242)
        unions = [(a, b) for a, b in zip(corpus[::2], corpus[1::2])
                  if np.prod([strategy_count(g, p) for g in (a, b) for p in ("I", "II")]) <= 144]
        assert len(unions) >= 20
        for a, b in unions:
            spec = _corpus.disjoint_union(a, b, link)
            # the link joins the component of each game's state 1
            parts = [len(CENSOR_MODULE._CensoredGame(g).components()) for g in (a, b)]
            assert len(CENSOR_MODULE._CensoredGame(spec).components()) == sum(parts) - link
            fs, gs, tensor = TestBatchedPairs._tensor(spec)
            reference = np.array([[payoff_vector(spec, f, g) for g in gs] for f in fs])
            assert np.array_equal(tensor, reference), spec.name


class TestThinEscapes:
    """Transient blocks that leave with a tiny probability per round. The
    absorption solve forms each diagonal entry of I - Q_TT as its row's
    exit mass plus its off-diagonal mass (Grassmann, Taksar and Heyman),
    never as 1 - q_ii, so these games keep their digits."""

    @staticmethod
    def thin_loop(eps):
        # "leak" escapes from state 1 through state 2 with probability
        # eps^2 per round; "stay" holds state 1 at reward 1
        act = TestComponents._action
        return GameSpec("thin-loop", (
            StateSpec(1, "I", (act("leak", 1.0, 1.0, {1: 1 - eps, 2: eps}),
                               act("stay", 1.0, 1.0, {1: 1.0}))),
            StateSpec(2, "II", (act("back", 1.0, 1.0, {3: eps, 1: 1 - eps}),)),
            StateSpec(3, "II", (act("sink", 2.0, 1.0, {3: 1.0}),)),
        ))

    @staticmethod
    def two_loops(eps):
        # a transient block of two decision states under (leak, leak)
        act = TestComponents._action
        return GameSpec("two-loops", tuple(
            StateSpec(sid, "I", (act("leak", 1.0, 1.0, {sid: 1 - eps - eps * eps, 3 - sid: eps,
                                                       3: eps * eps}),
                                 act("stay", 1.0, 1.0, {sid: 1.0})))
            for sid in (1, 2)) + (StateSpec(3, "II", (act("sink", 2.0, 1.0, {3: 1.0}),)),))

    @staticmethod
    def _assert_exact(spec):
        report = solve(spec)
        for f in enumerate_pure(spec, "I"):
            for g in enumerate_pure(spec, "II"):
                for s, x in enumerate(exact_phi(spec, f, g)):
                    got = Fraction(float(report.payoffs[f.ordinal, g.ordinal, s]))
                    assert abs(got - x) <= Fraction(1, 10**13) * max(1, abs(x)), (f.label, s + 1)
        return report

    @pytest.mark.parametrize("eps", [10.0**-k for k in range(3, 12)])
    def test_thin_loop_matches_exact(self, eps):
        report = self._assert_exact(self.thin_loop(eps))
        assert report.value == (2.0, 2.0, 2.0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 2e-6])
    def test_two_decision_states_match_exact(self, eps):
        assert eps * eps > EPS_EDGE
        report = self._assert_exact(self.two_loops(eps))
        assert report.value == (2.0, 2.0, 2.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11])
    def test_escape_at_or_below_edge_threshold_is_no_edge(self, eps):
        # the standing fact: {1, 2} is then a closed class of reward 1
        assert eps * eps <= EPS_EDGE
        assert solve(self.two_loops(eps)).value == (1.0, 1.0, 2.0)

    def test_thin_loop_golden_is_this_game(self):
        # tests/data/thin_loop.json pins the CLI output at eps = 1e-5
        data = Path(__file__).parent / "data" / "thin_loop.json"
        assert parse_game(data.read_text()) == self.thin_loop(1e-5)


def _weak_closed_class(d):
    """Decision state 1 enters the one-action states 2 and 3, which form
    the closed class [[1 - d, d], [2d, 1 - 2d]] with rewards 2 and 3: its
    stationary row is (2/3, 1/3), so every value is 7/3."""
    act = TestComponents._action
    return GameSpec("weak-closed-class", (
        StateSpec(1, "I", (act("in", 1.0, 1.0, {2: 1.0}), act("across", 1.0, 1.0, {3: 1.0}))),
        StateSpec(2, "II", (act("stay", 2.0, 1.0, {2: 1 - d, 3: d}),)),
        StateSpec(3, "II", (act("stay", 3.0, 1.0, {3: 1 - 2 * d, 2: 2 * d}),)),
    ))


def _weak_three_state_class(d):
    """Decision state 1 enters the one-action states 2 <-> 3 <-> 4, a
    closed class coupled at d per round, at state 2 under its first
    action and at state 4 under its second. With rewards 2, 3 and 4 the
    stationary row is (2/5, 2/5, 1/5), so every value is 14/5. The
    class's node reads state 2's row, so the second action enters the
    class away from that row."""
    act = TestComponents._action
    return GameSpec("weak-three-state-class", (
        StateSpec(1, "I", (act("near", 1.0, 1.0, {2: 1.0}), act("far", 1.0, 1.0, {4: 1.0}))),
        StateSpec(2, "II", (act("stay", 2.0, 1.0, {2: 1 - d, 3: d}),)),
        StateSpec(3, "II", (act("stay", 3.0, 1.0, {2: d, 3: 1 - 2 * d, 4: d}),)),
        StateSpec(4, "II", (act("stay", 4.0, 1.0, {3: 2 * d, 4: 1 - 2 * d}),)),
    ))


_WEAK_CLASSES = [
    pytest.param(build, value, d, id=prefix + repr(d))
    for build, value, prefix in ((_weak_closed_class, Fraction(7, 3), ""),
                                 (_weak_three_state_class, Fraction(14, 5), "three-states-"))
    for d in (10.0**-k for k in range(6, 12))]


class TestWeakClosedClass:
    """The censoring's decision-free closed classes run through the GTH
    kernel, so a class coupled at d per round keeps every digit of its
    stationary row, whichever member a decision state enters."""

    @pytest.mark.parametrize("build, value, d", _WEAK_CLASSES)
    def test_matches_exact(self, build, value, d):
        spec = build(d)
        report = solve(spec)
        for f in enumerate_pure(spec, "I"):
            for g in enumerate_pure(spec, "II"):
                for s, x in enumerate(exact_phi(spec, f, g)):
                    assert x == value
                    got = Fraction(float(report.payoffs[f.ordinal, g.ordinal, s]))
                    assert abs(got - x) <= 2 * Fraction(np.spacing(float(x))), (f.label, s + 1)

    @staticmethod
    def _leaking_class(leak, d):
        """Decision states 1 and 2 trade d per round under their first
        actions, a class whose inner state is 2; state 1's second action
        enters the one-action state 3, which sends ``leak`` to state 2.
        At or below EPS_EDGE that is no edge, so {3} is a closed class."""
        act = TestComponents._action
        return GameSpec("leaking-class", (
            StateSpec(1, "I", (act("couple", 1.0, 1.0, {1: 1 - d, 2: d}),
                               act("leave", 1.0, 1.0, {3: 1.0}))),
            StateSpec(2, "II", (act("couple", 3.0, 1.0, {1: d, 2: 1 - d}),
                                act("stay", 3.0, 1.0, {2: 1.0}))),
            StateSpec(3, "I", (act("stay", 5.0, 1.0, {3: 1 - leak, 2: leak}),)),
        ))

    @pytest.mark.parametrize("leak", [EPS_EDGE, 1e-13])
    @pytest.mark.parametrize("d", [1e-8, 1e-10])
    def test_leak_out_of_a_class_moves_no_other_class(self, leak, d):
        # the leak is a hundredth of d at most: carried onto state 2's
        # node, it would raise 2's stationary weight in {1, 2} by as much
        leaking = solve(self._leaking_class(leak, d))
        assert leaking.payoffs[0, 0, 0] == 2.0
        np.testing.assert_array_equal(
            leaking.payoffs, solve(self._leaking_class(0.0, d)).payoffs)

    def test_golden_is_this_game(self):
        # tests/data/weak_closed_class.json pins the CLI output at d = 1e-10
        data = Path(__file__).parent / "data" / "weak_closed_class.json"
        assert parse_game(data.read_text()) == _weak_closed_class(1e-10)


class TestPlantedFaults:
    """Each check a solve runs catches a fault planted where it looks, and
    its message names the check. A wrapper plants the fault where no
    small game trips the check: validated sojourns keep every expected
    time positive, and the transient block's dense LU rarely fails."""

    def test_absorption_residual(self, monkeypatch):
        # the accumulated values of the first transient state, state 3,
        # are off by one, while the exit rows still sum to 1; no
        # transient state enters state 3, so its residual is exactly 1
        absorption = CENSOR_MODULE._absorption

        def planted(tt, rhs, k):
            x = absorption(tt, rhs, k)
            x[0, k:] += 1.0
            return x

        monkeypatch.setattr(CENSOR_MODULE, "_absorption", planted)
        with pytest.raises(NumericalError) as exc:
            solve(_unreachable_from_choices())
        assert str(exc.value) == (
            "pair (f1, g1): numerically degenerate chain: absorption residual 1.0 at state 3")

    def test_absorption_solve_failed(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(MARKOV_MODULE, "_solve", singular)
        with pytest.raises(NumericalError) as exc:
            solve(_unreachable_from_choices())
        assert str(exc.value) == (
            "pair (f1, g1): numerically degenerate chain: absorption solve failed: "
            "Singular matrix")

    def test_nonpositive_expected_time(self, monkeypatch):
        tables = CENSOR_MODULE.action_tables

        def timeless(spec):
            q, r, tau = tables(spec)
            return q, r, np.zeros(tau.shape)

        monkeypatch.setattr(CENSOR_MODULE, "action_tables", timeless)
        with pytest.raises(NumericalError) as exc:
            solve(_unreachable_from_choices())
        assert str(exc.value) == (
            "pair (f1, g1): nonpositive expected time in the limit; sojourn validation "
            "should have prevented this")

    def test_saddle_cells_disagree(self):
        # at 2^53 the doubles are 2 apart, so with eps = 1 the tolerance's
        # own roundings, B + 2 + 1 up to B + 4 and B + 2 - 1 down to B, let
        # cells B and B + 4 both pass as saddles of state 1's matrix
        # [[B, B, B, B], [B + 2, B + 4, B + 2, B + 4]]
        act, big = TestComponents._action, 2.0**53
        spec = GameSpec("rounded-saddles", (
            StateSpec(1, "I", (act("low", 0.0, 1.0, {2: 1.0}), act("high", 0.0, 1.0, {3: 1.0}))),
            StateSpec(2, "II", (act("x", big, 1.0, {2: 1.0}), act("y", big, 1.0, {2: 1.0}))),
            StateSpec(3, "II", (act("x", big + 2, 1.0, {3: 1.0}),
                                act("y", big + 4, 1.0, {3: 1.0}))),
        ))
        with pytest.raises(NumericalError) as exc:
            solve(spec, saddle_eps=1.0)
        assert str(exc.value) == (
            "saddle cells disagree beyond tolerance: values span "
            "[9007199254740992.0, 9007199254740996.0] with eps 1.0")


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
