"""Release gate: one test per acceptance criterion, tolerances pinned.

Each test prints nothing itself; the conftest hook emits a one-line
PASS/FAIL summary per criterion at the end of the run. Corpus seeds are
frozen so the gate is deterministic.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from pismg import (
    cesaro,
    enumerate_pure,
    estimate_payoff,
    payoff_vector,
    saddle_tolerance,
    serialize_game,
    solve,
)

import _corpus
from _adjacent import adjacent_quadruple_gaps
from _corpus import scale_rewards, scale_sojourns


PHI_F1_CLASS = 2.1
PHI_F3 = float(Fraction(154, 67))
PHI_F2 = float(Fraction(134, 73))
VALUE_4 = float(Fraction(364, 137))

MATRIX_SEED = 90125
GAME_SEED = 424242
SCALING_SEED = 777
MC_SEED = 20240817


def test_criterion_1_confirmed_pair_payoffs(example_spec):
    t0 = time.perf_counter()
    fs = enumerate_pure(example_spec, "I")
    gs = enumerate_pure(example_spec, "II")

    for g in gs:
        phi = payoff_vector(example_spec, fs[0], g)
        assert phi[0] == pytest.approx(PHI_F1_CLASS, abs=1e-12)
        assert phi[1] == pytest.approx(PHI_F1_CLASS, abs=1e-12)

        phi3 = payoff_vector(example_spec, fs[2], g)
        assert phi3[0] == pytest.approx(PHI_F3, abs=5e-4)
        assert phi3[1] == pytest.approx(PHI_F3, abs=5e-4)

        phi2 = payoff_vector(example_spec, fs[1], g)
        assert phi2[0] == pytest.approx(PHI_F2, abs=5e-4)
        assert phi2[1] == pytest.approx(PHI_F2, abs=5e-4)

    for f in fs:
        for g in gs:
            phi = payoff_vector(example_spec, f, g)
            expected = 3.0 if g.action_at(3) == 0 else 2.9
            assert phi[2] == pytest.approx(expected, abs=1e-12)

    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_example_solution(example_spec):
    t0 = time.perf_counter()
    report = solve(example_spec)
    v = report.value

    assert abs(v[0] - v[1]) < 1e-12
    assert v[0] == pytest.approx(PHI_F3, abs=5e-4)
    for s in (1, 2):
        best = report.maximiser.for_state(s)
        assert best.ordinal == 2
        assert best.actions == (1, 0)

    assert v[2] == pytest.approx(2.9, abs=1e-12)
    assert report.minimiser.for_state(3).action_at(3) == 1

    assert v[3] == pytest.approx(VALUE_4, abs=1e-6)

    deltas = report.diagnostics["reference_deltas"]
    assert len(deltas) == 1
    assert deltas[0]["state"] == 4
    assert deltas[0]["reference"] == 0.9

    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_limit_methods_agree():
    t0 = time.perf_counter()
    for q in _corpus.matrix_corpus(100, seed=MATRIX_SEED):
        structural = cesaro(q, method="structural").q_star
        lazari = cesaro(q, method="lazari").q_star
        averaging = cesaro(
            q, method="averaging", averaging_tol=1e-10, averaging_n_max=2**40
        ).q_star

        assert np.max(np.abs(lazari - structural)) < 1e-8
        assert np.max(np.abs(averaging - structural)) < 1e-6

        for a in (structural, lazari, averaging):
            assert np.max(np.abs(a @ q - a)) < 1e-8
            assert np.max(np.abs(q @ a - a)) < 1e-8
            assert np.max(np.abs(a @ a - a)) < 1e-8

    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_saddle_existence_over_corpus(tmp_path_factory):
    t0 = time.perf_counter()
    dump_dir = tmp_path_factory.mktemp("criterion4")

    def dump(spec):
        path = dump_dir / f"{spec.name}.json"
        path.write_text(serialize_game(spec))
        return path

    for spec in _corpus.game_corpus(200, seed=GAME_SEED):
        try:
            report = solve(spec)
        except Exception as e:
            pytest.fail(f"{spec.name}: solve failed ({e}); game dumped to {dump(spec)}")

        fs = enumerate_pure(spec, "I")
        gs = enumerate_pure(spec, "II")
        for state_index, sr in enumerate(report.per_state, start=1):
            a = report.payoffs[:, :, state_index - 1]
            eps = saddle_tolerance(a)
            maximin = a.min(axis=1).max()
            minimax = a.max(axis=0).min()
            if maximin < minimax - eps or not sr.exists:
                pytest.fail(
                    f"{spec.name} state {state_index}: no pure saddle "
                    f"(maximin {maximin!r} vs minimax {minimax!r}); "
                    f"game dumped to {dump(spec)}"
                )
            assert len(sr.all_saddles) >= 1

            # The paper's theorem applied to the sub-game that frees one
            # state per player: every adjacent 2x2 block has a pure
            # saddle. The all-pairs sweep (certificate_2x2) is stronger
            # than the theorem and is refuted by
            # test_solve.py::TestAdjacentPairProperty, so it is not asserted.
            gaps, ri, ri2, ci, ci2 = adjacent_quadruple_gaps(a, fs, gs)
            if gaps.size and gaps.max() > eps:
                p, q = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
                pytest.fail(
                    f"{spec.name} state {state_index}: adjacent quadruple "
                    f"rows (f{ri[p] + 1}, f{ri2[p] + 1}) x columns "
                    f"(g{ci[q] + 1}, g{ci2[q] + 1}) has no pure saddle "
                    f"(minimax - maximin {float(gaps[p, q])!r} > eps {eps!r}); "
                    f"game dumped to {dump(spec)}"
                )

    assert time.perf_counter() - t0 < 120.0


def test_criterion_5_scaling_invariance():
    t0 = time.perf_counter()
    for spec in _corpus.game_corpus(50, seed=SCALING_SEED):
        base = solve(spec)

        rewarded = solve(scale_rewards(spec, 3.7))
        assert np.allclose(
            rewarded.payoffs, 3.7 * base.payoffs, rtol=1e-10, atol=1e-12
        )
        for sr_base, sr_new in zip(base.per_state, rewarded.per_state):
            assert sr_new.all_saddles == sr_base.all_saddles
            assert (sr_new.row, sr_new.col) == (sr_base.row, sr_base.col)

        slowed = solve(scale_sojourns(spec, 2.5))
        assert np.allclose(
            slowed.payoffs, base.payoffs / 2.5, rtol=1e-10, atol=1e-12
        )
        for sr_base, sr_new in zip(base.per_state, slowed.per_state):
            assert sr_new.all_saddles == sr_base.all_saddles
            assert (sr_new.row, sr_new.col) == (sr_base.row, sr_base.col)

    assert time.perf_counter() - t0 < 120.0


def test_criterion_6_monte_carlo_consistency(example_spec):
    t0 = time.perf_counter()
    fs = enumerate_pure(example_spec, "I")
    gs = enumerate_pure(example_spec, "II")

    est = estimate_payoff(
        example_spec, fs[2], gs[0], start=1, horizon=10_000, reps=200, seed=MC_SEED
    )
    assert abs(est.point - PHI_F3) <= max(0.01 * abs(PHI_F3), 3 * est.stderr)

    absorbed = estimate_payoff(
        example_spec, fs[0], gs[0], start=3, horizon=10_000, reps=200, seed=MC_SEED
    )
    assert abs(absorbed.point - 3.0) <= max(0.03, 3 * absorbed.stderr)

    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_cli_determinism(example_path):
    solve_cmd = [
        sys.executable, "-m", "pismg",
        "solve", str(example_path), "--format", "json",
    ]
    first = subprocess.run(solve_cmd, capture_output=True, check=True)
    second = subprocess.run(solve_cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["value"][0] == pytest.approx(PHI_F3, abs=5e-4)

    sim_cmd = [
        sys.executable, "-m", "pismg",
        "simulate", str(example_path),
        "--max", "2", "--min", "0",
        "--start", "1", "--horizon", "2000", "--reps", "10", "--seed", "5",
        "--format", "json",
    ]
    first = subprocess.run(sim_cmd, capture_output=True, check=True)
    second = subprocess.run(sim_cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
