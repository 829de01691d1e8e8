import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from pismg import enumerate_pure, parse_game
from pismg.cli import build_parser, main

from _exact import exact_phi
from _golden import GOLDEN, command

DATA = Path(__file__).resolve().parent / "data"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["cesaro", "--matrix", str(tmp_path / "q.json"), "--method", "magic"]
            )
        assert exc.value.code == 2

    def test_solve_takes_no_method(self, example_path):
        # a solve always uses the structural method
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["solve", str(example_path), "--method", "structural"])
        assert exc.value.code == 2


class TestValidate:
    def test_valid_game(self, capsys, example_path):
        code, out, err = _run(capsys, "validate", str(example_path))
        assert code == 0
        assert out.rstrip().endswith("ok")
        assert "player I states: [1, 2]" in out
        assert "player II states: [3, 4]" in out
        assert "D1 = 4" in out
        assert "D2 = 4" in out

    def test_invalid_game(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "bad", "states": [{"id": 1, "player": "I", "actions": '
            '[{"label": "a", "reward": 1.0, '
            '"sojourn": {"kind": "mean", "value": 1.0}, '
            '"transitions": [{"to": 1, "prob": 0.4}]}]}]}'
        )
        code, out, err = _run(capsys, "validate", str(bad))
        assert code == 1
        assert err.startswith("error:")
        assert "sum" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = _run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.startswith("error:")

    def test_json_format(self, capsys, example_path):
        code, out, err = _run(capsys, "validate", str(example_path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["s1"] == [1, 2] and doc["s2"] == [3, 4]
        assert doc["d1"] == 4 and doc["d2"] == 4
        assert doc["ok"] is True


class TestEnumerate:
    def test_counts(self, capsys, example_path):
        code, out, err = _run(capsys, "enumerate", str(example_path))
        assert code == 0
        assert "D1 = 4 pure stationary strategies" in out
        assert "D2 = 4 pure stationary strategies" in out

    def test_tables(self, capsys, example_path):
        code, out, err = _run(capsys, "enumerate", str(example_path), "--tables")
        assert code == 0
        assert "f3: 1->a2, 2->a1" in out
        assert "g4: 3->b2, 4->b2" in out

    def test_json_format(self, capsys, example_path):
        code, out, err = _run(
            capsys, "enumerate", str(example_path), "--format", "json", "--tables"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d1"] == 4 and doc["d2"] == 4
        third = doc["maximiser"][2]
        assert third["label"] == "f3"
        assert third["actions"] == {"1": "a2", "2": "a1"}


class TestCesaro:
    def test_csv_round_trip(self, capsys, tmp_path):
        src = tmp_path / "chain.csv"
        src.write_text("0.5,0.5\n0.25,0.75\n")
        code, out, err = _run(capsys, "cesaro", "--matrix", str(src))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        limit = [[float(cell) for cell in row] for row in rows]
        assert limit[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        assert limit[1] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        assert "method: structural" in err

    def test_json_with_method_choice(self, capsys, tmp_path):
        src = tmp_path / "swap.json"
        src.write_text("[[0.0, 1.0], [1.0, 0.0]]")
        code, out, err = _run(
            capsys, "cesaro", "--matrix", str(src), "--method", "averaging"
        )
        assert code == 0
        assert json.loads(out) == [[0.5, 0.5], [0.5, 0.5]]
        assert "iterations: 2" in err
        assert "converged: true" in err

    def test_lazari_reports_multiplicity(self, capsys, tmp_path):
        src = tmp_path / "id.json"
        src.write_text("[[1.0, 0.0], [0.0, 1.0]]")
        code, out, err = _run(
            capsys, "cesaro", "--matrix", str(src), "--method", "lazari"
        )
        assert code == 0
        assert "unit-root multiplicity: 2" in err

    def test_rejects_nonstochastic(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("0.5,0.6\n0.5,0.5\n")
        code, out, err = _run(capsys, "cesaro", "--matrix", str(src))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("rows, message", [
        ("1.1,0\n0,1\n", "row 0 sums to 1.1"),
        ("1.2,-0.2\n0,1\n", "negative entry -0.2 at (0, 1)"),
    ], ids=["row-sum", "negative-entry"])
    def test_nonstochastic_message_prints_plain_floats(self, capsys, tmp_path,
                                                       rows, message):
        src = tmp_path / "bad.csv"
        src.write_text(rows)
        code, out, err = _run(capsys, "cesaro", "--matrix", str(src))
        assert (code, out) == (1, "")
        assert err == f"error: not a stochastic matrix: {message}\n"

    def test_averaging_flags(self, capsys, tmp_path):
        # the swap chain converges at n = 2 under the default flags
        src = tmp_path / "swap.json"
        src.write_text("[[0, 1], [1, 0]]")
        code, out, err = _run(
            capsys, "cesaro", "--matrix", str(src), "--method", "averaging",
            "--averaging-n-max", "2",
        )
        assert code == 0
        assert "iterations: 2; converged: false" in err
        code, out, err = _run(
            capsys, "cesaro", "--matrix", str(src), "--method", "averaging",
            "--averaging-tol", "1",
        )
        assert code == 0
        assert "iterations: 1; converged: true" in err


class TestSolve:
    def test_text_report(self, capsys, example_path):
        code, out, err = _run(capsys, "solve", str(example_path))
        assert code == 0
        assert out.startswith("pismg 0.1.0")
        assert "state 1: 2.29851   saddle (f3, g1), multiplicity 4" in out
        assert "state 3: 2.9   saddle (f1, g3), multiplicity 8" in out
        assert "state 4: 2.65693" in out
        assert "state 1: f3: 1->a2, 2->a1" in out
        assert "state 3: g3: 3->b2, 4->b1" in out
        assert "2x2 certificate: pass for all initial states" in out
        assert "reference deltas:" in out
        assert "state 4: computed 2.65693 vs reference 0.9" in out

    def test_no_banner(self, capsys, example_path):
        code, out, err = _run(capsys, "solve", str(example_path), "--no-banner")
        assert code == 0
        assert "pismg 0.1.0" not in out

    def test_json_report(self, capsys, example_path):
        code, out, err = _run(capsys, "solve", str(example_path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"][0] == pytest.approx(2.2985074626865671, abs=1e-12)
        assert doc["value"][2] == 2.9
        assert doc["maximiser"][0]["label"] == "f3"
        assert doc["maximiser"][0]["actions"] == {"1": "a2", "2": "a1"}
        assert doc["minimiser"][2]["label"] == "g3"
        assert doc["method"] == "structural"
        assert doc["diagnostics"]["certificate_2x2"] == [True, True, True, True]
        assert doc["diagnostics"]["saddle_multiplicity"] == [4, 4, 8, 2]
        deltas = doc["diagnostics"]["reference_deltas"]
        assert len(deltas) == 1 and deltas[0]["state"] == 4
        assert "matrices" not in doc

    def test_emit_matrices(self, capsys, example_path):
        code, out, err = _run(
            capsys, "solve", str(example_path), "--format", "json", "--emit-matrices"
        )
        assert code == 0
        doc = json.loads(out)
        first = doc["matrices"][0]
        assert first["initial_state"] == 1
        assert len(first["entries"]) == 4 and len(first["entries"][0]) == 4
        assert first["entries"][0][0] == pytest.approx(2.1, abs=1e-12)
        assert doc["strategy_tables"]["maximiser"][2]["label"] == "f3"

    def test_json_is_byte_deterministic(self, capsys, example_path):
        _, first, _ = _run(capsys, "solve", str(example_path), "--format", "json")
        _, second, _ = _run(capsys, "solve", str(example_path), "--format", "json")
        assert first == second

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_saddle_tol_is_a_flag_error(self, capsys, example_path, tol):
        code, out, err = _run(capsys, "solve", str(example_path), "--saddle-tol", tol)
        assert code == 1
        assert out == ""
        assert "saddle tolerance" in err and tol in err
        assert "guarantee" not in err


class TestSimulateCommand:
    def test_ordinals(self, capsys, example_path):
        code, out, err = _run(
            capsys,
            "simulate", str(example_path),
            "--max", "2", "--min", "0",
            "--start", "1", "--horizon", "2000", "--reps", "20", "--seed", "7",
        )
        assert code == 0
        assert "pair: (f3, g1)" in out
        assert "estimate:" in out
        assert "stderr" in out
        assert "fixed-horizon" in out

    def test_labels_match_ordinals(self, capsys, example_path):
        argv = [
            "simulate", str(example_path),
            "--start", "1", "--horizon", "500", "--reps", "5", "--seed", "11",
        ]
        code_a, out_a, _ = _run(capsys, *argv, "--max", "2", "--min", "0")
        code_b, out_b, _ = _run(
            capsys, *argv, "--max", "1=a2,2=a1", "--min", "3=b1,4=b1"
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_json_output(self, capsys, example_path):
        code, out, err = _run(
            capsys,
            "simulate", str(example_path),
            "--max", "2", "--min", "0",
            "--start", "1", "--horizon", "1000", "--reps", "10", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"point", "stderr", "reps", "horizon", "seed", "note"}
        assert doc["reps"] == 10 and doc["seed"] == 3
        assert doc["maximiser"]["label"] == "f3"

    def test_bad_strategy_spec(self, capsys, example_path):
        code, out, err = _run(
            capsys,
            "simulate", str(example_path),
            "--max", "1=zzz", "--min", "0",
            "--start", "1", "--horizon", "10", "--reps", "2", "--seed", "0",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_non_integer_state_names_the_spec(self, capsys, example_path):
        code, out, err = _run(
            capsys, "simulate", str(example_path), "--max", "x=a1", "--min", "0"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: bad strategy spec 'x=a1'; expected 'state=label' or an ordinal\n"
        )

    def test_shared_label_needs_an_ordinal(self, capsys, tmp_path):
        # both actions of state 1 are labelled "a"; the solve plays the
        # second, so the label form must not quietly pick the first
        path = tmp_path / "twins.json"
        path.write_text(
            '{"name": "twins", "states": [{"id": 1, "player": "I", "actions": ['
            '{"label": "a", "reward": 1.0, "sojourn": {"kind": "mean", "value": 1.0},'
            ' "transitions": [{"to": 1, "prob": 1.0}]},'
            '{"label": "a", "reward": 3.0, "sojourn": {"kind": "mean", "value": 1.0},'
            ' "transitions": [{"to": 1, "prob": 1.0}]}]}]}'
        )
        code, out, _ = _run(capsys, "solve", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["maximiser"][0]["label"] == "f2"
        argv = ["simulate", str(path), "--min", "0", "--horizon", "10", "--reps", "2"]
        code, out, err = _run(capsys, *argv, "--max", "1=a")
        assert code == 1
        assert out == ""
        assert err == (
            "error: state 1: actions 1 and 2 are both labelled 'a'; "
            "give the strategy as an ordinal\n"
        )
        code, out, err = _run(capsys, *argv, "--max", "1")
        assert code == 0 and err == ""
        assert "pair: (f2, g1)" in out and "estimate: 3   (stderr 0)" in out

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "2**128"])
    def test_seed_out_of_range_names_it(self, capsys, example_path, seed):
        code, out, err = _run(
            capsys, "simulate", str(example_path), "--max", "2", "--min", "0",
            "--horizon", "10", "--reps", "2", "--seed", seed,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: seed {seed} out of range 0..2**128 - 1\n"

    def test_repeated_state_names_the_spec(self, capsys, example_path):
        code, out, err = _run(
            capsys, "simulate", str(example_path), "--max", "1=a1,1=a2,2=a1", "--min", "0"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: bad strategy spec '1=a1,1=a2,2=a1'; state 1 is chosen twice\n"
        )


def _assert_same_json(got, want, where="$"):
    """Keys, strings, ints, bools and nulls exactly; floats within 1e-12
    relative, since LAPACK builds may differ in the last ulp."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


class TestGoldenOutput:
    # the cases of tests/_golden.py, whose floats in JSON may differ here
    # by 1e-12 relative; run as a script, it compares every case exactly
    @pytest.mark.parametrize("name, game, argv", GOLDEN, ids=[c[0] for c in GOLDEN])
    def test_matches_expected(self, capsys, name, game, argv):
        code, out, err = _run(capsys, *command(game, argv))
        assert code == 0 and err == ""
        want = (DATA / name).read_text()
        if name.endswith(".json"):
            _assert_same_json(json.loads(out), json.loads(want))
        else:
            assert out == want

    def test_weak_coupling_golden_is_exact(self):
        # every matrix entry and value of the golden lies within one unit
        # in the last place of the exact rational payoff
        spec = parse_game((DATA / "weak_coupling.json").read_text())
        out = json.loads((DATA / "solve_weak_coupling.json").read_text())
        fs, gs = enumerate_pure(spec, "I"), enumerate_pure(spec, "II")
        for matrix, saddle, value in zip(out["matrices"], out["saddles"], out["value"]):
            s = matrix["initial_state"]
            for f, row in zip(fs, matrix["entries"]):
                for g, x in zip(gs, row):
                    want = exact_phi(spec, f, g)[s - 1]
                    assert abs(Fraction(x) - want) <= Fraction(math.ulp(float(want))), (s, f, g)
            assert value == saddle["value"] == matrix["entries"][saddle["row"]][saddle["col"]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cesaro_matches_expected(self, capsys, fmt):
        # two interleaved recurrent classes, {1, 4} and {3, 6}, and two
        # transient states; stdout and stderr byte for byte. Regenerate with
        # `pismg cesaro --matrix tests/data/cesaro_two_classes.<fmt>
        #  > tests/data/cesaro_two_classes_<fmt>.out
        #  2> tests/data/cesaro_two_classes_<fmt>.err`
        code, out, err = _run(
            capsys, "cesaro", "--matrix", str(DATA / f"cesaro_two_classes.{fmt}")
        )
        assert code == 0
        assert out == (DATA / f"cesaro_two_classes_{fmt}.out").read_text()
        assert err == (DATA / f"cesaro_two_classes_{fmt}.err").read_text()
