"""The benchmark's tracer (perfbench/spans.py) wraps pismg functions at
module attributes that pismg looks up per call. Every wrapped attribute
must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pismg import parse_game, solve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    loader_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(module)
    return module


def _wrapped():
    return _spans().WRAPPED


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for _, module, attr in _wrapped()],
    ids=lambda value: value,
)
def test_wrapped_attribute_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_both_validate_sites_see_their_calls(example_path):
    # parse_game validates through pismg.game and solve through
    # pismg.solve; the second call returns the spec's kept report, and
    # the tracer still counts it
    with _spans().Tracer() as tracer:
        solve(parse_game(example_path.read_text()))
    assert tracer.layer_metrics()["game.validate.calls"] == 2
