"""Span tracing at the pismg layer boundaries, and the per-layer metrics
derived from the spans.

:class:`Tracer` replaces public functions at the module attributes
through which pismg calls them (``pismg.solve.induce`` is the name the
solver looks up, not ``pismg.strategies.induce``), so no program file is
touched. Each call becomes a span (name, start, end, parent, op); the
spans stay in flat arrays in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute) for every wrapped boundary. A function
# that pismg reaches through two module attributes is listed twice
# under one name.
WRAPPED = (
    ("game.parse_game", "pismg.game", "parse_game"),
    ("game.validate", "pismg.game", "validate"),
    ("game.validate", "pismg.solve", "validate"),
    ("strategies.enumerate_pure", "pismg.solve", "enumerate_pure"),
    ("strategies.induce", "pismg.solve", "induce"),
    ("markov.cesaro", "pismg.solve", "cesaro"),
    ("solve.payoff_vector", "pismg.solve", "payoff_vector"),
    ("solve.build_payoff_matrix", "pismg.solve", "build_payoff_matrix"),
    ("solve.find_pure_saddle", "pismg.solve", "find_pure_saddle"),
    ("solve.check_all_2x2", "pismg.solve", "check_all_2x2"),
    ("solve.solve", "pismg.solve", "solve"),
    ("simulate.estimate_payoff", "pismg.simulate", "estimate_payoff"),
)
NAMES = tuple(dict.fromkeys(name for name, _, _ in WRAPPED))


class Tracer:
    """Records spans while entered as a context manager. ``op`` is set by
    the caller to the index of the operation in flight, so spans of one
    operation share it."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        self.op = -1
        self._stack: list[int] = []
        # span index -> (rows, cols, passed) for check_all_2x2 and
        # span index -> epochs for estimate_payoff
        self.certificates: dict[int, tuple[int, int, bool]] = {}
        self.epochs: dict[int, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        code = NAMES.index(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.end)
            self.name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if name == "solve.check_all_2x2":
                rows, cols = np.shape(args[0])
                self.certificates[idx] = (rows, cols, result.passed)
            elif name == "simulate.estimate_payoff":
                self.epochs[idx] = result.reps * result.horizon
            return result

        return traced

    def __enter__(self):
        """Install the wrappers."""
        for name, module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        """Put the original functions back."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_of, dtype=np.int64),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Counts, busy times and self times per layer. A span's self
        time is its duration minus the durations of its direct
        children (calls are synchronous, so children never overlap)."""
        name = np.frombuffer(self.name, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child

        def calls(n):
            return int(np.count_nonzero(name == NAMES.index(n)))

        def busy(n):
            return float(dur[name == NAMES.index(n)].sum())

        def own(n):
            return float(self_time[name == NAMES.index(n)].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        passed = [(idx, r, c) for idx, (r, c, ok) in self.certificates.items() if ok]
        quadruples = sum(math.comb(r, 2) * math.comb(c, 2) for _, r, c in passed)
        sweep_s = float(sum(dur[idx] for idx, _, _ in passed))
        epochs = sum(self.epochs.values())
        return {
            "game.parse_s": busy("game.parse_game"),
            "game.validate_s": busy("game.validate"),
            "game.validate.calls": calls("game.validate"),
            "strategies.enumerate_pure.calls": calls("strategies.enumerate_pure"),
            "strategies.enumerate_pure_s": busy("strategies.enumerate_pure"),
            "strategies.induce.calls": calls("strategies.induce"),
            "strategies.induce_s": busy("strategies.induce"),
            "strategies.induce_us_per_call": 1e6 * ratio(
                busy("strategies.induce"), calls("strategies.induce")),
            "markov.cesaro.calls": calls("markov.cesaro"),
            "markov.cesaro_s": busy("markov.cesaro"),
            "markov.cesaro_us_per_call": 1e6 * ratio(busy("markov.cesaro"), calls("markov.cesaro")),
            "solve.payoff_vector.calls": calls("solve.payoff_vector"),
            "solve.payoff_vector_self_s": own("solve.payoff_vector"),
            "solve.pair_reuse": ratio(calls("solve.payoff_vector"), calls("markov.cesaro")),
            "solve.build_payoff_matrix_self_s": own("solve.build_payoff_matrix"),
            "solve.solve_self_s": own("solve.solve"),
            "solve.find_pure_saddle.calls": calls("solve.find_pure_saddle"),
            "solve.find_pure_saddle_s": busy("solve.find_pure_saddle"),
            "solve.check_all_2x2.calls": calls("solve.check_all_2x2"),
            "solve.check_all_2x2_s": busy("solve.check_all_2x2"),
            "solve.quadruples_full_sweep": quadruples,
            "solve.check_all_2x2_ns_per_quadruple": 1e9 * ratio(sweep_s, quadruples),
            "solve.certificate_pass_share": ratio(len(passed), len(self.certificates)),
            "simulate.estimate_payoff.calls": calls("simulate.estimate_payoff"),
            "simulate.estimate_payoff_s": busy("simulate.estimate_payoff"),
            "simulate.epochs": epochs,
            "simulate.ns_per_epoch": 1e9 * ratio(busy("simulate.estimate_payoff"), epochs),
        }
