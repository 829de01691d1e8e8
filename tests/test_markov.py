import importlib
import importlib.util
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pismg import (
    NumericalError,
    cesaro,
    cesaro_averaging,
    cesaro_lazari,
    cesaro_structural,
    char_poly,
    decompose_chain,
    deflate_unit_root,
    enumerate_pure,
    game_from_jsonable,
    induce,
    parse_game,
    solve,
    validate_stochastic,
)
from pismg.censor import _sinks, censor
from pismg.markov import EPS_EDGE, EPS_PROJ, _closure, structural_limits
from pismg.strategies import action_tables

import _corpus
from _exact import exact_limit

MARKOV_MODULE = importlib.import_module("pismg.markov")

IDENTITY2 = np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
# stationary distribution (4/7, 3/7)
TWO_STATE = np.array([[0.5, 0.5], [2 / 3, 1 / 3]])
# two recurrent classes ({0,1} and {2}) plus one transient state;
# stationary of the first class is (3/7, 4/7)
FOUR_STATE = np.array(
    [
        [1 / 3, 2 / 3, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
    ]
)
FOUR_STATE_LIMIT = np.array(
    [
        [3 / 7, 4 / 7, 0.0, 0.0],
        [3 / 7, 4 / 7, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [3 / 14, 2 / 7, 0.5, 0.0],
    ]
)


def _assert_limit_invariants(q_star, q, tol=EPS_PROJ):
    assert np.max(np.abs(q_star.sum(axis=1) - 1.0)) <= tol
    assert q_star.min() >= -tol
    for prod in (q_star @ q, q @ q_star, q_star @ q_star):
        assert np.max(np.abs(prod - q_star)) <= tol


class TestValidateStochastic:
    def test_accepts_within_tolerance(self):
        q = np.array([[0.5, 0.5 + 5e-10], [1 / 3, 2 / 3]])
        assert validate_stochastic(q).shape == (2, 2)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(NumericalError, match="row 1 sums"):
            validate_stochastic(np.array([[1.0, 0.0], [0.4, 0.4]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(NumericalError, match="negative entry"):
            validate_stochastic(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(NumericalError, match="shape"):
            validate_stochastic(np.ones((2, 3)) / 3)

    @pytest.mark.parametrize("routine", [decompose_chain, cesaro_structural])
    def test_structural_routines_validate(self, routine):
        with pytest.raises(NumericalError, match="row 1 sums"):
            routine([[1.0, 0.0], [0.4, 0.4]])

    @pytest.mark.parametrize("q, message", [
        ([[1.0, 0.0], [0.4, 0.4]], "row (4, 5) sums to 0.8"),
        ([[0.5, 0.5], [-0.2, 1.2]], "negative entry -0.2 at ((4, 5), 3)"),
    ])
    def test_censored_stack_names_rows_by_their_states(self, q, message):
        # node 0 stands for state 3, node 1 for the closed class {4, 5}
        with pytest.raises(NumericalError) as exc:
            structural_limits(np.array(q)[..., None], states=[(3,), (4, 5)])
        assert str(exc.value) == f"not a stochastic matrix: {message}"


class TestCharPoly:
    def test_identity(self):
        # det(I - zI) = (1 - z)^2
        assert np.allclose(char_poly(IDENTITY2), [1.0, -2.0, 1.0], atol=1e-14)

    def test_swap(self):
        # det(Q - zI) = z^2 - 1
        assert np.allclose(char_poly(SWAP), [-1.0, 0.0, 1.0], atol=1e-14)

    def test_two_state(self):
        assert np.allclose(char_poly(TWO_STATE), [-1 / 6, -5 / 6, 1.0], atol=1e-12)

    def test_four_state(self):
        # z (z - 1)^2 (z + 1/6)
        expected = [0.0, 1 / 6, 2 / 3, -11 / 6, 1.0]
        assert np.allclose(char_poly(FOUR_STATE), expected, atol=1e-12)

    def test_leading_coefficient_sign(self):
        for n in (2, 3, 4, 5):
            p = char_poly(np.eye(n))
            assert p[-1] == (-1.0) ** n

    def test_refuses_large_dimension(self):
        with pytest.raises(NumericalError, match="refuses dimension 13"):
            char_poly(np.eye(13))

    def test_matches_determinant_off_spectrum(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6, 8):
            q = _corpus.random_stochastic(rng, n)
            p = char_poly(q)
            for z in (2.0, -1.5, 3.7):
                direct = np.linalg.det(q - z * np.eye(n))
                horner = float(np.polynomial.polynomial.polyval(z, p))
                assert horner == pytest.approx(direct, rel=1e-6)

    def test_vanishes_at_one_on_corpus(self):
        for q in _corpus.matrix_corpus(20, seed=11):
            p = char_poly(q)
            at_one = float(np.polynomial.polynomial.polyval(1.0, p))
            assert abs(at_one) <= 1e-7 * max(1.0, np.max(np.abs(p)))


class TestDeflation:
    def test_double_unit_root(self):
        m1, quotient = deflate_unit_root([1.0, -2.0, 1.0])
        assert m1 == 2
        assert np.allclose(quotient, [1.0], atol=1e-14)

    def test_simple_unit_root(self):
        m1, quotient = deflate_unit_root([-1.0, 0.0, 1.0])
        assert m1 == 1
        assert np.allclose(quotient, [1.0, 1.0], atol=1e-14)

    def test_two_state_quotient(self):
        m1, quotient = deflate_unit_root(char_poly(TWO_STATE))
        assert m1 == 1
        assert np.allclose(quotient, [1 / 6, 1.0], atol=1e-12)

    def test_four_state_quotient(self):
        m1, quotient = deflate_unit_root(char_poly(FOUR_STATE))
        assert m1 == 2
        assert np.allclose(quotient, [0.0, 1 / 6, 1.0], atol=1e-12)

    def test_rejects_poly_without_unit_root(self):
        with pytest.raises(NumericalError, match="not stochastic-like"):
            deflate_unit_root([1.0, 1.0])  # z + 1

    def test_sub_tolerance_root_merges_into_unit_root(self):
        # (z - 1)(z - (1 + 1e-12)): the neighbour is indistinguishable
        # from 1 at the deflation tolerance, so both count as unit roots
        eps = 1e-12
        p = np.array([1.0 + eps, -(2.0 + eps), 1.0])
        m1, quotient = deflate_unit_root(p)
        assert m1 == 2
        assert np.allclose(quotient, [1.0], atol=1e-9)

    def test_rejects_vanishing_polynomial(self):
        with pytest.raises(NumericalError, match="ill-conditioned"):
            deflate_unit_root([0.0, 0.0, 1e-9])

    def test_multiplicity_counts_recurrent_classes(self):
        for q in _corpus.matrix_corpus(30, seed=23):
            if q.shape[0] > 8:
                continue
            m1, _ = deflate_unit_root(char_poly(q))
            assert m1 == len(decompose_chain(q).recurrent_classes)


class TestLazari:
    def test_identity(self):
        result = cesaro_lazari(IDENTITY2)
        assert result.m1 == 2
        assert np.allclose(result.q_star, IDENTITY2, atol=1e-14)

    def test_swap_is_periodic_but_averages(self):
        result = cesaro_lazari(SWAP)
        assert result.m1 == 1
        assert np.allclose(result.q_star, np.full((2, 2), 0.5), atol=1e-14)

    def test_two_state(self):
        result = cesaro_lazari(TWO_STATE)
        assert np.allclose(
            result.q_star, [[4 / 7, 3 / 7], [4 / 7, 3 / 7]], atol=1e-12
        )

    def test_four_state(self):
        result = cesaro_lazari(FOUR_STATE)
        assert result.m1 == 2
        assert np.allclose(result.q_star, FOUR_STATE_LIMIT, atol=1e-12)

    def test_refuses_large_dimension(self):
        with pytest.raises(NumericalError, match="structural method"):
            cesaro_lazari(np.eye(13))

    def test_invariants_on_corpus(self):
        for q in _corpus.matrix_corpus(30, seed=31):
            result = cesaro_lazari(q)
            _assert_limit_invariants(result.q_star, q)


class TestAveraging:
    def test_identity_converges_immediately(self):
        result = cesaro_averaging(IDENTITY2)
        assert result.converged
        assert result.iterations == 1
        assert np.array_equal(result.q_star, IDENTITY2)

    def test_swap_converges_at_two(self):
        result = cesaro_averaging(SWAP)
        assert result.converged
        assert result.iterations == 2
        assert np.allclose(result.q_star, np.full((2, 2), 0.5), atol=1e-15)

    def test_cap_flags_nonconvergence(self):
        result = cesaro_averaging(TWO_STATE, tol=1e-18, n_max=8)
        assert not result.converged
        assert result.iterations >= 8

    def test_matches_structural_on_random_5x5(self):
        rng = np.random.default_rng(55)
        q = _corpus.random_stochastic(rng, 5)
        exact = cesaro_structural(q).q_star
        result = cesaro_averaging(q, tol=1e-10, n_max=2**35)
        assert result.converged
        assert np.max(np.abs(result.q_star - exact)) < 1e-8


class TestDecompose:
    def test_identity_two_singleton_classes(self):
        dec = decompose_chain(IDENTITY2)
        assert dec.recurrent_classes == ((0,), (1,))
        assert dec.transient == ()
        assert all(np.allclose(pi, [1.0]) for pi in dec.stationary)

    @pytest.mark.parametrize(
        "q",
        # the 10-cycle 0 -> 1 -> ... -> 9 -> 0 closes only after 9 steps
        [np.full((3, 3), 1 / 3), np.roll(np.eye(10), 1, axis=1)],
        ids=["complete3", "cycle10"],
    )
    def test_single_closed_class(self, q):
        n = q.shape[0]
        dec = decompose_chain(q)
        assert dec.recurrent_classes == (tuple(range(n)),)
        assert dec.transient == ()
        assert np.allclose(dec.stationary[0], [1 / n] * n, atol=1e-14)

    def test_four_state_structure(self):
        dec = decompose_chain(FOUR_STATE)
        assert dec.recurrent_classes == ((0, 1), (2,))
        assert dec.transient == (3,)
        assert np.allclose(dec.stationary[0], [3 / 7, 4 / 7], atol=1e-14)
        assert np.allclose(dec.stationary[1], [1.0], atol=1e-15)
        assert np.allclose(dec.absorption, [[0.5, 0.5]], atol=1e-14)

    @pytest.mark.parametrize("n", [3, 10])
    def test_chained_transients(self, n):
        # 0 -> 1 -> ... -> n-1 (absorbing): every other state is transient
        q = np.eye(n, k=1)
        q[-1, -1] = 1.0
        dec = decompose_chain(q)
        assert dec.recurrent_classes == ((n - 1,),)
        assert dec.transient == tuple(range(n - 1))
        assert np.allclose(dec.absorption, np.ones((n - 1, 1)), atol=1e-14)

    def test_checks_the_limit(self, monkeypatch):
        # every stationary row the first state of its class: rows sum to 1
        # and lie in [0, 1], so only the projection identities see it
        kernel = MARKOV_MODULE._structural_stack

        def first_state(qs, *args):
            lower, upper, reaches, recurrent = kernel(qs, *args)
            members = reaches & recurrent[:, None]
            planted = np.zeros(upper.shape)
            for k, c in zip(*np.nonzero(members.any(axis=0))):
                planted[k, members[:, k, c].argmax(), c] = 1.0
            return lower, planted, reaches, recurrent

        monkeypatch.setattr(MARKOV_MODULE, "_structural_stack", first_state)
        with pytest.raises(NumericalError) as exc:
            decompose_chain([[0.5, 0.5], [0.5, 0.5]])
        assert str(exc.value) == "structural: projection identity Q*Q = Q* violated by 0.5"

    def test_entry_at_edge_threshold_is_no_edge(self):
        # 1e-13 <= EPS_EDGE, so 0 -> 1 is no edge and 0 is absorbing
        dec = decompose_chain([[1.0 - 1e-13, 1e-13], [0.0, 1.0]])
        assert dec.recurrent_classes == ((0,), (1,))
        assert dec.transient == ()


def _fixpoint_closure(reach):
    # square until a product changes nothing
    while True:
        closure = np.sign(reach @ reach)
        if np.array_equal(closure, reach):
            return reach
        reach = closure


class TestClosure:
    """Warshall's closure of a chain-last stack against squaring to a
    fixpoint, one graph at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 17, 40])
    def test_matches_fixpoint_on_random_graphs(self, n):
        rng = np.random.default_rng(n)
        for density in (0.02, 0.1, 0.3):
            # a stack of graphs, closed together
            edges = rng.random((6, n, n)) < density
            reach = (edges | np.eye(n, dtype=bool)).astype(float)
            closed = _closure(edges.transpose(1, 2, 0)).transpose(2, 0, 1)
            assert np.array_equal(closed, [_fixpoint_closure(r) > 0 for r in reach])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 17, 33, 150])
    def test_path_graph_needs_every_squaring(self, n):
        # 0 -> 1 -> ... -> n-1 has diameter n - 1: the closure is the upper
        # triangle, which no fewer than ceil(log2(n - 1)) squarings reach,
        # and which Warshall's steps reach from either end
        reach = np.eye(n) + np.eye(n, k=1)
        expected = np.triu(np.ones((n, n)))
        assert np.array_equal(_fixpoint_closure(reach), expected)
        path = np.eye(n, k=1, dtype=bool)
        assert np.array_equal(_closure(path[..., None])[..., 0], expected)
        assert np.array_equal(_closure(path[::-1, ::-1, None])[..., 0], expected[::-1, ::-1])


def _sink_reach(rows: np.ndarray, decision: np.ndarray) -> np.ndarray:
    """Reflexive reachability closure of the (n, n) transition ``rows``
    (edges > EPS_EDGE) with the ``decision`` states made sinks: entry
    (i, j) is 1 when some path from i to j enters no decision state
    before its end. A dense reference for the censoring's SCC pass."""
    edges = rows > EPS_EDGE
    edges[decision] = False
    return _fixpoint_closure((edges | np.eye(len(rows), dtype=bool)).astype(float))


def _closure_sinks(rows: np.ndarray, decision: np.ndarray) -> tuple:
    """``(open_, classes, enters)`` of :func:`pismg.censor._sinks`, read
    off the dense closure: a state is open when it reaches a state that
    does not reach it back, a closed state's class is every state with
    the same first reached state, and a state enters the nodes whose
    states it reaches."""
    n, c = len(rows), len(decision)
    reach0 = _sink_reach(rows, decision)
    open_ = (reach0 > reach0.T).any(axis=1)
    closed = ~open_
    closed[decision] = False
    heads = reach0.argmax(axis=1)
    classes = tuple(np.flatnonzero(closed & (heads == h))
                    for h in sorted(set(heads[closed].tolist())))
    nodes = np.zeros((n, c + len(classes)))
    nodes[decision, np.arange(c)] = 1.0
    for j, idx in enumerate(classes):
        nodes[idx, c + j] = 1.0
    return open_, classes, np.sign(reach0 @ nodes)


def _assert_sinks_match(rows, decision):
    rows = np.asarray(rows, dtype=float)
    decision = np.asarray(decision, dtype=np.intp)
    got_open, got_classes, got_enters = _sinks(rows, decision)
    want_open, want_classes, want_enters = _closure_sinks(rows, decision)
    assert np.array_equal(got_open, want_open)
    assert [idx.tolist() for idx in got_classes] == [idx.tolist() for idx in want_classes]
    assert got_enters.dtype == want_enters.dtype and got_enters.flags.c_contiguous
    assert np.array_equal(got_enters, want_enters)


def _first_action_rows(spec):
    """A game's rows under every state's first action, and its decision
    states, as a solve censors them."""
    q, _, _ = action_tables(spec)
    return q[:, 0], np.flatnonzero([len(st.actions) > 1 for st in spec.states])


def _perfbench_games(workload: str, seed: int, count: int):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    loader_spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(gen)
    return [game_from_jsonable(obj) for obj in itertools.islice(gen.games(workload, seed), count)]


class TestSinkComponents:
    """The censoring's one strongly-connected-components pass against
    the dense closure it replaced: the same open states, the same closed
    classes in the same order, and the same 0/1 entry supports."""

    def test_corpus(self):
        for spec in _corpus.game_corpus(200, 424242):
            _assert_sinks_match(*_first_action_rows(spec))

    def test_long_benchmark_games(self):
        for spec in _perfbench_games("long", 424242, 40):
            _assert_sinks_match(*_first_action_rows(spec))

    @pytest.mark.parametrize("rows, decision", [
        # a cycle of one-action states 0 -> 1 -> 2 -> 0 draining into the
        # decision state 3
        ([[0, 1, 0, 0], [0, 0, 1, 0], [0.5, 0, 0, 0.5], [1, 0, 0, 0]], [3]),
        # the closed class {2, 3} entered only through the transient
        # states 1 and 4
        ([[0, 1, 0, 0, 0], [0, 0, 0.5, 0, 0.5], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
          [0, 0, 0, 1, 0]], [0]),
        # an entry of exactly EPS_EDGE is no edge, one of 2e-12 is
        ([[1 - EPS_EDGE - 2e-12, EPS_EDGE, 2e-12], [0, 1, 0], [0, 0, 1]], []),
        # state 0's only edge is its self-loop
        ([[1, 0, 0], [0.5, 0, 0.5], [0, 1, 0]], [2]),
        ([[1.0]], []),
        ([[1.0]], [0]),
    ], ids=["cycle-into-decision", "class-behind-transients", "eps-edge", "self-loop",
            "n1-closed", "n1-decision"])
    def test_hand_built(self, rows, decision):
        _assert_sinks_match(rows, decision)


class TestDecisionReach:
    """Chains that differ only in the rows of a few decision states,
    censored to those states and their decision-free closed classes:
    every class of a full chain that holds a decision state or is closed
    without one is a class of its censored chain, each state reaches the
    same classes (0/1, exactly), and the absorption and stationary
    probabilities agree with the full chain's. With every state a
    decision state the censoring is the identity, bit for bit."""

    @pytest.mark.parametrize("n, c", [(1, 0), (1, 1), (2, 0), (2, 1), (5, 2), (8, 0),
                                      (8, 3), (8, 8), (30, 4)])
    def test_matches_every_state_as_decision(self, n, c):
        rng = np.random.default_rng(100 * n + c)
        for _ in range(20):
            decision = np.sort(rng.choice(n, size=c, replace=False))
            shared = _corpus.random_stochastic(rng, n)
            _assert_sinks_match(shared, decision)
            closed, exits, enters, _, _ = censor(shared, decision, np.ones((n, 1)))
            s = exits.shape[1]
            assert s == c + len(closed)
            for _ in range(5):
                q = shared.copy()
                q[decision] = _corpus.random_stochastic(rng, n)[decision]
                # a closed class's node stays put
                nodes, edges = np.eye(s), np.eye(s, dtype=bool)
                nodes[:c] = q[decision] @ exits
                edges[:c] = (q[decision] > EPS_EDGE).astype(float) @ enters > 0
                lower, upper, reaches = (x[..., 0] for x in structural_limits(
                    nodes[..., None], edges[..., None]))
                full = cesaro_structural(q)
                if c == n:
                    assert np.array_equal(nodes, q)
                    assert np.array_equal(lower @ upper, full.q_star)
                self._agree(q, decision, closed, exits, enters, lower, upper, reaches, full)

    @staticmethod
    def _agree(q, decision, closed, exits, enters, lower, upper, reaches, full):
        n, c = len(q), len(decision)
        dec = full.decomposition
        # the state behind each censored class's first node
        state_of = list(decision) + [idx[0] for idx in closed]
        cls_of = {x: k for k, members in enumerate(dec.recurrent_classes) for x in members}
        heads = [np.flatnonzero(upper[k])[0] for k in range(upper.shape[0]) if upper[k].any()]
        assert len(set(heads)) == len(heads)
        full_reach = _fixpoint_closure(((q > EPS_EDGE) | np.eye(n, dtype=bool)).astype(float))
        for k, head in enumerate(heads):
            members = dec.recurrent_classes[cls_of[state_of[head]]]
            mass = full.q_star[:, list(members)].sum(axis=1)
            np.testing.assert_allclose(exits @ lower[:, k], mass, rtol=0, atol=1e-12)
            assert np.array_equal(enters @ reaches[:, k] > 0,
                                  full_reach[:, members[0]] > 0)
            chosen = [i for i in range(c) if decision[i] in members]
            if chosen:
                pi = full.q_star[members[0], decision[chosen]]
                np.testing.assert_allclose(upper[k, chosen], pi / pi.sum(), rtol=0, atol=1e-12)
        # every full class reached from a decision state or closed without one
        # is some censored class
        kept = {cls_of[state_of[head]] for head in heads}
        for k, members in enumerate(dec.recurrent_classes):
            holds = any(x in members for x in decision) or any(
                set(idx.tolist()) == set(members) for idx in closed)
            assert holds == (k in kept)

    def test_sink_reach_stops_at_decision_states(self):
        # 0 -> 1 -> 2 -> 3 with 2 a decision state: 0 enters 2 but not the
        # closed class {3}
        rows = np.eye(4, k=1)
        rows[3, 3] = 1.0
        open_, classes, enters = _sinks(rows, np.array([2]))
        assert open_.tolist() == [True, True, False, False]
        assert [idx.tolist() for idx in classes] == [[3]]
        assert enters.tolist() == [[1, 0], [1, 0], [1, 0], [0, 1]]


class TestStructural:
    def test_four_state_exact(self):
        result = cesaro_structural(FOUR_STATE)
        assert np.allclose(result.q_star, FOUR_STATE_LIMIT, atol=1e-14)
        assert result.decomposition is not None

    def test_interleaved_classes(self):
        # classes {0, 2} (stationary (1/2, 1/2)) and {1, 3} (stationary
        # (1/4, 3/4)) interleave; transient state 4 is absorbed into each
        # with probability 1/2
        q = np.array(
            [
                [0.0, 0.0, 1.0, 0.0, 0.0],
                [0.0, 0.25, 0.0, 0.75, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.25, 0.0, 0.75, 0.0],
                [0.25, 0.0, 0.0, 0.25, 0.5],
            ]
        )
        result = cesaro_structural(q)
        assert result.decomposition.recurrent_classes == ((0, 2), (1, 3))
        assert result.decomposition.transient == (4,)
        expected = np.array(
            [
                [0.5, 0.0, 0.5, 0.0, 0.0],
                [0.0, 0.25, 0.0, 0.75, 0.0],
                [0.5, 0.0, 0.5, 0.0, 0.0],
                [0.0, 0.25, 0.0, 0.75, 0.0],
                [0.25, 0.125, 0.25, 0.375, 0.0],
            ]
        )
        assert np.allclose(result.q_star, expected, atol=1e-14)

    def test_agrees_with_lazari_on_corpus(self):
        for q in _corpus.matrix_corpus(30, seed=47):
            a = cesaro_structural(q).q_star
            b = cesaro_lazari(q).q_star
            assert np.max(np.abs(a - b)) < 1e-8

    def test_invariants_on_corpus(self):
        for q in _corpus.matrix_corpus(30, seed=53):
            result = cesaro_structural(q)
            _assert_limit_invariants(result.q_star, q)

    def test_projection_failure_advises_fallback_for_other_methods_only(
            self, monkeypatch):
        # state 3 has one action; with no slack, pair (f1, g1)'s Q*Q* = Q*
        # misses by one rounding in both the structural solve and lazari
        def action(label, reward, *row):
            return {"label": label, "reward": reward,
                    "sojourn": {"kind": "mean", "value": 1.0},
                    "transitions": [{"to": to, "prob": p} for to, p in row]}

        spec = parse_game(json.dumps({"name": "projection", "states": [
            {"id": 1, "player": "I", "actions": [
                action("a", 2.0, (1, 0.25), (2, 0.75)),
                action("b", 1.0, (1, 0.3), (2, 0.7))]},
            {"id": 2, "player": "II", "actions": [
                action("a", 0.0, (1, 1.0)),
                action("b", 0.0, (1, 0.75), (3, 0.25))]},
            {"id": 3, "player": "II", "actions": [action("a", 2.0, (3, 1.0))]},
        ]}))
        monkeypatch.setattr(MARKOV_MODULE, "EPS_PROJ", 0.0)
        with pytest.raises(NumericalError) as structural:
            solve(spec)
        assert "structural: projection identity" in str(structural.value)
        assert "fall back" not in str(structural.value)
        q = induce(spec, *(enumerate_pure(spec, p)[0] for p in ("I", "II"))).q
        with pytest.raises(NumericalError) as lazari:
            cesaro_lazari(q)
        assert "lazari: projection identity" in str(lazari.value)
        assert str(lazari.value).endswith("; fall back to the structural method")


def _ulps(got, want) -> float:
    """The largest distance of a float matrix from an exact one, in units
    of the last place of each exact entry (an exact 0 must be met)."""
    return max(float(abs(Fraction(float(x)) - w) / Fraction(float(np.spacing(float(w)))))
               if w else (math.inf if x else 0.0)
               for row_x, row_w in zip(got, want) for x, w in zip(row_x, row_w))


def _multichain(rng, n: int) -> np.ndarray:
    """A random n-state chain with one to three closed classes and up to
    n - 1 transient states, under a random labelling, its transition
    probabilities spread over nine decades (all above EPS_EDGE). A cycle
    through each class keeps it irreducible, and each transient state
    enters a class directly."""
    k = int(rng.integers(1, min(3, n) + 1))
    t = int(rng.integers(0, n - k + 1))
    cuts = np.sort(rng.choice(np.arange(t + 1, n), size=k - 1, replace=False))
    classes = np.split(np.arange(t, n), cuts)
    weight = 10.0 ** rng.uniform(-9, 0, (n, n))
    support = np.zeros((n, n), dtype=bool)
    for cls in classes:
        support[cls, np.roll(cls, 1)] = True
        support[np.ix_(cls, cls)] |= rng.random((len(cls), len(cls))) < 0.4
    support[:t] = rng.random((t, n)) < 0.4
    support[np.arange(t), rng.integers(t, n, t)] = True
    q = np.where(support, weight, 0.0)
    q /= q.sum(axis=1, keepdims=True)
    order = rng.permutation(n)
    return q[np.ix_(order, order)]


class TestExactLimits:
    """The structural method against exact rational Q* (tests/_exact.py):
    GTH state reduction subtracts nothing, so each entry keeps its
    relative accuracy, however weakly the states are coupled."""

    @pytest.mark.parametrize("delta", [10.0**-k for k in range(3, 12)])
    def test_weakly_coupled_class(self, delta):
        q = np.array([[1 - delta, delta], [2 * delta, 1 - 2 * delta]])
        assert _ulps(cesaro_structural(q).q_star, exact_limit(q)) <= 2

    @pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11])
    def test_thin_loop_chain_under_leak(self, eps):
        # the full chain of the thin-loop game (tests/test_solve.py) under
        # "leak": the transient block [[1 - eps, eps], [1 - eps, 0]] leaves
        # with probability eps^2 per round
        q = np.array([[1 - eps, eps, 0.0], [1 - eps, 0.0, eps], [0.0, 0.0, 1.0]])
        result = cesaro_structural(q)
        assert result.decomposition.transient == (0, 1)
        assert _ulps(result.q_star, exact_limit(q)) <= 2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_structural_stack_matches_exact_property(n, m, seed):
    # a chain-last stack of random multichain chains: every chain's Q* is
    # within a few units of the last place of the exact one, entry by
    # entry, and has the bits it has in a stack of its own
    rng = np.random.default_rng(seed)
    qs = np.stack([_multichain(rng, n) for _ in range(m)], axis=2)
    lower, upper, _ = structural_limits(qs)
    q_star = lower.transpose(2, 0, 1) @ upper.transpose(2, 0, 1)
    for c in range(m):
        assert _ulps(q_star[c], exact_limit(qs[..., c])) <= 16
        assert np.array_equal(q_star[c], cesaro_structural(qs[..., c]).q_star)


class TestDispatch:
    def test_methods_reachable(self):
        for method in ("structural", "lazari", "averaging"):
            result = cesaro(SWAP, method=method)
            assert result.method == method
            assert np.allclose(result.q_star, np.full((2, 2), 0.5), atol=1e-9)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            cesaro(SWAP, method="spectral")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_structural_invariants_property(n, seed):
    q = _corpus.random_stochastic(np.random.default_rng(seed), n)
    result = cesaro_structural(q)
    _assert_limit_invariants(result.q_star, q)
    # row of a recurrent state equals its class's stationary distribution
    dec = result.decomposition
    for idx, pi in zip(dec.recurrent_classes, dec.stationary):
        for s in idx:
            assert np.allclose(result.q_star[s, list(idx)], pi, atol=1e-12)


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency
    code = "import sys, pismg; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"
