"""Game model: definition, parsing, validation and serialization of
perfect-information semi-Markov game instances.

A game is a finite state space 1..N where every state is controlled by
exactly one of two players ("I" maximises, "II" minimises; the other
player is a dummy at that state, so a state carries a single action
list). An action fixes an immediate reward, a transition probability
row, and a holding-time (sojourn) model per transition or one default
model for the whole action.

File format (UTF-8 JSON)::

    {
      "name": str,
      "reference_values": [number, ...],          # optional, length N
      "states": [
        {"id": int, "player": "I" | "II",
         "actions": [
           {"label": str,
            "reward": number,
            "sojourn": SOJOURN,                   # optional default
            "transitions": [
              {"to": int, "prob": number,
               "sojourn": SOJOURN},               # optional override
              ...]},
           ...]},
        ...]
    }

with SOJOURN one of::

    {"kind": "mean", "value": x}         expected holding time only
    {"kind": "deterministic", "t": x}    constant holding time x
    {"kind": "exponential", "rate": x}   mean 1/x
    {"kind": "uniform", "a": x, "b": y}  mean (x + y) / 2

State ids must be exactly 1..N in list order. Transition rows must sum
to 1 within ``EPS_STOCH``; stored probabilities are kept verbatim (so
parse/serialize round-trips exactly) and rows are renormalized when
chain matrices are assembled. ``reference_values`` optionally bundles a
published value vector with the instance; the solver reports deltas
against it in its diagnostics.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GameFormatError, GameValidationError
from .markov import EPS_STOCH

PLAYER_I = "I"
PLAYER_II = "II"
PLAYERS = (PLAYER_I, PLAYER_II)

SOJOURN_KINDS = ("mean", "deterministic", "exponential", "uniform")
_SOJOURN_PARAMS = {
    "mean": ("value",),
    "deterministic": ("t",),
    "exponential": ("rate",),
    "uniform": ("a", "b"),
}


@dataclass(frozen=True)
class SojournModel:
    """Holding-time model for one transition (or an action default).

    ``params`` holds the numbers in the field order documented for the
    kind. The ``mean`` kind declares only an expected holding time and no
    shape; analytic results depend on sojourn models through their means
    only, so it is interchangeable with any distribution of equal mean.
    """

    kind: str
    params: tuple[float, ...]

    @property
    def mean(self) -> float:
        if self.kind == "mean" or self.kind == "deterministic":
            return self.params[0]
        if self.kind == "exponential":
            return 1.0 / self.params[0]
        if self.kind == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        raise ValueError(f"unknown sojourn kind {self.kind!r}")


@dataclass(frozen=True)
class Transition:
    to: int
    prob: float
    sojourn: SojournModel | None = None


@dataclass(frozen=True)
class ActionSpec:
    label: str
    reward: float
    transitions: tuple[Transition, ...]
    default_sojourn: SojournModel | None = None


@dataclass(frozen=True)
class StateSpec:
    id: int
    controller: str
    actions: tuple[ActionSpec, ...]


@dataclass(frozen=True)
class GameSpec:
    """A parsed game. ``_report`` and ``_tables`` are the report and the
    flat tables of the :func:`validate` call it passed, if any; they are
    neither compared nor hashed, and ``dataclasses.replace`` does not
    carry them to the new spec."""

    name: str
    states: tuple[StateSpec, ...]
    reference_values: tuple[float, ...] | None = None
    _report: ValidationReport | None = field(default=None, init=False, repr=False,
                                             compare=False)
    _tables: _Tables | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.states)

    def state(self, sid: int) -> StateSpec:
        if not 1 <= sid <= self.n:
            raise ValueError(f"state {sid} out of range 1..{self.n}")
        return self.states[sid - 1]


@dataclass(frozen=True)
class ValidationReport:
    """Partition and strategy-count summary produced by :func:`validate`.

    ``s1``/``s2`` list the states controlled by player I / player II,
    ``player1_action_counts`` the action count of each state in ``s1``
    (same order), ``d1`` the product of those counts (1 for an empty
    partition), similarly for player II.
    """

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    player1_action_counts: tuple[int, ...]
    player2_action_counts: tuple[int, ...]
    d1: int
    d2: int
    warnings: tuple[str, ...] = ()


class _Tables(NamedTuple):
    """The arrays of a validated game, actions in state order and each
    action's transitions in file order. ``width`` is the largest action
    count. Per action, ``slot`` is (s - 1) * width + a for action a
    (0-based) of state s, ``reward`` its reward and ``tau`` its expected
    sojourn. Per transition, ``owner`` is the index of its action,
    ``dest`` its 0-based destination, ``draw``, ``base`` and ``scale``
    its holding time in the form :func:`_check_sojourn` returns for the
    model it draws from (its own, else its action's default), and
    ``prob`` its probability as given."""

    width: int
    slot: np.ndarray
    reward: np.ndarray
    tau: np.ndarray
    owner: np.ndarray
    dest: np.ndarray
    draw: np.ndarray
    base: np.ndarray
    scale: np.ndarray
    prob: np.ndarray


def expected_sojourn(action: ActionSpec) -> float:
    """Destination-weighted mean holding time of an action.

    If no transition overrides the default model, the default's mean is
    returned as-is: the probabilities sum to 1, so the weighted sum would
    only add rounding noise.
    """
    if action.default_sojourn is not None and all(
        t.sojourn is None for t in action.transitions
    ):
        return action.default_sojourn.mean
    total = 0.0
    for t in action.transitions:
        model = t.sojourn if t.sojourn is not None else action.default_sojourn
        total += t.prob * model.mean
    return total


def _real(x) -> bool:
    """Whether x is a real number other than a bool, as the JSON parser
    reads one (the type test first: an abstract-class check costs more
    than the rest of a transition's checks)."""
    return type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _state_id(x) -> bool:
    """Whether x is an integer other than a bool (see :func:`_real`)."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_sojourn(model: SojournModel, where: str) -> tuple[int, float, float]:
    """Checks a model and returns its holding time as ``(draw, base,
    scale)``, the form a simulation draws it in: for draw 0 the constant
    ``base`` (``mean``, as the kind declares no shape, and
    ``deterministic``); for draw 1 an exponential of rate ``scale``; for
    draw 2 ``base`` plus ``scale`` times a uniform on [0, 1)."""
    # a model built in code, not parsed, may have any kind, arity and
    # parameter type
    arity = len(_SOJOURN_PARAMS.get(model.kind, ()))
    if not arity:
        raise GameValidationError(f"{where}: unknown sojourn kind {model.kind!r}")
    if len(model.params) != arity:
        raise GameValidationError(f"{where}: {model.kind} sojourn takes {arity} parameter(s), "
                                  f"got {len(model.params)}")
    for p in model.params:
        if not _real(p):
            raise GameValidationError(f"{where}: sojourn parameter {p!r} is not a number")
    a, b = model.params[0], model.params[-1]
    if model.kind != "uniform" and not a > 0.0:
        what = {"mean": "mean", "deterministic": "time", "exponential": "rate"}[model.kind]
        raise GameValidationError(f"{where}: nonpositive sojourn {what} {a}")
    if model.kind == "uniform" and (a < 0.0 or b <= a):
        raise GameValidationError(
            f"{where}: uniform sojourn needs 0 <= a < b, got a={a}, b={b}"
        )
    if not all(math.isfinite(p) for p in model.params):
        raise GameValidationError(f"{where}: non-finite sojourn parameter")
    if model.kind == "uniform":
        return 2, a, float(b) - float(a)
    return (1, 0.0, a) if model.kind == "exponential" else (0, a, 0.0)


def validate(spec: GameSpec) -> ValidationReport:
    """Check every model invariant.

    Raises :class:`GameValidationError` naming the offending state and
    action on the first violation; otherwise returns the partition and
    strategy-count report. The walk also records the game's flat tables
    (see :class:`_Tables`), the only arrays the solver and the simulator
    read. A spec that passes keeps its report and its tables, and a
    later call returns the report without walking the transitions
    again: the spec is frozen, so both stay true of it. A spec that
    fails keeps neither and raises on every call.
    """
    if spec._report is not None:
        return spec._report
    if spec.n < 1:
        raise GameValidationError("game must have at least one state")
    warnings: list[str] = []
    # the tables (see _Tables) as the checks pass them: (state, action,
    # reward, tau) per action, and (action, destination, draw, base,
    # scale, probability) per transition
    actions, moves = [], []
    for pos, st in enumerate(spec.states, start=1):
        if st.id != pos:
            raise GameValidationError(
                f"state ids must be exactly 1..{spec.n} in order; "
                f"position {pos} holds id {st.id}"
            )
        if st.controller not in PLAYERS:
            raise GameValidationError(f"state {st.id}: controller must be 'I' or 'II'")
        if not st.actions:
            raise GameValidationError(f"state {st.id}: must list at least one action")
        labels = [a.label for a in st.actions]
        if len(set(labels)) != len(labels):
            warnings.append(f"state {st.id}: duplicate action labels")
        for ai, act in enumerate(st.actions, start=1):
            where = f"state {st.id} action {ai}"
            if not _real(act.reward):
                raise GameValidationError(f"{where}: reward {act.reward!r} is not a number")
            if not math.isfinite(act.reward):
                raise GameValidationError(f"{where}: non-finite reward")
            if not act.transitions:
                raise GameValidationError(f"{where}: must list at least one transition")
            seen: set[int] = set()
            total = 0.0
            for ti, tr in enumerate(act.transitions, start=1):
                if not _state_id(tr.to):
                    raise GameValidationError(
                        f"{where} transition {ti}: destination {tr.to!r} is not a state id"
                    )
                if not _real(tr.prob):
                    raise GameValidationError(
                        f"{where} transition {ti}: probability {tr.prob!r} is not a number"
                    )
                if not 1 <= tr.to <= spec.n:
                    raise GameValidationError(
                        f"{where}: transition to unknown state {tr.to}"
                    )
                if tr.to in seen:
                    raise GameValidationError(
                        f"{where}: duplicate transition to state {tr.to}"
                    )
                seen.add(tr.to)
                if not math.isfinite(tr.prob) or tr.prob < -EPS_STOCH or tr.prob > 1.0 + EPS_STOCH:
                    raise GameValidationError(
                        f"{where}: probability {tr.prob} outside [0, 1]"
                    )
                total += tr.prob
            if abs(total - 1.0) > EPS_STOCH:
                raise GameValidationError(
                    f"{where}: transition probabilities sum to {total!r}, not 1"
                )
            if act.default_sojourn is None and any(
                tr.sojourn is None for tr in act.transitions
            ):
                raise GameValidationError(
                    f"{where}: no sojourn model (give a default or one per transition)"
                )
            default = act.default_sojourn and _check_sojourn(act.default_sojourn, where)
            for ti, tr in enumerate(act.transitions, start=1):
                row = default if tr.sojourn is None else _check_sojourn(
                    tr.sojourn, f"{where} transition {ti}")
                moves += (len(actions) // 4, tr.to - 1, *row, tr.prob)
            tau = expected_sojourn(act)
            if not tau > 0.0:
                raise GameValidationError(
                    f"{where}: nonpositive sojourn time {tau} (expected over destinations)"
                )
            actions += (pos - 1, ai - 1, act.reward, tau)
    if spec.reference_values is not None and len(spec.reference_values) != spec.n:
        raise GameValidationError(
            f"reference_values has {len(spec.reference_values)} entries, expected {spec.n}"
        )
    for i, ref in enumerate(spec.reference_values or ()):
        if not _real(ref):
            raise GameValidationError(f"reference_values[{i}]: {ref!r} is not a number")
        if not math.isfinite(ref):
            raise GameValidationError(f"reference_values[{i}]: non-finite value {ref!r}")
    s1 = tuple(st.id for st in spec.states if st.controller == PLAYER_I)
    s2 = tuple(st.id for st in spec.states if st.controller == PLAYER_II)
    counts1 = tuple(len(spec.state(s).actions) for s in s1)
    counts2 = tuple(len(spec.state(s).actions) for s in s2)
    report = ValidationReport(
        s1=s1,
        s2=s2,
        player1_action_counts=counts1,
        player2_action_counts=counts2,
        d1=math.prod(counts1),
        d2=math.prod(counts2),
        warnings=tuple(warnings),
    )
    width = max(counts1 + counts2)
    state, action, reward, tau = np.array(actions, dtype=float).reshape(-1, 4).T
    moves = np.array(moves, dtype=float).reshape(-1, 6)
    # the float columns copied, so the (T, 6) block is freed
    tables = _Tables(width, (state * width + action).astype(np.intp), reward, tau,
                     *moves[:, :3].T.astype(np.intp), *moves[:, 3:].T.copy())
    object.__setattr__(spec, "_tables", tables)
    object.__setattr__(spec, "_report", report)
    return report


# ---------------------------------------------------------------------------
# JSON <-> GameSpec


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise GameFormatError(f"{where}: expected an object")
    if key not in obj:
        raise GameFormatError(f"{where}: missing field {key!r}")
    return obj[key]


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise GameFormatError(f"{where}: expected a number")
    return float(x)


def _integer(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise GameFormatError(f"{where}: expected an integer")
    return x


def _string(x, where: str) -> str:
    if not isinstance(x, str):
        raise GameFormatError(f"{where}: expected a string")
    return x


def _sojourn_from_jsonable(obj, where: str) -> SojournModel:
    kind = _require(obj, "kind", where)
    if kind not in SOJOURN_KINDS:
        raise GameFormatError(f"{where}: unknown sojourn kind {kind!r}")
    names = _SOJOURN_PARAMS[kind]
    params = tuple(_number(_require(obj, nm, where), f"{where}.{nm}") for nm in names)
    extra = set(obj) - {"kind", *names}
    if extra:
        raise GameFormatError(f"{where}: unexpected sojourn fields {sorted(extra)}")
    return SojournModel(kind, params)


def game_from_jsonable(obj) -> GameSpec:
    """Build a GameSpec from decoded JSON. Schema checks only; run
    :func:`validate` for the model invariants."""
    name = _string(_require(obj, "name", "top level"), "top level name")
    states_obj = _require(obj, "states", "top level")
    if not isinstance(states_obj, list):
        raise GameFormatError("top level: 'states' must be an array")
    states: list[StateSpec] = []
    for pos, sobj in enumerate(states_obj):
        where = f"states[{pos}]"
        sid = _integer(_require(sobj, "id", where), f"{where}.id")
        player = _require(sobj, "player", where)
        if player not in PLAYERS:
            raise GameFormatError(f"state {sid}: player must be 'I' or 'II', got {player!r}")
        actions_obj = _require(sobj, "actions", f"state {sid}")
        if not isinstance(actions_obj, list):
            raise GameFormatError(f"state {sid}: 'actions' must be an array")
        actions: list[ActionSpec] = []
        for apos, aobj in enumerate(actions_obj, start=1):
            awhere = f"state {sid} action {apos}"
            label = _string(_require(aobj, "label", awhere), f"{awhere}.label")
            reward = _number(_require(aobj, "reward", awhere), f"{awhere}.reward")
            default = None
            if isinstance(aobj, dict) and "sojourn" in aobj:
                default = _sojourn_from_jsonable(aobj["sojourn"], f"{awhere}.sojourn")
            trans_obj = _require(aobj, "transitions", awhere)
            if not isinstance(trans_obj, list):
                raise GameFormatError(f"{awhere}: 'transitions' must be an array")
            transitions: list[Transition] = []
            for tpos, tobj in enumerate(trans_obj, start=1):
                twhere = f"{awhere} transition {tpos}"
                to = _integer(_require(tobj, "to", twhere), f"{twhere}.to")
                prob = _number(_require(tobj, "prob", twhere), f"{twhere}.prob")
                soj = None
                if "sojourn" in tobj:
                    soj = _sojourn_from_jsonable(tobj["sojourn"], f"{twhere}.sojourn")
                transitions.append(Transition(to, prob, soj))
            actions.append(ActionSpec(label, reward, tuple(transitions), default))
        states.append(StateSpec(sid, player, tuple(actions)))
    reference = None
    if isinstance(obj, dict) and "reference_values" in obj:
        rv = obj["reference_values"]
        if not isinstance(rv, list):
            raise GameFormatError("top level: 'reference_values' must be an array")
        reference = tuple(_number(x, f"reference_values[{i}]") for i, x in enumerate(rv))
    return GameSpec(name, tuple(states), reference)


def parse_game(text: str) -> GameSpec:
    """Parse and validate a game file. Raises :class:`GameFormatError` on
    syntax/schema problems and :class:`GameValidationError` on model
    violations."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise GameFormatError(
            f"syntax error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    spec = game_from_jsonable(obj)
    validate(spec)
    return spec


def _sojourn_to_jsonable(model: SojournModel) -> dict:
    out = {"kind": model.kind}
    for nm, val in zip(_SOJOURN_PARAMS[model.kind], model.params):
        out[nm] = val
    return out


def game_to_jsonable(spec: GameSpec) -> dict:
    obj: dict = {"name": spec.name}
    if spec.reference_values is not None:
        obj["reference_values"] = list(spec.reference_values)
    obj["states"] = []
    for st in spec.states:
        sobj = {"id": st.id, "player": st.controller, "actions": []}
        for act in st.actions:
            aobj: dict = {"label": act.label, "reward": act.reward}
            if act.default_sojourn is not None:
                aobj["sojourn"] = _sojourn_to_jsonable(act.default_sojourn)
            aobj["transitions"] = []
            for tr in act.transitions:
                tobj: dict = {"to": tr.to, "prob": tr.prob}
                if tr.sojourn is not None:
                    tobj["sojourn"] = _sojourn_to_jsonable(tr.sojourn)
                aobj["transitions"].append(tobj)
            sobj["actions"].append(aobj)
        obj["states"].append(sobj)
    return obj


def serialize_game(spec: GameSpec) -> str:
    """Inverse of :func:`parse_game` up to whitespace: floats are emitted
    via repr, so parse(serialize(spec)) == spec exactly."""
    return json.dumps(game_to_jsonable(spec), indent=2) + "\n"
