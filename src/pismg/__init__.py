"""Zero-sum two-person perfect-information semi-Markov games under the
long-run average-reward (undiscounted) criterion: exact solving via
pure saddle points of per-initial-state payoff matrices, plus seeded
Monte-Carlo cross-validation."""

__version__ = "0.1.0"

from .errors import (
    EnumerationLimitError,
    GameFormatError,
    GameValidationError,
    NumericalError,
    PismgError,
    SaddlePointError,
)
from .game import (
    ActionSpec,
    GameSpec,
    PLAYER_I,
    PLAYER_II,
    SojournModel,
    StateSpec,
    Transition,
    ValidationReport,
    expected_sojourn,
    game_from_jsonable,
    game_to_jsonable,
    parse_game,
    serialize_game,
    validate,
)
from .markov import (
    CesaroResult,
    ChainDecomposition,
    cesaro,
    cesaro_averaging,
    cesaro_lazari,
    cesaro_structural,
    char_poly,
    decompose_chain,
    deflate_unit_root,
    validate_stochastic,
)
from .strategies import (
    InducedChain,
    PureStationaryStrategy,
    SemiStationaryStrategy,
    controlled_states,
    enumerate_pure,
    induce,
    ordinal_of,
    strategy_count,
    strategy_from_labels,
    strategy_from_ordinal,
)
from .solve import (
    SaddleCertificate,
    SaddleResult,
    SolveReport,
    build_payoff_matrix,
    check_all_2x2,
    find_pure_saddle,
    payoff_vector,
    saddle_tolerance,
    solve,
)
from .simulate import (
    PayoffEstimate,
    TrajectoryStats,
    estimate_payoff,
    simulate,
)

__all__ = [
    "__version__",
    "PismgError", "GameFormatError", "GameValidationError",
    "EnumerationLimitError", "NumericalError", "SaddlePointError",
    "PLAYER_I", "PLAYER_II",
    "SojournModel", "Transition", "ActionSpec", "StateSpec", "GameSpec",
    "ValidationReport", "parse_game", "serialize_game", "validate",
    "expected_sojourn", "game_from_jsonable", "game_to_jsonable",
    "CesaroResult", "ChainDecomposition", "validate_stochastic", "char_poly",
    "deflate_unit_root", "cesaro_lazari", "cesaro_averaging",
    "cesaro_structural", "decompose_chain", "cesaro",
    "PureStationaryStrategy", "SemiStationaryStrategy", "InducedChain",
    "controlled_states", "strategy_count", "enumerate_pure",
    "strategy_from_ordinal", "strategy_from_labels", "ordinal_of", "induce",
    "SaddleResult", "SaddleCertificate", "SolveReport",
    "payoff_vector", "build_payoff_matrix", "find_pure_saddle",
    "check_all_2x2", "saddle_tolerance", "solve",
    "TrajectoryStats", "PayoffEstimate", "simulate", "estimate_payoff",
]
