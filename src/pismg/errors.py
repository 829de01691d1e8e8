"""Exception hierarchy shared by the whole package."""


class PismgError(Exception):
    """Base class for every error this package raises on purpose."""


class GameFormatError(PismgError):
    """Malformed game file: JSON syntax error or schema violation."""


class GameValidationError(PismgError):
    """Well-formed game file that breaks a model invariant."""


class EnumerationLimitError(PismgError):
    """The pure stationary strategy space exceeds the enumeration cap."""

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class NumericalError(PismgError):
    """A numerical routine failed a sanity check or refused its input."""


class SaddlePointError(PismgError):
    """A payoff matrix turned out to have no pure saddle point.

    Perfect-information games are expected to always admit one, so this is
    a hard error, not a degraded result. The offending matrix, the D1 x D2
    slice ``payoffs[:, :, s - 1]`` of the solve's payoff tensor for
    initial state s, is attached as ``matrix`` for inspection.
    """

    def __init__(self, message: str, matrix=None):
        super().__init__(message)
        self.matrix = matrix
