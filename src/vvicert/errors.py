"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class VviCertError(Exception):
    """Base class for all toolkit errors."""


class ParseError(VviCertError):
    """Malformed expression or predicate text.

    Carries the character offset of the failure in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class DivisionByZeroError(VviCertError):
    """Division by zero during evaluation; carries the offending subexpression text."""

    def __init__(self, subexpression: str):
        super().__init__(f"division by zero in subexpression '{subexpression}'")
        self.subexpression = subexpression


class NonSmoothOperatorError(VviCertError):
    """A nonsmooth operator (abs) was reached where smoothness is required."""


class DimensionMismatchError(VviCertError):
    """Vector or matrix dimensions do not match the declared problem dimensions."""


class OutOfDomainError(VviCertError):
    """A query point or ball leaves the (inset) domain box."""


class NoActivePieceError(VviCertError):
    """No region covers the query point: the piece regions fail to cover the domain."""


class InconsistentPiecesError(VviCertError):
    """Two active pieces disagree beyond the continuity tolerance at the same point."""


class InvalidEError(VviCertError):
    """The supplied e vector is not strictly interior to the ordering cone."""


class DegenerateError(VviCertError):
    """A linear program was numerically ambiguous within tolerance; reported, not guessed."""


class GenerationFailedError(VviCertError):
    """Random instance generation failed after bounded retries."""


class InvalidSeedError(VviCertError):
    """A sampling or generation seed is not a non-negative integer."""


class SamplingFailedError(VviCertError):
    """Rejection sampling used up its bounded draw without filling the request."""


class ProblemFileError(VviCertError):
    """A problem file lacks a required key or gives it a malformed value.

    Carries the key in ``key``; the error that revealed it is the cause.
    """

    def __init__(self, key: str, reason: str):
        super().__init__(f"problem key {key!r}: {reason}")
        self.key = key

    @classmethod
    @contextmanager
    def reading(cls, key: str):
        """Raise this error, naming `key`, for a missing key or a value the
        block cannot read, parse or size. Other toolkit errors pass through unchanged."""
        try:
            yield
        except (
            AttributeError, IndexError, KeyError, TypeError, ValueError, ParseError,
            DimensionMismatchError,
        ) as exc:
            reason = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
            raise cls(key, reason) from exc
