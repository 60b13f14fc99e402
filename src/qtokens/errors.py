"""Exception hierarchy shared across the toolkit, and how its messages name
a value and the input file they come from."""

import contextlib


def _shown(value) -> str:
    """``value`` as an error message names it: as ``str`` gives it, except
    an int with too many digits for that, which is named by its size."""
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _check_seed(seed: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``seed`` is in [0, 2**64), as numpy and 8-byte hash keys need."""
    if not 0 <= seed < 1 << 64:
        raise error(f"seed must be in [0, 2**64), got {_shown(seed)}")


class QTokensError(Exception):
    """Base class for all toolkit errors."""


class CorpusError(QTokensError):
    """Raised for malformed corpus files or invalid corpus operations."""


class DiversityError(QTokensError):
    """Raised when a diversity metric is undefined for its input."""


class ScorerError(QTokensError):
    """Raised when a likelihood scorer fails or is misconfigured."""


class ProtocolError(ScorerError):
    """Raised when an external scorer violates the line protocol, dies or
    stops responding; the message says what the scorer sent or did."""


class ScalingDomainError(QTokensError):
    """Raised when scaling-law inputs fall outside the valid domain."""


class FittingError(QTokensError):
    """Raised when a fit cannot be run or produces no finite point."""


class RefineError(QTokensError):
    """Raised for invalid refinement parameters."""


@contextlib.contextmanager
def _naming(path: str, error: type[QTokensError] = QTokensError):
    """Put ``path`` in front of the message of a ``QTokensError`` raised in
    the block, keeping its type; a file in the block that is not UTF-8 is
    an ``error`` naming ``path``."""
    try:
        yield
    except QTokensError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc.reason})") from exc
