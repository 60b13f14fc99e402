"""Exception hierarchy shared across the toolkit."""


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
