"""Exceptions shared across the package."""


class SchoolMatchError(Exception):
    pass


class InstanceTooLargeError(SchoolMatchError):
    """Raised when a brute-force routine is asked to exceed its size bound."""


class _LimitError(SchoolMatchError):
    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class CycleLimitExceededError(_LimitError):
    """A cycle walk closed more than ``cycle_limit`` cycles; ``partial`` holds
    ``find_cliques``' least ``limit`` cycles in order, or [] from ``tadam_run``."""


class SearchLimitExceededError(_LimitError):
    """Matching-space search hit its limit; partial results are attached."""


class PreconditionError(SchoolMatchError):
    """A check was invoked on inputs that do not satisfy its precondition."""


class ParseError(SchoolMatchError):
    """Instance or matching text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
