"""Exception types mapped to distinct CLI exit codes."""


class BigraphdsError(Exception):
    """Base class for package errors."""

    exit_code = 1


class UsageError(BigraphdsError):
    """Malformed arguments, unknown formats, or unparsable specs."""

    exit_code = 2


class ValidationError(BigraphdsError):
    """Input data violates a structural precondition (bad table, bad set, bad range)."""

    exit_code = 3


class CapacityError(BigraphdsError):
    """Requested object exceeds the configured size limits."""

    exit_code = 4


class InternalError(BigraphdsError):
    """An invariant that should hold by construction failed."""

    exit_code = 5
