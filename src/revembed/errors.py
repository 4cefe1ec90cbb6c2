"""Shared exception types."""


class PlaError(ValueError):
    """Malformed PLA text. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ResourceLimitError(RuntimeError):
    """A configured time, pattern, or row budget was exhausted.

    Recoverable by design: the manager or CLI that raised it is left in a
    usable state.
    """
