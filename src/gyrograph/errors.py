"""Shared exception types."""


class BoundExceededError(ValueError):
    """A search refused its input before starting: the size that drives its
    work (block, edges x vertices, lookups, quotient, order) exceeds a bound."""


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined on connected graphs."""
