"""Shared exception types."""


class BoundExceededError(ValueError):
    """A search refused its input: the size that drives its work exceeds a
    bound before it starts, or the steps it has taken pass a budget."""


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined on connected graphs."""
