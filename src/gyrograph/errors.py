"""Shared exception types."""


class BoundExceededError(ValueError):
    """An input is larger than the configured bound for an exponential search."""


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined on connected graphs."""
