"""Shared exception types."""


class CapacityError(ValueError):
    """Raised when an exact computation would exceed its supported bound."""


class ParseError(ValueError):
    """Syntax error in an input payload; carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


class NotASubsemigroupError(ValueError):
    """Raised when a tree set expected to be product-closed is not."""
