"""Exception hierarchy shared by the whole package."""

from __future__ import annotations


class GermError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GermError):
    """Malformed input: parse errors, empty data, out-of-range arguments."""


class DomainError(GermError):
    """Structurally valid input that violates an operation's precondition."""

