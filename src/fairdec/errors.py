"""Exception types shared across the package, and ``DEFAULT_ENUM_CAP``, the
limit on an enumeration past which ``CapExceeded`` is raised."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Violation


class FairdecError(Exception):
    """Base class for all package-specific errors."""


DEFAULT_ENUM_CAP = 10**7


class CapExceeded(FairdecError):
    """An enumeration would visit more points than the caller allowed.

    Attributes:
        required: exact size of the space that would have to be enumerated.
        cap: the limit that was in force.
    """

    def __init__(self, required: int, cap: int, what: str = "enumeration"):
        self.required = required
        self.cap = cap
        self.what = what
        super().__init__(
            f"{what} needs {required} points but the cap is {cap}; "
            f"raise the cap to run this deliberately"
        )


class InstanceFormatError(FairdecError, ValueError):
    """A document or instance fails structural validation.

    Attributes:
        violations: list of (path, message) pairs when available.
    """

    def __init__(self, message: str, violations: list["Violation"] | None = None):
        self.violations = violations or []
        super().__init__(message)


class GenerationError(FairdecError):
    """A named instance family could not produce a certified instance."""


class InvariantError(FairdecError):
    """An internal invariant failed: a defect in the package."""
