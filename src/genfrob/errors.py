"""Exception types shared across the package."""


class GenfrobError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(GenfrobError, ValueError):
    """An argument violates an operation's documented preconditions."""


class CapacityError(GenfrobError, RuntimeError):
    """A computation would exceed the configured table capacity."""


class RangeOverflowError(GenfrobError, OverflowError):
    """An exact integer result falls outside the supported 64-bit range."""


class InvariantError(GenfrobError, AssertionError):
    """An internal self-check failed: a defect in the package, not bad input.

    Raised explicitly rather than by ``assert``, so ``python -O`` keeps it.
    """
