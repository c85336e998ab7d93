"""Exception types shared across the package."""


class InvalidDimensionError(ValueError):
    """Raised when store or scheme dimensions are out of range, or when an
    XOR of blocks is given no blocks."""


class RegimeError(ValueError):
    """Raised when parameters fall outside the regime an operation supports."""


class DemandError(ValueError):
    """Raised for invalid demand vectors (range, distinctness, coverage)."""


class InfeasibleSwapError(RuntimeError):
    """Raised when the query generator cannot rebalance a stuck insertion.

    Firing would mean the combinatorial counting identities behind the
    generator are violated; it is asserted never to happen on supported
    parameters.
    """


class UnresolvablePlanError(RuntimeError):
    """Raised when a decode plan references data it cannot resolve."""


class TooLargeInstanceError(ValueError):
    """Raised when an exhaustive oracle would exceed its enumeration guard."""


class ConfigError(ValueError):
    """Raised on malformed config files, with line/field diagnostics."""
