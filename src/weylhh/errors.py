"""Exception hierarchy shared across the package.

BudgetError subclasses signal that a computation was asked for more precision
than its expansion order supports; they are recoverable by retrying with a
larger budget and map to a dedicated CLI exit code.
"""


class WeylhhError(Exception):
    pass


class AmbientMismatchError(WeylhhError):
    pass


class BudgetError(WeylhhError):
    """Expansion order / truncation insufficient for the requested result."""


class InsufficientExpansionError(BudgetError):
    pass


class DegenerateSimplexError(WeylhhError):
    """Simplex degenerate or origin on a facet; the value is undefined there."""


class NonGenericConfigError(WeylhhError):
    """Fuzzing configuration hit a null set; caller should resample."""
