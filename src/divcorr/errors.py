"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
them rather than bare ValueError/RuntimeError whenever the failure is one
of the three reportable conditions: resource budget, precision target,
or a two-route consistency check.
"""


class DivcorrError(Exception):
    pass


class ResourceBudgetError(DivcorrError):
    """A table or sum would exceed the configured memory/size budget."""


class PrecisionError(DivcorrError):
    """A requested tolerance is unattainable; carries the achieved bound."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConsistencyError(DivcorrError):
    """Two independent evaluation routes disagree beyond tolerance."""
