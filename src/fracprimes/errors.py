"""Exception types shared across the package.

The CLI maps these onto process exit codes: bad arguments/config -> 2,
violated mathematical invariants -> 3, exceeded resource budgets -> 4.
`check_budget` is the one size check; callers run it before allocating.
"""


class ArgumentError(ValueError):
    """A parameter is outside the documented domain of an operation."""


class InvariantViolation(RuntimeError):
    """A mathematical identity or bound that must hold numerically failed."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured time/memory/term budget."""

    def __init__(self, msg, estimate=None, budget=None):
        super().__init__(msg)
        self.estimate = estimate
        self.budget = budget


def check_budget(what: str, estimate: int, budget: int) -> None:
    """Raise ResourceLimitError when the size estimate of `what` > budget."""
    if estimate > budget:
        raise ResourceLimitError(f"{estimate} beyond {what} budget {budget}",
                                 estimate=estimate, budget=budget)


class AccuracyError(RuntimeError):
    """An adaptive routine could not reach the requested tolerance.

    Carries the best value obtained so far plus its error estimate, so
    callers can decide whether the partial answer is usable.
    """

    def __init__(self, msg, value=None, error_estimate=None):
        super().__init__(msg)
        self.value = value
        self.error_estimate = error_estimate


class StationaryPointError(ArgumentError):
    """No usable stationary point: g' has no zero, or it lies outside the
    window."""
