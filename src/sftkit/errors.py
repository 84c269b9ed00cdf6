"""Exception types shared across the toolkit.

Budget exceptions share the base BudgetExceeded, which the checking layer
catches once per operation and turns into an inconclusive verdict; they
never surface as a wrong answer.
"""

from __future__ import annotations


class SftkitError(Exception):
    """Base class for all toolkit errors."""


class PreconditionViolated(SftkitError):
    """An operation's stated precondition does not hold.

    `clause` names the first violated clause, in the documented order.
    """

    def __init__(self, clause: str, message: str = ""):
        self.clause = clause
        text = f"precondition violated: {clause}"
        super().__init__(f"{text} ({message})" if message else text)


class CompositionMismatch(SftkitError):
    """Multinomial arguments do not sum to the required total."""


class BudgetExceeded(SftkitError):
    """A work meter ran out. Reported as inconclusive, never as a verdict."""


class SearchBudgetExceeded(BudgetExceeded):
    """Membership search ran out of nodes."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"membership search exceeded {nodes} nodes")


class CombinatorialBudgetExceeded(BudgetExceeded):
    """Product enumeration would exceed the multiset cap."""


class DegreeBudgetExceeded(BudgetExceeded):
    """Polynomial degree grew past the configured truncation."""


class SampleBudgetExceeded(BudgetExceeded):
    """A randomized check drew more samples than the budget allows."""


class TruncationTooSmall(SftkitError):
    """The request needs more generators than the truncation provides."""


class UnsupportedIdeal(SftkitError):
    """The integer-coefficient model only knows its catalog ideals."""


class UnsupportedModel(SftkitError):
    """Operation not defined for this model kind."""


class NoCertificateApplicable(SftkitError):
    """No all-elements certificate rule matches; caller falls back to sampling."""


class UnknownExample(SftkitError):
    def __init__(self, name: str, available: list[str], what: str = "example"):
        self.available = available
        super().__init__(f"unknown {what} {name!r}; available: {', '.join(available)}")


class SchemaError(SftkitError):
    """A model, claim, or report file failed validation."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
