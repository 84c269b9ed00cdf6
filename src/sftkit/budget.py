"""Work budgets and the per-operation search context.

Every potentially expensive loop charges one of three meters: search nodes
(membership DFS), multisets (product enumeration), samples (randomized
checks); the polynomial degree is capped as well. Exceeding any of them
raises a BudgetExceeded; the checking layer reports the operation as
inconclusive. A fresh SearchContext is created per top-level check so the
consumed numbers in a report depend only on that check's inputs, never on
what ran before it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from .errors import (CombinatorialBudgetExceeded, SampleBudgetExceeded,
                     SearchBudgetExceeded, UnknownExample)

ENV_PROFILE = "SFTKIT_BUDGET_PROFILE"


@dataclass(frozen=True)
class Budgets:
    search_nodes: int = 8_000_000
    multisets: int = 4_000_000
    samples: int = 200
    degree_cap: int = 256
    exhaustive_cap: int = 4096


PROFILES = {
    "default": Budgets(),
    "quick": Budgets(search_nodes=200_000, multisets=200_000, samples=50,
                     degree_cap=16, exhaustive_cap=512),
    "deep": Budgets(search_nodes=40_000_000, multisets=40_000_000, samples=1000,
                    degree_cap=512, exhaustive_cap=1 << 16),
}


def budgets_from_env() -> Budgets:
    """The profile the SFTKIT_BUDGET_PROFILE environment variable names
    (default when unset); an unknown name is an input error. Only the
    command line reads it: the library's default is Budgets()."""
    name = os.environ.get(ENV_PROFILE, "default")
    try:
        return PROFILES[name]
    except KeyError:
        raise UnknownExample(name, sorted(PROFILES),
                             what=f"{ENV_PROFILE} value") from None


@dataclass
class SearchContext:
    """Meters plus per-presentation search tables for one operation."""

    budgets: Budgets = field(default_factory=Budgets)
    nodes_used: int = 0
    multisets_used: int = 0
    samples_used: int = 0
    tables: dict[Any, Any] = field(default_factory=dict)

    def nodes_left(self) -> int:
        return self.budgets.search_nodes - self.nodes_used

    def charge_nodes(self, n: int) -> None:
        self.nodes_used += n
        if self.nodes_used > self.budgets.search_nodes:
            raise SearchBudgetExceeded(self.nodes_used)

    def charge_multisets(self, n: int) -> None:
        self.multisets_used += n
        if self.multisets_used > self.budgets.multisets:
            raise CombinatorialBudgetExceeded(
                f"product enumeration exceeded {self.budgets.multisets} multisets")

    def precheck_multisets(self, n: int) -> None:
        """Refuse up front when an enumeration is too large to even start."""
        if self.multisets_used + n > self.budgets.multisets:
            raise CombinatorialBudgetExceeded(
                f"enumeration of {n} multisets exceeds the remaining budget")

    def charge_samples(self, n: int = 1) -> None:
        self.samples_used += n
        if self.samples_used > self.budgets.samples:
            raise SampleBudgetExceeded(
                f"sampling exceeded {self.budgets.samples} samples")

    def used(self) -> dict[str, int]:
        return {
            "search_nodes": self.nodes_used,
            "multisets": self.multisets_used,
            "samples": self.samples_used,
        }
