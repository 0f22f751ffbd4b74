"""User profiles: the 'user semantics' side of FEO's auxiliary modelling.

A :class:`UserProfile` captures everything the paper says a food
recommender knows about its user — likes, dislikes, allergies, diets,
health conditions, nutritional goals and a budget level.  Profiles are
plain data: the scenario builder is responsible for turning them into RDF.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import RequestError

__all__ = ["UserProfile"]

_KNOWN_CONDITIONS = {
    "pregnancy", "diabetes", "hypertension", "lactose_intolerance",
    "celiac_disease", "high_cholesterol",
}
_KNOWN_GOALS = {
    "high_folate", "low_sodium", "high_protein", "low_carb", "high_fiber", "weight_loss",
}
_BUDGET_LEVELS = {"low", "medium", "high"}


@dataclass(frozen=True)
class UserProfile:
    """Everything the recommender (and hence FEO) knows about one user."""

    identifier: str
    name: str = ""
    likes: Tuple[str, ...] = ()
    dislikes: Tuple[str, ...] = ()
    allergies: Tuple[str, ...] = ()
    diets: Tuple[str, ...] = ()
    conditions: Tuple[str, ...] = ()
    goals: Tuple[str, ...] = ()
    budget: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ValueError("UserProfile requires a non-empty identifier")
        unknown_conditions = set(self.conditions) - _KNOWN_CONDITIONS
        if unknown_conditions:
            raise RequestError(f"Unknown health conditions: {sorted(unknown_conditions)}")
        unknown_goals = set(self.goals) - _KNOWN_GOALS
        if unknown_goals:
            raise RequestError(f"Unknown nutritional goals: {sorted(unknown_goals)}")
        if self.budget is not None and self.budget not in _BUDGET_LEVELS:
            raise ValueError(f"Unknown budget level {self.budget!r}")

    # ------------------------------------------------------------------
    def with_condition(self, condition: str) -> "UserProfile":
        """Return a copy with ``condition`` added (used by what-if questions)."""
        if condition in self.conditions:
            return self
        return replace(self, conditions=self.conditions + (condition,))

    def without_condition(self, condition: str) -> "UserProfile":
        """Return a copy with ``condition`` removed."""
        return replace(self, conditions=tuple(c for c in self.conditions if c != condition))

    def likes_food(self, name: str) -> bool:
        return name in self.likes

    def dislikes_food(self, name: str) -> bool:
        return name in self.dislikes

    def is_allergic_to(self, name: str) -> bool:
        return name in self.allergies

    def has_condition(self, condition: str) -> bool:
        return condition in self.conditions

    def summary(self) -> Dict[str, List[str]]:
        """A plain-dict view used by templates and reports."""
        return {
            "likes": list(self.likes),
            "dislikes": list(self.dislikes),
            "allergies": list(self.allergies),
            "diets": list(self.diets),
            "conditions": list(self.conditions),
            "goals": list(self.goals),
            "budget": [self.budget] if self.budget else [],
        }
