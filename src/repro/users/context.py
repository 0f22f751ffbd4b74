"""System context: the 'system semantics' side of FEO's auxiliary modelling.

The paper's contextual explanations surface *external* factors — the
season and region the recommender system is operating in, the meal time
and the available budget.  :class:`SystemContext` carries exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

__all__ = ["SystemContext"]

_SEASONS = {"spring", "summer", "autumn", "winter"}
_MEAL_TIMES = {"breakfast", "lunch", "dinner", "snack"}
_BUDGETS = {"low", "medium", "high"}

#: Months (1-12) mapped to meteorological seasons in the northern hemisphere.
_MONTH_TO_SEASON = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}


@dataclass(frozen=True)
class SystemContext:
    """The environment the recommender system is running in."""

    season: str = "autumn"
    region: str = "northeast_us"
    meal_time: Optional[str] = None
    budget: Optional[str] = None
    system_name: str = "health-coach"

    def __post_init__(self) -> None:
        if self.season not in _SEASONS:
            raise ValueError(f"Unknown season {self.season!r}")
        if self.meal_time is not None and self.meal_time not in _MEAL_TIMES:
            raise ValueError(f"Unknown meal time {self.meal_time!r}")
        if self.budget is not None and self.budget not in _BUDGETS:
            raise ValueError(f"Unknown budget level {self.budget!r}")

    # ------------------------------------------------------------------
    @classmethod
    def for_month(cls, month: int, region: str = "northeast_us", **kwargs) -> "SystemContext":
        """Build a context whose season is derived from a calendar month."""
        if month not in _MONTH_TO_SEASON:
            raise ValueError(f"Month must be 1-12, got {month}")
        return cls(season=_MONTH_TO_SEASON[month], region=region, **kwargs)

    def with_season(self, season: str) -> "SystemContext":
        return replace(self, season=season)

    def summary(self) -> Dict[str, str]:
        out = {"season": self.season, "region": self.region, "system": self.system_name}
        if self.meal_time:
            out["meal_time"] = self.meal_time
        if self.budget:
            out["budget"] = self.budget
        return out
