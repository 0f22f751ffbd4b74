"""User questions about food recommendations.

Table I of the paper pairs each explanation type with an example question
("Why should I eat Food A?", "Why was Food A recommended over Food B?",
"What if I was pregnant?"...).  This module models those questions as data
objects and provides a small natural-language parser for the phrasings the
paper uses, so examples can go from a question string to an explanation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from ..errors import RequestError
from ..foodkg.schema import slugify

__all__ = [
    "QuestionType",
    "Question",
    "WhyQuestion",
    "ContrastiveQuestion",
    "WhatIfConditionQuestion",
    "WhatIfIngredientQuestion",
    "QuestionParseError",
    "parse_question",
]


class QuestionType(Enum):
    """The kinds of user questions FEO models."""

    WHY = "why"
    CONTRASTIVE = "contrastive"
    WHAT_IF_CONDITION = "what_if_condition"
    WHAT_IF_INGREDIENT = "what_if_ingredient"


@dataclass(frozen=True)
class Question:
    """Base class: a user question with its original text."""

    text: str

    @property
    def question_type(self) -> QuestionType:
        raise NotImplementedError

    def local_name(self) -> str:
        """The CamelCase local name used for the question's IRI."""
        raise NotImplementedError


@dataclass(frozen=True)
class WhyQuestion(Question):
    """'Why should I eat Food A?' — answered with a contextual explanation."""

    recipe: str = ""

    @property
    def question_type(self) -> QuestionType:
        return QuestionType.WHY

    def local_name(self) -> str:
        return f"WhyEat{slugify(self.recipe)}"


@dataclass(frozen=True)
class ContrastiveQuestion(Question):
    """'Why was Food A recommended over Food B?'"""

    primary: str = ""
    secondary: str = ""

    @property
    def question_type(self) -> QuestionType:
        return QuestionType.CONTRASTIVE

    def local_name(self) -> str:
        return f"WhyEat{slugify(self.primary)}Over{slugify(self.secondary)}"


@dataclass(frozen=True)
class WhatIfConditionQuestion(Question):
    """'What if I was pregnant?' — a hypothetical change to the user profile."""

    condition: str = ""

    @property
    def question_type(self) -> QuestionType:
        return QuestionType.WHAT_IF_CONDITION

    def local_name(self) -> str:
        return f"WhatIfIWas{slugify(self.condition.replace('_', ' '))}"


@dataclass(frozen=True)
class WhatIfIngredientQuestion(Question):
    """'What if we changed ingredient C?' — a hypothetical change to a recipe."""

    recipe: str = ""
    ingredient: str = ""
    replacement: Optional[str] = None

    @property
    def question_type(self) -> QuestionType:
        return QuestionType.WHAT_IF_INGREDIENT

    def local_name(self) -> str:
        return f"WhatIfWeChanged{slugify(self.ingredient)}In{slugify(self.recipe)}"


class QuestionParseError(RequestError):
    """Raised when a question string does not match a supported phrasing.

    A :class:`~repro.errors.RequestError` (and therefore ``ValueError``):
    the question text came from the caller, so transports answer it with
    a client error, not a 500.
    """


_CONDITION_ALIASES = {
    "pregnant": "pregnancy",
    "pregnancy": "pregnancy",
    "diabetic": "diabetes",
    "diabetes": "diabetes",
    "hypertensive": "hypertension",
    "hypertension": "hypertension",
    "lactose intolerant": "lactose_intolerance",
    "lactose intolerance": "lactose_intolerance",
    "celiac": "celiac_disease",
    "celiac disease": "celiac_disease",
    "high cholesterol": "high_cholesterol",
}

_WHY_OVER_RE = re.compile(
    r"^\s*why\s+(?:should\s+i\s+eat|was|is|were)\s+(?P<a>.+?)\s+"
    r"(?:recommended\s+)?(?:over|instead\s+of|rather\s+than)\s+(?:a\s+|an\s+)?(?P<b>.+?)\s*\??\s*$",
    re.IGNORECASE,
)
_WHY_RE = re.compile(
    r"^\s*why\s+(?:should\s+i\s+eat|was|is)\s+(?P<a>.+?)(?:\s+recommended)?\s*\??\s*$",
    re.IGNORECASE,
)
_WHAT_IF_CONDITION_RE = re.compile(
    r"^\s*what\s+if\s+i\s+(?:was|were|am|become|became|had|have)\s+(?P<cond>.+?)\s*\??\s*$",
    re.IGNORECASE,
)
_WHAT_IF_INGREDIENT_RE = re.compile(
    r"^\s*what\s+if\s+(?:we|i)\s+(?:changed|replaced|swapped|removed)\s+"
    r"(?:ingredient\s+)?(?P<ing>.+?)"
    r"(?:\s+(?:with|for)\s+(?P<repl>.+?))?"
    r"(?:\s+in\s+(?P<recipe>.+?))?\s*\??\s*$",
    re.IGNORECASE,
)


def _clean(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip().strip(".?")


def _required(text: str, raw: str, what: str) -> str:
    """The cleaned entity name, refusing one that cleans to nothing."""
    name = _clean(raw)
    if not name:
        raise QuestionParseError(f"Question names no {what}: {text!r}")
    return name


def parse_question(text: str) -> Question:
    """Parse ``text`` into a :class:`Question` subclass.

    Supported phrasings mirror Table I of the paper:

    * ``Why should I eat Cauliflower Potato Curry?``
    * ``Why should I eat Butternut Squash Soup over Broccoli Cheddar Soup?``
    * ``What if I was pregnant?``
    * ``What if we changed cheddar cheese in Broccoli Cheddar Soup?``
    """
    match = _WHY_OVER_RE.match(text)
    if match:
        return ContrastiveQuestion(
            text=text, primary=_required(text, match.group("a"), "food"),
            secondary=_required(text, match.group("b"), "food"))
    match = _WHAT_IF_INGREDIENT_RE.match(text)
    if match and match.group("ing") and not _WHAT_IF_CONDITION_RE.match(text):
        return WhatIfIngredientQuestion(
            text=text,
            recipe=_clean(match.group("recipe") or ""),
            ingredient=_required(text, match.group("ing"), "ingredient"),
            replacement=_clean(match.group("repl")) if match.group("repl") else None,
        )
    match = _WHAT_IF_CONDITION_RE.match(text)
    if match:
        raw = _required(text, match.group("cond"), "condition").lower()
        condition = _CONDITION_ALIASES.get(raw, raw.replace(" ", "_"))
        return WhatIfConditionQuestion(text=text, condition=condition)
    match = _WHY_RE.match(text)
    if match:
        return WhyQuestion(text=text, recipe=_required(text, match.group("a"), "food"))
    raise QuestionParseError(f"Could not parse question: {text!r}")
