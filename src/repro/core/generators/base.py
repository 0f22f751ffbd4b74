"""Base class shared by all explanation generators."""

from __future__ import annotations

from typing import Dict

from ...rdf.terms import IRI, Literal
from ..explanation import Explanation
from ..scenario import Scenario

__all__ = ["ExplanationGenerator", "local_name", "binding_local_names"]


def local_name(term) -> str:
    """The readable local name of an IRI (or the lexical form of a literal)."""
    if isinstance(term, IRI):
        return term.local_name()
    if isinstance(term, Literal):
        return term.lexical
    return str(term) if term is not None else ""


def binding_local_names(binding: Dict) -> Dict[str, str]:
    """Convert a SPARQL solution dict into readable local names."""
    return {key: local_name(value) for key, value in binding.items()}


class ExplanationGenerator:
    """Base class: subclasses set ``explanation_type`` and implement ``generate``."""

    #: Key into :data:`repro.ontology.eo.EXPLANATION_TYPES`.
    explanation_type: str = ""

    def generate(self, scenario: Scenario, **kwargs) -> Explanation:
        """Produce an :class:`Explanation` for the scenario's question."""
        raise NotImplementedError
