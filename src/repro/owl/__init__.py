"""OWL reasoning substrate: the project's substitute for the Pellet reasoner.

The central entry point is :class:`Reasoner`, which materialises the
deductive closure of an ontology-plus-instances graph so that SPARQL
queries over the result see inferred types, inverse property assertions,
transitive closures and restriction-based classifications — exactly the
pipeline the paper describes (reason first, export inferred axioms, then
query).
"""

from .axioms import AxiomIndex, EquivalenceAxiom, SubClassAxiom
from .closure import BaseClosure, MaterializationCache
from .expressions import (
    AllValuesFrom,
    ClassExpression,
    ComplementOf,
    HasValue,
    IntersectionOf,
    MinCardinality,
    NamedClass,
    OneOf,
    SomeValuesFrom,
    UnionOf,
    parse_class_expression,
)
from .hierarchy import ClassHierarchy, PropertyHierarchy, render_tree
from .reasoner import InconsistentOntologyError, Reasoner, ReasoningReport
from . import vocabulary

__all__ = [
    "AllValuesFrom",
    "AxiomIndex",
    "BaseClosure",
    "ClassExpression",
    "ClassHierarchy",
    "ComplementOf",
    "EquivalenceAxiom",
    "HasValue",
    "InconsistentOntologyError",
    "IntersectionOf",
    "MaterializationCache",
    "MinCardinality",
    "NamedClass",
    "OneOf",
    "PropertyHierarchy",
    "Reasoner",
    "ReasoningReport",
    "SomeValuesFrom",
    "SubClassAxiom",
    "UnionOf",
    "parse_class_expression",
    "render_tree",
    "vocabulary",
]
