"""Pure-Python RDF substrate: terms, graphs, namespaces, Turtle and N-Triples.

This package replaces the RDFLib dependency that the original paper's
tooling assumes; only the surface actually exercised by the Food
Explanation Ontology pipeline is implemented, but it is implemented
faithfully (indexed triple store, Turtle/N-Triples round-tripping,
namespace management and blank-node-aware graph comparison).
"""

from .collection import make_collection, read_collection
from .compare import graph_diff, isomorphic
from .dictionary import TermDictionary
from .graph import ChangeJournal, EncodedTriple, FrozenGraphError, Graph, Triple
from .namespace import (
    DC,
    DEFAULT_PREFIXES,
    EO,
    FEO,
    FOAF,
    FOOD,
    FOODKG,
    OWL,
    PROV,
    RDF,
    RDFS,
    SIO,
    SKOS,
    XSD,
    Namespace,
    NamespaceManager,
)
from .terms import (
    BNode,
    IRI,
    Identifier,
    Literal,
    Term,
    URIRef,
    Variable,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_INTEGER,
    XSD_STRING,
)

__all__ = [
    "BNode",
    "ChangeJournal",
    "DC",
    "DEFAULT_PREFIXES",
    "EO",
    "EncodedTriple",
    "FEO",
    "FOAF",
    "FOOD",
    "FOODKG",
    "FrozenGraphError",
    "Graph",
    "IRI",
    "Identifier",
    "Literal",
    "Namespace",
    "NamespaceManager",
    "OWL",
    "PROV",
    "RDF",
    "RDFS",
    "SIO",
    "SKOS",
    "Term",
    "TermDictionary",
    "Triple",
    "URIRef",
    "Variable",
    "XSD",
    "XSD_BOOLEAN",
    "XSD_DATE",
    "XSD_DATETIME",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_FLOAT",
    "XSD_INTEGER",
    "XSD_STRING",
    "graph_diff",
    "isomorphic",
    "make_collection",
    "read_collection",
]
