"""Namespace helpers and the well-known vocabularies used by the project.

``Namespace`` supports attribute and item access to mint IRIs, exactly as
users of rdflib expect::

    FEO = Namespace("https://purl.org/heals/feo#")
    FEO.Characteristic      # -> IRI('https://purl.org/heals/feo#Characteristic')
    FEO["LikedFoods"]       # -> IRI('https://purl.org/heals/feo#LikedFoods')

A :class:`NamespaceManager` maintains prefix bindings for serialisation and
for resolving prefixed names in the SPARQL and Turtle parsers.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .terms import IRI

__all__ = [
    "Namespace",
    "NamespaceManager",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "FOAF",
    "DC",
    "PROV",
    "SKOS",
    "EO",
    "FEO",
    "FOOD",
    "FOODKG",
    "SIO",
    "DEFAULT_PREFIXES",
]


class Namespace(str):
    """A base IRI from which terms can be minted via attribute access."""

    def __new__(cls, base: str):
        return str.__new__(cls, base)

    def term(self, name: str) -> IRI:
        return IRI(str(self) + name)

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        return self.term(name)

    def __getitem__(self, name) -> IRI:
        if isinstance(name, str):
            return self.term(name)
        return str.__getitem__(self, name)

    def __contains__(self, item) -> bool:
        if isinstance(item, str):
            return item.startswith(str(self))
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"Namespace({str.__repr__(self)})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
DC = Namespace("http://purl.org/dc/terms/")
PROV = Namespace("http://www.w3.org/ns/prov#")
SKOS = Namespace("http://www.w3.org/2004/02/skos/core#")
SIO = Namespace("http://semanticscience.org/resource/")

# Project vocabularies (IRIs follow the paper's published namespaces).
EO = Namespace("https://purl.org/heals/eo#")
FEO = Namespace("https://purl.org/heals/feo#")
FOOD = Namespace("http://purl.org/heals/food/")
FOODKG = Namespace("http://idea.rpi.edu/heals/kb/")

DEFAULT_PREFIXES: Dict[str, Namespace] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
    "foaf": FOAF,
    "dcterms": DC,
    "prov": PROV,
    "skos": SKOS,
    "sio": SIO,
    "eo": EO,
    "feo": FEO,
    "food": FOOD,
    "foodkg": FOODKG,
}


class NamespaceManager:
    """Tracks prefix ↔ namespace bindings for a graph."""

    def __init__(self, bind_defaults: bool = True) -> None:
        self._prefix_to_ns: Dict[str, str] = {}
        self._ns_to_prefix: Dict[str, str] = {}
        if bind_defaults:
            for prefix, namespace in DEFAULT_PREFIXES.items():
                self.bind(prefix, namespace)

    def bind(self, prefix: str, namespace: str, replace: bool = True) -> None:
        """Bind ``prefix`` to ``namespace``; later bindings win when ``replace``."""
        namespace = str(namespace)
        if not replace and prefix in self._prefix_to_ns:
            return
        old = self._prefix_to_ns.get(prefix)
        if old is not None and self._ns_to_prefix.get(old) == prefix:
            del self._ns_to_prefix[old]
        self._prefix_to_ns[prefix] = namespace
        self._ns_to_prefix[namespace] = prefix

    def namespaces(self) -> Iterator[Tuple[str, str]]:
        yield from sorted(self._prefix_to_ns.items())

    def expand(self, qname: str) -> IRI:
        """Expand a prefixed name (``feo:Characteristic``) to a full IRI."""
        if ":" not in qname:
            raise ValueError(f"Not a prefixed name: {qname!r}")
        prefix, local = qname.split(":", 1)
        try:
            namespace = self._prefix_to_ns[prefix]
        except KeyError as exc:
            raise KeyError(f"Unknown prefix: {prefix!r}") from exc
        return IRI(namespace + local)

    def qname(self, iri: IRI) -> Optional[str]:
        """Compact ``iri`` to a prefixed name if a binding covers it."""
        text = str(iri)
        best: Optional[Tuple[str, str]] = None
        for namespace, prefix in self._ns_to_prefix.items():
            if text.startswith(namespace) and len(namespace) > (len(best[0]) if best else -1):
                best = (namespace, prefix)
        if best is None:
            return None
        namespace, prefix = best
        local = text[len(namespace):]
        if not local or any(ch in local for ch in "/#?"):
            return None
        return f"{prefix}:{local}"

    def namespace_for(self, prefix: str) -> Optional[str]:
        return self._prefix_to_ns.get(prefix)

    def copy(self) -> "NamespaceManager":
        clone = NamespaceManager(bind_defaults=False)
        for prefix, namespace in self._prefix_to_ns.items():
            clone.bind(prefix, namespace)
        return clone
