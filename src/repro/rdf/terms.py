"""RDF term model: IRIs, blank nodes, literals and variables.

This module provides the building blocks of the RDF data model used
throughout the reproduction.  The design deliberately mirrors the small
surface of rdflib that the paper's tooling relies on (``URIRef``,
``BNode``, ``Literal``, ``Namespace``) so that code written against this
package reads like ordinary semantic-web Python.

All terms are immutable and hashable so they can be used as dictionary
keys inside the indexed triple store.
"""

from __future__ import annotations

import itertools
import re
from decimal import Decimal, InvalidOperation
from typing import Any, Optional, Union

__all__ = [
    "Term",
    "Identifier",
    "IRI",
    "URIRef",
    "BNode",
    "Literal",
    "Variable",
    "XSD_STRING",
    "XSD_BOOLEAN",
    "XSD_INTEGER",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_FLOAT",
    "XSD_DATE",
    "XSD_DATETIME",
    "RDF_LANGSTRING",
]

_XSD = "http://www.w3.org/2001/XMLSchema#"
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


class Term:
    """Abstract base class for every RDF term."""

    __slots__ = ()

    def n3(self) -> str:
        """Return the N3/Turtle surface form of this term."""
        raise NotImplementedError


class Identifier(Term, str):
    """A term that is identified by a string value (IRI or blank node)."""

    __slots__ = ()

    def __new__(cls, value: str):
        return str.__new__(cls, value)

    @property
    def value(self) -> str:
        return str(self)


class IRI(Identifier):
    """An IRI reference (``URIRef`` in rdflib terminology)."""

    __slots__ = ()

    def __new__(cls, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be a string, got {type(value)!r}")
        return Identifier.__new__(cls, value)

    def n3(self) -> str:
        return f"<{self}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IRI({str.__repr__(self)})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, IRI):
            return str.__eq__(self, other)
        if isinstance(other, (BNode, Literal, Variable)):
            return False
        if isinstance(other, str):
            return str.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return str.__hash__(self)

    def defrag(self) -> "IRI":
        """Return the IRI with any fragment removed."""
        if "#" in self:
            return IRI(self.split("#", 1)[0])
        return self

    def local_name(self) -> str:
        """Return the part after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self:
                candidate = self.rsplit(sep, 1)[1]
                if candidate:
                    return candidate
        return str(self)


# Alias matching rdflib naming for familiarity.
URIRef = IRI


_bnode_counter = itertools.count()


class BNode(Identifier):
    """A blank node with an internal label."""

    __slots__ = ()

    def __new__(cls, label: Optional[str] = None):
        if label is None:
            label = f"b{next(_bnode_counter)}"
        if not isinstance(label, str):
            raise TypeError("BNode label must be a string")
        return Identifier.__new__(cls, label)

    def n3(self) -> str:
        return f"_:{self}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"BNode({str.__repr__(self)})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, BNode):
            return str.__eq__(self, other)
        if isinstance(other, Term):
            return False
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return str.__hash__(self) ^ 0x5F5F


XSD_STRING = IRI(_XSD + "string")
XSD_BOOLEAN = IRI(_XSD + "boolean")
XSD_INTEGER = IRI(_XSD + "integer")
XSD_DECIMAL = IRI(_XSD + "decimal")
XSD_DOUBLE = IRI(_XSD + "double")
XSD_FLOAT = IRI(_XSD + "float")
XSD_DATE = IRI(_XSD + "date")
XSD_DATETIME = IRI(_XSD + "dateTime")
RDF_LANGSTRING = IRI(_RDF + "langString")

_NUMERIC_DATATYPES = {XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_FLOAT}

_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(value: str) -> str:
    out = []
    for char in value:
        escaped = _ESCAPES.get(char)
        if escaped is not None:
            out.append(escaped)
        elif ord(char) < 0x20 or char in ("\x85", "\u2028", "\u2029"):
            # Control characters and unicode line separators (which
            # str.splitlines treats as line breaks) must be \u-escaped so the
            # line-oriented serialisations stay one-statement-per-line.
            out.append(f"\\u{ord(char):04X}")
        else:
            out.append(char)
    return "".join(out)


class Literal(Term):
    """An RDF literal with optional language tag or datatype.

    The constructor accepts native Python values (``int``, ``float``,
    ``bool``, ``Decimal``) and infers the corresponding XSD datatype, the
    same convenience rdflib users rely on.
    """

    __slots__ = ("_lexical", "_language", "_datatype", "_value", "_hash")

    def __init__(
        self,
        lexical: Union[str, int, float, bool, Decimal],
        language: Optional[str] = None,
        datatype: Optional[IRI] = None,
    ) -> None:
        if language is not None and datatype is not None:
            raise ValueError("A literal cannot carry both a language tag and a datatype")

        inferred_datatype = datatype
        if isinstance(lexical, bool):
            lexical_str = "true" if lexical else "false"
            inferred_datatype = inferred_datatype or XSD_BOOLEAN
        elif isinstance(lexical, int):
            lexical_str = str(lexical)
            inferred_datatype = inferred_datatype or XSD_INTEGER
        elif isinstance(lexical, float):
            lexical_str = repr(lexical)
            inferred_datatype = inferred_datatype or XSD_DOUBLE
        elif isinstance(lexical, Decimal):
            lexical_str = str(lexical)
            inferred_datatype = inferred_datatype or XSD_DECIMAL
        else:
            lexical_str = str(lexical)

        if language is not None:
            language = language.lower()

        self._lexical = lexical_str
        self._language = language
        self._datatype = inferred_datatype
        self._value = self._parse_value()
        self._hash = None

    # -- value space ---------------------------------------------------
    def _parse_value(self) -> Any:
        dt = self._datatype
        text = self._lexical
        if dt is None or dt == XSD_STRING or dt == RDF_LANGSTRING:
            return text
        try:
            if dt == XSD_BOOLEAN:
                if text in ("true", "1"):
                    return True
                if text in ("false", "0"):
                    return False
                return text
            if dt == XSD_INTEGER:
                return int(text)
            if dt in (XSD_DOUBLE, XSD_FLOAT):
                return float(text)
            if dt == XSD_DECIMAL:
                return Decimal(text)
        except (ValueError, InvalidOperation):
            return text
        return text

    # -- accessors ------------------------------------------------------
    @property
    def lexical(self) -> str:
        return self._lexical

    @property
    def language(self) -> Optional[str]:
        return self._language

    @property
    def datatype(self) -> Optional[IRI]:
        return self._datatype

    @property
    def value(self) -> Any:
        """The Python value of the literal (falls back to the lexical form)."""
        return self._value

    def is_numeric(self) -> bool:
        return self._datatype in _NUMERIC_DATATYPES

    # -- serialisation ---------------------------------------------------
    def n3(self) -> str:
        quoted = f'"{_escape_literal(self._lexical)}"'
        if self._language:
            return f"{quoted}@{self._language}"
        if self._datatype and self._datatype != XSD_STRING:
            return f"{quoted}^^{self._datatype.n3()}"
        return quoted

    # -- dunder ----------------------------------------------------------
    def __str__(self) -> str:
        return self._lexical

    def __repr__(self) -> str:  # pragma: no cover
        parts = [repr(self._lexical)]
        if self._language:
            parts.append(f"lang={self._language!r}")
        if self._datatype:
            parts.append(f"datatype={str(self._datatype)!r}")
        return f"Literal({', '.join(parts)})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Literal):
            return (
                self._lexical == other._lexical
                and self._language == other._language
                and self._normalised_datatype() == other._normalised_datatype()
            )
        if isinstance(other, Term):
            return False
        if isinstance(other, bool):
            return self._datatype == XSD_BOOLEAN and self._value is other
        if isinstance(other, (int, float, Decimal)):
            return self.is_numeric() and self._value == other
        if isinstance(other, str):
            return self._language is None and self._normalised_datatype() == XSD_STRING and self._lexical == other
        return NotImplemented

    def _normalised_datatype(self) -> IRI:
        if self._language is not None:
            return RDF_LANGSTRING
        return self._datatype or XSD_STRING

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Literals are immutable and hashed constantly (dictionary
        # interning, triple-set membership, index keys), so the hash is
        # computed once and cached.
        cached = self._hash
        if cached is None:
            cached = hash((self._lexical, self._language, self._normalised_datatype()))
            self._hash = cached
        return cached

    def __lt__(self, other: "Literal") -> bool:
        if isinstance(other, Literal):
            if self.is_numeric() and other.is_numeric():
                return float(self._value) < float(other._value)
            return self._lexical < other._lexical
        return NotImplemented


_VARNAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Variable(Term, str):
    """A SPARQL query variable (``?name``)."""

    __slots__ = ()

    def __new__(cls, name: str):
        name = name.lstrip("?$")
        if not _VARNAME_RE.match(name):
            raise ValueError(f"Invalid variable name: {name!r}")
        return str.__new__(cls, name)

    def n3(self) -> str:
        return f"?{self}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"Variable({str.__repr__(self)})"

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Variable):
            return str.__eq__(self, other)
        if isinstance(other, Term):
            return False
        if isinstance(other, str):
            return str.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return str.__hash__(self) ^ 0x7A7A
