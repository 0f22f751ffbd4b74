"""Recursive-descent parser for the SPARQL subset.

Grammar coverage (sufficient for every query in the paper and the wider
benchmark suite):

* ``SELECT [DISTINCT] (?var | (expr AS ?var))+ | *``
* ``ASK`` and ``CONSTRUCT { template }``
* group graph patterns with nested groups, ``OPTIONAL``, ``UNION``,
  ``MINUS``, ``FILTER`` (including ``EXISTS`` / ``NOT EXISTS``), ``BIND``
  and ``VALUES``
* property paths ``^p``, ``p/q``, ``p|q``, ``p+``, ``p*``, ``p?``
* expressions with ``|| && ! = != < <= > >= IN NOT IN``, arithmetic and
  the common built-in functions
* solution modifiers ``GROUP BY``, ``HAVING``, ``ORDER BY``, ``LIMIT``,
  ``OFFSET``

Keywords are case-insensitive, as in the SPARQL recommendation.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union

from ..rdf.namespace import NamespaceManager, RDF
from ..rdf.terms import BNode, IRI, Literal, Variable, XSD_BOOLEAN, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from .algebra import (
    AggregateExpr,
    AlternativePath,
    AskQuery,
    BGP,
    BinaryExpr,
    BindPattern,
    ConstructQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionExpr,
    GroupPattern,
    InExpr,
    InversePath,
    MinusPattern,
    ModifiedPath,
    OptionalPattern,
    OrderCondition,
    PathExpr,
    PredicatePath,
    Projection,
    Query,
    SelectQuery,
    SequencePath,
    TermExpr,
    TriplePattern,
    UnaryExpr,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)
from .tokenizer import SparqlSyntaxError, Token, tokenize

__all__ = ["parse_query", "SparqlSyntaxError"]

RDF_TYPE = IRI(RDF.type)

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"}

#: Built-in function name -> (fewest, most) arguments, per the SPARQL 1.1
#: grammar; ``None`` means unbounded.
_BUILTIN_FUNCTIONS = {
    **dict.fromkeys(("BOUND", "STR", "LANG", "DATATYPE", "IRI", "URI", "STRLEN",
                     "UCASE", "LCASE", "ABS", "CEIL", "FLOOR", "ROUND", "ISIRI",
                     "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC", "ENCODE_FOR_URI",
                     "YEAR", "MONTH", "DAY"), (1, 1)),
    **dict.fromkeys(("LANGMATCHES", "CONTAINS", "STRSTARTS", "STRENDS", "STRBEFORE",
                     "STRAFTER", "SAMETERM"), (2, 2)),
    "BNODE": (0, 1), "REGEX": (2, 3), "SUBSTR": (2, 3), "REPLACE": (3, 4),
    "IF": (3, 3), "CONCAT": (0, None), "COALESCE": (0, None),
}

_STR_UNESCAPE = {
    "t": "\t",
    "n": "\n",
    "r": "\r",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text):
            out.append(_STR_UNESCAPE.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _in_scope(pattern) -> Set[Variable]:
    """The variables a group element brings into scope (FILTER/MINUS: none)."""
    if isinstance(pattern, BGP):
        return {var for triple in pattern.triples for var in triple.variables()}
    if isinstance(pattern, GroupPattern):
        return set().union(*(_in_scope(element) for element in pattern.patterns))
    if isinstance(pattern, OptionalPattern):
        return _in_scope(pattern.pattern)
    if isinstance(pattern, UnionPattern):
        return set().union(*(_in_scope(alternative) for alternative in pattern.alternatives))
    if isinstance(pattern, BindPattern):
        return {pattern.variable}
    if isinstance(pattern, ValuesPattern):
        return set(pattern.variables)
    return set()


class _Parser:
    def __init__(self, tokens: List[Token], namespaces: Optional[NamespaceManager]) -> None:
        self.tokens = tokens
        self.index = 0
        self.namespaces = namespaces.copy() if namespaces else NamespaceManager()
        self.base: Optional[str] = None

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def error(self, message: str) -> SparqlSyntaxError:
        token = self.peek()
        return SparqlSyntaxError(f"Line {token.line}: {message} (near {token.value!r})")

    def expect_punct(self, char: str) -> None:
        token = self.next()
        if not (token.kind in ("PUNCT", "OP") and token.value == char):
            raise SparqlSyntaxError(
                f"Line {token.line}: expected {char!r}, found {token.value!r}"
            )

    def expect_keyword(self, *names: str) -> Token:
        token = self.next()
        if token.kind != "KEYWORD" or token.value not in names:
            raise SparqlSyntaxError(
                f"Line {token.line}: expected {'/'.join(names)}, found {token.value!r}"
            )
        return token

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token.kind in ("PUNCT", "OP") and token.value == char

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> Query:
        self._parse_prologue()
        token = self.peek()
        if token.is_keyword("SELECT"):
            query = self._parse_select()
        elif token.is_keyword("ASK"):
            query = self._parse_ask()
        elif token.is_keyword("CONSTRUCT"):
            query = self._parse_construct()
        else:
            raise self.error("expected SELECT, ASK or CONSTRUCT")
        if self.peek().kind != "EOF":
            raise self.error("unexpected trailing content")
        return query

    def _parse_prologue(self) -> None:
        while True:
            token = self.peek()
            if token.is_keyword("PREFIX"):
                self.next()
                pname = self.next()
                if ":" not in pname.value:
                    raise self.error("malformed PREFIX declaration")
                prefix = pname.value.split(":", 1)[0]
                iri_token = self.next()
                if iri_token.kind != "IRIREF":
                    raise self.error("PREFIX requires an IRI")
                self.namespaces.bind(prefix, iri_token.value[1:-1])
            elif token.is_keyword("BASE"):
                self.next()
                iri_token = self.next()
                if iri_token.kind != "IRIREF":
                    raise self.error("BASE requires an IRI")
                self.base = iri_token.value[1:-1]
            else:
                return

    # ------------------------------------------------------------------
    # Query forms
    # ------------------------------------------------------------------
    def _parse_select(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = False
        if self.peek().is_keyword("DISTINCT"):
            self.next()
            distinct = True
        elif self.peek().is_keyword("REDUCED"):
            self.next()

        projections: List[Projection] = []
        select_all = False
        if self.at_punct("*"):
            self.next()
            select_all = True
        else:
            while True:
                token = self.peek()
                if token.kind == "VAR":
                    self.next()
                    projections.append(Projection(Variable(token.value)))
                elif self.at_punct("("):
                    self.next()
                    expr = self._parse_expression()
                    self.expect_keyword("AS")
                    var_token = self.next()
                    if var_token.kind != "VAR":
                        raise self.error("expected a variable after AS")
                    self.expect_punct(")")
                    projections.append(Projection(Variable(var_token.value), expr))
                else:
                    break
            if not projections:
                raise self.error("SELECT requires at least one projection or *")

        if self.peek().is_keyword("WHERE"):
            self.next()
        where = self._parse_group_graph_pattern()
        query = SelectQuery(
            projections=projections,
            where=where,
            distinct=distinct,
            select_all=select_all,
        )
        self._parse_solution_modifiers(query)
        return query

    def _parse_ask(self) -> AskQuery:
        self.expect_keyword("ASK")
        if self.peek().is_keyword("WHERE"):
            self.next()
        return AskQuery(where=self._parse_group_graph_pattern())

    def _parse_construct(self) -> ConstructQuery:
        self.expect_keyword("CONSTRUCT")
        template = self._parse_construct_template()
        self.expect_keyword("WHERE")
        where = self._parse_group_graph_pattern()
        query = ConstructQuery(template=template, where=where)
        select_stub = SelectQuery(projections=[], where=where)
        self._parse_solution_modifiers(select_stub)
        query.limit = select_stub.limit
        query.offset = select_stub.offset
        return query

    def _parse_construct_template(self) -> List[TriplePattern]:
        self.expect_punct("{")
        triples: List[TriplePattern] = []
        while not self.at_punct("}"):
            triples.extend(self._parse_triples_same_subject(allow_paths=False))
            if self.at_punct("."):
                self.next()
        self.expect_punct("}")
        return triples

    def _parse_solution_modifiers(self, query: SelectQuery) -> None:
        while True:
            token = self.peek()
            if token.is_keyword("GROUP"):
                self.next()
                self.expect_keyword("BY")
                while True:
                    nxt = self.peek()
                    if nxt.kind == "VAR":
                        self.next()
                        query.group_by.append(VariableExpr(Variable(nxt.value)))
                    elif self.at_punct("("):
                        self.next()
                        query.group_by.append(self._parse_expression())
                        self.expect_punct(")")
                    else:
                        break
            elif token.is_keyword("HAVING"):
                self.next()
                self.expect_punct("(")
                query.having.append(self._parse_expression())
                self.expect_punct(")")
            elif token.is_keyword("ORDER"):
                self.next()
                self.expect_keyword("BY")
                while True:
                    nxt = self.peek()
                    if nxt.is_keyword("ASC", "DESC"):
                        self.next()
                        descending = nxt.value == "DESC"
                        self.expect_punct("(")
                        expr = self._parse_expression()
                        self.expect_punct(")")
                        query.order_by.append(OrderCondition(expr, descending))
                    elif nxt.kind == "VAR":
                        self.next()
                        query.order_by.append(
                            OrderCondition(VariableExpr(Variable(nxt.value)))
                        )
                    else:
                        break
            elif token.is_keyword("LIMIT"):
                self.next()
                value = self.next()
                if value.kind != "INTEGER":
                    raise self.error("LIMIT requires an integer")
                query.limit = int(value.value)
            elif token.is_keyword("OFFSET"):
                self.next()
                value = self.next()
                if value.kind != "INTEGER":
                    raise self.error("OFFSET requires an integer")
                query.offset = int(value.value)
            else:
                return

    # ------------------------------------------------------------------
    # Graph patterns
    # ------------------------------------------------------------------
    def _parse_group_graph_pattern(self) -> GroupPattern:
        self.expect_punct("{")
        group = GroupPattern()
        while not self.at_punct("}"):
            token = self.peek()
            if token.is_keyword("FILTER"):
                self.next()
                group.patterns.append(FilterPattern(self._parse_constraint()))
            elif token.is_keyword("OPTIONAL"):
                self.next()
                group.patterns.append(OptionalPattern(self._parse_group_graph_pattern()))
            elif token.is_keyword("MINUS"):
                self.next()
                group.patterns.append(MinusPattern(self._parse_group_graph_pattern()))
            elif token.is_keyword("BIND"):
                self.next()
                self.expect_punct("(")
                expr = self._parse_expression()
                self.expect_keyword("AS")
                var_token = self.next()
                if var_token.kind != "VAR":
                    raise self.error("BIND requires a variable after AS")
                variable = Variable(var_token.value)
                # SPARQL 1.1 §18.2.1: the BIND variable must not already be
                # in scope from the preceding elements of the group.
                if any(variable in _in_scope(element) for element in group.patterns):
                    raise self.error(f"BIND would rebind in-scope variable ?{variable}")
                self.expect_punct(")")
                group.patterns.append(BindPattern(expr, variable))
            elif token.is_keyword("VALUES"):
                self.next()
                group.patterns.append(self._parse_values())
            elif self.at_punct("{"):
                group.patterns.append(self._parse_group_or_union())
            elif self.at_punct("."):
                self.next()
            else:
                bgp = BGP()
                bgp.triples.extend(self._parse_triples_same_subject(allow_paths=True))
                while self.at_punct("."):
                    self.next()
                    nxt = self.peek()
                    if nxt.kind in ("VAR", "IRIREF", "PNAME", "BLANK") or self.at_punct("[") or self.at_punct("("):
                        bgp.triples.extend(self._parse_triples_same_subject(allow_paths=True))
                    else:
                        break
                group.patterns.append(bgp)
        self.expect_punct("}")
        return group

    def _parse_group_or_union(self) -> Union[GroupPattern, UnionPattern]:
        first = self._parse_group_graph_pattern()
        if not self.peek().is_keyword("UNION"):
            return first
        union = UnionPattern(alternatives=[first])
        while self.peek().is_keyword("UNION"):
            self.next()
            union.alternatives.append(self._parse_group_graph_pattern())
        return union

    def _parse_constraint(self) -> Expression:
        token = self.peek()
        if token.is_keyword("EXISTS"):
            self.next()
            return ExistsExpr(self._parse_group_graph_pattern(), negated=False)
        if token.is_keyword("NOT"):
            self.next()
            self.expect_keyword("EXISTS")
            return ExistsExpr(self._parse_group_graph_pattern(), negated=True)
        if self.at_punct("("):
            self.next()
            expr = self._parse_expression()
            self.expect_punct(")")
            return expr
        # Bare builtin call, e.g. FILTER regex(?x, "a")
        return self._parse_primary_expression()

    def _parse_values(self) -> ValuesPattern:
        values = ValuesPattern()
        token = self.peek()
        if token.kind == "VAR":
            self.next()
            values.variables.append(Variable(token.value))
            self.expect_punct("{")
            while not self.at_punct("}"):
                values.rows.append([self._parse_values_term()])
            self.expect_punct("}")
            return values
        self.expect_punct("(")
        while self.peek().kind == "VAR":
            values.variables.append(Variable(self.next().value))
        self.expect_punct(")")
        self.expect_punct("{")
        while self.at_punct("("):
            self.next()
            row = []
            while not self.at_punct(")"):
                row.append(self._parse_values_term())
            self.expect_punct(")")
            if len(row) != len(values.variables):
                raise self.error("VALUES row arity mismatch")
            values.rows.append(row)
        self.expect_punct("}")
        return values

    def _parse_values_term(self):
        token = self.peek()
        if token.is_keyword("UNDEF"):
            self.next()
            return None
        return self._parse_graph_term()

    # ------------------------------------------------------------------
    # Triples
    # ------------------------------------------------------------------
    def _parse_triples_same_subject(self, allow_paths: bool) -> List[TriplePattern]:
        triples: List[TriplePattern] = []
        subject = self._parse_term_or_blank(triples, allow_paths)
        self._parse_property_list(subject, triples, allow_paths)
        return triples

    def _parse_term_or_blank(self, triples: List[TriplePattern], allow_paths: bool):
        if self.at_punct("["):
            self.next()
            node = BNode()
            if not self.at_punct("]"):
                self._parse_property_list(node, triples, allow_paths)
            self.expect_punct("]")
            return node
        return self._parse_graph_term()

    def _parse_property_list(self, subject, triples: List[TriplePattern], allow_paths: bool) -> None:
        while True:
            predicate = self._parse_verb(allow_paths)
            while True:
                obj = self._parse_term_or_blank(triples, allow_paths)
                triples.append(TriplePattern(subject, predicate, obj))
                if self.at_punct(","):
                    self.next()
                    continue
                break
            if self.at_punct(";"):
                self.next()
                nxt = self.peek()
                if nxt.kind in ("PUNCT", "OP") and nxt.value in (".", "]", "}"):
                    return
                continue
            return

    def _parse_verb(self, allow_paths: bool):
        token = self.peek()
        if token.kind == "VAR":
            self.next()
            return Variable(token.value)
        if token.is_keyword("A"):
            self.next()
            if allow_paths:
                path = self._maybe_path_suffix(PredicatePath(RDF_TYPE))
                return path.iri if isinstance(path, PredicatePath) else path
            return RDF_TYPE
        if allow_paths:
            return self._parse_path()
        term = self._parse_graph_term()
        if not isinstance(term, IRI):
            raise self.error("predicate must be an IRI")
        return term

    # -- property paths ---------------------------------------------------
    def _parse_path(self) -> Union[IRI, PathExpr]:
        path = self._parse_path_alternative()
        if isinstance(path, PredicatePath):
            return path.iri
        return path

    def _parse_path_alternative(self) -> PathExpr:
        options = [self._parse_path_sequence()]
        while self.at_punct("|"):
            self.next()
            options.append(self._parse_path_sequence())
        if len(options) == 1:
            return options[0]
        return AlternativePath(tuple(options))

    def _parse_path_sequence(self) -> PathExpr:
        steps = [self._parse_path_elt_or_inverse()]
        while self.at_punct("/"):
            self.next()
            steps.append(self._parse_path_elt_or_inverse())
        if len(steps) == 1:
            return steps[0]
        return SequencePath(tuple(steps))

    def _parse_path_elt_or_inverse(self) -> PathExpr:
        if self.at_punct("^"):
            self.next()
            return InversePath(self._parse_path_elt())
        return self._parse_path_elt()

    def _parse_path_elt(self) -> PathExpr:
        primary = self._parse_path_primary()
        return self._maybe_path_suffix(primary)

    def _maybe_path_suffix(self, primary: PathExpr) -> PathExpr:
        token = self.peek()
        if token.kind == "OP" and token.value in ("+", "*"):
            self.next()
            return ModifiedPath(primary, token.value)
        if token.kind == "OP" and token.value == "?":  # pragma: no cover - '?' lexes as VAR
            self.next()
            return ModifiedPath(primary, "?")
        return primary

    def _parse_path_primary(self) -> PathExpr:
        token = self.peek()
        if self.at_punct("("):
            self.next()
            inner = self._parse_path_alternative()
            self.expect_punct(")")
            return inner
        if token.is_keyword("A"):
            self.next()
            return PredicatePath(RDF_TYPE)
        term = self._parse_graph_term()
        if not isinstance(term, IRI):
            raise self.error("property path element must be an IRI")
        return PredicatePath(term)

    # -- graph terms -------------------------------------------------------
    def _parse_graph_term(self):
        token = self.next()
        if token.kind == "VAR":
            return Variable(token.value)
        if token.kind == "IRIREF":
            iri = token.value[1:-1]
            if self.base and not iri.startswith(("http://", "https://", "urn:", "file:", "mailto:")):
                iri = self.base + iri
            return IRI(iri)
        if token.kind == "PNAME":
            try:
                return self.namespaces.expand(token.value)
            except KeyError as exc:
                raise SparqlSyntaxError(f"Line {token.line}: {exc}") from exc
        if token.kind == "BLANK":
            return BNode(token.value[2:])
        if token.kind in ("STRING", "SQ_STRING", "TRIPLE_STRING"):
            if token.kind == "TRIPLE_STRING":
                value = _unescape(token.value[3:-3])
            else:
                value = _unescape(token.value[1:-1])
            nxt = self.peek()
            if nxt.kind == "LANGTAG":
                self.next()
                return Literal(value, language=nxt.value[1:])
            if nxt.kind == "OP" and nxt.value == "^^":
                self.next()
                datatype = self._parse_graph_term()
                if not isinstance(datatype, IRI):
                    raise self.error("datatype must be an IRI")
                return Literal(value, datatype=datatype)
            return Literal(value)
        if token.kind == "INTEGER":
            return Literal(token.value, datatype=XSD_INTEGER)
        if token.kind == "DECIMAL":
            return Literal(token.value, datatype=XSD_DECIMAL)
        if token.kind == "DOUBLE":
            return Literal(token.value, datatype=XSD_DOUBLE)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            return Literal(token.value.lower(), datatype=XSD_BOOLEAN)
        raise SparqlSyntaxError(
            f"Line {token.line}: expected an RDF term, found {token.value!r}"
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_or_expression()

    def _parse_or_expression(self) -> Expression:
        left = self._parse_and_expression()
        while self.peek().kind == "OP" and self.peek().value == "||":
            self.next()
            right = self._parse_and_expression()
            left = BinaryExpr("||", left, right)
        return left

    def _parse_and_expression(self) -> Expression:
        left = self._parse_relational_expression()
        while self.peek().kind == "OP" and self.peek().value == "&&":
            self.next()
            right = self._parse_relational_expression()
            left = BinaryExpr("&&", left, right)
        return left

    def _parse_relational_expression(self) -> Expression:
        left = self._parse_additive_expression()
        token = self.peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            right = self._parse_additive_expression()
            return BinaryExpr(token.value, left, right)
        if token.is_keyword("IN"):
            self.next()
            return InExpr(left, tuple(self._parse_expression_list()), negated=False)
        if token.is_keyword("NOT"):
            self.next()
            self.expect_keyword("IN")
            return InExpr(left, tuple(self._parse_expression_list()), negated=True)
        return left

    def _parse_expression_list(self) -> List[Expression]:
        self.expect_punct("(")
        items: List[Expression] = []
        if not self.at_punct(")"):
            items.append(self._parse_expression())
            while self.at_punct(","):
                self.next()
                items.append(self._parse_expression())
        self.expect_punct(")")
        return items

    def _parse_additive_expression(self) -> Expression:
        left = self._parse_multiplicative_expression()
        while self.peek().kind == "OP" and self.peek().value in ("+", "-"):
            operator = self.next().value
            right = self._parse_multiplicative_expression()
            left = BinaryExpr(operator, left, right)
        return left

    def _parse_multiplicative_expression(self) -> Expression:
        left = self._parse_unary_expression()
        while self.peek().kind in ("OP", "PUNCT") and self.peek().value in ("*", "/"):
            operator = self.next().value
            right = self._parse_unary_expression()
            left = BinaryExpr(operator, left, right)
        return left

    def _parse_unary_expression(self) -> Expression:
        token = self.peek()
        if token.kind == "OP" and token.value in ("!", "-", "+"):
            self.next()
            return UnaryExpr(token.value, self._parse_unary_expression())
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        token = self.peek()
        if self.at_punct("("):
            self.next()
            expr = self._parse_expression()
            self.expect_punct(")")
            return expr
        if token.kind == "VAR":
            self.next()
            return VariableExpr(Variable(token.value))
        if token.kind == "KEYWORD":
            if token.value in ("TRUE", "FALSE"):
                self.next()
                return TermExpr(Literal(token.value.lower(), datatype=XSD_BOOLEAN))
            if token.value in _AGGREGATES:
                return self._parse_aggregate()
            if token.value == "EXISTS":
                self.next()
                return ExistsExpr(self._parse_group_graph_pattern(), negated=False)
            if token.value == "NOT":
                self.next()
                self.expect_keyword("EXISTS")
                return ExistsExpr(self._parse_group_graph_pattern(), negated=True)
            if token.value in _BUILTIN_FUNCTIONS:
                self.next()
                args: Tuple[Expression, ...] = ()
                if self.at_punct("("):
                    args = tuple(self._parse_expression_list())
                fewest, most = _BUILTIN_FUNCTIONS[token.value]
                if len(args) < fewest or (most is not None and len(args) > most):
                    raise self.error(f"wrong number of arguments ({len(args)}) "
                                     f"for {token.value}")
                return FunctionExpr(token.value, args)
        term = self._parse_graph_term()
        if isinstance(term, Variable):
            return VariableExpr(term)
        return TermExpr(term)

    def _parse_aggregate(self) -> AggregateExpr:
        name = self.next().value
        self.expect_punct("(")
        distinct = False
        if self.peek().is_keyword("DISTINCT"):
            self.next()
            distinct = True
        if self.at_punct("*"):
            self.next()
            self.expect_punct(")")
            return AggregateExpr(name, None, distinct)
        argument = self._parse_expression()
        separator = " "
        if self.at_punct(";"):
            self.next()
            self.expect_keyword("SEPARATOR")
            self.expect_punct("=")
            sep_token = self.next()
            if sep_token.kind not in ("STRING", "SQ_STRING"):
                raise self.error("SEPARATOR requires a string")
            separator = _unescape(sep_token.value[1:-1])
        self.expect_punct(")")
        return AggregateExpr(name, argument, distinct, separator)


def parse_query(text: str, namespaces: Optional[NamespaceManager] = None) -> Query:
    """Parse SPARQL ``text`` into an algebra tree.

    ``namespaces`` provides fallback prefix bindings (typically those of the
    graph being queried) so that queries can use well-known prefixes without
    repeating ``PREFIX`` declarations.
    """
    parser = _Parser(tokenize(text), namespaces)
    return parser.parse()
