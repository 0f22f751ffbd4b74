"""Evaluation of SPARQL expressions and built-in functions.

The evaluator follows the SPARQL semantics that matter in practice:

* an error (e.g. an unbound variable used in a comparison) makes a filter
  reject the solution rather than aborting the query — errors propagate as
  :class:`ExpressionError`;
* the effective boolean value (EBV) rules are applied for ``FILTER``;
* comparisons are value-based for numeric literals and term-based otherwise.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import Any, Callable, Dict, Mapping, Optional

from ..rdf.terms import (
    BNode,
    IRI,
    Literal,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from .algebra import (
    AggregateExpr,
    BinaryExpr,
    ExistsExpr,
    Expression,
    FunctionExpr,
    InExpr,
    TermExpr,
    UnaryExpr,
    VariableExpr,
)

__all__ = ["ExpressionError", "evaluate_expression", "effective_boolean_value"]

TRUE = Literal("true", datatype=XSD_BOOLEAN)
FALSE = Literal("false", datatype=XSD_BOOLEAN)


class ExpressionError(Exception):
    """Raised when an expression cannot be evaluated (SPARQL 'error' value)."""


def _boolean(value: bool) -> Literal:
    return TRUE if value else FALSE


def effective_boolean_value(term: Any) -> bool:
    """Apply the SPARQL EBV rules to ``term``."""
    if isinstance(term, bool):
        return term
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            value = term.value
            if isinstance(value, bool):
                return value
            raise ExpressionError(f"invalid boolean literal {term.lexical!r}")
        if term.is_numeric():
            try:
                return float(term.value) != 0.0
            except (TypeError, ValueError) as exc:
                raise ExpressionError(str(exc)) from exc
        if term.datatype in (None, XSD_STRING) or term.language is not None:
            return len(term.lexical) > 0
        raise ExpressionError(f"no effective boolean value for {term!r}")
    if term is None:
        raise ExpressionError("unbound value has no effective boolean value")
    raise ExpressionError(f"no effective boolean value for {term!r}")


def _numeric_value(term: Any) -> float:
    if isinstance(term, Literal) and term.is_numeric():
        value = term.value
        if isinstance(value, Decimal):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
    raise ExpressionError(f"not a numeric literal: {term!r}")


def _string_value(term: Any) -> str:
    if isinstance(term, Literal):
        return term.lexical
    if isinstance(term, IRI):
        return str(term)
    raise ExpressionError(f"not a string value: {term!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        raise ExpressionError("comparison with unbound value")
    if isinstance(left, Literal) and isinstance(right, Literal):
        if left.is_numeric() and right.is_numeric():
            lv, rv = _numeric_value(left), _numeric_value(right)
        elif left.datatype == XSD_BOOLEAN and right.datatype == XSD_BOOLEAN:
            lv, rv = left.value, right.value
        else:
            lv, rv = left.lexical, right.lexical
            if op in ("=", "!="):
                if op == "=":
                    return left == right
                return left != right
    elif isinstance(left, (IRI, BNode)) and isinstance(right, (IRI, BNode)):
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        raise ExpressionError("ordering comparison on IRIs/blank nodes")
    else:
        # Mixed term kinds: only (in)equality is defined, and it is False/True.
        if op == "=":
            return False
        if op == "!=":
            return True
        raise ExpressionError("type error in comparison")
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    raise ExpressionError(f"unknown comparison operator {op!r}")


def _arithmetic(op: str, left: Any, right: Any) -> Literal:
    lv = _numeric_value(left)
    rv = _numeric_value(right)
    if op == "+":
        result = lv + rv
    elif op == "-":
        result = lv - rv
    elif op == "*":
        result = lv * rv
    elif op == "/":
        if rv == 0:
            raise ExpressionError("division by zero")
        result = lv / rv
    else:
        raise ExpressionError(f"unknown arithmetic operator {op!r}")
    if not math.isfinite(result):
        raise ExpressionError(f"non-finite result of {op!r}")
    if result == int(result) and op != "/":
        return Literal(int(result))
    return Literal(float(result), datatype=XSD_DOUBLE)


_SIMPLE_FUNCTIONS: Dict[str, Callable] = {}


def _register(name: str):
    def wrapper(func: Callable) -> Callable:
        _SIMPLE_FUNCTIONS[name] = func
        return func

    return wrapper


@_register("REGEX")
def _fn_regex(args) -> Literal:
    if len(args) < 2:
        raise ExpressionError("REGEX requires at least two arguments")
    text = _string_value(args[0])
    pattern = _string_value(args[1])
    flags = 0
    if len(args) > 2 and "i" in _string_value(args[2]):
        flags |= re.IGNORECASE
    return _boolean(re.search(pattern, text, flags) is not None)


@_register("REPLACE")
def _fn_replace(args) -> Literal:
    if len(args) < 3:
        raise ExpressionError("REPLACE requires three arguments")
    text = _string_value(args[0])
    pattern = _string_value(args[1])
    replacement = _string_value(args[2])
    flags = 0
    if len(args) > 3 and "i" in _string_value(args[3]):
        flags |= re.IGNORECASE
    return Literal(re.sub(pattern, replacement, text, flags=flags))


@_register("SUBSTR")
def _fn_substr(args) -> Literal:
    text = _string_value(args[0])
    start = int(_numeric_value(args[1]))
    if len(args) > 2:
        length = int(_numeric_value(args[2]))
        return Literal(text[start - 1:start - 1 + length])
    return Literal(text[start - 1:])


@_register("STR")
def _fn_str(args):
    term = args[0]
    if term is None:
        raise ExpressionError("STR of unbound value")
    if isinstance(term, Literal):
        return Literal(term.lexical)
    return Literal(str(term))


@_register("LANG")
def _fn_lang(args):
    term = args[0]
    if not isinstance(term, Literal):
        raise ExpressionError("LANG requires a literal")
    return Literal(term.language or "")


@_register("LANGMATCHES")
def _fn_langmatches(args):
    tag = _string_value(args[0]).lower()
    template = _string_value(args[1]).lower()
    if template == "*":
        return _boolean(bool(tag))
    return _boolean(tag == template or tag.startswith(template + "-"))


@_register("DATATYPE")
def _fn_datatype(args):
    term = args[0]
    if not isinstance(term, Literal):
        raise ExpressionError("DATATYPE requires a literal")
    if term.language is not None:
        from ..rdf.terms import RDF_LANGSTRING

        return RDF_LANGSTRING
    return term.datatype or XSD_STRING


@_register("IRI")
@_register("URI")
def _fn_iri(args):
    return IRI(_string_value(args[0]))


@_register("BNODE")
def _fn_bnode(args):
    return BNode()


@_register("BOUND")
def _fn_bound(args):
    return _boolean(args[0] is not None)


@_register("CONTAINS")
def _fn_contains(args):
    return _boolean(_string_value(args[1]) in _string_value(args[0]))


@_register("STRSTARTS")
def _fn_strstarts(args):
    return _boolean(_string_value(args[0]).startswith(_string_value(args[1])))


@_register("STRENDS")
def _fn_strends(args):
    return _boolean(_string_value(args[0]).endswith(_string_value(args[1])))


@_register("STRBEFORE")
def _fn_strbefore(args):
    text, sep = _string_value(args[0]), _string_value(args[1])
    index = text.find(sep)
    return Literal(text[:index] if index >= 0 else "")


@_register("STRAFTER")
def _fn_strafter(args):
    text, sep = _string_value(args[0]), _string_value(args[1])
    index = text.find(sep)
    return Literal(text[index + len(sep):] if index >= 0 else "")


@_register("STRLEN")
def _fn_strlen(args):
    return Literal(len(_string_value(args[0])))


@_register("UCASE")
def _fn_ucase(args):
    return Literal(_string_value(args[0]).upper())


@_register("LCASE")
def _fn_lcase(args):
    return Literal(_string_value(args[0]).lower())


@_register("CONCAT")
def _fn_concat(args):
    return Literal("".join(_string_value(a) for a in args))


@_register("ENCODE_FOR_URI")
def _fn_encode_for_uri(args):
    import urllib.parse

    return Literal(urllib.parse.quote(_string_value(args[0]), safe=""))


@_register("ABS")
def _fn_abs(args):
    value = _numeric_value(args[0])
    return Literal(abs(int(value)) if value == int(value) else abs(value))


@_register("CEIL")
def _fn_ceil(args):
    import math

    return Literal(int(math.ceil(_numeric_value(args[0]))))


@_register("FLOOR")
def _fn_floor(args):
    import math

    return Literal(int(math.floor(_numeric_value(args[0]))))


@_register("ROUND")
def _fn_round(args):
    return Literal(int(round(_numeric_value(args[0]))))


@_register("SAMETERM")
def _fn_sameterm(args):
    return _boolean(args[0] == args[1] and type(args[0]) is type(args[1]))


@_register("ISIRI")
@_register("ISURI")
def _fn_isiri(args):
    return _boolean(isinstance(args[0], IRI))


@_register("ISBLANK")
def _fn_isblank(args):
    return _boolean(isinstance(args[0], BNode))


@_register("ISLITERAL")
def _fn_isliteral(args):
    return _boolean(isinstance(args[0], Literal))


@_register("ISNUMERIC")
def _fn_isnumeric(args):
    return _boolean(isinstance(args[0], Literal) and args[0].is_numeric())


def evaluate_expression(
    expression: Expression,
    bindings: Mapping[Variable, Any],
    exists_evaluator: Optional[Callable[[Any, Mapping[Variable, Any]], bool]] = None,
) -> Any:
    """Evaluate ``expression`` under ``bindings`` and return an RDF term.

    ``exists_evaluator`` is injected by the query evaluator to handle
    ``EXISTS`` / ``NOT EXISTS`` (they require pattern matching against the
    dataset, which this module knows nothing about).
    """
    if isinstance(expression, VariableExpr):
        return bindings.get(expression.variable)
    if isinstance(expression, TermExpr):
        return expression.term
    if isinstance(expression, UnaryExpr):
        value = evaluate_expression(expression.operand, bindings, exists_evaluator)
        if expression.operator == "!":
            return _boolean(not effective_boolean_value(value))
        if expression.operator == "-":
            return Literal(-_numeric_value(value))
        return Literal(+_numeric_value(value))
    if isinstance(expression, BinaryExpr):
        op = expression.operator
        if op == "||":
            try:
                left = effective_boolean_value(
                    evaluate_expression(expression.left, bindings, exists_evaluator)
                )
            except ExpressionError:
                left = None
            try:
                right = effective_boolean_value(
                    evaluate_expression(expression.right, bindings, exists_evaluator)
                )
            except ExpressionError:
                right = None
            if left is True or right is True:
                return TRUE
            if left is None or right is None:
                raise ExpressionError("error in || operand")
            return FALSE
        if op == "&&":
            try:
                left = effective_boolean_value(
                    evaluate_expression(expression.left, bindings, exists_evaluator)
                )
            except ExpressionError:
                left = None
            try:
                right = effective_boolean_value(
                    evaluate_expression(expression.right, bindings, exists_evaluator)
                )
            except ExpressionError:
                right = None
            if left is False or right is False:
                return FALSE
            if left is None or right is None:
                raise ExpressionError("error in && operand")
            return TRUE
        left = evaluate_expression(expression.left, bindings, exists_evaluator)
        right = evaluate_expression(expression.right, bindings, exists_evaluator)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return _boolean(_compare(op, left, right))
        if op in ("+", "-", "*", "/"):
            return _arithmetic(op, left, right)
        raise ExpressionError(f"unknown operator {op!r}")
    if isinstance(expression, InExpr):
        value = evaluate_expression(expression.value, bindings, exists_evaluator)
        found = False
        for option in expression.options:
            candidate = evaluate_expression(option, bindings, exists_evaluator)
            try:
                if _compare("=", value, candidate):
                    found = True
                    break
            except ExpressionError:
                continue
        return _boolean(found != expression.negated)
    if isinstance(expression, ExistsExpr):
        if exists_evaluator is None:
            raise ExpressionError("EXISTS is not supported in this context")
        matched = exists_evaluator(expression.pattern, bindings)
        return _boolean(matched != expression.negated)
    if isinstance(expression, FunctionExpr):
        name = expression.name
        if name == "COALESCE":
            for arg in expression.args:
                try:
                    value = evaluate_expression(arg, bindings, exists_evaluator)
                except ExpressionError:
                    continue
                if value is not None:
                    return value
            raise ExpressionError("COALESCE: no valid argument")
        if name == "IF":
            if len(expression.args) != 3:
                raise ExpressionError("IF requires three arguments")
            condition = evaluate_expression(expression.args[0], bindings, exists_evaluator)
            branch = expression.args[1] if effective_boolean_value(condition) else expression.args[2]
            return evaluate_expression(branch, bindings, exists_evaluator)
        if name == "BOUND":
            # BOUND must not evaluate its argument (it may be unbound).
            arg = expression.args[0]
            if isinstance(arg, VariableExpr):
                return _boolean(bindings.get(arg.variable) is not None)
            raise ExpressionError("BOUND requires a variable")
        args = [
            evaluate_expression(arg, bindings, exists_evaluator) for arg in expression.args
        ]
        handler = _SIMPLE_FUNCTIONS.get(name)
        if handler is None:
            raise ExpressionError(f"unsupported function {name}")
        try:
            return handler(args)
        except (ArithmeticError, ValueError, re.error) as exc:
            # An invalid regex, a non-finite number rounded to an integer:
            # the SPARQL error value, not a crash.
            raise ExpressionError(f"{name}: {exc}") from exc
    if isinstance(expression, AggregateExpr):
        raise ExpressionError("aggregate used outside of GROUP BY evaluation")
    raise ExpressionError(f"cannot evaluate expression {expression!r}")
