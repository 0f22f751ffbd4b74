"""Direct tests for SPARQL expression evaluation and built-in functions."""

import pytest

from repro.rdf.terms import BNode, IRI, Literal, Variable, XSD_BOOLEAN, XSD_INTEGER
from repro.sparql.algebra import (
    BinaryExpr,
    FunctionExpr,
    InExpr,
    TermExpr,
    UnaryExpr,
    VariableExpr,
)
from repro.sparql.functions import (
    ExpressionError,
    effective_boolean_value,
    evaluate_expression,
)

TRUE = Literal(True)
FALSE = Literal(False)


def var(name):
    return VariableExpr(Variable(name))


def lit(value):
    return TermExpr(Literal(value))


def evaluate(expression, **bindings):
    mapping = {Variable(k): v for k, v in bindings.items()}
    return evaluate_expression(expression, mapping)


class TestEffectiveBooleanValue:
    def test_boolean_literals(self):
        assert effective_boolean_value(TRUE) is True
        assert effective_boolean_value(FALSE) is False

    def test_numeric_literals(self):
        assert effective_boolean_value(Literal(5)) is True
        assert effective_boolean_value(Literal(0)) is False

    def test_string_literals(self):
        assert effective_boolean_value(Literal("x")) is True
        assert effective_boolean_value(Literal("")) is False

    def test_unbound_raises(self):
        with pytest.raises(ExpressionError):
            effective_boolean_value(None)

    def test_iri_raises(self):
        with pytest.raises(ExpressionError):
            effective_boolean_value(IRI("http://example.org/x"))


class TestComparisons:
    def test_numeric_comparison_across_datatypes(self):
        expr = BinaryExpr("<", lit(2), TermExpr(Literal(2.5)))
        assert evaluate(expr) == TRUE

    def test_string_equality(self):
        assert evaluate(BinaryExpr("=", lit("a"), lit("a"))) == TRUE
        assert evaluate(BinaryExpr("!=", lit("a"), lit("b"))) == TRUE

    def test_iri_equality(self):
        left = TermExpr(IRI("http://example.org/a"))
        right = TermExpr(IRI("http://example.org/a"))
        assert evaluate(BinaryExpr("=", left, right)) == TRUE

    def test_iri_ordering_is_an_error(self):
        left = TermExpr(IRI("http://example.org/a"))
        right = TermExpr(IRI("http://example.org/b"))
        with pytest.raises(ExpressionError):
            evaluate(BinaryExpr("<", left, right))

    def test_mixed_kind_equality_is_false(self):
        assert evaluate(BinaryExpr("=", TermExpr(IRI("urn:a")), lit("urn:a"))) == FALSE

    def test_unbound_variable_comparison_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(BinaryExpr("=", var("x"), lit(1)))


class TestLogicalOperators:
    def test_or_short_circuits_errors(self):
        # error || true == true (SPARQL three-valued logic)
        expr = BinaryExpr("||", BinaryExpr("=", var("missing"), lit(1)), lit(True))
        assert evaluate(expr) == TRUE

    def test_and_short_circuits_errors(self):
        # error && false == false
        expr = BinaryExpr("&&", BinaryExpr("=", var("missing"), lit(1)), lit(False))
        assert evaluate(expr) == FALSE

    def test_and_with_error_and_true_raises(self):
        expr = BinaryExpr("&&", BinaryExpr("=", var("missing"), lit(1)), lit(True))
        with pytest.raises(ExpressionError):
            evaluate(expr)

    def test_negation(self):
        assert evaluate(UnaryExpr("!", lit(False))) == TRUE

    def test_in_expression(self):
        expr = InExpr(lit(2), (lit(1), lit(2), lit(3)))
        assert evaluate(expr) == TRUE
        assert evaluate(InExpr(lit(9), (lit(1),), negated=True)) == TRUE


class TestArithmetic:
    def test_addition_and_multiplication(self):
        assert evaluate(BinaryExpr("+", lit(2), lit(3))).value == 5
        assert evaluate(BinaryExpr("*", lit(2), lit(3))).value == 6

    def test_division_produces_double(self):
        result = evaluate(BinaryExpr("/", lit(7), lit(2)))
        assert float(result.value) == 3.5

    def test_division_by_zero_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(BinaryExpr("/", lit(1), lit(0)))

    def test_unary_minus(self):
        assert evaluate(UnaryExpr("-", lit(4))).value == -4


class TestStringFunctions:
    def test_str_of_iri(self):
        result = evaluate(FunctionExpr("STR", (TermExpr(IRI("urn:x")),)))
        assert result == Literal("urn:x")

    def test_contains_strstarts_strends(self):
        assert evaluate(FunctionExpr("CONTAINS", (lit("butternut"), lit("utter")))) == TRUE
        assert evaluate(FunctionExpr("STRSTARTS", (lit("autumn"), lit("aut")))) == TRUE
        assert evaluate(FunctionExpr("STRENDS", (lit("autumn"), lit("umn")))) == TRUE

    def test_ucase_lcase_strlen(self):
        assert evaluate(FunctionExpr("UCASE", (lit("feo"),))) == Literal("FEO")
        assert evaluate(FunctionExpr("LCASE", (lit("FEO"),))) == Literal("feo")
        assert evaluate(FunctionExpr("STRLEN", (lit("food"),))).value == 4

    def test_concat(self):
        assert evaluate(FunctionExpr("CONCAT", (lit("a"), lit("b"), lit("c")))) == Literal("abc")

    def test_strbefore_strafter(self):
        assert evaluate(FunctionExpr("STRBEFORE", (lit("a#b"), lit("#")))) == Literal("a")
        assert evaluate(FunctionExpr("STRAFTER", (lit("a#b"), lit("#")))) == Literal("b")

    def test_replace_and_regex_flags(self):
        assert evaluate(FunctionExpr("REPLACE", (lit("aAa"), lit("a"), lit("x")))) == Literal("xAx")
        assert evaluate(FunctionExpr("REGEX", (lit("Autumn"), lit("^aut"), lit("i")))) == TRUE

    def test_substr(self):
        assert evaluate(FunctionExpr("SUBSTR", (lit("season"), lit(2), lit(3)))) == Literal("eas")

    def test_lang_and_langmatches(self):
        tagged = TermExpr(Literal("chat", language="fr"))
        assert evaluate(FunctionExpr("LANG", (tagged,))) == Literal("fr")
        assert evaluate(FunctionExpr("LANGMATCHES",
                                     (FunctionExpr("LANG", (tagged,)), lit("FR")))) == TRUE


class TestTermFunctions:
    def test_datatype(self):
        result = evaluate(FunctionExpr("DATATYPE", (lit(5),)))
        assert str(result).endswith("integer")

    def test_type_checks(self):
        assert evaluate(FunctionExpr("ISIRI", (TermExpr(IRI("urn:x")),))) == TRUE
        assert evaluate(FunctionExpr("ISLITERAL", (lit("x"),))) == TRUE
        assert evaluate(FunctionExpr("ISNUMERIC", (lit(3),))) == TRUE
        assert evaluate(FunctionExpr("ISNUMERIC", (lit("three"),))) == FALSE

    def test_isblank(self):
        assert evaluate(FunctionExpr("ISBLANK", (TermExpr(IRI("urn:x")),))) == FALSE

    def test_bound_checks_binding_not_value(self):
        assert evaluate(FunctionExpr("BOUND", (var("x"),)), x=Literal(1)) == TRUE
        assert evaluate(FunctionExpr("BOUND", (var("x"),))) == FALSE

    def test_iri_constructor(self):
        assert evaluate(FunctionExpr("IRI", (lit("urn:new"),))) == IRI("urn:new")

    def test_sameterm(self):
        assert evaluate(FunctionExpr("SAMETERM",
                                     (TermExpr(IRI("urn:x")), TermExpr(IRI("urn:x"))))) == TRUE

    def test_numeric_rounding_functions(self):
        assert evaluate(FunctionExpr("ABS", (lit(-3),))).value == 3
        assert evaluate(FunctionExpr("CEIL", (TermExpr(Literal(2.1)),))).value == 3
        assert evaluate(FunctionExpr("FLOOR", (TermExpr(Literal(2.9)),))).value == 2
        assert evaluate(FunctionExpr("ROUND", (TermExpr(Literal(2.5)),))).value == 2

    def test_if_and_coalesce(self):
        expr = FunctionExpr("IF", (lit(True), lit("yes"), lit("no")))
        assert evaluate(expr) == Literal("yes")
        coalesce = FunctionExpr("COALESCE", (var("missing"), lit("fallback")))
        assert evaluate(coalesce) == Literal("fallback")

    def test_unsupported_function_raises(self):
        with pytest.raises(ExpressionError):
            evaluate(FunctionExpr("UUIDISH", (lit("x"),)))

    @pytest.mark.parametrize("expression", [
        FunctionExpr("REGEX", (lit("a"), lit("("))),
        FunctionExpr("REPLACE", (lit("a"), lit("["), lit("b"))),
        FunctionExpr("ROUND", (TermExpr(Literal(float("inf"))),)),
        FunctionExpr("ABS", (TermExpr(Literal(float("nan"))),)),
        BinaryExpr("*", TermExpr(Literal(1e300)), TermExpr(Literal(1e300))),
        BinaryExpr("<", TermExpr(Literal("abc", datatype=XSD_INTEGER)), lit(1)),
    ])
    def test_invalid_regex_and_non_finite_numbers_are_expression_errors(self, expression):
        with pytest.raises(ExpressionError):
            evaluate(expression)
