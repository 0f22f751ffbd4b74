"""Evaluation of parsed SPARQL queries against a graph.

The evaluator works on *solution mappings* (dicts from
:class:`~repro.rdf.terms.Variable` to RDF terms).  A group graph pattern is
evaluated left to right, joining each element into the running solution
sequence; ``FILTER`` constraints are collected and applied over the whole
group, matching the scoping rules of the SPARQL algebra.

This strict left-to-right strategy is the **naive** path.  Production
evaluation goes through the cost-based planner
(:mod:`repro.sparql.planner`), which reorders joins and pushes filters;
:class:`QueryEvaluator` / :func:`evaluate_query` survive as the
differential-testing oracle (``PreparedQuery.evaluate_naive``) that the
planned path must match row for row.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import BNode, IRI, Literal, Variable
from .algebra import (
    AggregateExpr,
    AskQuery,
    BGP,
    BindPattern,
    ConstructQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionExpr,
    GroupPattern,
    MinusPattern,
    OptionalPattern,
    PathExpr,
    Pattern,
    Projection,
    Query,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
    BinaryExpr,
    UnaryExpr,
    InExpr,
)
from .functions import ExpressionError, effective_boolean_value, evaluate_expression
from .parser import parse_query
from .paths import evaluate_path
from .results import Result, ResultRow

__all__ = ["evaluate_query", "QueryEvaluator"]

Solution = Dict[Variable, Any]


def _substitute(term, solution: Solution):
    """Replace a variable with its binding (if any)."""
    if isinstance(term, Variable):
        return solution.get(term)
    return term


def _merge(solution: Solution, additions: Mapping[Variable, Any]) -> Optional[Solution]:
    """Merge two solution mappings, returning ``None`` on conflict."""
    merged = dict(solution)
    for key, value in additions.items():
        existing = merged.get(key)
        if existing is None:
            merged[key] = value
        elif existing != value:
            return None
    return merged


def _term_sort_key(term: Any) -> Tuple[int, Any]:
    """Total order over terms for ORDER BY: unbound < bnode < IRI < literal."""
    if term is None:
        return (0, "")
    if isinstance(term, BNode):
        return (1, str(term))
    if isinstance(term, IRI):
        return (2, str(term))
    if isinstance(term, Literal):
        if term.is_numeric():
            try:
                return (3, (0, float(term.value)))
            except (TypeError, ValueError):
                return (3, (1, term.lexical))
        return (3, (1, term.lexical))
    return (4, str(term))


class QueryEvaluator:
    """Evaluates algebra trees produced by :func:`parse_query`."""

    def __init__(self, graph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def evaluate_pattern(self, pattern: Pattern, solutions: List[Solution]) -> List[Solution]:
        """Extend each incoming solution with every match of ``pattern``."""
        if isinstance(pattern, GroupPattern):
            return self._evaluate_group(pattern, solutions)
        if isinstance(pattern, BGP):
            return self._evaluate_bgp(pattern, solutions)
        if isinstance(pattern, FilterPattern):
            return self._apply_filter(pattern.expression, solutions)
        if isinstance(pattern, OptionalPattern):
            return self._evaluate_optional(pattern, solutions)
        if isinstance(pattern, UnionPattern):
            return self._evaluate_union(pattern, solutions)
        if isinstance(pattern, MinusPattern):
            return self._evaluate_minus(pattern, solutions)
        if isinstance(pattern, BindPattern):
            return self._evaluate_bind(pattern, solutions)
        if isinstance(pattern, ValuesPattern):
            return self._evaluate_values(pattern, solutions)
        raise TypeError(f"Unsupported pattern: {pattern!r}")

    def _evaluate_group(self, group: GroupPattern, solutions: List[Solution]) -> List[Solution]:
        filters: List[Expression] = []
        current = solutions
        for element in group.patterns:
            if isinstance(element, FilterPattern):
                filters.append(element.expression)
                continue
            current = self.evaluate_pattern(element, current)
        for expression in filters:
            current = self._apply_filter(expression, current)
        return current

    def _evaluate_bgp(self, bgp: BGP, solutions: List[Solution]) -> List[Solution]:
        current = solutions
        for triple in bgp.triples:
            current = self._match_triple(triple, current)
            if not current:
                return []
        return current

    def _match_triple(self, pattern: TriplePattern, solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        predicate = pattern.predicate
        is_path = isinstance(predicate, PathExpr)
        for solution in solutions:
            subject = _substitute(pattern.subject, solution)
            obj = _substitute(pattern.object, solution)
            if is_path:
                for s, o in evaluate_path(self.graph, predicate, subject, obj):
                    additions: Dict[Variable, Any] = {}
                    if isinstance(pattern.subject, Variable):
                        additions[pattern.subject] = s
                    if isinstance(pattern.object, Variable):
                        additions[pattern.object] = o
                    merged = _merge(solution, additions)
                    if merged is not None:
                        results.append(merged)
            else:
                pred = _substitute(predicate, solution)
                for s, p, o in self.graph.triples((subject, pred, obj)):
                    additions = {}
                    if isinstance(pattern.subject, Variable):
                        additions[pattern.subject] = s
                    if isinstance(predicate, Variable):
                        additions[predicate] = p
                    if isinstance(pattern.object, Variable):
                        additions[pattern.object] = o
                    merged = _merge(solution, additions)
                    if merged is not None:
                        results.append(merged)
        return results

    def _apply_filter(self, expression: Expression, solutions: List[Solution]) -> List[Solution]:
        kept: List[Solution] = []
        for solution in solutions:
            try:
                value = evaluate_expression(expression, solution, self._exists)
                if effective_boolean_value(value):
                    kept.append(solution)
            except ExpressionError:
                continue
        return kept

    def _exists(self, pattern: Pattern, bindings: Mapping[Variable, Any]) -> bool:
        matches = self.evaluate_pattern(pattern, [dict(bindings)])
        return bool(matches)

    def _evaluate_optional(self, pattern: OptionalPattern, solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        for solution in solutions:
            extended = self.evaluate_pattern(pattern.pattern, [solution])
            if extended:
                results.extend(extended)
            else:
                results.append(solution)
        return results

    def _evaluate_union(self, pattern: UnionPattern, solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        for solution in solutions:
            for alternative in pattern.alternatives:
                results.extend(self.evaluate_pattern(alternative, [solution]))
        return results

    def _evaluate_minus(self, pattern: MinusPattern, solutions: List[Solution]) -> List[Solution]:
        if not solutions:
            return []
        # The inner pattern is loop-invariant: evaluate it once and index the
        # candidates by their variable domain, then answer each outer
        # solution with set lookups instead of rescanning every candidate.
        candidates = self.evaluate_pattern(pattern.pattern, [{}])
        if not candidates:
            return list(solutions)
        by_domain: Dict[frozenset, List[Solution]] = {}
        for candidate in candidates:
            by_domain.setdefault(frozenset(candidate), []).append(candidate)
        lookups: Dict[Tuple[frozenset, Tuple[Variable, ...]], set] = {}
        kept: List[Solution] = []
        for solution in solutions:
            solution_vars = set(solution)
            removed = False
            for domain, members in by_domain.items():
                shared = domain & solution_vars
                if not shared:
                    continue
                shared_key = tuple(sorted(shared, key=str))
                table = lookups.get((domain, shared_key))
                if table is None:
                    table = {tuple(member[v] for v in shared_key) for member in members}
                    lookups[(domain, shared_key)] = table
                if tuple(solution[v] for v in shared_key) in table:
                    removed = True
                    break
            if not removed:
                kept.append(solution)
        return kept

    def _evaluate_bind(self, pattern: BindPattern, solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        for solution in solutions:
            if pattern.variable in solution:
                raise ExpressionError(
                    f"BIND would rebind already-bound variable ?{pattern.variable}"
                )
            try:
                value = evaluate_expression(pattern.expression, solution, self._exists)
            except ExpressionError:
                value = None
            extended = dict(solution)
            if value is not None:
                extended[pattern.variable] = value
            results.append(extended)
        return results

    def _evaluate_values(self, pattern: ValuesPattern, solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        for solution in solutions:
            for row in pattern.rows:
                additions = {
                    var: value
                    for var, value in zip(pattern.variables, row)
                    if value is not None
                }
                merged = _merge(solution, additions)
                if merged is not None:
                    results.append(merged)
        return results

    # ------------------------------------------------------------------
    # Query forms
    # ------------------------------------------------------------------
    def evaluate(self, query: Query, init_bindings: Optional[Solution] = None) -> Result:
        """Evaluate a parsed query; ``init_bindings`` pre-binds variables
        (the prepared-statement parameter mechanism)."""
        initial: List[Solution] = [dict(init_bindings) if init_bindings else {}]
        if isinstance(query, SelectQuery):
            return self._evaluate_select(query, initial)
        if isinstance(query, AskQuery):
            solutions = self.evaluate_pattern(query.where, initial)
            return Result("ASK", ask_answer=bool(solutions))
        if isinstance(query, ConstructQuery):
            return self._evaluate_construct(query, initial)
        raise TypeError(f"Unsupported query: {query!r}")

    # -- SELECT ----------------------------------------------------------
    def _evaluate_select(self, query: SelectQuery, initial: List[Solution]) -> Result:
        solutions = self.evaluate_pattern(query.where, initial)

        has_aggregates = any(
            projection.expression is not None and _contains_aggregate(projection.expression)
            for projection in query.projections
        )
        if query.group_by or has_aggregates:
            solutions = self._group_and_aggregate(query, solutions)
        else:
            solutions = self._project_expressions(query, solutions)

        if query.order_by:
            solutions = self._order(query, solutions)

        variables = self._projection_variables(query, solutions)
        rows = [
            ResultRow(variables, [solution.get(v) for v in variables])
            for solution in solutions
        ]
        if query.distinct:
            unique: List[ResultRow] = []
            seen = set()
            for row in rows:
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            rows = unique
        if query.offset:
            rows = rows[query.offset:]
        if query.limit is not None:
            rows = rows[: query.limit]
        return Result("SELECT", variables=variables, rows=rows)

    def _projection_variables(self, query: SelectQuery, solutions: List[Solution]) -> List[Variable]:
        if query.select_all:
            seen: List[Variable] = []
            for solution in solutions:
                for variable in solution:
                    if variable not in seen:
                        seen.append(variable)
            return sorted(seen, key=str)
        return [projection.variable for projection in query.projections]

    def _project_expressions(self, query: SelectQuery, solutions: List[Solution]) -> List[Solution]:
        expression_projections = [p for p in query.projections if p.expression is not None]
        if not expression_projections:
            return solutions
        projected: List[Solution] = []
        for solution in solutions:
            extended = dict(solution)
            for projection in expression_projections:
                try:
                    extended[projection.variable] = evaluate_expression(
                        projection.expression, solution, self._exists
                    )
                except ExpressionError:
                    extended[projection.variable] = None
            projected.append(extended)
        return projected

    def _group_and_aggregate(self, query: SelectQuery, solutions: List[Solution]) -> List[Solution]:
        groups: Dict[Tuple, List[Solution]] = {}
        for solution in solutions:
            key_parts = []
            for expr in query.group_by:
                try:
                    key_parts.append(evaluate_expression(expr, solution, self._exists))
                except ExpressionError:
                    key_parts.append(None)
            groups.setdefault(tuple(key_parts), []).append(solution)
        if not groups and not query.group_by:
            groups[()] = []

        aggregated: List[Solution] = []
        for key, members in groups.items():
            row: Solution = {}
            for expr, value in zip(query.group_by, key):
                if isinstance(expr, VariableExpr) and value is not None:
                    row[expr.variable] = value
            for projection in query.projections:
                if projection.expression is None:
                    if members:
                        row.setdefault(projection.variable, members[0].get(projection.variable))
                    continue
                try:
                    row[projection.variable] = self._evaluate_projection_with_aggregates(
                        projection.expression, members
                    )
                except ExpressionError:
                    row[projection.variable] = None
            keep = True
            for having in query.having:
                try:
                    value = self._evaluate_projection_with_aggregates(having, members, row)
                    keep = keep and effective_boolean_value(value)
                except ExpressionError:
                    keep = False
            if keep:
                aggregated.append(row)
        return aggregated

    def _evaluate_projection_with_aggregates(
        self,
        expression: Expression,
        members: List[Solution],
        row: Optional[Solution] = None,
    ) -> Any:
        if isinstance(expression, AggregateExpr):
            return self._evaluate_aggregate(expression, members)
        if isinstance(expression, VariableExpr):
            if row and expression.variable in row:
                return row[expression.variable]
            if members:
                return members[0].get(expression.variable)
            return None
        if isinstance(expression, BinaryExpr):
            left = self._evaluate_projection_with_aggregates(expression.left, members, row)
            right = self._evaluate_projection_with_aggregates(expression.right, members, row)
            rebuilt = BinaryExpr(expression.operator, _as_term_expr(left), _as_term_expr(right))
            return evaluate_expression(rebuilt, {}, self._exists)
        if isinstance(expression, UnaryExpr):
            operand = self._evaluate_projection_with_aggregates(expression.operand, members, row)
            rebuilt = UnaryExpr(expression.operator, _as_term_expr(operand))
            return evaluate_expression(rebuilt, {}, self._exists)
        if isinstance(expression, FunctionExpr):
            args = tuple(
                _as_term_expr(self._evaluate_projection_with_aggregates(a, members, row))
                for a in expression.args
            )
            return evaluate_expression(FunctionExpr(expression.name, args), {}, self._exists)
        return evaluate_expression(expression, members[0] if members else {}, self._exists)

    def _evaluate_aggregate(self, aggregate: AggregateExpr, members: List[Solution]) -> Any:
        values: List[Any] = []
        if aggregate.argument is None:
            values = [True for _ in members]
        else:
            for member in members:
                try:
                    value = evaluate_expression(aggregate.argument, member, self._exists)
                except ExpressionError:
                    continue
                if value is not None:
                    values.append(value)
        if aggregate.distinct:
            # Hash-based dedup (terms hash consistently with their equality);
            # unhashable values fall back to the linear membership scan.
            unique: List[Any] = []
            seen = set()
            for value in values:
                try:
                    if value in seen:
                        continue
                    seen.add(value)
                except TypeError:
                    if value in unique:
                        continue
                unique.append(value)
            values = unique
        name = aggregate.name
        if name == "COUNT":
            return Literal(len(values))
        if name == "SAMPLE":
            return values[0] if values else None
        if name == "GROUP_CONCAT":
            return Literal(aggregate.separator.join(str(v) for v in values))
        # Ill-typed numerics (e.g. "abc"^^xsd:integer) keep their lexical
        # string as the value; like non-numerics, they are skipped.
        numbers = [float(value.value) for value in values
                   if isinstance(value, Literal) and value.is_numeric()
                   and not isinstance(value.value, str)]
        if not numbers:
            return None
        if name == "SUM":
            return _integral_or_double(sum(numbers))
        if name == "AVG":
            return Literal(sum(numbers) / len(numbers))
        if name == "MIN":
            return _integral_or_double(min(numbers))
        if name == "MAX":
            return _integral_or_double(max(numbers))
        raise ExpressionError(f"unsupported aggregate {name}")

    def _order(self, query: SelectQuery, solutions: List[Solution]) -> List[Solution]:
        # Decorate-sort-undecorate: each sort key is evaluated once per
        # solution, then the (stable) per-condition sorts run over the
        # precomputed keys so mixed ASC/DESC conditions compose without
        # re-evaluating expressions on every comparison pass.
        conditions = query.order_by
        decorated = []
        for solution in solutions:
            keys = []
            for condition in conditions:
                try:
                    value = evaluate_expression(condition.expression, solution, self._exists)
                except ExpressionError:
                    value = None
                keys.append(_term_sort_key(value))
            decorated.append((keys, solution))
        for position in range(len(conditions) - 1, -1, -1):
            decorated.sort(
                key=lambda item, position=position: item[0][position],
                reverse=conditions[position].descending,
            )
        return [solution for _, solution in decorated]

    # -- CONSTRUCT ---------------------------------------------------------
    def _evaluate_construct(self, query: ConstructQuery, initial: List[Solution]) -> Result:
        solutions = self.evaluate_pattern(query.where, initial)
        if query.offset:
            solutions = solutions[query.offset:]
        if query.limit is not None:
            solutions = solutions[: query.limit]
        graph = Graph()
        if hasattr(self.graph, "namespace_manager"):
            graph.namespace_manager = self.graph.namespace_manager.copy()
        for solution in solutions:
            bnode_map: Dict[BNode, BNode] = {}
            for template in query.template:
                s = _instantiate(template.subject, solution, bnode_map)
                p = _instantiate(template.predicate, solution, bnode_map)
                o = _instantiate(template.object, solution, bnode_map)
                if s is None or p is None or o is None:
                    continue
                if isinstance(s, Literal) or not isinstance(p, IRI):
                    continue
                graph.add((s, p, o))
        return Result("CONSTRUCT", graph=graph)


def _integral_or_double(value: float) -> Literal:
    """An aggregate result: an integer literal when ``value`` is integral."""
    if math.isfinite(value) and value == int(value):
        return Literal(int(value))
    return Literal(value)


def _as_term_expr(value):
    from .algebra import TermExpr

    if isinstance(value, Expression):
        return value
    return TermExpr(value)


def _instantiate(term, solution: Solution, bnode_map: Dict[BNode, BNode]):
    if isinstance(term, Variable):
        return solution.get(term)
    if isinstance(term, BNode):
        return bnode_map.setdefault(term, BNode())
    return term


def _contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, AggregateExpr):
        return True
    if isinstance(expression, BinaryExpr):
        return _contains_aggregate(expression.left) or _contains_aggregate(expression.right)
    if isinstance(expression, UnaryExpr):
        return _contains_aggregate(expression.operand)
    if isinstance(expression, FunctionExpr):
        return any(_contains_aggregate(arg) for arg in expression.args)
    if isinstance(expression, InExpr):
        return _contains_aggregate(expression.value) or any(
            _contains_aggregate(option) for option in expression.options
        )
    return False


def evaluate_query(graph, query_text: str, init_bindings: Optional[Mapping[str, Any]] = None) -> Result:
    """Parse and evaluate ``query_text`` against ``graph``."""
    namespaces = getattr(graph, "namespace_manager", None)
    query = parse_query(query_text, namespaces)
    evaluator = QueryEvaluator(graph)
    bindings: Optional[Solution] = None
    if init_bindings:
        bindings = {Variable(str(k).lstrip("?$")): v for k, v in init_bindings.items()}
    return evaluator.evaluate(query, bindings)
