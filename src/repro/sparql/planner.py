"""Cost-based query planning for the SPARQL evaluator.

The naive evaluator (:class:`~repro.sparql.evaluator.QueryEvaluator`)
executes basic graph patterns strictly left to right with nested-loop
joins, so a badly-ordered query — an unbound-predicate or var-var triple
first — explodes its intermediate results even though the
:class:`~repro.rdf.graph.Graph` keeps SPO/POS/OSP indexes that could
answer the selective patterns first.  This module rewrites the parsed
algebra into an executable plan before evaluation:

* **BGP merging + join reordering** — adjacent basic graph patterns in a
  group (including ones separated only by ``FILTER``, which the evaluator
  hoists to the end of the group anyway) are merged into one join space,
  and at evaluation time triple patterns are ordered greedily by estimated
  growth factor.  The estimates come from :meth:`Graph.cardinality`, the
  per-predicate counters and the index sizes — all O(1) reads.
* **Filter pushdown** — a ``FILTER`` runs as soon as every variable it
  mentions is certainly bound (conservatively including variables inside
  ``EXISTS`` patterns), instead of after the whole group.
* **Hash-join probe reuse** — while joining a triple pattern into the
  running solutions, probes are keyed by their substituted pattern; the
  distinct probe keys form the build side of a hash join, so repeated
  bindings hit the table instead of re-probing the graph.
* **Chained bindings** — intermediate solutions inside a BGP are immutable
  linked cells over the incoming mapping, killing the per-row
  ``dict(solution)`` copy of the naive ``_merge``; a plain dict is only
  materialised once per surviving BGP row.
* **Dictionary-ID joins** — every BGP, property paths included, joins on
  the graph's integer term IDs and decodes only where terms become
  observable (:class:`PlanEvaluator` states the invariant).
* **Disjunctive equality as a UNION of bound joins** — a filter
  ``?c = ?x1 || … || ?c = ?xn`` over variables that only their own
  triples bind becomes one branch per ``?xi``, with ``?xi`` replaced by
  ``?c`` (:class:`DisjunctiveUnion`), instead of a cross product filtered
  afterwards (Schmidt, Meier, Lausen, "Foundations of SPARQL Query
  Optimization", ICDT 2010).  This is Listing 1's shape.

Reordering only happens *inside* one merged BGP, filters only move
*earlier* when provably equivalent and the disjunctive rewrite only fires
where it cannot change a DISTINCT or ASK answer, so planned evaluation is
row-equivalent to the naive path (``PreparedQuery.evaluate_naive`` /
``evaluate_query``), which the differential suite checks on randomized
graphs and queries.  Plans are compiled once per
:class:`~repro.sparql.PreparedQuery` and cached alongside it, so the
service layer's prepared-query cache also caches plans;
:func:`planner_stats` exposes the process-wide counters (plan cache hits,
reorderings applied, filters pushed, estimated vs actual cardinalities).
"""

from __future__ import annotations

import threading
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..rdf.graph import Graph
from ..rdf.terms import Variable
from .algebra import (
    AggregateExpr,
    AskQuery,
    BGP,
    BindPattern,
    BinaryExpr,
    ConstructQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionExpr,
    GroupPattern,
    InExpr,
    MinusPattern,
    OptionalPattern,
    PathExpr,
    Pattern,
    Query,
    SelectQuery,
    TriplePattern,
    UnaryExpr,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)
from .evaluator import QueryEvaluator, Solution, _contains_aggregate
from .functions import ExpressionError, effective_boolean_value, evaluate_expression
from .paths import evaluate_path

__all__ = [
    "CompiledPlan",
    "DisjunctiveUnion",
    "PlanEvaluator",
    "PlannedBGP",
    "PlannedGroup",
    "compile_plan",
    "expression_variables",
    "pattern_variables",
    "planner_stats",
    "reset_planner_stats",
]

#: Cost multiplier for a pattern that shares no variable with the bound set:
#: joining it multiplies the whole intermediate (a cartesian product).
_CARTESIAN_PENALTY = 1000.0
#: Property paths can expand transitively beyond their seed cardinality.
_PATH_PENALTY = 2.0


# ---------------------------------------------------------------------------
# Planner statistics
# ---------------------------------------------------------------------------
class PlannerStats:
    """Thread-safe process-wide counters describing planner activity.

    All increments go through the instance lock (``record_compile`` /
    ``flush``), so concurrent query threads never lose an update.
    """

    _FIELDS = (
        "plans_compiled",
        "plan_cache_hits",
        "reorderings_applied",
        "filters_pushed",
        "bgps_evaluated",
        "encoded_bgps",
        "hash_join_probes",
        "hash_join_reuses",
        "estimated_rows",
        "actual_rows",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {field: 0 for field in self._FIELDS}

    def record_compile(self) -> None:
        with self._lock:
            self._counters["plans_compiled"] += 1

    def flush(self, pending: Dict[str, int]) -> None:
        """Fold a batch of locally-accumulated counters in (one lock trip)."""
        with self._lock:
            counters = self._counters
            for field, value in pending.items():
                if value:
                    counters[field] += value

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def reset(self) -> None:
        with self._lock:
            for field in self._FIELDS:
                self._counters[field] = 0


_STATS = PlannerStats()


def planner_stats() -> Dict[str, int]:
    """The process-wide planner counters (plan cache hits, reorders, ...)."""
    return _STATS.snapshot()


def reset_planner_stats() -> None:
    """Zero the process-wide planner counters (test isolation helper)."""
    _STATS.reset()


# ---------------------------------------------------------------------------
# Variable analysis
# ---------------------------------------------------------------------------
def expression_variables(expression: Expression) -> FrozenSet[Variable]:
    """Every variable an expression's value can depend on.

    Variables inside ``EXISTS`` / ``NOT EXISTS`` patterns are included:
    the current solution is substituted into the pattern, so a variable
    bound later in the group would change the result of an early
    evaluation.  The pushdown rule only moves a filter once this whole
    set is certainly bound.
    """
    found: Set[Variable] = set()
    _collect_expression(expression, found)
    return frozenset(found)


def _collect_expression(expression: Expression, found: Set[Variable]) -> None:
    if isinstance(expression, VariableExpr):
        found.add(expression.variable)
    elif isinstance(expression, BinaryExpr):
        _collect_expression(expression.left, found)
        _collect_expression(expression.right, found)
    elif isinstance(expression, UnaryExpr):
        _collect_expression(expression.operand, found)
    elif isinstance(expression, FunctionExpr):
        for arg in expression.args:
            _collect_expression(arg, found)
    elif isinstance(expression, InExpr):
        _collect_expression(expression.value, found)
        for option in expression.options:
            _collect_expression(option, found)
    elif isinstance(expression, AggregateExpr):
        if expression.argument is not None:
            _collect_expression(expression.argument, found)
    elif isinstance(expression, ExistsExpr):
        found.update(pattern_variables(expression.pattern))


def _contains_exists(expression: Expression) -> bool:
    if isinstance(expression, ExistsExpr):
        return True
    if isinstance(expression, BinaryExpr):
        return _contains_exists(expression.left) or _contains_exists(expression.right)
    if isinstance(expression, UnaryExpr):
        return _contains_exists(expression.operand)
    if isinstance(expression, FunctionExpr):
        return any(_contains_exists(arg) for arg in expression.args)
    if isinstance(expression, InExpr):
        return _contains_exists(expression.value) or any(
            _contains_exists(option) for option in expression.options
        )
    if isinstance(expression, AggregateExpr):
        return expression.argument is not None and _contains_exists(expression.argument)
    return False


def _filter_info(expression: Expression) -> _FilterInfo:
    variables = expression_variables(expression)
    return _FilterInfo(
        expression=expression,
        vars=variables,
        has_exists=_contains_exists(expression),
        key_vars=tuple(sorted(variables, key=str)),
    )


def pattern_variables(pattern: Pattern) -> FrozenSet[Variable]:
    """Every variable mentioned anywhere inside ``pattern``."""
    found: Set[Variable] = set()
    _collect_pattern(pattern, found)
    return frozenset(found)


def _collect_pattern(pattern: Pattern, found: Set[Variable]) -> None:
    if isinstance(pattern, BGP):
        for triple in pattern.triples:
            found.update(triple.variables())
    elif isinstance(pattern, PlannedBGP):
        for info in pattern.triples:
            found.update(info.vars)
    elif isinstance(pattern, GroupPattern):
        for element in pattern.patterns:
            _collect_pattern(element, found)
    elif isinstance(pattern, PlannedGroup):
        for element, _ in pattern.elements:
            _collect_pattern(element, found)
        for info in pattern.filters:
            found.update(info.vars)
    elif isinstance(pattern, FilterPattern):
        _collect_expression(pattern.expression, found)
    elif isinstance(pattern, (OptionalPattern, MinusPattern)):
        _collect_pattern(pattern.pattern, found)
    elif isinstance(pattern, UnionPattern):
        for alternative in pattern.alternatives:
            _collect_pattern(alternative, found)
    elif isinstance(pattern, BindPattern):
        _collect_expression(pattern.expression, found)
        found.add(pattern.variable)
    elif isinstance(pattern, ValuesPattern):
        found.update(pattern.variables)


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _TripleInfo:
    """One triple pattern with its variable layout precomputed."""

    pattern: TriplePattern
    index: int  # textual position inside the merged BGP
    subject_var: Optional[Variable]
    predicate_var: Optional[Variable]
    object_var: Optional[Variable]
    is_path: bool
    vars: FrozenSet[Variable]
    has_repeated_var: bool
    #: (slot, variable) pairs for the variable positions (slot 0/1/2 =
    #: subject/predicate/object) — the only probe-key components that can
    #: vary between solutions.
    var_slots: Tuple[Tuple[int, Variable], ...]


@dataclass(frozen=True)
class _FilterInfo:
    """A group filter with its (conservative) variable dependency set.

    ``has_exists`` filters are never pushed ahead of their naive position:
    an EXISTS costs a sub-query per row, and running it on intermediate
    rows that a later join would have pruned can easily cost more than the
    pushdown saves.  They are memoised per distinct variable projection
    instead (:meth:`PlanEvaluator._apply_filter_info`).
    """

    expression: Expression
    vars: FrozenSet[Variable]
    has_exists: bool
    key_vars: Tuple[Variable, ...]


class PlannedBGP(Pattern):
    """A merged basic graph pattern whose join order is chosen at runtime.

    Two kinds of BGP are pinned to textual order, because the naive
    evaluator's substitution semantics are not join-commutative for them
    and the planner must stay row-equivalent to it: a pattern repeating a
    variable across positions (``?x :p ?x``, resolved by dict overwrites),
    and a property path beside a variable-predicate triple (a zero-length
    step matches a bound endpoint even when it is no graph node, such as
    a predicate, while a free endpoint ranges over graph nodes only).
    Such BGPs still get probe reuse, chained bindings and filter
    pushdown — just not reordering.
    """

    __slots__ = ("triples", "reorderable", "all_vars", "order_cache")

    def __init__(self, triples: Sequence[_TripleInfo]) -> None:
        self.triples: Tuple[_TripleInfo, ...] = tuple(triples)
        self.reorderable = not any(info.has_repeated_var for info in self.triples) and not (
            any(info.is_path for info in self.triples)
            and any(info.predicate_var is not None for info in self.triples)
        )
        self.all_vars: FrozenSet[Variable] = (
            frozenset().union(*(info.vars for info in self.triples))
            if self.triples else frozenset()
        )
        # Chosen join orders, shared across evaluations of the compiled
        # plan: keyed by (bound variables, graph fingerprint) so a mutated
        # or different graph re-plans.  Bounded; cleared when it overflows.
        self.order_cache: Dict[Tuple, Tuple[Tuple[_TripleInfo, ...], float]] = {}


class PlannedGroup(Pattern):
    """A group with merged BGPs, separated filters and certainty metadata.

    ``elements`` pairs each non-filter child with the set of variables it
    certainly binds in every produced solution; ``filters`` hold the
    group's constraints, applied as early as their variables allow.
    """

    __slots__ = ("elements", "filters")

    def __init__(
        self,
        elements: Sequence[Tuple[Pattern, FrozenSet[Variable]]],
        filters: Sequence[_FilterInfo],
    ) -> None:
        self.elements: Tuple[Tuple[Pattern, FrozenSet[Variable]], ...] = tuple(elements)
        self.filters: Tuple[_FilterInfo, ...] = tuple(filters)


@dataclass(frozen=True)
class DisjunctiveUnion(Pattern):
    """A group's triples and its ``?c = ?x1 || … || ?c = ?xn`` filter, as a UNION.

    Branch ``i`` holds the triples with ``?xi``'s own ones rewritten onto
    ``?c`` (an indexed probe once ``?c`` is bound) and the other ``?xj``'s
    dropped; ``guards`` keep those as existence checks, run once per
    evaluation.  ``joined`` is the group as written, for solutions that
    arrive with an ``?xi`` already bound (``init_bindings``).
    """

    branches: Tuple[PlannedBGP, ...]
    guards: Tuple[PlannedBGP, ...]
    eliminated: FrozenSet[Variable]
    joined: Pattern


def _triple_info(triple: TriplePattern, index: int) -> _TripleInfo:
    is_path = isinstance(triple.predicate, PathExpr)
    subject_var = triple.subject if isinstance(triple.subject, Variable) else None
    predicate_var = (
        triple.predicate
        if not is_path and isinstance(triple.predicate, Variable)
        else None
    )
    object_var = triple.object if isinstance(triple.object, Variable) else None
    position_vars = [v for v in (subject_var, predicate_var, object_var) if v is not None]
    var_slots = tuple(
        (slot, var)
        for slot, var in enumerate((subject_var, predicate_var, object_var))
        if var is not None
    )
    return _TripleInfo(
        pattern=triple,
        index=index,
        subject_var=subject_var,
        predicate_var=predicate_var,
        object_var=object_var,
        is_path=is_path,
        vars=frozenset(triple.variables()),
        has_repeated_var=len(position_vars) != len(set(position_vars)),
        var_slots=var_slots,
    )


def _compile_pattern(pattern: Pattern) -> Tuple[Pattern, FrozenSet[Variable]]:
    """Compile ``pattern``; returns the plan node and its certainly-bound vars.

    "Certainly bound" means bound in *every* solution the pattern can
    produce: BGP variables qualify, OPTIONAL / MINUS / BIND contributions
    do not (OPTIONAL may leave them unbound, BIND unbinds on expression
    error), UNION contributes the intersection of its alternatives and
    VALUES only columns without UNDEF cells.
    """
    if isinstance(pattern, GroupPattern):
        elements: List[Tuple[Pattern, FrozenSet[Variable]]] = []
        filters: List[_FilterInfo] = []
        pending: List[_TripleInfo] = []

        def flush() -> None:
            if pending:
                bgp = PlannedBGP(pending)
                certain = frozenset().union(*(info.vars for info in pending))
                elements.append((bgp, certain))
                pending.clear()

        for element in pattern.patterns:
            if isinstance(element, FilterPattern):
                # The naive evaluator hoists group filters to the end of the
                # group, so a filter never splits the join space.
                filters.append(_filter_info(element.expression))
            elif isinstance(element, BGP):
                for triple in element.triples:
                    pending.append(_triple_info(triple, len(pending)))
            else:
                flush()
                elements.append(_compile_pattern(element))
        flush()
        certain_all = frozenset().union(*(c for _, c in elements)) if elements else frozenset()
        return PlannedGroup(elements, filters), certain_all
    if isinstance(pattern, BGP):
        infos = [_triple_info(triple, i) for i, triple in enumerate(pattern.triples)]
        certain = (
            frozenset().union(*(info.vars for info in infos)) if infos else frozenset()
        )
        return PlannedBGP(infos), certain
    if isinstance(pattern, OptionalPattern):
        inner, _ = _compile_pattern(pattern.pattern)
        return OptionalPattern(inner), frozenset()
    if isinstance(pattern, MinusPattern):
        inner, _ = _compile_pattern(pattern.pattern)
        return MinusPattern(inner), frozenset()
    if isinstance(pattern, UnionPattern):
        compiled = [_compile_pattern(alternative) for alternative in pattern.alternatives]
        certain: FrozenSet[Variable] = frozenset()
        if compiled:
            certain = compiled[0][1]
            for _, alt_certain in compiled[1:]:
                certain &= alt_certain
        return UnionPattern([node for node, _ in compiled]), certain
    if isinstance(pattern, ValuesPattern):
        certain = frozenset(
            var
            for column, var in enumerate(pattern.variables)
            if pattern.rows and all(row[column] is not None for row in pattern.rows)
        )
        return pattern, certain
    # BindPattern (error leaves the variable unbound) and anything unknown.
    return pattern, frozenset()


# ---------------------------------------------------------------------------
# Compiled plans
# ---------------------------------------------------------------------------
class CompiledPlan:
    """The planned, executable form of one parsed query."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Query) -> None:
        self.algebra = algebra


def _equality_disjuncts(expression: Expression) -> Optional[List[Tuple[Variable, Variable]]]:
    """The variable pairs of ``?a = ?b || ?c = ?d || …``; None for any other shape."""
    if isinstance(expression, BinaryExpr) and expression.operator == "||":
        left = _equality_disjuncts(expression.left)
        right = _equality_disjuncts(expression.right)
        return left + right if left is not None and right is not None else None
    if (isinstance(expression, BinaryExpr) and expression.operator == "="
            and isinstance(expression.left, VariableExpr)
            and isinstance(expression.right, VariableExpr)):
        return [(expression.left.variable, expression.right.variable)]
    return None


def _plan_disjunctive_union(query: Query) -> Optional[PlannedGroup]:
    """Plan a WHERE group of triples and filters around a :class:`DisjunctiveUnion`.

    Fires on a filter ``?c = ?x1 || … || ?c = ?xn`` only where that cannot
    change the answer, and returns None otherwise:

    * the query is ``SELECT DISTINCT`` without aggregates, or ``ASK``: the
      branches change row multiplicities only;
    * no ``?xi`` is projected, ordered on or used outside its own triples,
      which mention no other variable, and ``?c`` is bound by the others;
    * each ``?xi`` is the subject of one of its triples, so it never binds
      a literal and ``=`` is term identity.
    """
    if isinstance(query, AskQuery):
        outside: Set[Variable] = set()
    elif isinstance(query, SelectQuery) and query.distinct and not (
            query.select_all or query.group_by or query.having):
        outside = {projection.variable for projection in query.projections}
        for expression in [p.expression for p in query.projections if p.expression] + [
                condition.expression for condition in query.order_by]:
            if _contains_aggregate(expression):
                return None
            outside |= expression_variables(expression)
    else:
        return None
    group = query.where
    if not isinstance(group, GroupPattern) or not all(
            isinstance(element, (BGP, FilterPattern)) for element in group.patterns):
        return None
    triples = [t for element in group.patterns if isinstance(element, BGP) for t in element.triples]
    filters = [e.expression for e in group.patterns if isinstance(e, FilterPattern)]
    for target in filters:
        pairs = _equality_disjuncts(target) or []
        anchors = set.intersection(*({a, b} for a, b in pairs)) if len(pairs) > 1 else set()
        if len(anchors) != 1:
            continue
        anchor = anchors.pop()
        xs = [b if a == anchor else a for a, b in pairs]
        own = {x: [t for t in triples if x in t.variables()] for x in xs}
        rest = [t for t in triples if not set(t.variables()) & set(xs)]
        certain = frozenset(var for t in rest for var in t.variables())
        used = outside.union(*(expression_variables(f) for f in filters if f is not target))
        if (len(set(xs) | {anchor}) != len(xs) + 1 or used & set(xs) or anchor not in certain
                or not all(any(t.subject == x for t in own[x]) and all(
                    t.variables() == [x] and not isinstance(t.predicate, PathExpr)
                    for t in own[x]) for x in xs)):
            continue

        def bgp(selected: Sequence[TriplePattern]) -> PlannedBGP:
            return PlannedBGP([_triple_info(t, i) for i, t in enumerate(selected)])

        def probe(t: TriplePattern, x: Variable) -> TriplePattern:
            return replace(t, **{slot: anchor for slot in ("subject", "predicate", "object")
                                 if getattr(t, slot) == x})

        node = DisjunctiveUnion(
            branches=tuple(bgp([probe(t, x) if t in own[x] else t
                                for t in triples if t in rest or t in own[x]]) for x in xs),
            guards=tuple(bgp(own[x]) for x in xs),
            eliminated=frozenset(xs),
            joined=_compile_pattern(GroupPattern([BGP(triples), FilterPattern(target)]))[0],
        )
        return PlannedGroup([(node, certain)],
                            [_filter_info(f) for f in filters if f is not target])
    return None


def compile_plan(query: Query) -> CompiledPlan:
    """Rewrite ``query``'s WHERE tree into plan nodes (query object untouched)."""
    if isinstance(query, (SelectQuery, AskQuery, ConstructQuery)):
        where = _plan_disjunctive_union(query) or _compile_pattern(query.where)[0]
        planned: Query = replace(query, where=where)
    else:
        planned = query
    _STATS.record_compile()
    return CompiledPlan(planned)


# ---------------------------------------------------------------------------
# Chained solutions
# ---------------------------------------------------------------------------
_MISSING = object()


class _DecodingView(MappingABC):
    """A read-only term-level view over a chain whose cells may hold IDs.

    Filter expressions observe terms; instead of materialising and
    decoding every chain before a pushed-down filter runs, the filter
    evaluates against this view, which decodes ``int`` cells (dictionary
    IDs) on access.  Surviving chains stay chains (and stay encoded), so
    the remaining joins keep running on IDs.
    """

    __slots__ = ("_chain", "_terms")

    def __init__(self, chain: Any, terms: List[Any]) -> None:
        self._chain = chain
        self._terms = terms

    def get(self, key: Any, default: Any = None) -> Any:
        value = self._chain.get(key, default)
        if type(value) is int:
            return self._terms[value]
        return value

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __contains__(self, key: Any) -> bool:
        return key in self._chain

    def __iter__(self):
        return iter(self._chain)

    def __len__(self) -> int:
        return len(self._chain)


class _ChainSolution(MappingABC):
    """An immutable one-binding extension of a parent solution mapping.

    Joining a triple pattern extends solutions by chaining cells instead of
    copying dicts; the chain bottoms out at the incoming (dict) solution.
    Variables are never rebound along a chain (bound variables are
    substituted into the probe instead), so lookups can stop at the first
    cell naming the variable.
    """

    __slots__ = ("_parent", "_var", "_value")

    def __init__(self, parent: Any, var: Variable, value: Any) -> None:
        self._parent = parent
        self._var = var
        self._value = value

    def get(self, key: Any, default: Any = None) -> Any:
        node = self
        while type(node) is _ChainSolution:
            if node._var == key:
                return node._value
            node = node._parent
        return node.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __iter__(self):
        node = self
        while type(node) is _ChainSolution:
            yield node._var
            node = node._parent
        yield from node

    def __len__(self) -> int:
        length = 0
        node = self
        while type(node) is _ChainSolution:
            length += 1
            node = node._parent
        return length + len(node)

    def materialize(self) -> Solution:
        """Flatten the chain into a plain dict (insertion order preserved)."""
        cells: List[Tuple[Variable, Any]] = []
        node = self
        while type(node) is _ChainSolution:
            cells.append((node._var, node._value))
            node = node._parent
        out = dict(node)
        for var, value in reversed(cells):
            out[var] = value
        return out


# ---------------------------------------------------------------------------
# Plan evaluation
# ---------------------------------------------------------------------------
class PlanEvaluator(QueryEvaluator):
    """A :class:`QueryEvaluator` that understands plan nodes.

    Raw algebra nodes (e.g. the pattern inside an ``EXISTS`` expression)
    still evaluate through the inherited naive paths, so a plan can mix
    planned and unplanned subtrees freely.

    Every BGP joins in dictionary-ID space.  A chain cell holding a
    Python ``int`` is an ID of the graph's term dictionary; any other
    value is a term (no RDF term is an ``int``: ``IRI`` / ``BNode``
    subclass ``str`` and ``Literal`` is its own class).  Incoming
    solutions and property-path matches bind terms, triple matches bind
    IDs, so one solution may mix both; probes encode term cells and
    decoding happens where terms become observable — materialisation
    and filter evaluation.

    The evaluator instance lives for one query evaluation and carries two
    memo tables across repeated sub-evaluations (OPTIONAL / UNION / MINUS
    re-enter their inner pattern once per outer solution): the chosen join
    order per (BGP, bound-variable set), and EXISTS filter verdicts per
    distinct variable projection.  Both are safe because the graph is
    read-only for the duration of one evaluation.
    """

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._order_cache: Dict[Tuple[int, FrozenSet[Variable]], Tuple[Tuple[_TripleInfo, ...], float]] = {}
        self._exists_cache: Dict[int, Dict[Tuple, bool]] = {}
        # Counters are accumulated locally and flushed to the process-wide
        # stats in one lock trip per evaluation (a nested OPTIONAL can run
        # thousands of tiny BGP joins per query).
        self._pending_stats: Dict[str, int] = {}
        self._dictionary = graph.dictionary

    def evaluate(self, query, init_bindings=None):
        try:
            return super().evaluate(query, init_bindings)
        finally:
            if self._pending_stats:
                _STATS.flush(self._pending_stats)
                self._pending_stats = {}

    def _bump(self, field: str, amount: int = 1) -> None:
        if amount:
            self._pending_stats[field] = self._pending_stats.get(field, 0) + amount

    def note_plan_hit(self) -> None:
        """Count a compiled-plan reuse in this evaluation's batched flush."""
        self._bump("plan_cache_hits")

    def evaluate_pattern(self, pattern: Pattern, solutions: List[Solution]) -> List[Solution]:
        if isinstance(pattern, PlannedGroup):
            return self._evaluate_planned_group(pattern, solutions)
        if isinstance(pattern, PlannedBGP):
            results, _ = self._evaluate_planned_bgp(
                pattern, solutions, self._bound_in_all(solutions), ()
            )
            return results
        if isinstance(pattern, DisjunctiveUnion):
            return self._evaluate_disjunctive_union(pattern, solutions)
        return super().evaluate_pattern(pattern, solutions)

    def _evaluate_disjunctive_union(
        self, node: DisjunctiveUnion, solutions: List[Solution]
    ) -> List[Solution]:
        if any(var in solution for solution in solutions for var in node.eliminated):
            return self.evaluate_pattern(node.joined, solutions)
        if not all(self._has_match(guard) for guard in node.guards):
            return []
        results: List[Solution] = []
        for branch in node.branches:
            results.extend(self.evaluate_pattern(branch, solutions))
        return results

    def _has_match(self, bgp: PlannedBGP) -> bool:
        """Whether ``bgp`` matches at all; the search stops at the first match."""
        order, _ = self._bgp_order(bgp, frozenset())

        def extend(chain: Any, depth: int) -> bool:
            if depth == len(order):
                return True
            matches, _, _ = self._join_triple_ids(order[depth], [chain])
            return any(extend(match, depth + 1) for match in matches)

        found = extend({}, 0)
        self._bump("bgps_evaluated")
        self._bump("actual_rows", int(found))
        return found

    def _evaluate_optional(self, pattern: OptionalPattern, solutions: List[Solution]) -> List[Solution]:
        """OPTIONAL as one batched left join instead of a per-row loop.

        A single-BGP inner pattern joins the whole batch at once (so its
        joins get the probe table and one ordering decision), whatever
        variables each incoming row binds.  Other inner patterns are
        batched when every incoming solution binds the same variable set:
        the unmatched rows are recovered afterwards, because an extension
        preserves its source row's bindings, so projecting an output onto
        the input domain identifies the input it came from.  Mixed-domain
        batches of those fall back to the naive per-row loop.
        """
        if len(solutions) > 1:
            inner = pattern.pattern
            if (
                isinstance(inner, PlannedGroup)
                and len(inner.elements) == 1
                and not inner.filters
                and isinstance(inner.elements[0][0], PlannedBGP)
            ):
                # Joins extend a chain without replacing its root, so each
                # output's root object *is* the input row it came from.
                bgp = inner.elements[0][0]
                chains, _ = self._join_bgp(
                    bgp, solutions, self._bound_in_all(solutions), ()
                )
                matched: Set[int] = set()
                results: List[Solution] = []
                for chain in chains:
                    node = chain
                    while type(node) is _ChainSolution:
                        node = node._parent
                    matched.add(id(node))
                    results.append(self._decode_chain(chain))
                for solution in solutions:
                    if id(solution) not in matched:
                        results.append(solution)
                return results
            domain = frozenset(solutions[0].keys())
            if all(frozenset(s.keys()) == domain for s in solutions[1:]):
                extended = self.evaluate_pattern(pattern.pattern, list(solutions))
                key_vars = tuple(sorted(domain, key=str))
                matched_keys = {tuple(row.get(v) for v in key_vars) for row in extended}
                results = list(extended)
                for solution in solutions:
                    if tuple(solution.get(v) for v in key_vars) not in matched_keys:
                        results.append(solution)
                return results
        return super()._evaluate_optional(pattern, solutions)

    # -- group orchestration -------------------------------------------
    @staticmethod
    def _bound_in_all(solutions: Sequence[Mapping]) -> Set[Variable]:
        """Variables bound in every incoming solution (safe pushdown floor)."""
        if not solutions:
            return set()
        iterator = iter(solutions)
        common = set(next(iterator).keys())
        for solution in iterator:
            if not common:
                break
            common.intersection_update(solution.keys())
        return common

    def _apply_filter_info(self, info: _FilterInfo, solutions: List[Solution]) -> List[Solution]:
        """Apply one filter; EXISTS verdicts are memoised per projection.

        An expression's outcome depends only on the bindings of its
        variables (``info.key_vars``, conservatively including variables
        inside EXISTS patterns), so rows sharing that projection share the
        verdict — one sub-query answers all of them.
        """
        if not info.has_exists or not info.key_vars:
            return self._apply_filter(info.expression, solutions)
        cache = self._exists_cache.setdefault(id(info), {})
        kept: List[Solution] = []
        for solution in solutions:
            key = tuple(solution.get(var) for var in info.key_vars)
            verdict = cache.get(key)
            if verdict is None:
                try:
                    value = evaluate_expression(info.expression, solution, self._exists)
                    verdict = effective_boolean_value(value)
                except ExpressionError:
                    verdict = False
                cache[key] = verdict
            if verdict:
                kept.append(solution)
        return kept

    def _apply_ready_filters(
        self,
        pending: List[_FilterInfo],
        bound: Set[Variable],
        solutions: List[Solution],
    ) -> Tuple[List[Solution], List[_FilterInfo], int]:
        """Apply every pending pushable filter whose variables are all bound."""
        still: List[_FilterInfo] = []
        applied = 0
        for info in pending:
            if not info.has_exists and info.vars <= bound:
                solutions = self._apply_filter(info.expression, solutions)
                applied += 1
            else:
                still.append(info)
        return solutions, still, applied

    def _evaluate_planned_group(
        self, group: PlannedGroup, solutions: List[Solution]
    ) -> List[Solution]:
        if not solutions:
            return []
        bound = self._bound_in_all(solutions)
        pending = list(group.filters)
        pushed = 0
        current = solutions
        if pending:
            current, pending, count = self._apply_ready_filters(pending, bound, current)
            pushed += count
        for element, certain in group.elements:
            if not current:
                self._bump("filters_pushed", pushed)
                return []
            if isinstance(element, PlannedBGP):
                current, applied = self._evaluate_planned_bgp(
                    element, current, bound, pending
                )
                if applied:
                    applied_ids = {id(info) for info in applied}
                    pending = [info for info in pending if id(info) not in applied_ids]
                    pushed += len(applied)
            else:
                current = self.evaluate_pattern(element, current)
            bound |= certain
            if pending and current:
                current, pending, count = self._apply_ready_filters(pending, bound, current)
                pushed += count
        # Whatever could not (or should not) be pushed runs here, at the end
        # of the group — exactly where the naive evaluator runs every filter.
        for info in pending:
            current = self._apply_filter_info(info, current)
        self._bump("filters_pushed", pushed)
        return current

    # -- BGP join with runtime ordering --------------------------------
    def _evaluate_planned_bgp(
        self,
        bgp: PlannedBGP,
        solutions: List[Solution],
        bound: Set[Variable],
        pending: Sequence[_FilterInfo],
    ) -> Tuple[List[Solution], List[_FilterInfo]]:
        chains, applied = self._join_bgp(bgp, solutions, bound, pending)
        return [self._decode_chain(chain) for chain in chains], applied

    def _decode_chain(self, chain: Any) -> Solution:
        """Materialise a chain, decoding its ``int`` (ID) cells in the same pass."""
        terms = self._dictionary.terms
        cells: List[Tuple[Variable, Any]] = []
        node = chain
        while type(node) is _ChainSolution:
            cells.append((node._var, node._value))
            node = node._parent
        out = dict(node)
        for var, value in reversed(cells):
            out[var] = terms[value] if type(value) is int else value
        return out

    def _join_bgp(
        self,
        bgp: PlannedBGP,
        solutions: List[Solution],
        bound: Set[Variable],
        pending: Sequence[_FilterInfo],
    ) -> Tuple[List[Any], List[_FilterInfo]]:
        """Join every triple of ``bgp`` into ``solutions``, returning chains.

        The chain layer is exposed so callers that can exploit it (the
        batched OPTIONAL left join) avoid the per-row materialisation.
        Chain cells hold dictionary IDs or terms (see the class
        docstring); callers decode with :meth:`_decode_chain`.
        """
        order, growth = self._bgp_order(bgp, frozenset(bound))
        bound = set(bound)
        chains: List[Any] = list(solutions)
        pending_local = list(pending)
        applied: List[_FilterInfo] = []
        estimated = float(len(chains)) * growth
        probes = 0
        probe_hits = 0
        for info in order:
            if not chains:
                break
            chains, p_count, h_count = self._join_triple_ids(info, chains)
            probes += p_count
            probe_hits += h_count
            bound |= info.vars
            if pending_local and chains:
                still: List[_FilterInfo] = []
                for finfo in pending_local:
                    if not finfo.has_exists and finfo.vars <= bound:
                        chains = self._filter_chains_encoded(finfo.expression, chains)
                        applied.append(finfo)
                    else:
                        still.append(finfo)
                pending_local = still
        self._bump("bgps_evaluated")
        self._bump("encoded_bgps")
        if [info.index for info in order] != sorted(info.index for info in order):
            self._bump("reorderings_applied")
        self._bump("hash_join_probes", probes)
        self._bump("hash_join_reuses", probe_hits)
        self._bump("estimated_rows", min(int(estimated + 0.5), 10 ** 15))
        self._bump("actual_rows", len(chains))
        return chains, applied

    def _bgp_order(
        self, bgp: PlannedBGP, bound: FrozenSet[Variable]
    ) -> Tuple[Tuple[_TripleInfo, ...], float]:
        """The greedy join order (and growth estimate) for one bound set.

        The selection depends only on *which* variables are bound — not on
        their per-row values — so it is computed once per (BGP, bound set)
        and reused; OPTIONAL / UNION / MINUS re-enter their inner patterns
        once per outer solution and would otherwise re-plan every time.
        """
        bound = bound & bgp.all_vars
        key = (id(bgp), bound)
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        graph = self.graph
        # A second, plan-lifetime memo shared across evaluations: the
        # selection depends only on the bound set and the graph's content,
        # so it is keyed by the graph's O(1) fingerprint.
        shared_key = (bound, graph.fingerprint())
        cached = bgp.order_cache.get(shared_key)
        if cached is not None:
            self._order_cache[key] = cached
            return cached
        index_stats = graph.index_stats()
        remaining = list(bgp.triples)
        working = set(bound)
        order: List[_TripleInfo] = []
        growth = 1.0
        while remaining:
            if bgp.reorderable and len(remaining) > 1:
                info = self._select_triple(remaining, working, graph, index_stats)
            else:
                info = remaining[0]
            remaining.remove(info)
            order.append(info)
            growth *= max(self._estimate_triple(info, working, graph, index_stats), 1e-3)
            working |= info.vars
        result = (tuple(order), growth)
        self._order_cache[key] = result
        if len(bgp.order_cache) >= 128:
            bgp.order_cache.clear()
        bgp.order_cache[shared_key] = result
        return result

    def _select_triple(
        self,
        remaining: Sequence[_TripleInfo],
        bound: Set[Variable],
        graph: Graph,
        index_stats: Dict[str, int],
    ) -> _TripleInfo:
        """Pick the pattern with the smallest estimated growth factor.

        A pattern that shares no variable with the bound set multiplies the
        whole intermediate (cartesian product), so it is heavily penalised
        unless its own cardinality is already tiny.  Ties break on textual
        order, keeping well-written queries on their original plan.
        """
        best = remaining[0]
        best_key: Optional[Tuple[float, int]] = None
        for info in remaining:
            estimate = self._estimate_triple(info, bound, graph, index_stats)
            connected = not bound or not info.vars or bool(info.vars & bound)
            cost = estimate if connected else estimate * _CARTESIAN_PENALTY
            key = (cost, info.index)
            if best_key is None or key < best_key:
                best, best_key = info, key
        return best

    @staticmethod
    def _estimate_triple(
        info: _TripleInfo,
        bound: Set[Variable],
        graph: Graph,
        index_stats: Dict[str, int],
    ) -> float:
        """Expected matches per incoming solution for one triple pattern."""
        pattern = info.pattern
        subject_const = pattern.subject if info.subject_var is None else None
        object_const = pattern.object if info.object_var is None else None
        if info.is_path:
            seed = graph.cardinality((subject_const, None, object_const))
            base = (float(seed) + 1.0) * _PATH_PENALTY
            predicate_const = None
        else:
            predicate_const = pattern.predicate if info.predicate_var is None else None
            base = float(graph.cardinality((subject_const, predicate_const, object_const)))
            if base == 0.0:
                return 0.0
        estimate = base
        positions = (
            (info.subject_var, "subjects"),
            (info.predicate_var, "predicates"),
            (info.object_var, "objects"),
        )
        for var, position in positions:
            if var is None or var not in bound:
                continue
            if position == "objects" and predicate_const is not None:
                distinct = graph.predicate_stats(predicate_const).get("distinct_objects", 0)
            else:
                distinct = index_stats.get(position, 0)
            estimate /= max(1.0, float(distinct))
        return max(estimate, 1e-3)

    def _filter_chains_encoded(self, expression: Expression, chains: List[Any]) -> List[Any]:
        """Apply one pushed-down filter to encoded chains, through a term-decoding view."""
        terms = self._dictionary.terms
        kept: List[Any] = []
        for chain in chains:
            try:
                value = evaluate_expression(expression, _DecodingView(chain, terms), self._exists)
                if effective_boolean_value(value):
                    kept.append(chain)
            except ExpressionError:
                continue
        return kept

    def _join_triple_ids(
        self, info: _TripleInfo, chains: List[Any]
    ) -> Tuple[List[Any], int, int]:
        """Join one triple pattern into every chain (hash-join probe reuse).

        Probes are keyed by the values of the pattern's variable slots; each
        distinct key is answered once against the graph and its matches
        (as addition tuples) are reused for every chain producing the same
        key.  A triple probes the graph's integer indexes: its constants
        are encoded once, a bound ``int`` cell substitutes as is and a
        bound term is encoded through the dictionary, and the addition
        cells store IDs.  A property path probes :func:`evaluate_path`
        with its bound endpoints decoded to terms, and binds terms.
        """
        pattern = info.pattern
        if info.is_path:
            terms = self._dictionary.terms
            probe = (pattern.subject, None, pattern.object)

            def resolve(value):
                return terms[value] if type(value) is int else value
        else:
            lookup = self._dictionary.ids.get
            # -1 is the "bound to a term the graph has never seen" sentinel:
            # a valid ID is never negative, and such a probe cannot match.
            probe = tuple(
                None if var is not None else lookup(term, -1)
                for var, term in (
                    (info.subject_var, pattern.subject),
                    (info.predicate_var, pattern.predicate),
                    (info.object_var, pattern.object),
                )
            )
            if -1 in probe:
                return [], 1, 0

            def resolve(value):
                if value is None or type(value) is int:
                    return value
                return lookup(value, -1)

        var_slots = info.var_slots

        def matches_for(chain) -> List[Tuple[Tuple[Variable, Any], ...]]:
            spo = list(probe)
            for slot, var in var_slots:
                spo[slot] = resolve(chain.get(var))
            return self._probe(info, *spo)

        results: List[Any] = []
        if len(chains) == 1:
            # Singleton fast path (every naive OPTIONAL/UNION/MINUS inner
            # evaluation): no reuse possible, skip the probe table.
            chain = chains[0]
            for additions in matches_for(chain):
                extended = chain
                for var, value in additions:
                    extended = _ChainSolution(extended, var, value)
                results.append(extended)
            return results, 1, 0
        # Probe keys only need the positions that can vary between chains:
        # the variable slots.  Constants contribute nothing to the key.
        cache: Dict[Any, List[Tuple[Tuple[Variable, Any], ...]]] = {}
        probes = 0
        hits = 0
        if len(var_slots) == 1:
            key_var = var_slots[0][1]

            def probe_key(chain):
                return chain.get(key_var)
        else:
            key_vars = tuple(var for _, var in var_slots)

            def probe_key(chain):
                return tuple(chain.get(var) for var in key_vars)

        for chain in chains:
            key = probe_key(chain)
            matches = cache.get(key)
            if matches is None:
                probes += 1
                matches = matches_for(chain)
                cache[key] = matches
            else:
                hits += 1
            for additions in matches:
                extended = chain
                for var, value in additions:
                    extended = _ChainSolution(extended, var, value)
                results.append(extended)
        return results, probes, hits

    def _probe(
        self, info: _TripleInfo, s: Any, p: Any, o: Any
    ) -> List[Tuple[Tuple[Variable, Any], ...]]:
        """All matches of a substituted pattern, as addition tuples.

        Additions cover only the positions that were unbound in the probe.
        A ``-1`` in a triple's probe means a bound term unknown to the
        graph's dictionary: nothing can match.  A property path gets no
        such early exit: a zero-length path from a node absent from the
        graph still matches the node itself.  A variable repeated across
        positions keeps the naive evaluator's behaviour (the later
        position's dict write wins), so planned and naive evaluation stay
        row-identical even on degenerate patterns.
        """
        if info.is_path:
            found = ((ms, None, mo) for ms, mo in
                     evaluate_path(self.graph, info.pattern.predicate, s, o))
        elif -1 in (s, p, o):
            return []
        else:
            found = self.graph.triples_ids((s, p, o))
        subject_var = info.subject_var
        predicate_var = info.predicate_var
        object_var = info.object_var
        matches: List[Tuple[Tuple[Variable, Any], ...]] = []
        for ms, mp, mo in found:
            additions: Dict[Variable, Any] = {}
            if subject_var is not None and s is None:
                additions[subject_var] = ms
            if predicate_var is not None and p is None:
                additions[predicate_var] = mp
            if object_var is not None and o is None:
                additions[object_var] = mo
            matches.append(tuple(additions.items()))
        return matches
