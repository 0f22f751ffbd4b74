"""Class- and property-hierarchy views over a (possibly inferred) graph.

These helpers answer the structural questions behind Figure 1 and Figure 2
of the paper: the subclass tree rooted at ``feo:Characteristic`` and the
sub-property lattice around ``isCharacteristicOf`` / ``isOpposedBy``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set

from ..rdf.graph import Graph
from ..rdf.terms import IRI
from .vocabulary import RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF

__all__ = ["ClassHierarchy", "PropertyHierarchy", "render_tree"]


class _Hierarchy:
    """Shared logic for subclass and sub-property hierarchies."""

    def __init__(self, graph: Graph, predicate: IRI) -> None:
        self._graph = graph
        self._predicate = predicate
        self._parents: Dict[IRI, Set[IRI]] = defaultdict(set)
        self._children: Dict[IRI, Set[IRI]] = defaultdict(set)
        for sub, sup in graph.subject_objects(predicate):
            if isinstance(sub, IRI) and isinstance(sup, IRI) and sub != sup:
                self._parents[sub].add(sup)
                self._children[sup].add(sub)

    def parents(self, node: IRI) -> Set[IRI]:
        """Direct (asserted or inferred) parents of ``node``."""
        return set(self._parents.get(node, set()))

    def children(self, node: IRI) -> Set[IRI]:
        """Direct children of ``node``."""
        return set(self._children.get(node, set()))

    def ancestors(self, node: IRI) -> Set[IRI]:
        """Transitive parents of ``node`` (node excluded)."""
        seen: Set[IRI] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            for parent in self._parents.get(current, ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    def descendants(self, node: IRI) -> Set[IRI]:
        """Transitive children of ``node`` (node excluded)."""
        seen: Set[IRI] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            for child in self._children.get(current, ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def direct_children(self, node: IRI) -> Set[IRI]:
        """Children that are not reachable through another child (tree view)."""
        children = self.children(node)
        redundant: Set[IRI] = set()
        for child in children:
            for other in children:
                if child != other and child in self.descendants(other):
                    redundant.add(child)
        return children - redundant

    def is_a(self, node: IRI, ancestor: IRI) -> bool:
        """True if ``node`` is (transitively) below ``ancestor`` or equal to it."""
        return node == ancestor or ancestor in self.ancestors(node)

    def tree(self, root: IRI, max_depth: int = 20) -> Dict:
        """A nested ``{node: {child: {...}}}`` dictionary rooted at ``root``."""

        def build(node: IRI, depth: int, seen: Set[IRI]) -> Dict:
            if depth >= max_depth:
                return {}
            result: Dict = {}
            for child in sorted(self.direct_children(node), key=str):
                if child in seen:
                    continue
                result[child] = build(child, depth + 1, seen | {child})
            return result

        return {root: build(root, 0, {root})}


class ClassHierarchy(_Hierarchy):
    """The ``rdfs:subClassOf`` hierarchy of a graph."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph, RDFS_SUBCLASSOF)


class PropertyHierarchy(_Hierarchy):
    """The ``rdfs:subPropertyOf`` hierarchy of a graph."""

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph, RDFS_SUBPROPERTYOF)


def render_tree(tree: Dict, namespace_manager=None, indent: str = "") -> str:
    """Render a nested tree dictionary as indented text (Figure 1 style)."""
    lines: List[str] = []

    def label(node) -> str:
        if namespace_manager is not None and isinstance(node, IRI):
            compact = namespace_manager.qname(node)
            if compact:
                return compact
        return str(node)

    def walk(subtree: Dict, depth: int) -> None:
        for node, children in subtree.items():
            lines.append("  " * depth + ("- " if depth else "") + label(node))
            walk(children, depth + 1)

    walk(tree, 0)
    return "\n".join(lines)
