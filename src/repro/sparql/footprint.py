"""The triple patterns a query's answer can depend on.

A query's *footprint* is a set of ``(s, p, o)`` id patterns, ``None``
matching any id, such that a write changing no triple that matches one of
them cannot change the answer.  The result cache
(:class:`~repro.sparql.endpoint.ResultCache`) checks a stored body's
footprint against the dataset's :class:`~repro.rdf.graph.ChangeLog` and
keeps the body across every write that misses it.

:func:`footprint` is one walk over the parsed AST:

* a BGP pattern contributes its constants as ids, its variables and blank
  nodes as wildcards, and so does a constant the dictionary has not stored
  yet — a later write that stores it must still match;
* every IRI of a property path contributes ``(*, p, *)``, through ``^``,
  ``/``, ``|`` and ``+``;
* OPTIONAL, MINUS, UNION, sub-SELECTs and EXISTS (in FILTER, BIND, the
  projection, HAVING or ORDER BY) are walked like the top-level group.

It returns ``None`` — any change may alter the answer — for ``*`` and ``?``
closures (a zero-length path matches every node), negated property sets,
calls to functions that are not builtins (a UDF's answer depends on state
outside the triples) and any element it does not know.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Set, Tuple

from repro.rdf.terms import BNode, Term, Variable
from repro.sparql.ast import (
    BGP,
    Aggregate,
    AlternativePath,
    AskQuery,
    BinaryOp,
    BindPattern,
    ConstantExpr,
    ConstructQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    InExpr,
    InversePath,
    LinkPath,
    MinusPattern,
    MulPath,
    OptionalPattern,
    PathExpr,
    PathPattern,
    SelectQuery,
    SequencePath,
    SubSelectPattern,
    UnaryOp,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)
from repro.sparql.functions import BUILTIN_FUNCTIONS, walk_expression

__all__ = ["footprint"]

IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]

_EXPRESSION_NODES = (VariableExpr, ConstantExpr, UnaryOp, BinaryOp, InExpr,
                     Aggregate)


class _AnyChange(Exception):
    """Raised where a change to any triple may alter the answer."""


def footprint(query, lookup: Callable[[Term], Optional[int]]
              ) -> Optional[FrozenSet[IdPattern]]:
    """The id patterns ``query``'s answer can depend on, or ``None`` when
    any change may alter it; ``lookup`` maps a term to its stored id."""
    walker = _Walker(lookup)
    try:
        walker.query(query)
    except _AnyChange:
        return None
    return frozenset(walker.patterns)


class _Walker:
    def __init__(self, lookup: Callable[[Term], Optional[int]]) -> None:
        self.lookup = lookup
        self.patterns: Set[IdPattern] = set()

    def term(self, term: Term) -> Optional[int]:
        if isinstance(term, (Variable, BNode)):
            return None
        return self.lookup(term)

    def query(self, query) -> None:
        if isinstance(query, SelectQuery):
            for item in query.select_items:
                self.expression(item.expression)
            for expression in query.group_by + query.having:
                self.expression(expression)
            for condition in query.order_by:
                self.expression(condition.expression)
        elif not isinstance(query, (AskQuery, ConstructQuery)):
            raise _AnyChange
        self.group(query.where)

    def group(self, group: GroupPattern) -> None:
        for element in group.elements:
            if isinstance(element, BGP):
                for pattern in element.triples:
                    self.patterns.add((self.term(pattern.subject),
                                       self.term(pattern.predicate),
                                       self.term(pattern.object)))
            elif isinstance(element, PathPattern):
                self.path(element.path)
            elif isinstance(element, (OptionalPattern, MinusPattern)):
                self.group(element.pattern)
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    self.group(alternative)
            elif isinstance(element, SubSelectPattern):
                self.query(element.query)
            elif isinstance(element, (FilterPattern, BindPattern)):
                self.expression(element.expression)
            elif not isinstance(element, ValuesPattern):
                raise _AnyChange

    def path(self, path: PathExpr) -> None:
        if isinstance(path, LinkPath):
            self.patterns.add((None, self.lookup(path.iri), None))
        elif isinstance(path, InversePath):
            self.path(path.path)
        elif isinstance(path, (SequencePath, AlternativePath)):
            for part in (path.steps if isinstance(path, SequencePath)
                         else path.alternatives):
                self.path(part)
        elif isinstance(path, MulPath) and path.modifier == "+":
            self.path(path.path)
        else:
            raise _AnyChange

    def expression(self, expression: Expression) -> None:
        for node in walk_expression(expression):
            if isinstance(node, ExistsExpr):
                self.group(node.pattern)
            elif isinstance(node, FunctionCall):
                if node.name.upper() not in BUILTIN_FUNCTIONS:
                    raise _AnyChange
            elif not isinstance(node, _EXPRESSION_NODES):
                raise _AnyChange
