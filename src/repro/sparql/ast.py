"""Abstract syntax tree for the supported SPARQL subset.

The parser (:mod:`repro.sparql.parser`) produces these nodes and the
evaluator (:mod:`repro.sparql.evaluator`) interprets them.  Expressions and
graph patterns are deliberately simple dataclasses so the SPARQL-ML query
rewriter can pattern-match and rebuild them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.rdf.terms import IRI, Term, Triple, Variable

__all__ = [
    "Expression",
    "VariableExpr",
    "ConstantExpr",
    "FunctionCall",
    "UnaryOp",
    "BinaryOp",
    "InExpr",
    "ExistsExpr",
    "Aggregate",
    "SelectItem",
    "PathExpr",
    "LinkPath",
    "InversePath",
    "SequencePath",
    "AlternativePath",
    "MulPath",
    "NegatedPath",
    "TriplePattern",
    "PathPattern",
    "ClosurePattern",
    "NegatedPathPattern",
    "BGP",
    "FilterPattern",
    "OptionalPattern",
    "UnionPattern",
    "MinusPattern",
    "BindPattern",
    "ValuesPattern",
    "SubSelectPattern",
    "GraphPattern",
    "GroupPattern",
    "OrderCondition",
    "SelectQuery",
    "AskQuery",
    "ConstructQuery",
    "InsertDataUpdate",
    "DeleteDataUpdate",
    "ModifyUpdate",
    "ClearUpdate",
    "Query",
    "Update",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for all expression nodes."""

    def variables(self) -> List[Variable]:
        """Return the variables mentioned by this expression (with duplicates)."""
        return []


@dataclass(frozen=True)
class VariableExpr(Expression):
    variable: Variable

    def variables(self) -> List[Variable]:
        return [self.variable]


@dataclass(frozen=True)
class ConstantExpr(Expression):
    value: Term


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in or user-defined function call.

    ``name`` is either an upper-cased builtin name (``"REGEX"``, ``"STR"``,
    ``"BOUND"`` ...) or the IRI / prefixed name of a user-defined function
    such as ``sql:UDFS.getNodeClass``.
    """

    name: str
    args: Tuple[Expression, ...]

    def variables(self) -> List[Variable]:
        out: List[Variable] = []
        for arg in self.args:
            out.extend(arg.variables())
        return out


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # "!", "-", "+"
    operand: Expression

    def variables(self) -> List[Variable]:
        return self.operand.variables()


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # "&&", "||", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"
    left: Expression
    right: Expression

    def variables(self) -> List[Variable]:
        return self.left.variables() + self.right.variables()


@dataclass(frozen=True)
class InExpr(Expression):
    operand: Expression
    choices: Tuple[Expression, ...]
    negated: bool = False

    def variables(self) -> List[Variable]:
        out = self.operand.variables()
        for choice in self.choices:
            out.extend(choice.variables())
        return out


@dataclass(frozen=True)
class ExistsExpr(Expression):
    pattern: "GroupPattern"
    negated: bool = False


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate expression used in SELECT/HAVING with GROUP BY."""

    name: str  # COUNT, SUM, AVG, MIN, MAX, SAMPLE, GROUP_CONCAT
    expr: Optional[Expression]  # None means COUNT(*)
    distinct: bool = False
    separator: str = " "

    def variables(self) -> List[Variable]:
        return self.expr.variables() if self.expr is not None else []


@dataclass(frozen=True)
class SelectItem:
    """One entry of a SELECT projection list.

    Either a bare variable (``expression`` is a :class:`VariableExpr` and
    ``alias`` is None), or ``expression AS ?alias`` where the Virtuoso-style
    ``expr as ?alias`` without parentheses is also accepted.
    """

    expression: Expression
    alias: Optional[Variable] = None

    @property
    def output_variable(self) -> Variable:
        if self.alias is not None:
            return self.alias
        if isinstance(self.expression, VariableExpr):
            return self.expression.variable
        raise ValueError("select expression without an alias has no output variable")


# ---------------------------------------------------------------------------
# Property-path expressions (SPARQL 1.1 section 9)
# ---------------------------------------------------------------------------


class PathExpr:
    """Base class for property-path expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class LinkPath(PathExpr):
    """A single predicate step (``iri``)."""

    iri: IRI


@dataclass(frozen=True)
class InversePath(PathExpr):
    """``^path`` — traverse ``path`` from object to subject."""

    path: "PathExpr"


@dataclass(frozen=True)
class SequencePath(PathExpr):
    """``p1/p2/.../pn`` — paths applied left to right."""

    steps: Tuple["PathExpr", ...]


@dataclass(frozen=True)
class AlternativePath(PathExpr):
    """``p1|p2|...|pn`` — union of the alternatives."""

    alternatives: Tuple["PathExpr", ...]


@dataclass(frozen=True)
class MulPath(PathExpr):
    """``path*``, ``path+`` or ``path?`` — closure with distinct endpoint pairs."""

    path: "PathExpr"
    modifier: str  # "*", "+" or "?"


@dataclass(frozen=True)
class NegatedPath(PathExpr):
    """``!iri`` or ``!(iri1|^iri2|...)`` — a negated property set.

    ``forward`` holds the excluded forward predicates, ``inverse`` the
    excluded ``^``-prefixed predicates.  Per the SPARQL 1.1 semantics a set
    with only forward members matches forward edges, a set with only inverse
    members matches inverse edges, a mixed set matches both directions, and
    the empty set ``!()`` matches every forward edge.
    """

    forward: Tuple[IRI, ...] = ()
    inverse: Tuple[IRI, ...] = ()

    @property
    def match_forward(self) -> bool:
        return bool(self.forward) or not self.inverse

    @property
    def match_inverse(self) -> bool:
        return bool(self.inverse)


# ---------------------------------------------------------------------------
# Graph patterns
# ---------------------------------------------------------------------------


@dataclass
class TriplePattern:
    subject: Term
    predicate: Term
    object: Term

    def as_triple(self) -> Triple:
        return Triple(self.subject, self.predicate, self.object)

    def variables(self) -> List[Variable]:
        return [t for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Variable)]

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))


@dataclass
class PathPattern:
    """A triple pattern whose predicate position is a property path.

    Produced by the parser for any non-trivial path (a bare ``iri`` path
    collapses back into a plain :class:`TriplePattern`).  The evaluator lowers
    it via :mod:`repro.sparql.paths` into BGPs, :class:`ClosurePattern` and
    :class:`NegatedPathPattern` elements.
    """

    subject: Term
    path: PathExpr
    object: Term

    def variables(self) -> List[Variable]:
        return [t for t in (self.subject, self.object) if isinstance(t, Variable)]


@dataclass
class ClosurePattern:
    """Algebra-level ``path*`` / ``path+`` / ``path?`` closure.

    Produced by the path rewriter, never by the parser.  ``path`` is the
    inverse-normalized inner path; endpoint pairs are emitted with set
    semantics (each distinct ``(subject, object)`` pair once per input
    solution), per the SPARQL 1.1 ALP definition.
    """

    subject: Term
    path: PathExpr
    modifier: str  # "*", "+" or "?"
    object: Term

    def variables(self) -> List[Variable]:
        return [t for t in (self.subject, self.object) if isinstance(t, Variable)]


@dataclass
class NegatedPathPattern:
    """Algebra-level negated property set step (bag semantics)."""

    subject: Term
    path: NegatedPath
    object: Term

    def variables(self) -> List[Variable]:
        return [t for t in (self.subject, self.object) if isinstance(t, Variable)]


@dataclass
class BGP:
    """A basic graph pattern: a conjunction of triple patterns."""

    triples: List[TriplePattern] = field(default_factory=list)

    def variables(self) -> List[Variable]:
        out: List[Variable] = []
        for pattern in self.triples:
            out.extend(pattern.variables())
        return out


@dataclass
class FilterPattern:
    expression: Expression


@dataclass
class OptionalPattern:
    pattern: "GroupPattern"


@dataclass
class UnionPattern:
    alternatives: List["GroupPattern"]


@dataclass
class MinusPattern:
    pattern: "GroupPattern"


@dataclass
class BindPattern:
    expression: Expression
    variable: Variable


@dataclass
class ValuesPattern:
    variables: List[Variable]
    rows: List[List[Optional[Term]]]


@dataclass
class SubSelectPattern:
    query: "SelectQuery"


GraphPattern = Union[
    BGP,
    PathPattern,
    ClosurePattern,
    NegatedPathPattern,
    FilterPattern,
    OptionalPattern,
    UnionPattern,
    MinusPattern,
    BindPattern,
    ValuesPattern,
    SubSelectPattern,
]


@dataclass
class GroupPattern:
    """A ``{ ... }`` group: an ordered list of graph-pattern elements."""

    elements: List[GraphPattern] = field(default_factory=list)

    def triple_patterns(self) -> List[TriplePattern]:
        """The plain triple patterns of this group's BGPs and of its
        OPTIONAL, MINUS and UNION groups, recursively.

        Property paths, EXISTS groups and sub-SELECTs are skipped, so this is
        not everything a query reads; :func:`repro.sparql.footprint.footprint`
        is.
        """
        out: List[TriplePattern] = []
        for element in self.elements:
            if isinstance(element, BGP):
                out.extend(element.triples)
            elif isinstance(element, OptionalPattern):
                out.extend(element.pattern.triple_patterns())
            elif isinstance(element, MinusPattern):
                out.extend(element.pattern.triple_patterns())
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    out.extend(alternative.triple_patterns())
        return out

    def variables(self) -> List[Variable]:
        out: List[Variable] = []
        for element in self.elements:
            if isinstance(element, (BGP,)):
                out.extend(element.variables())
            elif isinstance(element, (PathPattern, ClosurePattern,
                                      NegatedPathPattern)):
                out.extend(element.variables())
            elif isinstance(element, BindPattern):
                out.append(element.variable)
            elif isinstance(element, OptionalPattern):
                out.extend(element.pattern.variables())
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    out.extend(alternative.variables())
            elif isinstance(element, SubSelectPattern):
                out.extend(element.query.projected_variables())
            elif isinstance(element, ValuesPattern):
                out.extend(element.variables)
        return out


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@dataclass
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass
class SelectQuery:
    select_items: List[SelectItem]
    where: GroupPattern
    select_all: bool = False
    distinct: bool = False
    reduced: bool = False
    group_by: List[Expression] = field(default_factory=list)
    having: List[Expression] = field(default_factory=list)
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    prefixes: Dict[str, str] = field(default_factory=dict)
    from_graphs: List[IRI] = field(default_factory=list)

    def projected_variables(self) -> List[Variable]:
        if self.select_all:
            seen = []
            for var in self.where.variables():
                if var not in seen:
                    seen.append(var)
            return seen
        out = []
        for item in self.select_items:
            try:
                var = item.output_variable
            except ValueError:
                continue
            if var not in out:
                out.append(var)
        return out


@dataclass
class AskQuery:
    where: GroupPattern
    prefixes: Dict[str, str] = field(default_factory=dict)


@dataclass
class ConstructQuery:
    template: List[TriplePattern]
    where: GroupPattern
    prefixes: Dict[str, str] = field(default_factory=dict)
    limit: Optional[int] = None


@dataclass
class InsertDataUpdate:
    triples: List[Triple]
    graph: Optional[IRI] = None
    prefixes: Dict[str, str] = field(default_factory=dict)


@dataclass
class DeleteDataUpdate:
    triples: List[Triple]
    graph: Optional[IRI] = None
    prefixes: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModifyUpdate:
    """``DELETE {...} INSERT {...} WHERE {...}`` (either template may be empty)."""

    delete_template: List[TriplePattern]
    insert_template: List[TriplePattern]
    where: GroupPattern
    graph: Optional[IRI] = None
    prefixes: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClearUpdate:
    graph: Optional[IRI] = None  # None clears the default graph
    silent: bool = False


Query = Union[SelectQuery, AskQuery, ConstructQuery]
Update = Union[InsertDataUpdate, DeleteDataUpdate, ModifyUpdate, ClearUpdate]
