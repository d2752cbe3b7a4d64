"""Serialization of SPARQL ASTs back to query text.

The SPARQL-ML query re-writer edits a parsed query (drops the user-defined
predicate triples, injects UDF projection expressions, adds a dictionary
sub-select) and then needs the result as text again so it can be executed by
any SPARQL endpoint — exactly what the paper's Query Re-writer produces in
Figs 11 and 12.  This module renders every AST node the parser can produce.
"""

from __future__ import annotations

from typing import List

from repro.exceptions import QueryError
from repro.rdf.terms import Term
from repro.sparql.ast import (
    Aggregate,
    AlternativePath,
    AskQuery,
    BGP,
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
    NegatedPath,
    OptionalPattern,
    PathExpr,
    PathPattern,
    SelectItem,
    SelectQuery,
    SequencePath,
    SubSelectPattern,
    TriplePattern,
    UnaryOp,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)

__all__ = [
    "serialize_term",
    "serialize_expression",
    "serialize_path",
    "serialize_select",
    "serialize_query",
]


def serialize_term(term: Term) -> str:
    return term.n3()


def serialize_expression(expr: Expression) -> str:
    if isinstance(expr, VariableExpr):
        return expr.variable.n3()
    if isinstance(expr, ConstantExpr):
        return expr.value.n3()
    if isinstance(expr, FunctionCall):
        args = ", ".join(serialize_expression(arg) for arg in expr.args)
        name = expr.name
        if "://" in name:  # full-IRI function names need angle brackets
            name = f"<{name}>"
        return f"{name}({args})"
    if isinstance(expr, UnaryOp):
        return f"{expr.op}({serialize_expression(expr.operand)})"
    if isinstance(expr, BinaryOp):
        return (f"({serialize_expression(expr.left)} {expr.op} "
                f"{serialize_expression(expr.right)})")
    if isinstance(expr, InExpr):
        keyword = "NOT IN" if expr.negated else "IN"
        choices = ", ".join(serialize_expression(choice) for choice in expr.choices)
        return f"({serialize_expression(expr.operand)} {keyword} ({choices}))"
    if isinstance(expr, ExistsExpr):
        keyword = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{keyword} {serialize_group(expr.pattern, indent=1)}"
    if isinstance(expr, Aggregate):
        inner = "*" if expr.expr is None else serialize_expression(expr.expr)
        distinct = "DISTINCT " if expr.distinct else ""
        if expr.name == "GROUP_CONCAT" and expr.separator != " ":
            return f'{expr.name}({distinct}{inner}; SEPARATOR="{expr.separator}")'
        return f"{expr.name}({distinct}{inner})"
    raise QueryError(f"cannot serialize expression node {type(expr).__name__}")


def serialize_path(path: PathExpr) -> str:
    """Render a property path with the minimal parenthesisation that
    round-trips through the parser's precedence (alt < seq < inverse/mod)."""
    if isinstance(path, LinkPath):
        return path.iri.n3()
    if isinstance(path, InversePath):
        inner = serialize_path(path.path)
        # Nested inverses need parentheses: '^^' lexes as the datatype
        # marker, and the grammar only allows '^' before a path *element*.
        if isinstance(path.path, (SequencePath, AlternativePath, InversePath)):
            inner = f"({inner})"
        return f"^{inner}"
    if isinstance(path, SequencePath):
        parts = []
        for step in path.steps:
            text = serialize_path(step)
            if isinstance(step, (AlternativePath, SequencePath)):
                text = f"({text})"
            parts.append(text)
        return "/".join(parts)
    if isinstance(path, AlternativePath):
        parts = []
        for alternative in path.alternatives:
            text = serialize_path(alternative)
            if isinstance(alternative, AlternativePath):
                text = f"({text})"
            parts.append(text)
        return "|".join(parts)
    if isinstance(path, MulPath):
        inner = serialize_path(path.path)
        if isinstance(path.path, (SequencePath, AlternativePath, InversePath,
                                  MulPath)):
            inner = f"({inner})"
        return f"{inner}{path.modifier}"
    if isinstance(path, NegatedPath):
        members = [iri.n3() for iri in path.forward]
        members.extend(f"^{iri.n3()}" for iri in path.inverse)
        if len(members) == 1 and not path.inverse:
            return f"!{members[0]}"
        return f"!({'|'.join(members)})"
    raise QueryError(f"cannot serialize path node {type(path).__name__}")


def _serialize_triple(pattern: TriplePattern) -> str:
    return (f"{serialize_term(pattern.subject)} {serialize_term(pattern.predicate)} "
            f"{serialize_term(pattern.object)} .")


def _serialize_path_pattern(pattern: PathPattern) -> str:
    return (f"{serialize_term(pattern.subject)} {serialize_path(pattern.path)} "
            f"{serialize_term(pattern.object)} .")


def serialize_group(group: GroupPattern, indent: int = 0) -> str:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    lines: List[str] = [pad + "{"]
    for element in group.elements:
        if isinstance(element, BGP):
            for triple in element.triples:
                lines.append(inner_pad + _serialize_triple(triple))
        elif isinstance(element, PathPattern):
            lines.append(inner_pad + _serialize_path_pattern(element))
        elif isinstance(element, FilterPattern):
            lines.append(inner_pad + f"FILTER({serialize_expression(element.expression)})")
        elif isinstance(element, OptionalPattern):
            lines.append(inner_pad + "OPTIONAL " +
                         serialize_group(element.pattern, indent + 1).lstrip())
        elif isinstance(element, MinusPattern):
            lines.append(inner_pad + "MINUS " +
                         serialize_group(element.pattern, indent + 1).lstrip())
        elif isinstance(element, UnionPattern):
            rendered = [serialize_group(alternative, indent + 1).lstrip()
                        for alternative in element.alternatives]
            lines.append(inner_pad + " UNION ".join(rendered))
        elif isinstance(element, BindPattern):
            lines.append(inner_pad + f"BIND({serialize_expression(element.expression)} "
                                     f"AS {element.variable.n3()})")
        elif isinstance(element, ValuesPattern):
            variables = " ".join(v.n3() for v in element.variables)
            rows = []
            for row in element.rows:
                cells = " ".join("UNDEF" if value is None else value.n3() for value in row)
                rows.append(f"({cells})")
            lines.append(inner_pad + f"VALUES ({variables}) {{ {' '.join(rows)} }}")
        elif isinstance(element, SubSelectPattern):
            sub = serialize_select(element.query, indent=indent + 2,
                                   include_prefixes=False)
            lines.append(inner_pad + "{")
            lines.append(sub)
            lines.append(inner_pad + "}")
        else:  # pragma: no cover - defensive
            raise QueryError(f"cannot serialize pattern {type(element).__name__}")
    lines.append(pad + "}")
    return "\n".join(lines)


def _serialize_select_item(item: SelectItem) -> str:
    if isinstance(item.expression, VariableExpr) and item.alias is None:
        return item.expression.variable.n3()
    alias = item.alias.n3() if item.alias is not None else "?expr"
    return f"({serialize_expression(item.expression)} AS {alias})"


def serialize_select(query: SelectQuery, indent: int = 0,
                     include_prefixes: bool = True) -> str:
    pad = "  " * indent
    lines: List[str] = []
    if include_prefixes:
        for prefix, base in sorted(query.prefixes.items()):
            lines.append(f"PREFIX {prefix}: <{base}>")
    projection = "*" if query.select_all else " ".join(
        _serialize_select_item(item) for item in query.select_items)
    distinct = "DISTINCT " if query.distinct else ("REDUCED " if query.reduced else "")
    lines.append(f"{pad}SELECT {distinct}{projection}")
    for graph_iri in query.from_graphs:
        lines.append(f"{pad}FROM {graph_iri.n3()}")
    lines.append(f"{pad}WHERE " + serialize_group(query.where, indent).lstrip())
    if query.group_by:
        rendered = " ".join(serialize_expression(expr) for expr in query.group_by)
        lines.append(f"{pad}GROUP BY {rendered}")
    for having in query.having:
        lines.append(f"{pad}HAVING({serialize_expression(having)})")
    if query.order_by:
        rendered = []
        for condition in query.order_by:
            expr_text = serialize_expression(condition.expression)
            rendered.append(f"DESC({expr_text})" if condition.descending else expr_text)
        lines.append(f"{pad}ORDER BY {' '.join(rendered)}")
    if query.limit is not None:
        lines.append(f"{pad}LIMIT {query.limit}")
    if query.offset:
        lines.append(f"{pad}OFFSET {query.offset}")
    return "\n".join(lines)


def serialize_query(query) -> str:
    """Serialize a SELECT / ASK / CONSTRUCT query AST to SPARQL text."""
    if isinstance(query, SelectQuery):
        return serialize_select(query)
    if isinstance(query, AskQuery):
        prefixes = [f"PREFIX {p}: <{b}>" for p, b in sorted(query.prefixes.items())]
        return "\n".join(prefixes + ["ASK " + serialize_group(query.where).lstrip()])
    if isinstance(query, ConstructQuery):
        prefixes = [f"PREFIX {p}: <{b}>" for p, b in sorted(query.prefixes.items())]
        template = "\n".join("  " + _serialize_triple(t) for t in query.template)
        return "\n".join(prefixes + ["CONSTRUCT {", template, "}",
                                     "WHERE " + serialize_group(query.where).lstrip()])
    raise QueryError(f"cannot serialize query of type {type(query).__name__}")
