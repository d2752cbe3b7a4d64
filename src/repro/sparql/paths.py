"""Property-path normalization and algebra lowering.

The parser leaves property paths as :class:`~repro.sparql.ast.PathPattern`
nodes.  This module lowers them into the algebra the streaming evaluator
already knows how to run (the sage-engine blueprint in SNIPPETS.md):

* ``seq`` becomes a chain of triple patterns joined through fresh variables,
  merged into ordinary BGPs so the compiled id-space join pipeline (and its
  join reordering) applies unchanged;
* ``alt`` becomes a :class:`~repro.sparql.ast.UnionPattern` over the lowered
  branches;
* ``inv`` is normalized away — pushed down so the compiled form only ever
  contains ``^iri`` over a single link (``^(a/b)`` ≡ ``^b/^a`` etc.) — and a
  plain inverted link is just a triple pattern with swapped endpoints;
* ``*``/``+``/``?`` become :class:`~repro.sparql.ast.ClosurePattern` nodes
  evaluated as id-space BFS closure iterators;
* ``!(...)`` becomes a :class:`~repro.sparql.ast.NegatedPathPattern`.

Fresh join variables are invisible to the query (no projection ever names
them), and the rewrite is memoized on the AST node, so the optimizer's
estimate and the plan builder lower a pattern once between them.
"""

from __future__ import annotations

import itertools
import threading
from typing import FrozenSet, List, Tuple

from repro.rdf.terms import Term, Variable
from repro.sparql.ast import (
    AlternativePath,
    BGP,
    ClosurePattern,
    GraphPattern,
    GroupPattern,
    InversePath,
    LinkPath,
    MulPath,
    NegatedPath,
    NegatedPathPattern,
    PathExpr,
    PathPattern,
    SequencePath,
    TriplePattern,
    UnionPattern,
)

__all__ = [
    "invert_path",
    "normalize_path",
    "path_link_iris",
    "rewrite_path_pattern",
    "is_fresh_path_variable",
]

#: Name prefix for generated join variables (``Variable`` strips ``?``/``$``).
#: ``SELECT *`` projects the variables the *written* patterns name, so they
#: never leak into a result.
_FRESH_PREFIX = "__pp"

_fresh_ids = itertools.count()
_rewrite_lock = threading.Lock()


def _fresh_variable() -> Variable:
    return Variable(f"{_FRESH_PREFIX}{next(_fresh_ids)}")


def is_fresh_path_variable(variable: Variable) -> bool:
    """True for join variables generated by the path rewriter."""
    return variable.name.startswith(_FRESH_PREFIX)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def invert_path(path: PathExpr) -> PathExpr:
    """Return the structural inverse of ``path`` (``^path`` pushed inward)."""
    if isinstance(path, LinkPath):
        return InversePath(path)
    if isinstance(path, InversePath):
        return path.path
    if isinstance(path, SequencePath):
        return SequencePath(tuple(invert_path(step)
                                  for step in reversed(path.steps)))
    if isinstance(path, AlternativePath):
        return AlternativePath(tuple(invert_path(alt)
                                     for alt in path.alternatives))
    if isinstance(path, MulPath):
        return MulPath(invert_path(path.path), path.modifier)
    if isinstance(path, NegatedPath):
        # Swapping the member sets (^!(F|^I) ≡ !(I|^F)) is tempting but
        # WRONG for the empty set: !() matches every forward edge, and its
        # inverse must match every *reversed* edge — yet the swap maps
        # NegatedPath((), ()) to itself.  Keep the inverse explicit; the
        # lowering and the compiler evaluate it with swapped endpoints.
        return InversePath(path)
    raise TypeError(f"unknown path expression: {path!r}")


def normalize_path(path: PathExpr) -> PathExpr:
    """Push ``^`` down to links so only ``InversePath(LinkPath)`` remains."""
    if isinstance(path, LinkPath):
        return path
    if isinstance(path, InversePath):
        inner = normalize_path(path.path)
        if isinstance(inner, (LinkPath, NegatedPath)):
            return InversePath(inner)
        if isinstance(inner, InversePath):
            return inner.path  # ^^p cancels (inner is already normalized)
        return normalize_path(invert_path(inner))
    if isinstance(path, SequencePath):
        return SequencePath(tuple(normalize_path(s) for s in path.steps))
    if isinstance(path, AlternativePath):
        return AlternativePath(tuple(normalize_path(a)
                                     for a in path.alternatives))
    if isinstance(path, MulPath):
        return MulPath(normalize_path(path.path), path.modifier)
    if isinstance(path, NegatedPath):
        return path
    raise TypeError(f"unknown path expression: {path!r}")


def path_link_iris(path: PathExpr):
    """Every link IRI ``path`` can traverse, or ``None`` when not enumerable.

    The cost-based optimizer sums per-predicate triple counts over this set
    to bound how many edges one application of the path can follow (a
    closure's single BFS step, a sequence's widest hop).  Negated property
    sets match the *complement* of their members, so their edge set cannot
    be enumerated from the path alone — ``None`` tells the estimator to fall
    back to the graph's full edge count.  Direction is irrelevant to the
    count, so inverses are transparent.
    """
    if isinstance(path, LinkPath):
        return (path.iri,)
    if isinstance(path, InversePath):
        return path_link_iris(path.path)
    if isinstance(path, (SequencePath, AlternativePath)):
        parts = (path.steps if isinstance(path, SequencePath)
                 else path.alternatives)
        links: List = []
        for part in parts:
            part_links = path_link_iris(part)
            if part_links is None:
                return None
            links.extend(part_links)
        return tuple(links)
    if isinstance(path, MulPath):
        return path_link_iris(path.path)
    if isinstance(path, NegatedPath):
        return None
    raise TypeError(f"unknown path expression: {path!r}")


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _append_triple(elements: List[GraphPattern], pattern: TriplePattern) -> None:
    """Append ``pattern``, merging into a trailing BGP when possible."""
    if elements and isinstance(elements[-1], BGP):
        elements[-1].triples.append(pattern)
    else:
        elements.append(BGP(triples=[pattern]))


def _lower(subject: Term, path: PathExpr, object_: Term,
           elements: List[GraphPattern],
           fresh: List[Variable]) -> None:
    if isinstance(path, LinkPath):
        _append_triple(elements, TriplePattern(subject, path.iri, object_))
    elif isinstance(path, InversePath):
        # Normalized form: the inner path is a single link or a negated
        # property set; both invert by swapping the pattern's endpoints.
        inner = path.path
        if isinstance(inner, NegatedPath):
            elements.append(NegatedPathPattern(object_, inner, subject))
            return
        if not isinstance(inner, LinkPath):  # pragma: no cover - normalize_path
            _lower(object_, invert_path(path), subject, elements, fresh)
            return
        _append_triple(elements, TriplePattern(object_, inner.iri, subject))
    elif isinstance(path, SequencePath):
        joins = [_fresh_variable() for _ in range(len(path.steps) - 1)]
        fresh.extend(joins)
        nodes: List[Term] = [subject] + list(joins) + [object_]
        for step, left, right in zip(path.steps, nodes, nodes[1:]):
            _lower(left, step, right, elements, fresh)
    elif isinstance(path, AlternativePath):
        branches: List[GroupPattern] = []
        for alternative in path.alternatives:
            branch_elements: List[GraphPattern] = []
            _lower(subject, alternative, object_, branch_elements, fresh)
            branches.append(GroupPattern(branch_elements))
        elements.append(UnionPattern(branches))
    elif isinstance(path, MulPath):
        elements.append(ClosurePattern(subject, path.path, path.modifier,
                                       object_))
    elif isinstance(path, NegatedPath):
        elements.append(NegatedPathPattern(subject, path, object_))
    else:
        raise TypeError(f"unknown path expression: {path!r}")


def rewrite_path_pattern(
        pattern: PathPattern,
) -> Tuple[GroupPattern, FrozenSet[Variable]]:
    """Lower ``pattern`` to a group of plain algebra elements.

    Returns ``(group, fresh_variables)``; the result is memoized on the AST
    node.
    """
    cached = getattr(pattern, "_lowered", None)
    if cached is not None:
        return cached
    with _rewrite_lock:
        cached = getattr(pattern, "_lowered", None)
        if cached is not None:
            return cached
        elements: List[GraphPattern] = []
        fresh: List[Variable] = []
        _lower(pattern.subject, normalize_path(pattern.path), pattern.object,
               elements, fresh)
        result = (GroupPattern(elements), frozenset(fresh))
        pattern._lowered = result  # type: ignore[attr-defined]
        return result
