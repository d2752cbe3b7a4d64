"""Cost-based join ordering for the streaming SPARQL evaluator.

This module turns the graph's incrementally maintained statistics into
plans.  The inputs are all O(1) probes:

* **constant positions** are answered exactly from the per-subject /
  per-predicate / per-object triple counters (or a single index probe for
  two-constant shapes) via ``Graph.estimate_cardinality``,
* **variable positions already bound** by earlier join levels divide the
  estimate by the matching *distinct-count* statistic — distinct subjects
  per predicate (maintained on the write path), distinct objects per
  predicate (the POS bucket size), or the global distinct counts (index key
  counts) when the predicate itself is unknown.  That is the classical
  ``|R| / V(R, a)`` uniform-frequency selectivity.

On top of the estimator sit two orderers over one greedy loop implementing
the RDF-3X heuristic (smallest estimated cardinality first, bound variables
propagated, Cartesian products postponed):

* :func:`reorder_patterns` orders the triple patterns *within* one BGP and
  hands back the estimate each pick was made under, and
* :func:`reorder_group_elements` orders whole group elements across a
  contiguous run of join-commutative operators — BGPs, property-path
  patterns, closures (``p+``/``p*``/``p?``) and negated property sets — so
  that e.g. a closure with no bound endpoint runs *after* the patterns that
  bind one endpoint, instead of enumerating the node universe.  FILTER /
  OPTIONAL / MINUS / BIND / VALUES / UNION / sub-SELECT elements are
  **barriers**: they carry left-join or scope semantics and never move, and
  nothing is reordered across them.  (Joins are commutative under SPARQL
  bag semantics; a closure contributes a set-semantics relation per the ALP
  definition and a negated set a bag-semantics relation, so permuting a run
  is result-identical — the differential and Hypothesis suites under
  ``tests/sparql/test_optimizer.py`` enforce exactly that.)

Determinism contract: every tie in the greedy loop is broken by a
canonical serialization of the candidate, so *any* written order of the
same patterns converges on the same chosen plan.  The only caller is the
plan builder (:mod:`repro.sparql.plan`): the order it gets is the order the
evaluator runs and ``explain()`` prints, with these per-level estimates.
"""

from __future__ import annotations

from functools import partial
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.rdf.terms import Variable
from repro.sparql.ast import (
    BGP,
    BindPattern,
    ClosurePattern,
    GraphPattern,
    NegatedPathPattern,
    PathPattern,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
)
from repro.sparql.paths import path_link_iris, rewrite_path_pattern
from repro.sparql.serializer import serialize_path, serialize_term

__all__ = [
    "estimate_element_cardinality",
    "reorder_patterns",
    "reorder_group_elements",
    "joint_estimate",
    "pattern_text",
    "element_variables",
]

#: Element types whose adjacency forms a commutative join run.
_JOIN_ELEMENTS = (BGP, PathPattern, ClosurePattern, NegatedPathPattern)

#: Estimates are capped so products over long chains stay ordered floats.
_MAX_ESTIMATE = 1e30

#: A closure explores multiple BFS hops; its one-step fan-out estimate is
#: scaled by this factor to stand in for the expected reachable set.
_CLOSURE_EXPANSION = 4.0


# ---------------------------------------------------------------------------
# Selectivity estimation
# ---------------------------------------------------------------------------

def _distinct(count: int) -> float:
    """A distinct-count statistic as a divisor (never zero)."""
    return float(count) if count else 1.0


def estimate_pattern_cardinality(graph, pattern: TriplePattern,
                                 bound: Optional[Set[Variable]] = None) -> float:
    """Estimate how many rows ``pattern`` produces given ``bound`` variables.

    Constant components are answered from the graph's maintained counters
    (O(1), no index walking).  A variable position already bound by earlier
    join levels acts as a selection: the estimate is divided by the number
    of *distinct* values that position takes among the matching triples —
    per-predicate distinct subjects/objects when the predicate is constant,
    the global distinct counts otherwise.
    """
    bound = bound or set()
    subject, predicate, object_ = pattern.subject, pattern.predicate, pattern.object
    s = None if isinstance(subject, Variable) else subject
    p = None if isinstance(predicate, Variable) else predicate
    o = None if isinstance(object_, Variable) else object_
    # estimate_cardinality == count on a plain Graph (O(1) counters); union
    # views answer it with a cheap non-deduplicated bound instead of the
    # exact enumerating count.
    estimate = float(graph.estimate_cardinality(s, p, o))
    if estimate == 0.0:
        return 0.0
    pid = graph.encode_term(p) if p is not None else None
    if isinstance(subject, Variable) and subject in bound:
        estimate /= _distinct(graph.distinct_subjects_ids(pid))
    if isinstance(predicate, Variable) and predicate in bound:
        estimate /= _distinct(graph.distinct_predicates_ids())
    if isinstance(object_, Variable) and object_ in bound:
        estimate /= _distinct(graph.distinct_objects_ids(pid))
    return min(max(estimate, 1.0), _MAX_ESTIMATE)


def _node_universe(graph) -> float:
    """Planning estimate of the graph's node count (subjects + objects)."""
    return float(graph.distinct_subjects_ids(None)
                 + graph.distinct_objects_ids(None))


def _step_cardinality(graph, path) -> float:
    """How many edges one application of ``path`` can traverse."""
    links = path_link_iris(path)
    if links is None:
        # Negated sets scan a node's whole edge list and filter.
        return max(float(len(graph)), 1.0)
    total = 0.0
    for iri in links:
        total += float(graph.estimate_cardinality(None, iri, None))
    return max(total, 1.0)


def _endpoint_bound(term, bound: Set[Variable]) -> bool:
    return not isinstance(term, Variable) or term in bound


def estimate_element_cardinality(graph, element: GraphPattern,
                                 bound: Optional[Set[Variable]] = None) -> float:
    """Estimate the output cardinality of one join-run element.

    * **BGP** — product of per-level estimates along its own greedy order
      (bound variables propagated level to level).
    * **Closure** (``p*``/``p+``/``p?``) — with a bound endpoint, the
      one-step fan-out (step edges / distinct start nodes) scaled by the
      expansion factor; with *no* bound endpoint, the node universe times
      that fan-out — deliberately enormous, which is what pushes an
      unanchored closure behind its binding producers.
    * **Negated property set** — the non-excluded edge count per direction,
      divided by the global distinct counts for each bound endpoint.
    * **Path pattern** (``seq``/``alt``/``inv`` not yet lowered) — the
      estimate of its memoized lowering.
    """
    bound = set(bound or ())
    if isinstance(element, BGP):
        return _estimate_bgp(graph, list(element.triples), bound)
    if isinstance(element, ClosurePattern):
        step = _step_cardinality(graph, element.path)
        links = path_link_iris(element.path)  # one link: its own statistic
        starts = _distinct(graph.distinct_subjects_ids(
            graph.encode_term(links[0]) if links and len(links) == 1 else None))
        fan_out = max(step / max(starts, 1.0), 1.0) * _CLOSURE_EXPANSION
        s_bound = _endpoint_bound(element.subject, bound)
        o_bound = _endpoint_bound(element.object, bound)
        if s_bound and o_bound:
            return 1.0
        if s_bound or o_bound:
            return min(fan_out, _MAX_ESTIMATE)
        return min(_node_universe(graph) * fan_out, _MAX_ESTIMATE)
    if isinstance(element, NegatedPathPattern):
        path = element.path
        directions = int(path.match_forward) + int(path.match_inverse)
        estimate = float(len(graph)) * max(directions, 1)
        if estimate == 0.0:
            return 0.0
        if _endpoint_bound(element.subject, bound):
            estimate /= _distinct(graph.distinct_subjects_ids(None))
        if _endpoint_bound(element.object, bound):
            estimate /= _distinct(graph.distinct_objects_ids(None))
        return min(max(estimate, 1.0), _MAX_ESTIMATE)
    if isinstance(element, PathPattern):
        group, _fresh = rewrite_path_pattern(element)
        return _estimate_elements(graph, group.elements, bound)
    return 1.0


def joint_estimate(estimates: Iterable[float]) -> float:
    """Estimated rows of a join: the capped product of its levels' estimates."""
    total = 1.0
    for estimate in estimates:
        if estimate == 0.0:
            return 0.0
        total = min(total * estimate, _MAX_ESTIMATE)
    return total


def _estimate_bgp(graph, patterns: List[TriplePattern],
                  bound: Set[Variable]) -> float:
    return joint_estimate(
        estimate for _, estimate in reorder_patterns(graph, patterns, bound))


def _estimate_elements(graph, elements: Sequence[GraphPattern],
                       bound: Set[Variable]) -> float:
    """Joint estimate of a sequence of elements with binding propagation."""
    inner = set(bound)
    estimates = []
    for element in elements:
        if isinstance(element, UnionPattern):
            estimates.append(sum(
                _estimate_elements(graph, branch.elements, inner)
                for branch in element.alternatives))
        elif isinstance(element, _JOIN_ELEMENTS):
            estimates.append(
                estimate_element_cardinality(graph, element, inner))
        inner.update(element_variables(element))
    return joint_estimate(estimates)


# ---------------------------------------------------------------------------
# Greedy ordering
# ---------------------------------------------------------------------------

def pattern_text(pattern: TriplePattern) -> str:
    """A pattern's canonical text: the tie-break key (any permutation picks
    the same winner) and what ``explain`` prints."""
    return (f"{serialize_term(pattern.subject)} "
            f"{serialize_term(pattern.predicate)} "
            f"{serialize_term(pattern.object)}")


def _greedy(candidates: Sequence, bound: Iterable[Variable],
            estimate: Callable, variables: Callable, key: Callable,
            free_first: bool) -> Iterator[Tuple[object, float]]:
    """The greedy loop under both orderers: ``(candidate, estimate)`` pairs.

    Repeatedly picks the remaining candidate with the smallest estimated
    cardinality given the variables bound so far, preferring candidates
    that connect to those variables (a disconnected pick is a Cartesian
    product and is postponed); before anything is bound every candidate
    qualifies, and with ``free_first`` so does the first pick under a seeded
    bound set.  Ties break on the canonical ``key``.  The estimate handed
    back is the one the pick was made under.
    """
    remaining = [(key(candidate) if len(candidates) > 1 else None, candidate,
                  tuple(variables(candidate))) for candidate in candidates]
    bound = set(bound)
    free = free_first
    while remaining:
        best = None
        for index, (canonical, candidate, names) in enumerate(remaining):
            connected = free or not bound or any(
                variable in bound for variable in names)
            score = (0 if connected else 1, estimate(candidate, bound),
                     canonical, index)
            if best is None or score < best:
                best = score
        _, chosen, names = remaining.pop(best[3])
        free = False
        yield chosen, best[1]
        bound.update(names)


def reorder_patterns(graph, patterns: Sequence[TriplePattern],
                     bound: Optional[Set[Variable]] = None
                     ) -> List[Tuple[TriplePattern, float]]:
    """A BGP's join order: ``(pattern, estimated rows at that level)`` pairs.

    ``bound`` seeds the variables earlier group elements certainly bind; the
    written order of ``patterns`` never matters (see :func:`_greedy`).
    """
    return list(_greedy(patterns, bound or (),
                        partial(estimate_pattern_cardinality, graph),
                        TriplePattern.variables, pattern_text, True))


def element_variables(element: GraphPattern) -> Sequence[Variable]:
    """The variables an element certainly binds in every row it hands on
    (none for FILTER / OPTIONAL / UNION / MINUS / sub-SELECT)."""
    if isinstance(element, _JOIN_ELEMENTS):
        return element.variables()
    if isinstance(element, BindPattern):
        return [element.variable]
    if isinstance(element, ValuesPattern):
        return element.variables
    return ()


def _element_key(element: GraphPattern) -> str:
    """Canonical, permutation-invariant tie-break key for a run element."""
    kind = type(element).__name__
    if isinstance(element, BGP):
        return f"{kind}:" + "|".join(sorted(map(pattern_text, element.triples)))
    return (f"{kind}:{serialize_path(element.path)}"
            f"{getattr(element, 'modifier', '')}:"
            f"{serialize_term(element.subject)}:{serialize_term(element.object)}")


def reorder_group_elements(graph, elements: Sequence[GraphPattern],
                           bound: Iterable[Variable] = ()
                           ) -> List[GraphPattern]:
    """Cost-order the join runs of a group, leaving barriers in place.

    Contiguous runs of BGPs / path patterns / closures / negated sets are
    reordered greedily (smallest estimated cardinality first, bound
    variables propagated, starting from the ``bound`` an enclosing group
    passes in); every other element type is a barrier that keeps its
    position, and bindings it introduces (BIND, VALUES) still propagate
    into later runs.
    """
    ordered: List[GraphPattern] = []
    run: List[GraphPattern] = []
    bound = set(bound)

    def flush() -> None:
        chosen = run if len(run) < 2 else [element for element, _ in _greedy(
            run, bound, partial(estimate_element_cardinality, graph),
            element_variables, _element_key, False)]
        for element in chosen:
            ordered.append(element)
            bound.update(element_variables(element))
        run.clear()

    for element in elements:
        if isinstance(element, _JOIN_ELEMENTS):
            run.append(element)
        else:
            flush()
            ordered.append(element)
            bound.update(element_variables(element))
    flush()
    return ordered
