"""The seed (pre-pipeline) SPARQL evaluator, kept as a frozen reference.

:class:`ReferenceQueryEvaluator` is the original materialize-per-pattern
nested-loop evaluator the repository shipped with before the streaming
id-space pipeline replaced it in :mod:`repro.sparql.evaluator`.  It is kept
verbatim for **equivalence testing**: the property suite generates random
graphs and queries and asserts the streaming evaluator returns exactly this
evaluator's solution multisets (``benchmarks/e2e`` checks a sample of
``query_cold`` against it too).

It only touches the public term-level :class:`~repro.rdf.graph.Graph` API
(``triples`` / ``count`` / ``nodes``), so it keeps working unchanged on top
of the dictionary-encoded store.  Do not optimise this module; its value is
that it does not change.

One deliberate extension: a *naive fixed-point property-path evaluator*
(:meth:`ReferenceQueryEvaluator._path_pairs`) serving as the differential
oracle for the streaming closure iterators.  It evaluates paths entirely in
term space by materialising endpoint-pair bags (sets for ``*``/``+``/``?``,
per the SPARQL 1.1 ALP distinct-pair semantics) — a completely different
code path from the id-space BFS rewrite in the streaming evaluator, which is
exactly what makes the differential suite meaningful.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, UDFError
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, Term, Triple, Variable, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.ast import (
    Aggregate,
    AlternativePath,
    AskQuery,
    BGP,
    BindPattern,
    ConstructQuery,
    FilterPattern,
    GroupPattern,
    InversePath,
    LinkPath,
    MinusPattern,
    MulPath,
    NegatedPath,
    OptionalPattern,
    PathExpr,
    PathPattern,
    Query,
    SelectQuery,
    SequencePath,
    SubSelectPattern,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)
from repro.sparql.functions import (
    EvaluationContext,
    UDFRegistry,
    aggregate_variable,
    effective_boolean_value,
    evaluate_expression,
    walk_expression,
)
from repro.sparql.results import ResultSet, Solution

__all__ = ["ReferenceQueryEvaluator"]


def _reference_estimate(graph: Graph, pattern: TriplePattern,
                        bound: Optional[set] = None) -> float:
    """The seed cardinality estimator (exact index counts, /10 per bound var)."""
    bound = bound or set()
    s = pattern.subject if not isinstance(pattern.subject, Variable) else None
    p = pattern.predicate if not isinstance(pattern.predicate, Variable) else None
    o = pattern.object if not isinstance(pattern.object, Variable) else None
    estimate = float(graph.count(s, p, o))
    if estimate == 0:
        return 0.0
    for term in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(term, Variable) and term in bound:
            estimate = max(1.0, estimate / 10.0)
    return estimate


def _reference_reorder(graph: Graph,
                       patterns: Sequence[TriplePattern]) -> List[TriplePattern]:
    """The seed greedy join-order optimization."""
    remaining = list(patterns)
    ordered: List[TriplePattern] = []
    bound: set = set()
    while remaining:
        best_index = 0
        best_score = None
        for index, pattern in enumerate(remaining):
            cardinality = _reference_estimate(graph, pattern, bound)
            connected = bool(bound) and any(
                isinstance(t, Variable) and t in bound for t in pattern
            )
            score = (0 if connected or not bound else 1, cardinality)
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        for term in chosen:
            if isinstance(term, Variable):
                bound.add(term)
    return ordered


class ReferenceQueryEvaluator:
    """The seed evaluator: list-of-Solutions materialized after each pattern."""

    def __init__(self, graph: Graph, udfs: Optional[UDFRegistry] = None) -> None:
        self.graph = graph
        self.udfs = udfs or UDFRegistry()
        self.context = EvaluationContext(udfs=self.udfs,
                                         exists_evaluator=self._evaluate_exists)
        self.pattern_lookups = 0

    # -- public API ---------------------------------------------------------
    def evaluate(self, query: Query):
        if isinstance(query, SelectQuery):
            return self.evaluate_select(query)
        if isinstance(query, AskQuery):
            return self.evaluate_ask(query)
        if isinstance(query, ConstructQuery):
            return self.evaluate_construct(query)
        raise QueryError(f"unsupported query type {type(query).__name__}")

    def evaluate_select(self, query: SelectQuery) -> ResultSet:
        solutions = self._evaluate_group(query.where, [Solution()])
        solutions = self._apply_grouping(query, solutions)
        solutions = self._apply_order(query, solutions)
        variables, solutions = self._apply_projection(query, solutions)
        if query.distinct or query.reduced:
            solutions = self._distinct(solutions)
        solutions = self._apply_slice(query, solutions)
        return ResultSet(variables, solutions)

    def evaluate_ask(self, query: AskQuery) -> bool:
        solutions = self._evaluate_group(query.where, [Solution()])
        return bool(solutions)

    def evaluate_construct(self, query: ConstructQuery) -> Graph:
        solutions = self._evaluate_group(query.where, [Solution()])
        if query.limit is not None:
            solutions = solutions[: query.limit]
        result = Graph(namespaces=self.graph.namespaces.copy())
        for solution in solutions:
            for template in query.template:
                triple = _instantiate(template, solution)
                if triple is not None and triple.is_ground():
                    result.add(triple)
        return result

    # -- group pattern evaluation -------------------------------------------
    def _evaluate_group(self, group: GroupPattern,
                        solutions: List[Solution]) -> List[Solution]:
        for element in group.elements:
            if isinstance(element, BGP):
                solutions = self._evaluate_bgp(element, solutions)
            elif isinstance(element, PathPattern):
                solutions = self._evaluate_path_pattern(element, solutions)
            elif isinstance(element, FilterPattern):
                solutions = [
                    sol for sol in solutions
                    if effective_boolean_value(
                        evaluate_expression(element.expression, sol, self.context))
                ]
            elif isinstance(element, OptionalPattern):
                solutions = self._evaluate_optional(element, solutions)
            elif isinstance(element, UnionPattern):
                merged: List[Solution] = []
                for alternative in element.alternatives:
                    merged.extend(self._evaluate_group(alternative, list(solutions)))
                solutions = merged
            elif isinstance(element, MinusPattern):
                solutions = self._evaluate_minus(element, solutions)
            elif isinstance(element, BindPattern):
                new_solutions = []
                for sol in solutions:
                    value = evaluate_expression(element.expression, sol, self.context)
                    extended = Solution(sol)
                    if value is not None:
                        if element.variable in extended and extended[element.variable] != value:
                            continue
                        extended[element.variable] = value
                    new_solutions.append(extended)
                solutions = new_solutions
            elif isinstance(element, ValuesPattern):
                solutions = self._evaluate_values(element, solutions)
            elif isinstance(element, SubSelectPattern):
                sub_result = self.evaluate_select(element.query)
                joined: List[Solution] = []
                for sol in solutions:
                    for sub_sol in sub_result.solutions:
                        merged_sol = sol.merged(sub_sol)
                        if merged_sol is not None:
                            joined.append(merged_sol)
                solutions = joined
            else:  # pragma: no cover - defensive
                raise QueryError(f"unsupported pattern element {type(element).__name__}")
            if not solutions:
                return []
        return solutions

    def _evaluate_bgp(self, bgp: BGP, solutions: List[Solution]) -> List[Solution]:
        for pattern in _reference_reorder(self.graph, list(bgp.triples)):
            solutions = self._join_pattern(pattern, solutions)
            if not solutions:
                break
        return solutions

    def _join_pattern(self, pattern: TriplePattern,
                      solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        for solution in solutions:
            s = _resolve(pattern.subject, solution)
            p = _resolve(pattern.predicate, solution)
            o = _resolve(pattern.object, solution)
            self.pattern_lookups += 1
            for triple in self.graph.triples(s, p, o):
                extended = _bind(pattern, triple, solution)
                if extended is not None:
                    results.append(extended)
        return results

    # -- property paths (naive fixed-point oracle) ---------------------------
    def _evaluate_path_pattern(self, pattern: PathPattern,
                               solutions: List[Solution]) -> List[Solution]:
        """Join a property-path pattern by materialising endpoint pairs.

        The pairs are evaluated once, anchored by the pattern's constant
        endpoints only, and then joined — the algebra's ``Join`` of an
        independently evaluated ``Path``.  Anchoring by the incoming
        bindings instead would let a zero-length pair reach a term no
        triple mentions, and make the answer depend on the join order.
        """
        constant = [None if isinstance(term, Variable) else term
                    for term in (pattern.subject, pattern.object)]
        pairs = self._path_pairs(pattern.path, *constant)
        results: List[Solution] = []
        for solution in solutions:
            for x, y in pairs:
                extended = Solution(solution)
                compatible = True
                for term, value in ((pattern.subject, x), (pattern.object, y)):
                    if isinstance(term, Variable):
                        existing = extended.get(term)
                        if existing is not None and existing != value:
                            compatible = False
                            break
                        extended[term] = value
                    elif term != value:
                        compatible = False
                        break
                if compatible:
                    results.append(extended)
        return results

    def _path_pairs(self, path: PathExpr, s: Optional[Term],
                    o: Optional[Term]) -> List[Tuple[Term, Term]]:
        """All ``(subject, object)`` pairs matching ``path``.

        Bag semantics for ``seq``/``alt``/``inv``/``!(...)`` (one entry per
        derivation), set semantics for ``*``/``+``/``?`` closures.  ``s``/``o``
        anchor the search when bound; ``None`` leaves the endpoint free.
        """
        graph = self.graph
        if isinstance(path, LinkPath):
            return [(t.subject, t.object)
                    for t in graph.triples(s, path.iri, o)]
        if isinstance(path, InversePath):
            return [(y, x) for (x, y) in self._path_pairs(path.path, o, s)]
        if isinstance(path, SequencePath):
            # SPARQL 1.1 §18.2.2.4: ``X P/Q Y`` is ``X P ?V . ?V Q Y``, a
            # join of steps evaluated independently through a fresh ?V.
            steps = path.steps
            last_index = len(steps) - 1
            pairs = self._path_pairs(steps[0], s, o if last_index == 0 else None)
            for index in range(1, len(steps)):
                ends: Dict[Term, List[Term]] = {}
                for mid, y in self._path_pairs(
                        steps[index], None, o if index == last_index else None):
                    ends.setdefault(mid, []).append(y)
                pairs = [(x, y) for x, mid in pairs for y in ends.get(mid, ())]
                if not pairs:
                    break
            return pairs
        if isinstance(path, AlternativePath):
            out: List[Tuple[Term, Term]] = []
            for alternative in path.alternatives:
                out.extend(self._path_pairs(alternative, s, o))
            return out
        if isinstance(path, MulPath):
            return self._closure_pairs(path, s, o)
        if isinstance(path, NegatedPath):
            out = []
            if path.match_forward:
                for t in graph.triples(s, None, o):
                    if t.predicate not in path.forward:
                        out.append((t.subject, t.object))
            if path.match_inverse:
                for t in graph.triples(o, None, s):
                    if t.predicate not in path.inverse:
                        out.append((t.object, t.subject))
            return out
        raise QueryError(f"unsupported path expression {type(path).__name__}")

    def _closure_pairs(self, path: MulPath, s: Optional[Term],
                       o: Optional[Term]) -> List[Tuple[Term, Term]]:
        """Fixed-point evaluation of ``*``/``+``/``?`` (distinct pairs)."""
        modifier = path.modifier
        inner = path.path
        if s is not None:
            starts = [s]
        else:
            starts = list(self.graph.nodes())
            if o is not None and o not in starts:
                # A zero-length path can match an object term that never
                # occurs in the graph.
                starts.append(o)
        pairs = set()
        for start in starts:
            if modifier in ("*", "?"):
                pairs.add((start, start))
            if modifier == "?":
                for _, y in self._path_pairs(inner, start, None):
                    pairs.add((start, y))
                continue
            visited = set()
            frontier = [start]
            while frontier:
                next_frontier = []
                for node in frontier:
                    for _, y in self._path_pairs(inner, node, None):
                        if y not in visited:
                            visited.add(y)
                            next_frontier.append(y)
                frontier = next_frontier
            for y in visited:
                pairs.add((start, y))
        return [(x, y) for (x, y) in pairs
                if (s is None or x == s) and (o is None or y == o)]

    def _evaluate_optional(self, element: OptionalPattern,
                           solutions: List[Solution]) -> List[Solution]:
        results: List[Solution] = []
        for solution in solutions:
            extended = self._evaluate_group(element.pattern, [solution])
            if extended:
                results.extend(extended)
            else:
                results.append(solution)
        return results

    def _evaluate_minus(self, element: MinusPattern,
                        solutions: List[Solution]) -> List[Solution]:
        excluded = self._evaluate_group(element.pattern, [Solution()])
        kept: List[Solution] = []
        for solution in solutions:
            remove = False
            for other in excluded:
                shared = set(solution) & set(other)
                if shared and all(solution[v] == other[v] for v in shared):
                    remove = True
                    break
            kept.append(solution) if not remove else None
        return kept

    def _evaluate_values(self, element: ValuesPattern,
                         solutions: List[Solution]) -> List[Solution]:
        value_solutions: List[Solution] = []
        for row in element.rows:
            sol = Solution()
            for var, term in zip(element.variables, row):
                if term is not None:
                    sol[var] = term
            value_solutions.append(sol)
        joined: List[Solution] = []
        for solution in solutions:
            for value_sol in value_solutions:
                merged = solution.merged(value_sol)
                if merged is not None:
                    joined.append(merged)
        return joined

    def _evaluate_exists(self, pattern: GroupPattern, solution: Solution) -> bool:
        return bool(self._evaluate_group(pattern, [Solution(solution)]))

    # -- grouping / aggregation ----------------------------------------------
    def _apply_grouping(self, query: SelectQuery,
                        solutions: List[Solution]) -> List[Solution]:
        has_aggregate = any(
            isinstance(item.expression, Aggregate) for item in query.select_items
        )
        if not query.group_by and not has_aggregate:
            return solutions
        groups: Dict[Tuple, List[Solution]] = {}
        for solution in solutions:
            key = tuple(
                evaluate_expression(expr, solution, self.context)
                for expr in query.group_by
            )
            groups.setdefault(key, []).append(solution)
        if not solutions and not query.group_by:
            groups[()] = []
        aggregated: List[Solution] = []
        for key, members in groups.items():
            row = Solution()
            for expr, value in zip(query.group_by, key):
                if isinstance(expr, VariableExpr) and value is not None:
                    row[expr.variable] = value
            for item in query.select_items:
                if isinstance(item.expression, Aggregate):
                    target = item.alias or Variable(f"agg_{len(row)}")
                    value = self._compute_aggregate(item.expression, members)
                    if value is not None:
                        row[target] = value
            if all(self._having_holds(test, row, members)
                   for test in query.having):
                aggregated.append(row)
        return aggregated

    def _having_holds(self, test, row: Solution,
                      members: List[Solution]) -> bool:
        """HAVING over the group's row plus the aggregates ``test`` names."""
        scope = Solution(row)
        for node in walk_expression(test):
            if isinstance(node, Aggregate):
                scope[aggregate_variable(node)] = self._compute_aggregate(
                    node, members)
        try:
            return effective_boolean_value(
                evaluate_expression(test, scope, self.context))
        except (QueryError, UDFError):
            return False  # an error in HAVING drops the group

    def _compute_aggregate(self, aggregate: Aggregate,
                           members: List[Solution]) -> Optional[Term]:
        values: List[Term] = []
        if aggregate.expr is None:
            values = [Literal(1)] * len(members)
        else:
            for member in members:
                value = evaluate_expression(aggregate.expr, member, self.context)
                if value is not None:
                    values.append(value)
        if aggregate.distinct:
            unique: List[Term] = []
            seen = set()
            for value in values:
                if value not in seen:
                    seen.add(value)
                    unique.append(value)
            values = unique
        name = aggregate.name
        if name == "COUNT":
            return Literal(len(values), datatype=XSD_INTEGER)
        if not values:
            return None
        if name == "SAMPLE":
            return values[0]
        if name == "GROUP_CONCAT":
            return Literal(aggregate.separator.join(str(v) for v in values))
        if name in ("MIN", "MAX"):
            keyed = sorted(values, key=lambda t: (t.sort_key()
                           if not (isinstance(t, Literal) and t.is_numeric())
                           else (2, float(t.lexical))))
            numeric = [v for v in values if isinstance(v, Literal) and v.is_numeric()]
            if numeric and len(numeric) == len(values):
                chosen = min(numeric, key=lambda t: float(t.lexical)) if name == "MIN" \
                    else max(numeric, key=lambda t: float(t.lexical))
                return chosen
            return keyed[0] if name == "MIN" else keyed[-1]
        numbers = [float(v.lexical) for v in values
                   if isinstance(v, Literal) and v.is_numeric()]
        if not numbers:
            return None
        if name == "SUM":
            total = sum(numbers)
            return Literal(int(total)) if float(total).is_integer() else Literal(total)
        if name == "AVG":
            return Literal(sum(numbers) / len(numbers), datatype=XSD_DOUBLE)
        raise QueryError(f"unsupported aggregate {name!r}")

    # -- projection / modifiers ----------------------------------------------
    def _apply_projection(self, query: SelectQuery,
                          solutions: List[Solution]) -> Tuple[List[Variable], List[Solution]]:
        if query.select_all:
            variables: List[Variable] = []
            for solution in solutions:
                for var in solution:
                    if var not in variables:
                        variables.append(var)
            if not variables:
                variables = query.projected_variables()
            return variables, solutions
        variables = []
        for item in query.select_items:
            try:
                variables.append(item.output_variable)
            except ValueError:
                variables.append(Variable(f"expr{len(variables)}"))
        projected: List[Solution] = []
        for solution in solutions:
            row = Solution()
            for variable, item in zip(variables, query.select_items):
                if isinstance(item.expression, Aggregate):
                    if variable in solution:
                        row[variable] = solution[variable]
                    continue
                if isinstance(item.expression, VariableExpr) and item.alias is None:
                    value = solution.get(item.expression.variable)
                else:
                    value = evaluate_expression(item.expression, solution, self.context)
                if value is not None:
                    row[variable] = value
            projected.append(row)
        return variables, projected

    def _apply_order(self, query: SelectQuery,
                     solutions: List[Solution]) -> List[Solution]:
        if not query.order_by:
            return solutions

        def sort_key(solution: Solution):
            keys = []
            for condition in query.order_by:
                value = evaluate_expression(condition.expression, solution, self.context)
                if value is None:
                    key: Tuple = (0, "")
                elif isinstance(value, Literal) and value.is_numeric():
                    key = (1, float(value.lexical))
                else:
                    key = (2, value.n3())
                keys.append(key)
            return tuple(keys)

        ordered = sorted(solutions, key=sort_key)
        for index in reversed(range(len(query.order_by))):
            condition = query.order_by[index]
            if condition.descending:
                def single_key(solution: Solution):
                    value = evaluate_expression(condition.expression, solution,
                                                self.context)
                    if value is None:
                        return (0, "")
                    if isinstance(value, Literal) and value.is_numeric():
                        return (1, float(value.lexical))
                    return (2, value.n3())
                ordered = sorted(ordered, key=single_key, reverse=True)
        return ordered

    def _distinct(self, solutions: List[Solution]) -> List[Solution]:
        seen = set()
        unique: List[Solution] = []
        for solution in solutions:
            key = frozenset(solution.items())
            if key not in seen:
                seen.add(key)
                unique.append(solution)
        return unique

    def _apply_slice(self, query: SelectQuery,
                     solutions: List[Solution]) -> List[Solution]:
        start = query.offset or 0
        end = start + query.limit if query.limit is not None else None
        return solutions[start:end]


# ---------------------------------------------------------------------------
# Helpers (frozen copies of the seed helpers)
# ---------------------------------------------------------------------------

def _resolve(term: Term, solution: Solution) -> Optional[Term]:
    if isinstance(term, Variable):
        return solution.get(term)
    return term


def _bind(pattern: TriplePattern, triple: Triple,
          solution: Solution) -> Optional[Solution]:
    extended = Solution(solution)
    for pattern_term, value in zip(pattern, triple):
        if isinstance(pattern_term, Variable):
            existing = extended.get(pattern_term)
            if existing is not None and existing != value:
                return None
            extended[pattern_term] = value
        elif pattern_term != value:
            return None
    return extended


def _instantiate(pattern: TriplePattern, solution: Solution) -> Optional[Triple]:
    terms = []
    for term in pattern:
        if isinstance(term, Variable):
            value = solution.get(term)
            if value is None:
                return None
            terms.append(value)
        else:
            terms.append(term)
    return Triple(*terms)
