"""SPARQL query and update evaluation over :class:`repro.rdf.graph.Graph`.

**Row representation.**  Term ids are the only thing that flows through this
module.  A query gets one *layout* — every variable it can bind owns a slot —
and every operator (BGP join, closure, negated set, FILTER, OPTIONAL, UNION,
MINUS, BIND, VALUES, sub-SELECT, grouping, ORDER BY, DISTINCT, slice)
consumes and produces fixed-width *id rows*: lists of dictionary ids indexed
by slot, ``None`` for unbound.  Terms a query computes and the store has
never seen (BIND / aggregate / VALUES / UDF results) get private negative
ids from a per-query :class:`~repro.rdf.dictionary.DictionaryOverlay`, so
equality, joins and DISTINCT stay integer compares.  Expressions run as
closures compiled by :mod:`repro.sparql.functions` that read cells by list
index and decode on demand.  Nothing is decoded here on behalf of a consumer:
``stream_select`` hands out id rows plus the overlay, and the edge that needs
a ``Term`` — a result writer, a ``ResultSet`` reader, a CONSTRUCT template, a
UDF argument — decodes exactly what it uses.

**Batches.**  Operators are generators of *batches* (lists of at most
:data:`~repro.sparql.execution.BATCH_ROWS` rows, ramping up from one row so
LIMIT, ASK and EXISTS stop after minimal work): row-producing operators are
plain row generators cut into batches by :meth:`QueryEvaluator._batches`,
row-filtering ones are a list comprehension per batch.  A row crosses one
generator frame per producing operator instead of one per operator per row.
Rows are owned by whoever receives them, but variable cells are never
written in place: binding copies the row.

Every BGP is compiled once (constants interned to ids, variables resolved to
slots, patterns reordered by cost) and evaluated as an iterative index-
nested-loop join that binds directly into the row; compiled BGPs, layouts and
expression closures are cached across executions through a
:class:`QueryPlan`, which recompiles itself when the graph object or its
mutation epoch changes.

Every operator cooperates with an optional per-query
:class:`~repro.sparql.execution.ExecutionContext`: the hot join loops tick an
amortised checkpoint (one call per 256 iterations) and every batch handed on
checkpoints once with its row count, letting a deadline, cancellation event,
or work budget stop a hostile query with a typed
:class:`~repro.exceptions.QueryInterrupted` subclass.  Every batch boundary
is also the scheduler's suspension point.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, UpdateError
from repro.rdf.dataset import Dataset
from repro.rdf.dictionary import DictionaryOverlay
from repro.rdf.graph import Graph
from repro.rdf.terms import (
    IRI,
    Literal,
    Term,
    Triple,
    Variable,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from repro.sparql.ast import (
    Aggregate,
    AlternativePath,
    AskQuery,
    BGP,
    BinaryOp,
    BindPattern,
    ClearUpdate,
    ClosurePattern,
    ConstructQuery,
    DeleteDataUpdate,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    InExpr,
    InsertDataUpdate,
    InversePath,
    LinkPath,
    MinusPattern,
    ModifyUpdate,
    MulPath,
    NegatedPath,
    NegatedPathPattern,
    OptionalPattern,
    PathPattern,
    Query,
    SelectItem,
    SelectQuery,
    SequencePath,
    SubSelectPattern,
    TriplePattern,
    UnaryOp,
    UnionPattern,
    Update,
    ValuesPattern,
    VariableExpr,
)
from repro.sparql.execution import BATCH_ROWS, ExecutionContext
from repro.sparql.optimizer import reorder_group_elements, reorder_patterns
from repro.sparql.paths import invert_path, normalize_path, rewrite_path_pattern
from repro.sparql.functions import (
    EvaluationContext,
    UDFRegistry,
    compile_expression,
    compile_filter,
)
from repro.sparql.results import ResultSet

__all__ = ["QueryEvaluator", "QueryPlan"]

#: One id row: term ids by slot, ``None`` = unbound, negative = overlay id.
Row = List[Optional[int]]


# ---------------------------------------------------------------------------
# Layouts, compiled BGPs and cached plans
# ---------------------------------------------------------------------------

class _Layout(dict):
    """``Variable -> slot`` for every variable one query can bind.

    Slots are query-wide: a row that leaves any operator has the same width
    and the same meaning per position, so joins, OPTIONAL and UNION need no
    re-mapping.  ``tags`` holds one extra scratch slot per OPTIONAL (keyed
    by the AST node's identity) in which the left join numbers its input
    rows.  A sub-SELECT has a layout of its own — its variables are a
    different scope — and meets the outer one through its projection.
    """

    def __init__(self) -> None:
        super().__init__()
        self.width = 0
        self.tags: Dict[int, int] = {}

    def slot(self, variable: Variable) -> int:
        index = self.get(variable)
        if index is None:
            index = self[variable] = self.width
            self.width += 1
        return index

    def blank(self) -> Row:
        return [None] * self.width

    def add_group(self, group: GroupPattern) -> None:
        for element in group.elements:
            if isinstance(element, BGP):
                for pattern in element.triples:
                    for term in pattern:
                        if isinstance(term, Variable):
                            self.slot(term)
            elif isinstance(element, (ClosurePattern, NegatedPathPattern)):
                for term in (element.subject, element.object):
                    if isinstance(term, Variable):
                        self.slot(term)
            elif isinstance(element, PathPattern):
                self.add_group(rewrite_path_pattern(element)[0])
            elif isinstance(element, FilterPattern):
                self.add_expression(element.expression)
            elif isinstance(element, OptionalPattern):
                self.tags[id(element)] = self.width
                self.width += 1
                self.add_group(element.pattern)
            elif isinstance(element, MinusPattern):
                self.add_group(element.pattern)
            elif isinstance(element, UnionPattern):
                for alternative in element.alternatives:
                    self.add_group(alternative)
            elif isinstance(element, BindPattern):
                self.slot(element.variable)
                self.add_expression(element.expression)
            elif isinstance(element, ValuesPattern):
                for variable in element.variables:
                    self.slot(variable)
            elif isinstance(element, SubSelectPattern):
                for variable in _output_variables(element.query):
                    self.slot(variable)

    def add_expression(self, expression: Optional[Expression]) -> None:
        """Give the patterns inside ``EXISTS { ... }`` their slots."""
        stack = [expression]
        while stack:
            node = stack.pop()
            if isinstance(node, ExistsExpr):
                self.add_group(node.pattern)
            elif isinstance(node, BinaryOp):
                stack += (node.left, node.right)
            elif isinstance(node, UnaryOp):
                stack.append(node.operand)
            elif isinstance(node, FunctionCall):
                stack.extend(node.args)
            elif isinstance(node, InExpr):
                stack.append(node.operand)
                stack.extend(node.choices)
            elif isinstance(node, Aggregate):
                stack.append(node.expr)


def _output_variable(item: SelectItem, index: int) -> Variable:
    if item.alias is not None:
        return item.alias
    if isinstance(item.expression, VariableExpr):
        return item.expression.variable
    return Variable(f"expr{index}")


def _output_variables(query: SelectQuery) -> List[Variable]:
    """The columns of a SELECT, in order (``*``: the syntactic candidates)."""
    if query.select_all:
        return query.projected_variables()
    return [_output_variable(item, index)
            for index, item in enumerate(query.select_items)]


class _CompiledBGP:
    """A BGP compiled to id space.

    ``specs`` holds one ``((s_const, s_slot), (p_const, p_slot),
    (o_const, o_slot))`` entry per kept (reordered) triple pattern, where
    exactly one of ``const`` (an interned term id) and ``slot`` (the
    variable's position in the query layout) is set per component.
    ``empty`` marks a BGP containing a constant the dictionary has never
    interned — it cannot match anything.

    ``intersectors`` runs parallel to ``specs``: each entry is a tuple of
    ``(spec, unbound_position)`` pairs for patterns *folded out* of the
    backtracking join by :func:`_fold_intersectors` — enforced batch-at-a-
    time as id-set intersections at the level that binds their join
    variable, instead of one nested-loop level per pattern.  ``slots``
    covers every variable of the original BGP (folded patterns never
    introduce new variables).
    """

    __slots__ = ("specs", "slots", "empty", "intersectors")

    def __init__(self, specs, slots: Tuple[int, ...], empty: bool,
                 intersectors=None) -> None:
        self.specs = specs
        self.slots = slots
        self.empty = empty
        self.intersectors = (intersectors if intersectors is not None
                             else ((),) * len(specs))


def _fold_intersectors(specs):
    """Fold single-join-variable patterns into the level binding them.

    A pattern whose components are all bound by earlier levels — except a
    *join* variable ``v`` appearing exactly once — contributes no new
    bindings and at most one match per candidate value of ``v``: it is a
    membership test, not a scan.  Instead of spending a backtracking level
    probing it once per candidate, fold it into the level that binds ``v``:
    when that level enumerates candidates off one index set, every folded
    pattern narrows the whole set with a single C-level ``set & set``
    intersection (the canonical win is a star join: ``?s p1 o1 . ?s p2 o2 .
    ?s p3 ?name`` runs one scan plus one intersection, not a nested loop).

    Returns ``(kept_specs, intersectors)``, ``intersectors[i]`` being the
    ``(spec, unbound_position)`` pairs enforced at kept level ``i``.
    Multiset semantics are preserved exactly: a folded pattern's multiplicity
    per candidate is one (all other components ground), which is what set
    membership encodes.  Folding only considers *static* bindings — a level
    whose join variable arrives pre-bound at runtime (seeded input solution)
    degenerates to ground containment probes, handled by the runtime.
    """
    bound = set()            # slots statically bound by kept levels
    level_of_slot = {}       # slot -> kept level that first binds it
    target_slot = {}         # kept level -> its single new slot, if any
    kept = []
    intersectors = []
    for spec in specs:
        positions = [(index, slot) for index, (_, slot) in enumerate(spec)
                     if slot is not None]
        new = {slot for _, slot in positions if slot not in bound}
        if not new and positions:
            # Every variable already bound upstream: fold into the level
            # that binds the last of them, if that level enumerates exactly
            # that one variable (and it appears here exactly once — a
            # repeated variable needs the per-triple compatibility check).
            latest = max(level_of_slot[slot] for _, slot in positions)
            v = target_slot.get(latest)
            v_positions = [index for index, slot in positions if slot == v]
            if v is not None and len(v_positions) == 1:
                intersectors[latest] = intersectors[latest] + (
                    (spec, v_positions[0]),)
                continue
        level = len(kept)
        kept.append(spec)
        intersectors.append(())
        for _, slot in positions:
            if slot not in bound:
                bound.add(slot)
                level_of_slot[slot] = level
        if len(new) == 1:
            v = next(iter(new))
            if sum(1 for _, slot in positions if slot == v) == 1:
                target_slot[level] = v
    return kept, intersectors


def _compile_step(graph: Graph, path):
    """Compile a (normalized) path into an id-space successor function.

    The returned callable maps ``(node_id, tick)`` to an iterable of
    successor ids — one application of the path.  ``tick`` is the caller's
    amortised checkpoint hook; composite steps forward it into their inner
    loops so even a nested closure stays preemptable.  Constants the
    dictionary has never interned simply yield no successors.
    """
    inverse = isinstance(path, InversePath)
    link = path.path if inverse else path
    if isinstance(link, LinkPath):
        pid = graph.dictionary.lookup(link.iri)
        if pid is None:
            return lambda node, tick: ()
        if inverse:
            subject_ids = graph.subject_ids
            return lambda node, tick: subject_ids(pid, node)
        object_ids = graph.object_ids
        return lambda node, tick: object_ids(node, pid)
    if isinstance(link, NegatedPath):
        # ^!(...) traverses the negated set's matching edges in reverse;
        # member-set swapping cannot express this (``!()`` matches every
        # forward edge, so ``^!()`` must match every reversed edge).
        return _CompiledNegated(graph, link, reverse=inverse).step(graph)
    if inverse:  # pragma: no cover - normalize_path pushes ^ down to links
        return _compile_step(graph, normalize_path(path))
    if isinstance(path, SequencePath):
        steps = [_compile_step(graph, step) for step in path.steps]

        def seq_step(node, tick):
            frontier = {node}
            for step in steps:
                successors = set()
                for member in frontier:
                    tick()
                    successors.update(step(member, tick))
                frontier = successors
                if not frontier:
                    break
            return frontier

        return seq_step
    if isinstance(path, AlternativePath):
        branches = [_compile_step(graph, alt) for alt in path.alternatives]

        def alt_step(node, tick):
            out = set()
            for branch in branches:
                out.update(branch(node, tick))
            return out

        return alt_step
    if isinstance(path, MulPath):
        inner = _compile_step(graph, path.path)
        modifier = path.modifier

        def mul_step(node, tick):
            out = set(_reachable(inner, node, modifier, tick))
            if modifier != "+":
                out.add(node)
            return out

        return mul_step
    raise QueryError(f"unsupported path expression {type(path).__name__}")


def _reachable(step, start: int, modifier: str, tick) -> Iterator[int]:
    """BFS from ``start``: each distinct node one or more (``?``: exactly
    one) applications of ``step`` away, as it is discovered."""
    seen = set()
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            tick()
            for successor in step(node, tick):
                tick()
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
                    yield successor
        frontier = () if modifier == "?" else next_frontier


class _CompiledClosure:
    """A ``*``/``+``/``?`` closure compiled to id-space step functions.

    ``forward`` applies the inner path once subject→object; ``backward``
    applies the structural inverse (used when only the object endpoint is
    bound, so the BFS can run object→subject over the POS index instead of
    enumerating the node universe).
    """

    __slots__ = ("forward", "backward")

    def __init__(self, graph: Graph, element: ClosurePattern) -> None:
        path = normalize_path(element.path)
        self.forward = _compile_step(graph, path)
        self.backward = _compile_step(graph, normalize_path(invert_path(path)))


class _CompiledNegated:
    """A negated property set compiled to the directions it matches in.

    ``directions`` holds ``(excluded predicate ids, subject position,
    object position)``: the set matches (s, o) forward when a triple
    (s, p, o) exists with p outside the forward exclusions, and inversely
    when a triple (o, p, s) exists with p outside the inverse ones.
    ``reverse`` swaps the endpoints (``^!(...)``).
    """

    __slots__ = ("directions",)

    def __init__(self, graph: Graph, path: NegatedPath,
                 reverse: bool = False) -> None:
        lookup = graph.dictionary.lookup
        self.directions = []
        for iris, matches, ends in ((path.forward, path.match_forward, (0, 2)),
                                    (path.inverse, path.match_inverse, (2, 0))):
            if matches:
                excluded = {lookup(iri) for iri in iris}
                excluded.discard(None)
                self.directions.append(
                    (excluded, *(ends[::-1] if reverse else ends)))

    def step(self, graph: Graph):
        """The set as a successor function (one edge from ``node``)."""
        triples_ids = graph.triples_ids
        directions = self.directions

        def negated_step(node, tick):
            out = set()
            for excluded, s_position, o_position in directions:
                pattern = [None, None, None]
                pattern[s_position] = node
                for triple in triples_ids(*pattern):
                    tick()
                    if triple[1] not in excluded:
                        out.add(triple[o_position])
            return out

        return negated_step


class _PlanState:
    """Compiled artifacts bound to one (graph identity, epoch, statistics
    epoch, optimize flag) target: compiled BGPs/closures/negated sets and
    cost-ordered group element lists."""

    __slots__ = ("graph_ref", "compiled")

    def __init__(self, graph: Graph) -> None:
        self.graph_ref = weakref.ref(graph)
        self.compiled: Dict[int, _CompiledBGP] = {}


class QueryPlan:
    """Reusable compilation state for one parsed query.

    Maps BGP nodes (by identity — the plan lives next to its AST in the
    endpoint's cache) to their compiled form, *per evaluation target*:
    :meth:`state_for` hands each evaluator the compiled-BGP store bound to
    its exact (graph object, mutation epoch, join-optimization flag), so a
    cached plan can never serve ids or join orders compiled under different
    conditions.

    Keying by target makes the plan safe under concurrency: two readers
    evaluating the same cached query against *different* pinned snapshots
    (e.g. across a writer's commit) get independent compiled state instead
    of clobbering one shared dict — the stale-plan race the differential
    concurrency suite checks for.  Graphs are held via weakref and verified
    by identity, so a recycled ``id()`` can never alias a dead graph's
    compiled ids.  A handful of states is retained LRU-style; with per-epoch
    snapshot caching the steady state is one live entry per target graph.
    """

    __slots__ = ("_lock", "_states")

    #: Retained (graph, epoch, flag) states; evicted oldest-first.
    MAX_STATES = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: "OrderedDict[Tuple, _PlanState]" = OrderedDict()

    def state_for(self, graph: Graph, optimize_joins: bool) -> _PlanState:
        """The compiled-BGP store for exactly this graph object and epoch.

        The key also carries the graph's *statistics epoch*: cost-based
        join orders are a function of the optimizer statistics, so a
        statistics refresh must invalidate cached orderings even if it were
        ever decoupled from the triple-set mutation counter.
        """
        key = (id(graph), graph.epoch,
               getattr(graph, "stats_epoch", None), optimize_joins)
        with self._lock:
            state = self._states.get(key)
            if state is not None and state.graph_ref() is graph:
                self._states.move_to_end(key)
                return state
            state = _PlanState(graph)
            self._states[key] = state
            self._states.move_to_end(key)
            while len(self._states) > self.MAX_STATES:
                self._states.popitem(last=False)
            return state


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class QueryEvaluator:
    """Evaluates parsed SPARQL queries against a graph (or dataset)."""

    def __init__(self, graph: Graph, udfs: Optional[UDFRegistry] = None,
                 optimize_joins: bool = True,
                 plan: Optional[QueryPlan] = None,
                 execution: Optional[ExecutionContext] = None) -> None:
        self.graph = graph
        self.udfs = udfs or UDFRegistry()
        self.optimize_joins = optimize_joins
        self.plan = plan
        #: Cooperative-interruption state; ``None`` runs unguarded.
        self.execution = execution
        self._checkpoint = execution.checkpoint if execution is not None else None
        #: id <-> term for this query: the dictionary plus private ids for
        #: computed terms.  Consumers of id rows decode through it.
        self.terms = DictionaryOverlay(graph.dictionary)
        self.context = EvaluationContext(udfs=self.udfs,
                                         exists_evaluator=self._exists,
                                         terms=self.terms)
        #: Compiled artifacts by AST-node identity: the plan's store for this
        #: exact (graph, epoch) target, or a private one without a plan.
        self._store: Dict[object, object] = (
            plan.state_for(graph, optimize_joins).compiled
            if plan is not None else {})
        #: Number of triple-pattern index lookups performed (for benchmarks).
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
        variables, batches = self.stream_select(query)
        return ResultSet.from_ids(
            variables, [row for batch in batches for row in batch], self.terms)

    def stream_select(self, query: SelectQuery
                      ) -> Tuple[List[Variable], Iterator[List[Sequence]]]:
        """Evaluate a SELECT lazily: ``(variables, unconsumed row batches)``.

        Rows are tuples of term ids aligned with ``variables``; decode them
        through :attr:`terms`.  The returned iterator is the suspension
        point for time-sliced scheduling: the consumer can stop pulling
        batches mid-query and resume later with all generator cursor state
        intact.  Materialising operators (GROUP BY / aggregates / ORDER BY /
        SELECT ``*``) cannot be sliced — they drain their input eagerly,
        inside this call, under the execution context's checkpoints.
        """
        layout = self._layout(query)
        batches = self.stream_group(query.where, layout)
        rows: Optional[List[Row]] = None
        if query.group_by or any(isinstance(item.expression, Aggregate)
                                 for item in query.select_items):
            rows = self._group(query, batches, layout)
        if query.order_by:
            rows = self._order(query, _flatten(batches) if rows is None
                               else rows, layout)
        if query.select_all:
            if rows is None:
                rows = _flatten(batches)
            variables = self._bound_variables(query, rows, layout)
            project = _projector([layout[variable] for variable in variables])
        else:
            variables = _output_variables(query)
            project = self._projection(query, layout)
        if rows is not None:
            batches = (rows[start:start + BATCH_ROWS]
                       for start in range(0, len(rows), BATCH_ROWS))
        batches = ([project(row) for row in batch] for batch in batches)
        if query.distinct or query.reduced:
            batches = _distinct(batches)
        if query.limit is not None or query.offset:
            start = query.offset or 0
            batches = _slice(batches, start, None if query.limit is None
                             else start + query.limit)
        if self.execution is not None:
            batches = self._counted(batches)
        return variables, batches

    def stream_group(self, group: GroupPattern,
                     layout: Optional[_Layout] = None) -> Iterator[List[Row]]:
        """The id rows matching ``group`` from one empty seed row, batched."""
        if layout is None:
            layout = self._layout(group)
        return self._evaluate_group(group, iter(([layout.blank()],)), layout)

    def evaluate_ask(self, query: AskQuery) -> bool:
        # The first batch holds a single row: one witness, then stop.
        for _ in self.stream_group(query.where):
            return True
        return False

    def evaluate_construct(self, query: ConstructQuery) -> Graph:
        layout = self._layout(query.where)
        rows = (row for batch in self.stream_group(query.where, layout)
                for row in batch)
        if query.limit is not None:
            rows = islice(rows, query.limit)
        result = Graph(namespaces=self.graph.namespaces.copy())
        for row in rows:
            for template in query.template:
                triple = self._instantiate(template, row, layout)
                if triple is not None and triple.is_ground():
                    result.add(triple)
        return result

    # -- plumbing ------------------------------------------------------------
    def _compiled(self, key, build: Callable, *args):
        """Fetch or build a compiled artifact of this (graph, epoch) target.

        Concurrent evaluators may both build the same artifact; either
        result is correct for the target and the dict write is atomic, so
        last-writer-wins is benign.
        """
        compiled = self._store.get(key)
        if compiled is None:
            compiled = self._store[key] = build(*args)
        return compiled

    def _layout(self, scope) -> _Layout:
        """The row layout of a SELECT query or of a bare WHERE group."""
        return self._compiled(("layout", id(scope)), _layout_of, scope)

    def _term_fn(self, expression: Expression, layout: _Layout) -> Callable:
        return self._compiled((id(expression), "term"), compile_expression,
                              expression, layout, self.graph.dictionary)

    def _id_fn(self, expression: Expression,
               layout: _Layout) -> Callable[[Row], Optional[int]]:
        """``row -> id`` of the expression's value (``None`` = unbound)."""
        if isinstance(expression, VariableExpr):
            slot = layout.get(expression.variable)
            return (lambda row: None) if slot is None else itemgetter(slot)
        fn = self._term_fn(expression, layout)
        context = self.context
        encode = self.terms.encode

        def value_id(row: Row) -> Optional[int]:
            term = fn(row, context)
            return None if term is None else encode(term)

        return value_id

    def _batches(self, rows: Iterator[Row]) -> Iterator[List[Row]]:
        """Cut a row generator into batches of 1, 2, 4 ... BATCH_ROWS rows.

        The ramp keeps LIMIT / ASK / EXISTS lazy (the first batch is one
        row); each batch handed on is one checkpoint carrying its row count.
        """
        checkpoint = self._checkpoint
        size = 1
        while True:
            batch = list(islice(rows, size))
            if not batch:
                return
            if checkpoint is not None:
                checkpoint(len(batch))
            yield batch
            if size < BATCH_ROWS:
                size *= 2

    def _counted(self, batches: Iterable[List[Sequence]]
                 ) -> Iterator[List[Sequence]]:
        """Account final result rows on the execution context."""
        count_row = self.execution.count_row
        for batch in batches:
            count_row(len(batch))
            yield batch

    def _ticker(self) -> Callable[[], None]:
        """An amortised per-iteration checkpoint for frontier loops."""
        checkpoint = self._checkpoint
        if checkpoint is None:
            return lambda: None
        ticks = 0

        def tick() -> None:
            nonlocal ticks
            ticks += 1
            if not ticks & 255:
                checkpoint(256)

        return tick

    def _endpoint(self, term, layout: _Layout) -> Tuple[Optional[int], Optional[int]]:
        """A path endpoint as ``(slot, None)`` or ``(None, constant id)``."""
        if isinstance(term, Variable):
            return layout[term], None
        return None, self.terms.encode(term)

    # -- group pattern evaluation -------------------------------------------
    def _group_elements(self, group: GroupPattern) -> Sequence:
        """The group's elements in cost order (cached per plan target).

        Contiguous runs of join-commutative elements (BGPs, path patterns,
        closures, negated property sets) are reordered smallest-estimated-
        cardinality-first with bound-variable propagation, so e.g. an
        unanchored transitive closure runs after the patterns that bind one
        of its endpoints.  FILTER / OPTIONAL / MINUS / BIND / VALUES / UNION
        / sub-SELECT elements never move.
        """
        elements = group.elements
        if not self.optimize_joins or len(elements) < 2:
            return elements
        return self._compiled(id(group), reorder_group_elements,
                              self.graph, elements)

    def _evaluate_group(self, group: GroupPattern,
                        batches: Iterator[List[Row]],
                        layout: _Layout) -> Iterator[List[Row]]:
        """Chain one lazy operator per group element over ``batches``."""
        for element in self._group_elements(group):
            if isinstance(element, BGP):
                batches = self._batches(self._bgp(element, batches, layout))
            elif isinstance(element, PathPattern):
                # seq/alt/inv lower to BGPs and unions over fresh join
                # variables (which own slots no projection ever names),
                # */+/? to closures, !(...) to a negated-set scan.
                batches = self._evaluate_group(
                    rewrite_path_pattern(element)[0], batches, layout)
            elif isinstance(element, ClosurePattern):
                batches = self._batches(self._closure(element, batches, layout))
            elif isinstance(element, NegatedPathPattern):
                batches = self._batches(self._negated(element, batches, layout))
            elif isinstance(element, FilterPattern):
                batches = self._filter(element, batches, layout)
            elif isinstance(element, OptionalPattern):
                batches = self._optional(element, batches, layout)
            elif isinstance(element, UnionPattern):
                batches = self._union(element, batches, layout)
            elif isinstance(element, MinusPattern):
                batches = self._minus(element, batches, layout)
            elif isinstance(element, BindPattern):
                batches = self._bind(element, batches, layout)
            elif isinstance(element, ValuesPattern):
                batches = self._batches(self._values(element, batches, layout))
            elif isinstance(element, SubSelectPattern):
                batches = self._batches(self._subselect(element, batches, layout))
            else:  # pragma: no cover - defensive
                raise QueryError(f"unsupported pattern element {type(element).__name__}")
        return batches

    # -- BGP join -------------------------------------------------------------
    def _compile_bgp(self, bgp: BGP, layout: _Layout) -> _CompiledBGP:
        graph = self.graph
        patterns = list(bgp.triples)
        if self.optimize_joins and len(patterns) > 1:
            patterns = reorder_patterns(graph, patterns)
        lookup = graph.dictionary.lookup
        slots: Dict[int, None] = {}
        specs = []
        empty = False
        for pattern in patterns:
            spec = []
            for term in pattern:
                if isinstance(term, Variable):
                    slots[layout[term]] = None
                    spec.append((None, layout[term]))
                else:
                    term_id = lookup(term)
                    if term_id is None:
                        # Constant never stored: the whole BGP is empty.
                        empty = True
                    spec.append((term_id, None))
            specs.append(tuple(spec))
        if self.optimize_joins and not empty and len(specs) > 1:
            kept, intersectors = _fold_intersectors(specs)
            return _CompiledBGP(tuple(kept), tuple(slots), empty,
                                tuple(intersectors))
        return _CompiledBGP(tuple(specs), tuple(slots), empty)

    def _bgp(self, bgp: BGP, batches: Iterator[List[Row]],
             layout: _Layout) -> Iterator[Row]:
        """Index-nested-loop join: one output row per match per input row.

        Iterative backtracking (one frame, no recursion) that binds straight
        into ``env``, a copy of the input row: per level it keeps the
        running scan and the slots bound by the element being explored.
        Levels with exactly one unbound slot iterate the completing index
        set directly (ids, no triple tuples); the innermost level emits one
        row copy per match.
        """
        compiled = self._compiled(id(bgp), self._compile_bgp, bgp, layout)
        if compiled.empty:
            return
        graph = self.graph
        triples_ids = graph.triples_ids
        contains_ids = graph.contains_ids
        object_ids, subject_ids = graph.object_ids, graph.subject_ids
        predicate_ids = graph.predicate_ids
        specs = compiled.specs
        intersectors = compiled.intersectors
        bgp_slots = compiled.slots
        last = len(specs) - 1
        checkpoint = self._checkpoint
        terms = self.terms
        # Amortised interruption ticks: one checkpoint call per 256 join-loop
        # iterations keeps the per-iteration cost to an increment and a
        # bitmask test.
        ticks = 0
        env: Row = []
        scans = [None] * len(specs)
        unbound = [()] * len(specs)
        pending = [()] * len(specs)
        single_slot = [None] * len(specs)

        def resolve(spec):
            """Resolve a pattern spec under ``env``: (s, p, o, unbound)."""
            (s_const, s_slot), (p_const, p_slot), (o_const, o_slot) = spec
            s = s_const if s_slot is None else env[s_slot]
            p = p_const if p_slot is None else env[p_slot]
            o = o_const if o_slot is None else env[o_slot]
            unb = []
            if s_slot is not None and s is None:
                unb.append((0, s_slot))
            if p_slot is not None and p is None:
                unb.append((1, p_slot))
            if o_slot is not None and o is None:
                unb.append((2, o_slot))
            return s, p, o, unb

        def direct_values(s, p, o, position: int):
            """The index set completing a pattern with one unbound position."""
            if position == 2:
                return object_ids(s, p)
            if position == 0:
                return subject_ids(p, o)
            return predicate_ids(s, o)

        def candidates(level: int, s, p, o, position: int):
            """A level's single-slot candidate ids, narrowed by its folds.

            One ``set & set`` per folded pattern replaces one index probe
            per candidate per pattern inside the join loop.  Intersection
            allocates a fresh set every time — the stored index sets the
            graph hands out are never mutated.  Interruption cost is
            charged batch-at-a-time: one checkpoint call carries the whole
            intersection's work amount.
            """
            values = direct_values(s, p, o, position)
            for ispec, iposition in intersectors[level]:
                if not values:
                    break
                probe = direct_values(*resolve(ispec)[:3], iposition)
                if not probe:
                    return ()
                if checkpoint is not None:
                    checkpoint(min(len(values), len(probe)))
                values = values & probe
            return values

        def folds_hold(level: int) -> bool:
            """Folded patterns as ground containment probes.

            Taken when the level's join variable arrived pre-bound at
            runtime (seeded by the input row), so there is no candidate set
            to intersect — each folded pattern is fully ground and holds
            iff the store contains its triple.
            """
            for ispec, _ in intersectors[level]:
                if checkpoint is not None:
                    checkpoint(1)
                if not contains_ids(*resolve(ispec)[:3]):
                    return False
            return True

        for batch in batches:
            for seed in batch:
                if len(terms) and any(seed[slot] is not None and seed[slot] < 0
                                      for slot in bgp_slots):
                    # Bound to a term the store has never seen: the
                    # conjunction cannot match for this row.
                    continue
                env = seed[:]
                if last < 0:
                    yield env
                    continue
                level = 0
                while True:
                    # Descend: resolve pattern `level` under the bindings
                    # made so far.
                    self.pattern_lookups += 1
                    s, p, o, unb = resolve(specs[level])
                    if level == last:
                        if len(unb) == 1:
                            position, slot = unb[0]
                            for value in candidates(level, s, p, o, position):
                                row = env[:]
                                row[slot] = value
                                yield row
                        elif not intersectors[level] or folds_hold(level):
                            # Zero unbound slots (containment probe) or two /
                            # three (possibly one variable twice): this is
                            # where a cross-product adversary spends its life.
                            for triple in triples_ids(s, p, o):
                                ticks += 1
                                if checkpoint is not None and not ticks & 255:
                                    checkpoint(256)
                                row = env[:]
                                for position, slot in unb:
                                    if row[slot] is None:
                                        row[slot] = triple[position]
                                    elif row[slot] != triple[position]:
                                        break
                                else:
                                    yield row
                        level -= 1
                    elif len(unb) == 1:
                        position, single_slot[level] = unb[0]
                        scans[level] = iter(candidates(level, s, p, o, position))
                    else:
                        single_slot[level] = None
                        unbound[level] = unb
                        scans[level] = (
                            triples_ids(s, p, o)
                            if not intersectors[level] or unb or folds_hold(level)
                            else iter(()))
                    # Advance: pull the next compatible element at `level`,
                    # backtracking while scans run dry.
                    while level >= 0:
                        ticks += 1
                        if checkpoint is not None and not ticks & 255:
                            checkpoint(256)
                        for slot in pending[level]:
                            env[slot] = None
                        pending[level] = ()
                        item = next(scans[level], None)
                        if item is None:
                            level -= 1
                            continue
                        slot = single_slot[level]
                        if slot is not None:
                            env[slot] = item
                            pending[level] = (slot,)
                            break
                        bound_here = []
                        for position, slot in unbound[level]:
                            if env[slot] is None:
                                env[slot] = item[position]
                                bound_here.append(slot)
                            elif env[slot] != item[position]:
                                # One variable twice in the pattern, bound to
                                # two different values by this triple.
                                break
                        else:
                            pending[level] = bound_here
                            break
                        for slot in bound_here:
                            env[slot] = None
                    else:
                        break
                    level += 1

    # -- property paths ------------------------------------------------------
    def _closure(self, element: ClosurePattern, batches: Iterator[List[Row]],
                 layout: _Layout) -> Iterator[Row]:
        """Streaming id-space BFS closure (``path*`` / ``path+`` / ``path?``).

        Per the SPARQL 1.1 ALP semantics each input row contributes every
        *distinct* endpoint pair once; a bound subject runs a forward BFS
        over the SPO index, a bound object a backward BFS over POS via the
        inverted path, and two unbound endpoints enumerate the node
        universe.  Zero-length paths (``*``/``?``) match a bound endpoint
        even when the term is absent from the graph (it then carries a
        private overlay id, which no index holds).  The frontier loop ticks
        the execution context's amortised checkpoint, so closures over
        cycle-heavy graphs honor deadline/cancel/budget.
        """
        compiled = self._compiled(id(element), _CompiledClosure,
                                  self.graph, element)
        tick = self._ticker()
        modifier = element.modifier
        zero_length = modifier in ("*", "?")
        s_slot, s_const = self._endpoint(element.subject, layout)
        o_slot, o_const = self._endpoint(element.object, layout)
        same_var = s_slot is not None and s_slot == o_slot

        def directed(step, seed: Row, start: int, end: Optional[int],
                     bind_slot: Optional[int]) -> Iterator[Row]:
            """Emit pairs from a closure anchored at ``start``."""
            if zero_length:
                if end is None:
                    row = seed[:]
                    row[bind_slot] = start
                    yield row
                elif end == start:
                    yield seed[:]
            if start < 0 or (end is not None and end < 0):
                return  # unknown term: no edges, zero-length handled above
            for node in _reachable(step, start, modifier, tick):
                if zero_length and node == start:
                    continue  # (x, x) already emitted as zero-length
                if end is None:
                    row = seed[:]
                    row[bind_slot] = node
                    yield row
                elif node == end:
                    yield seed[:]
                    return

        for batch in batches:
            for seed in batch:
                s = s_const if s_slot is None else seed[s_slot]
                o = o_const if o_slot is None else seed[o_slot]
                if s is not None:
                    yield from directed(compiled.forward, seed, s, o,
                                        o_slot if o is None else None)
                elif o is not None:
                    yield from directed(compiled.backward, seed, o, None, s_slot)
                else:
                    # Both endpoints unbound: every node of the graph is a
                    # start (one variable twice: and must end there too).
                    for start in self.graph.node_ids():
                        row = seed[:]
                        row[s_slot] = start
                        yield from directed(compiled.forward, row, start,
                                            start if same_var else None, o_slot)

    def _negated(self, element: NegatedPathPattern,
                 batches: Iterator[List[Row]], layout: _Layout) -> Iterator[Row]:
        """Negated property set: scan edges whose predicate is not excluded.

        Bag semantics (one row per matching triple per direction), matching
        the SPARQL 1.1 definition where ``!(...)`` is an edge step, not a
        closure.
        """
        directions = self._compiled(id(element), _CompiledNegated,
                                    self.graph, element.path).directions
        triples_ids = self.graph.triples_ids
        tick = self._ticker()
        s_slot, s_const = self._endpoint(element.subject, layout)
        o_slot, o_const = self._endpoint(element.object, layout)
        same_var = s_slot is not None and s_slot == o_slot
        for batch in batches:
            for seed in batch:
                s = s_const if s_slot is None else seed[s_slot]
                o = o_const if o_slot is None else seed[o_slot]
                for excluded, s_position, o_position in directions:
                    pattern = [None, None, None]
                    pattern[s_position], pattern[o_position] = s, o
                    for triple in triples_ids(*pattern):
                        tick()
                        if triple[1] in excluded or (
                                same_var and triple[0] != triple[2]):
                            continue
                        row = seed[:]
                        if s is None:
                            row[s_slot] = triple[s_position]
                        if o is None:
                            row[o_slot] = triple[o_position]
                        yield row

    # -- batch operators ------------------------------------------------------
    def _filter(self, element: FilterPattern, batches: Iterator[List[Row]],
                layout: _Layout) -> Iterator[List[Row]]:
        expression = element.expression
        test = self._compiled((id(expression), "test"), compile_filter,
                              expression, layout, self.graph.dictionary)
        context = self.context
        checkpoint = self._checkpoint
        for batch in batches:
            if checkpoint is not None:
                checkpoint(len(batch))
            kept = [row for row in batch if test(row, context)]
            if kept:
                yield kept

    def _optional(self, element: OptionalPattern, batches: Iterator[List[Row]],
                  layout: _Layout) -> Iterator[List[Row]]:
        """Left join, a batch at a time.

        Each input row is numbered in the element's scratch slot; the inner
        group runs once over the whole batch (its rows are copies, so they
        carry the number along), and the inputs whose number never came out
        are handed on unextended after it.
        """
        tag = layout.tags[id(element)]
        for batch in batches:
            for index, row in enumerate(batch):
                row[tag] = index
            matched = set()
            for extended in self._evaluate_group(element.pattern,
                                                 iter((batch,)), layout):
                matched.update([row[tag] for row in extended])
                yield extended
            if len(matched) < len(batch):
                yield [row for row in batch if row[tag] not in matched]

    def _union(self, element: UnionPattern, batches: Iterator[List[Row]],
               layout: _Layout) -> Iterator[List[Row]]:
        for batch in batches:
            for alternative in element.alternatives:
                # Each branch owns its input rows (OPTIONAL numbers them).
                yield from self._evaluate_group(
                    alternative, iter(([row[:] for row in batch],)), layout)

    def _minus(self, element: MinusPattern, batches: Iterator[List[Row]],
               layout: _Layout) -> Iterator[List[Row]]:
        checkpoint = self._checkpoint
        domain = [layout[variable] for variable in self._layout(element.pattern)]
        excluded = None

        def removed(row: Row) -> bool:
            """Compatible with an excluded row on at least one shared slot."""
            for other in excluded:
                shared = False
                for slot in domain:
                    if row[slot] is not None and other[slot] is not None:
                        if row[slot] != other[slot]:
                            break
                        shared = True
                else:
                    if shared:
                        return True
            return False

        for batch in batches:
            if checkpoint is not None:
                checkpoint(len(batch))
            if excluded is None:
                excluded = _flatten(self.stream_group(element.pattern, layout))
            kept = [row for row in batch if not removed(row)]
            if kept:
                yield kept

    def _bind(self, element: BindPattern, batches: Iterator[List[Row]],
              layout: _Layout) -> Iterator[List[Row]]:
        value_id = self._id_fn(element.expression, layout)
        slot = layout[element.variable]
        checkpoint = self._checkpoint
        for batch in batches:
            if checkpoint is not None:
                checkpoint(len(batch))
            bound = []
            for row in batch:
                value = value_id(row)
                if value is not None:
                    row = _merge(row, ((slot, value),))
                    if row is None:  # already bound to something else
                        continue
                bound.append(row)
            if bound:
                yield bound

    def _values(self, element: ValuesPattern, batches: Iterator[List[Row]],
                layout: _Layout) -> Iterator[Row]:
        encode = self.terms.encode
        bindings = [[(layout[variable], encode(term))
                     for variable, term in zip(element.variables, values)
                     if term is not None] for values in element.rows]
        for batch in batches:
            for row in batch:
                for binding in bindings:
                    merged = _merge(row, binding)
                    if merged is not None:
                        yield merged

    def _subselect(self, element: SubSelectPattern, batches: Iterator[List[Row]],
                   layout: _Layout) -> Iterator[Row]:
        result = None
        for batch in batches:
            for row in batch:
                if result is None:
                    variables, inner = self.stream_select(element.query)
                    slots = [layout[variable] for variable in variables]
                    result = [[(slot, value) for slot, value in zip(slots, found)
                               if value is not None]
                              for found in _flatten(inner)]
                for binding in result:
                    merged = _merge(row, binding)
                    if merged is not None:
                        yield merged

    def _exists(self, pattern: GroupPattern, row: Row, layout: _Layout) -> bool:
        # Stop at the first witness instead of materialising every match.
        for _ in self._evaluate_group(pattern, iter(([row[:]],)), layout):
            return True
        return False

    # -- grouping / aggregation ----------------------------------------------
    def _group(self, query: SelectQuery, batches: Iterator[List[Row]],
               layout: _Layout) -> List[Row]:
        """GROUP BY on id keys; one output row per group, in the query layout.

        A grouped row binds the grouping *variables* and, in their alias
        slots, the aggregates (an aggregate without an alias has no name to
        be read by, and is not computed).
        """
        key_fns = [self._id_fn(expression, layout)
                   for expression in query.group_by]
        groups: Dict[Tuple, List[Row]] = {}
        for batch in batches:
            for row in batch:
                groups.setdefault(tuple([fn(row) for fn in key_fns]),
                                  []).append(row)
        if not groups and not query.group_by:
            groups[()] = []
        key_slots = [layout.get(expression.variable)
                     if isinstance(expression, VariableExpr) else None
                     for expression in query.group_by]
        aggregates = [
            (layout[item.alias], item.expression,
             None if item.expression.expr is None
             else self._id_fn(item.expression.expr, layout))
            for item in query.select_items
            if isinstance(item.expression, Aggregate) and item.alias is not None]
        grouped = []
        for key, members in groups.items():
            row = layout.blank()
            for slot, value in zip(key_slots, key):
                if slot is not None:
                    row[slot] = value
            for slot, aggregate, value_id in aggregates:
                row[slot] = self._aggregate(aggregate, value_id, members)
            grouped.append(row)
        return grouped

    def _aggregate(self, aggregate: Aggregate, value_id: Optional[Callable],
                   members: List[Row]) -> Optional[int]:
        terms = self.terms
        if value_id is None:  # COUNT(*) and friends see one ``1`` per row
            ids = [terms.encode(Literal(1))] * len(members)
        else:
            ids = [cell for cell in map(value_id, members) if cell is not None]
        if aggregate.distinct:
            ids = list(dict.fromkeys(ids))
        if aggregate.name == "COUNT":
            return terms.encode(Literal(len(ids), datatype=XSD_INTEGER))
        value = _fold_aggregate(aggregate, [terms.decode(cell) for cell in ids])
        return None if value is None else terms.encode(value)

    # -- projection / modifiers ----------------------------------------------
    def _projection(self, query: SelectQuery,
                    layout: _Layout) -> Callable[[Row], Tuple]:
        """``row -> output tuple`` for an explicit SELECT list."""
        cells: List[object] = []
        for index, item in enumerate(query.select_items):
            expression = item.expression
            if isinstance(expression, Aggregate):
                # Folded into its output variable's slot during grouping.
                cells.append(layout[_output_variable(item, index)])
            elif isinstance(expression, VariableExpr):
                cells.append(layout[expression.variable])
            else:
                cells.append(self._id_fn(expression, layout))
        if all(type(cell) is int for cell in cells):
            return _projector(cells)
        return lambda row: tuple([row[cell] if type(cell) is int else cell(row)
                                  for cell in cells])

    @staticmethod
    def _bound_variables(query: SelectQuery, rows: List[Row],
                         layout: _Layout) -> List[Variable]:
        """``SELECT *``: the variables some solution binds."""
        candidates = [variable for variable in query.projected_variables()
                      if variable in layout]
        unseen = {layout[variable] for variable in candidates}
        for row in rows:
            unseen -= {slot for slot in unseen if row[slot] is not None}
            if not unseen:
                break
        bound = [variable for variable in candidates
                 if layout[variable] not in unseen]
        return bound or candidates

    def _order(self, query: SelectQuery, rows: List[Row],
               layout: _Layout) -> List[Row]:
        keys = [self._term_fn(condition.expression, layout)
                for condition in query.order_by]
        context = self.context
        # Decorate-sort-undecorate: every sort key is computed exactly once
        # per row, then stable sorts compose from the last condition to the
        # first (each with its own direction).
        decorated = [([_order_key(key(row, context)) for key in keys], row)
                     for row in rows]
        for index in reversed(range(len(keys))):
            decorated.sort(key=lambda entry: entry[0][index],
                           reverse=query.order_by[index].descending)
        return [row for _, row in decorated]

    def _instantiate(self, pattern: TriplePattern, row: Row,
                     layout: _Layout) -> Optional[Triple]:
        """Substitute bindings into a triple template; None when a var is unbound."""
        terms = []
        for term in pattern:
            if isinstance(term, Variable):
                slot = layout.get(term)
                if slot is None or row[slot] is None:
                    return None
                term = self.terms.decode(row[slot])
            terms.append(term)
        return Triple(*terms)

    # -- updates --------------------------------------------------------------
    def apply_update(self, update: Update, dataset: Optional[Dataset] = None) -> int:
        """Apply a single update operation.

        When ``dataset`` is provided, graph-targeted operations (``INSERT INTO
        <g>``, ``GRAPH <g> {}``) go to the corresponding named graph; otherwise
        everything applies to the evaluator's graph.  Returns the number of
        affected triples.
        """
        def target(graph_iri: Optional[IRI]) -> Graph:
            if dataset is not None and graph_iri is not None:
                return dataset.graph(graph_iri)
            if dataset is not None:
                return dataset.default_graph
            return self.graph

        if isinstance(update, InsertDataUpdate):
            graph = target(update.graph)
            return sum(1 for triple in update.triples if graph.add(triple))
        if isinstance(update, DeleteDataUpdate):
            graph = target(update.graph)
            return sum(graph.remove(*triple) for triple in update.triples)
        if isinstance(update, ClearUpdate):
            graph = target(update.graph)
            count = len(graph)
            graph.clear()
            return count
        if isinstance(update, ModifyUpdate):
            # Materialise the WHERE rows *before* mutating: the lazy
            # pipeline must not keep scanning indexes we are rewriting.
            layout = self._layout(update.where)
            rows = _flatten(self.stream_group(update.where, layout))
            if self.execution is not None:
                # Last exit before mutation: a deadline or cancellation that
                # trips here aborts with the graph untouched; past this point
                # the update runs to completion, so no reader ever observes a
                # half-applied MODIFY.
                self.execution.checkpoint(0)
            graph = target(update.graph)
            affected = 0
            for row in rows:
                for template in update.delete_template:
                    triple = self._instantiate(template, row, layout)
                    if triple is not None and triple.is_ground():
                        affected += graph.remove(*triple)
                for template in update.insert_template:
                    triple = self._instantiate(template, row, layout)
                    if triple is not None and triple.is_ground():
                        if graph.add(triple):
                            affected += 1
            return affected
        raise UpdateError(f"unsupported update type {type(update).__name__}")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _layout_of(scope) -> _Layout:
    """Slots for a WHERE group, plus everything a SELECT clause names."""
    layout = _Layout()
    if isinstance(scope, GroupPattern):
        layout.add_group(scope)
        return layout
    layout.add_group(scope.where)
    for index, item in enumerate(scope.select_items):
        layout.add_expression(item.expression)
        if isinstance(item.expression, VariableExpr):
            layout.slot(item.expression.variable)
        elif isinstance(item.expression, Aggregate):
            layout.slot(_output_variable(item, index))
    for expression in scope.group_by:
        layout.add_expression(expression)
    for condition in scope.order_by:
        layout.add_expression(condition.expression)
    return layout


def _flatten(batches: Iterable[List[Sequence]]) -> List[Sequence]:
    return [row for batch in batches for row in batch]


def _projector(slots: List[int]) -> Callable[[Row], Tuple]:
    """``row -> tuple of the cells at slots`` (itemgetter, but always a tuple)."""
    if len(slots) == 1:
        slot = slots[0]
        return lambda row: (row[slot],)
    if not slots:
        return lambda row: ()
    return itemgetter(*slots)


def _merge(row: Row, binding: Iterable[Tuple[int, int]]) -> Optional[Row]:
    """Join-compatible merge of ``(slot, id)`` pairs into a copy of ``row``."""
    merged = row[:]
    for slot, value in binding:
        if merged[slot] is None:
            merged[slot] = value
        elif merged[slot] != value:
            return None
    return merged


def _distinct(batches: Iterable[List[Tuple]]) -> Iterator[List[Tuple]]:
    """Lazy hash-based dedup over the projected id tuples."""
    seen = set()
    for batch in batches:
        fresh = []
        for row in batch:
            if row not in seen:
                seen.add(row)
                fresh.append(row)
        if fresh:
            yield fresh


def _slice(batches: Iterable[List[Tuple]], start: int,
           end: Optional[int]) -> Iterator[List[Tuple]]:
    """OFFSET / LIMIT over batches; stops pulling once the page is full, so
    LIMIT short-circuits the whole scan/join chain upstream."""
    position = 0
    for batch in batches:
        first = position
        position += len(batch)
        if position <= start:
            continue
        batch = batch[max(0, start - first):
                      None if end is None else max(0, end - first)]
        if batch:
            yield batch
        if end is not None and position >= end:
            return


def _order_key(term: Optional[Term]) -> Tuple:
    if term is None:
        return (0, "")
    if isinstance(term, Literal) and term.is_numeric():
        return (1, float(term.lexical))
    return (2, term.n3())


def _fold_aggregate(aggregate: Aggregate, values: List[Term]) -> Optional[Term]:
    """SAMPLE / GROUP_CONCAT / MIN / MAX / SUM / AVG over the bound values."""
    if not values:
        return None
    name = aggregate.name
    if name == "SAMPLE":
        return values[0]
    if name == "GROUP_CONCAT":
        return Literal(aggregate.separator.join(str(v) for v in values))
    numeric = [v for v in values if isinstance(v, Literal) and v.is_numeric()]
    if name in ("MIN", "MAX"):
        pick = min if name == "MIN" else max
        if len(numeric) == len(values):
            return pick(numeric, key=lambda t: float(t.lexical))
        return pick(values, key=lambda t: (2, float(t.lexical))
                    if isinstance(t, Literal) and t.is_numeric()
                    else t.sort_key())
    if not numeric:
        return None
    total = sum(float(v.lexical) for v in numeric)
    if name == "SUM":
        return Literal(int(total)) if float(total).is_integer() else Literal(total)
    if name == "AVG":
        return Literal(total / len(numeric), datatype=XSD_DOUBLE)
    raise QueryError(f"unsupported aggregate {name!r}")
