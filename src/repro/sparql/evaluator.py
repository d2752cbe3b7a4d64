"""SPARQL query and update evaluation over :class:`repro.rdf.graph.Graph`.

**Row representation.**  Term ids are the only thing that flows through this
module.  A query gets one *layout* — every variable it can bind owns a slot —
and every operator (BGP join, closure, negated set, FILTER, OPTIONAL, UNION,
MINUS, BIND, batched inference, VALUES, sub-SELECT, grouping, ORDER BY,
DISTINCT, slice) consumes and produces fixed-width *id rows*: lists of dictionary ids indexed
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

**Plans.**  What runs is decided once, by :mod:`repro.sparql.plan`: a query
becomes a tree of nodes (constants interned to ids, variables resolved to
slots, patterns ordered by cost, expressions compiled) and every operator
here takes a node — a BGP node runs as an iterative index-nested-loop join
that binds directly into the row.  Trees are cached per (graph, epoch) by a
:class:`~repro.sparql.plan.QueryPlan` and shared between readers; what one
run counts (index lookups per BGP step, rows out per node, inference calls
per ``infer`` node) lives here.

Every operator cooperates with the query's
:class:`~repro.sparql.execution.ExecutionContext` (one with no limits when
the caller passes none): the hot join loops tick an
amortised checkpoint (one call per 256 iterations) and every batch handed on
checkpoints once with its row count, letting a deadline, cancellation event,
or work budget stop a hostile query with a typed
:class:`~repro.exceptions.QueryInterrupted` subclass.  Every batch boundary
is also the scheduler's suspension point.
"""

from __future__ import annotations

import weakref
from itertools import islice, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, UDFError, UpdateError
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
    AskQuery,
    ClearUpdate,
    ConstructQuery,
    DeleteDataUpdate,
    GroupPattern,
    InsertDataUpdate,
    ModifyUpdate,
    Query,
    SelectQuery,
    TriplePattern,
    Update,
)
from repro.sparql.execution import BATCH_ROWS, ExecutionContext
from repro.sparql.functions import (
    EvaluationContext,
    UDFRegistry,
    coerce_udf_result,
)
from repro.sparql.plan import (
    Layout,
    Node,
    Plan,
    QueryPlan,
    build,
    is_node,
    output_variables,
    reachable,
)
from repro.sparql.results import ResultSet

__all__ = ["QueryEvaluator"]

#: One id row: term ids by slot, ``None`` = unbound, negative = overlay id.
Row = List[Optional[int]]


#: Plan node kinds whose operator is a row generator, which
#: :meth:`QueryEvaluator._run` cuts into batches; the others map batches.
_ROW_OPERATORS = frozenset(
    ("bgp", "closure", "negated-property-set", "values", "subselect"))


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
        #: Cooperative-interruption state: the caller's, or one with no limits.
        self.execution = execution or ExecutionContext()
        self._checkpoint = self.execution.checkpoint
        #: id <-> term for this query: the dictionary plus private ids for
        #: computed terms.  Consumers of id rows decode through it.
        self.terms = DictionaryOverlay(graph.dictionary)
        # EXISTS reaches back through a weak reference: in a cycle, a finished
        # query's objects would all wait for the garbage collector.
        this = weakref.ref(self)
        self.context = EvaluationContext(
            udfs=self.udfs, terms=self.terms,
            exists_evaluator=lambda *args: this()._exists(*args))
        #: Per BGP node index, the rows that entered each join level (one
        #: index lookup each) and, where patterns folded, each of those.
        self._lookups: Dict[int, List[int]] = {}
        self._narrowed: Dict[int, List[List[int]]] = {}
        #: Rows out per node index; counted only under :meth:`analyze`.
        self.rows_out: Optional[Dict[int, int]] = None
        #: Per ``infer`` node index: ``[remote calls made, distinct argument
        #: tuples resolved, rows filled, {argument ids: value id}]``.
        self.inference: Dict[int, list] = {}

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
        return ResultSet.from_ids(variables, _flatten(batches), self.terms)

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
        return self._select(self.plan_for(query))

    def _select(self, plan: Plan) -> Tuple[List[Variable], Iterator[List[Sequence]]]:
        query, layout = plan.scope, plan.layout
        batches = self._rows(plan)
        rows: Optional[List[Row]] = None
        if query.group_by or any(isinstance(item.expression, Aggregate)
                                 for item in query.select_items):
            rows = self._group(plan, batches)
        if query.order_by:
            rows = self._order(plan, _flatten(batches) if rows is None else rows)
        if query.select_all:
            if rows is None:
                rows = _flatten(batches)
            variables = self._bound_variables(query, rows, layout)
            project = _projector([layout[variable] for variable in variables])
        else:
            variables = output_variables(query)
            project = self._projection(plan)
        if rows is not None:
            batches = (rows[start:start + BATCH_ROWS]
                       for start in range(0, len(rows), BATCH_ROWS))
        if plan.infer:
            batches = self._run(plan.infer, batches, layout)
        batches = ([project(row) for row in batch] for batch in batches)
        if query.distinct or query.reduced:
            batches = _distinct(batches)
        if query.limit is not None or query.offset:
            start = query.offset or 0
            batches = _slice(batches, start, None if query.limit is None
                             else start + query.limit)
        return variables, self._counted(batches)

    def plan_for(self, scope) -> Plan:
        """The plan tree of a SELECT, or of the WHERE group of anything else:
        the cached one for this exact (graph, epoch) target, or a private
        build."""
        if not isinstance(scope, (SelectQuery, GroupPattern)):
            scope = scope.where
        if self.plan is not None:
            return self.plan.tree_for(scope, self.graph, self.optimize_joins,
                                      self.udfs)
        return build(scope, self.graph, self.optimize_joins, self.udfs)

    def analyze(self, query: Query) -> Tuple[Plan, int]:
        """Run the query's WHERE group (and the ``infer`` nodes its projection
        reads, over those rows) once, to exhaustion, counting the rows out of
        every node: ``(the tree for plan.render, rows the group made)``."""
        tree = self.plan_for(query)
        self.rows_out = {}
        return tree, sum(map(len, self._run(tree.infer, self._rows(tree),
                                            tree.layout)))

    def entered(self, node: Node) -> List[int]:
        """Rows that entered each step of a BGP node so far in this run, in
        executed order: a level, then each pattern folded into it."""
        compiled = node.compiled
        lookups = self._lookups.get(node.index) or [0] * len(compiled.specs)
        narrowed = self._narrowed.get(node.index) or [
            [0] * len(folds) for folds in compiled.intersectors]
        return [count for level, folds in zip(lookups, narrowed)
                for count in [level] + folds]

    @property
    def pattern_lookups(self) -> int:
        """Triple-pattern index lookups performed: entries into join levels."""
        return sum(map(sum, self._lookups.values()))

    @property
    def inference_calls(self) -> int:
        """Remote inference calls this query's ``infer`` nodes made."""
        return sum([counts[0] for counts in self.inference.values()])

    def evaluate_ask(self, query: AskQuery) -> bool:
        # The first batch holds a single row: one witness, then stop.
        for _ in self._rows(self.plan_for(query)):
            return True
        return False

    def evaluate_construct(self, query: ConstructQuery) -> Graph:
        plan = self.plan_for(query)
        rows = (row for batch in self._rows(plan) for row in batch)
        if query.limit is not None:
            rows = islice(rows, query.limit)
        result = Graph(namespaces=self.graph.namespaces.copy())
        for row in rows:
            for triple in self._instances(query.template, row, plan.layout):
                result.add(triple)
        return result

    # -- plumbing ------------------------------------------------------------
    def _id_fn(self, cell) -> Callable[[Row], Optional[int]]:
        """``row -> id`` of a plan cell's value (``None`` = unbound)."""
        if type(cell) is int:
            return itemgetter(cell)
        context = self.context
        encode = self.terms.encode

        def value_id(row: Row) -> Optional[int]:
            term = cell(row, context)
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
        ticks = 0

        def tick() -> None:
            nonlocal ticks
            ticks += 1
            if not ticks & 255:
                checkpoint(256)

        return tick

    def _endpoint(self, end) -> Tuple[Optional[int], Optional[int]]:
        """A compiled path endpoint as ``(slot, None)`` or ``(None, constant id)``."""
        if type(end) is int:
            return end, None
        return None, self.terms.encode(end)

    # -- group pattern evaluation -------------------------------------------
    def _rows(self, plan: Plan) -> Iterator[List[Row]]:
        """The id rows matching the plan's WHERE group from one empty seed."""
        return self._run(plan.where, iter(([plan.layout.blank()],)), plan.layout)

    def _run(self, nodes: Tuple[Node, ...], batches: Iterator[List[Row]],
             layout: Layout) -> Iterator[List[Row]]:
        """Chain one lazy operator per plan node over ``batches``."""
        for node in nodes:
            # A kind's operator is the method named after it.
            operator = getattr(self, "_" + node.kind.replace("-", "_"))
            batches = operator(node, batches, layout)
            if node.kind in _ROW_OPERATORS:
                batches = self._batches(batches)
            if self.rows_out is not None:
                batches = self._count(node.index, batches)
        return batches

    def _count(self, index: int,
               batches: Iterator[List[Row]]) -> Iterator[List[Row]]:
        counts = self.rows_out
        for batch in batches:
            counts[index] = counts.get(index, 0) + len(batch)
            yield batch

    def _path(self, node: Node, batches: Iterator[List[Row]],
              layout: Layout) -> Iterator[List[Row]]:
        return self._run(node.groups[0], batches, layout)

    # -- BGP join -------------------------------------------------------------
    def _bgp(self, node: Node, batches: Iterator[List[Row]],
             layout: Layout) -> Iterator[Row]:
        """Index-nested-loop join: one output row per match per input row.

        Iterative backtracking (one frame, no recursion) that binds straight
        into ``env``, a copy of the input row: per level it keeps the
        running scan and the slots bound by the element being explored.
        Levels with exactly one unbound slot iterate the completing index
        set directly (ids, no triple tuples); the innermost level emits one
        row copy per match.  ``lookups`` and ``narrowed`` count the rows
        reaching every level (one index lookup each) and every pattern folded
        into one: what the step before them made (:meth:`entered`).
        """
        compiled = node.compiled
        if compiled.empty:
            return
        lookups = self._lookups.get(node.index)
        if lookups is None:
            lookups = self._lookups[node.index] = [0] * len(compiled.specs)
        narrowed = self._narrowed.get(node.index)
        if narrowed is None and any(compiled.intersectors):
            narrowed = self._narrowed[node.index] = [
                [0] * len(folds) for folds in compiled.intersectors]
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
            per candidate per pattern inside the join loop; a one-id side
            is one membership probe.  Intersection allocates a fresh set
            every time — the stored index sets the graph hands out are
            never mutated.  Interruption cost is
            charged batch-at-a-time: one checkpoint call carries the whole
            intersection's work amount.
            """
            values = direct_values(s, p, o, position)
            fold = 0
            for ispec, iposition in intersectors[level]:
                if not values:
                    break
                narrowed[level][fold] += len(values)
                fold += 1
                probe = direct_values(*resolve(ispec)[:3], iposition)
                if not probe:
                    return ()
                checkpoint(min(len(values), len(probe)))
                if values.__class__ is tuple:  # a bare-id leaf: (id,)
                    values = values if values[0] in probe else ()
                elif probe.__class__ is tuple:
                    values = probe if probe[0] in values else ()
                else:
                    values = values & probe
            return values

        def grounded(level: int, s, p, o) -> bool:
            """A fold level as ground containment probes.

            Taken when the level's join variable arrived pre-bound at
            runtime (seeded by the input row), so there is no candidate set
            to intersect — the level's pattern and every folded one are
            fully ground and hold iff the store contains their triple.
            """
            if not contains_ids(s, p, o):
                return False
            for fold, (ispec, _) in enumerate(intersectors[level]):
                narrowed[level][fold] += 1
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
                    lookups[level] += 1
                    s, p, o, unb = resolve(specs[level])
                    if level == last:
                        if len(unb) == 1:
                            position, slot = unb[0]
                            for value in candidates(level, s, p, o, position):
                                row = env[:]
                                row[slot] = value
                                yield row
                        elif not intersectors[level] or grounded(level, s, p, o):
                            # Zero unbound slots (containment probe) or two /
                            # three (possibly one variable twice): this is
                            # where a cross-product adversary spends its life.
                            for triple in triples_ids(s, p, o):
                                ticks += 1
                                if not ticks & 255:
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
                            if not intersectors[level]
                            or grounded(level, s, p, o) else iter(()))
                    # Advance: pull the next compatible element at `level`,
                    # backtracking while scans run dry.
                    while level >= 0:
                        ticks += 1
                        if not ticks & 255:
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
    def _closure(self, node: Node, batches: Iterator[List[Row]],
                 layout: Layout) -> Iterator[Row]:
        """Streaming id-space BFS closure (``path*`` / ``path+`` / ``path?``).

        Per the SPARQL 1.1 ALP semantics each input row contributes every
        *distinct* endpoint pair once; a bound subject runs a forward BFS
        over the SPO index, a bound object a backward BFS over POS via the
        inverted path, and two unbound endpoints enumerate the node
        universe.  Zero-length paths (``*``/``?``) match a constant endpoint
        even when the term is absent from the graph (it then carries a
        private overlay id, which no index holds); between two variables a
        pair starts at a graph node only, also when a join already bound
        one of them (:func:`~repro.sparql.plan.is_node`).  The frontier
        loop ticks the execution context's amortised checkpoint, so closures
        over cycle-heavy graphs honor deadline/cancel/budget.
        """
        compiled = node.compiled
        graph = self.graph
        tick = self._ticker()
        modifier = compiled.modifier
        zero_length = modifier in ("*", "?")
        s_slot, s_const = self._endpoint(compiled.subject)
        o_slot, o_const = self._endpoint(compiled.object)
        same_var = s_slot is not None and s_slot == o_slot
        between_variables = s_slot is not None and o_slot is not None

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
            if end is not None and end < 0 and end != start:
                return  # a term no index holds is reached from itself only
            for node in reachable(graph, step, start, modifier, tick):
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
                start = s if s is not None else o
                if (start is not None and between_variables
                        and not is_node(graph, start)):
                    continue
                if s is not None:
                    yield from directed(compiled.forward, seed, s, o,
                                        o_slot if o is None else None)
                elif o is not None:
                    yield from directed(compiled.backward, seed, o, None, s_slot)
                else:
                    # Both endpoints unbound: every node of the graph is a
                    # start (one variable twice: and must end there too).
                    for start in graph.node_ids():
                        row = seed[:]
                        row[s_slot] = start
                        yield from directed(compiled.forward, row, start,
                                            start if same_var else None, o_slot)

    def _negated_property_set(self, node: Node, batches: Iterator[List[Row]],
                              layout: Layout) -> Iterator[Row]:
        """Negated property set: scan edges whose predicate is not excluded.

        Bag semantics (one row per matching triple per direction), matching
        the SPARQL 1.1 definition where ``!(...)`` is an edge step, not a
        closure.
        """
        directions = node.compiled.directions
        triples_ids = self.graph.triples_ids
        tick = self._ticker()
        s_slot, s_const = self._endpoint(node.compiled.subject)
        o_slot, o_const = self._endpoint(node.compiled.object)
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
    def _filter(self, node: Node, batches: Iterator[List[Row]],
                layout: Layout) -> Iterator[List[Row]]:
        test = node.compiled
        context = self.context
        checkpoint = self._checkpoint
        for batch in batches:
            checkpoint(len(batch))
            kept = [row for row in batch if test(row, context)]
            if kept:
                yield kept

    def _optional(self, node: Node, batches: Iterator[List[Row]],
                  layout: Layout) -> Iterator[List[Row]]:
        """Left join, a batch at a time.

        Each input row is numbered in the node's scratch slot; the inner
        group runs once over the whole batch (its rows are copies, so they
        carry the number along), and the inputs whose number never came out
        are handed on unextended after it.
        """
        tag = node.compiled
        for batch in batches:
            for index, row in enumerate(batch):
                row[tag] = index
            matched = set()
            for extended in self._run(node.groups[0], iter((batch,)), layout):
                matched.update([row[tag] for row in extended])
                yield extended
            if len(matched) < len(batch):
                yield [row for row in batch if row[tag] not in matched]

    def _union(self, node: Node, batches: Iterator[List[Row]],
               layout: Layout) -> Iterator[List[Row]]:
        for batch in batches:
            for branch in node.groups:
                # Each branch owns its input rows (OPTIONAL numbers them).
                yield from self._run(
                    branch, iter(([row[:] for row in batch],)), layout)

    def _minus(self, node: Node, batches: Iterator[List[Row]],
               layout: Layout) -> Iterator[List[Row]]:
        checkpoint = self._checkpoint
        domain = node.compiled
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
            checkpoint(len(batch))
            if excluded is None:
                excluded = _flatten(self._run(
                    node.groups[0], iter(([layout.blank()],)), layout))
            kept = [row for row in batch if not removed(row)]
            if kept:
                yield kept

    def _bind(self, node: Node, batches: Iterator[List[Row]],
              layout: Layout) -> Iterator[List[Row]]:
        slot, cell = node.compiled
        value_id = self._id_fn(cell)
        checkpoint = self._checkpoint
        for batch in batches:
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

    def _infer(self, node: Node, batches: Iterator[List[Row]],
               layout: Layout) -> Iterator[List[Row]]:
        """BIND the value of a batch-resolved UDF, a batch of rows at a time.

        Per batch: the distinct argument-id tuples this query has not
        resolved yet are decoded once each and handed to the resolver — all
        at once, or ``limit`` per call, one checkpoint before every call —
        every distinct output is encoded once, and each row is then a
        dictionary lookup.  Row for row this is the scalar call in a ``bind``
        node: no value leaves the row as it is, a value that contradicts an
        earlier binding of the slot drops it.
        """
        slot, name, args = node.compiled
        resolver = self.udfs.batch(name)
        if resolver is None:
            raise UDFError(f"unknown function {name!r}")
        # One state per node and query: the node may be started once per
        # input batch (under OPTIONAL, UNION, EXISTS).
        counts = self.inference.setdefault(node.index, [0, 0, 0, {}])
        resolved: Dict[object, Optional[int]] = counts[3]
        variables = [arg for arg in args if type(arg) is int]  # their slots
        single = len(variables) == 1
        key_of = itemgetter(variables[0]) if single else _projector(variables)
        decode, encode = self.terms.decode, self.terms.encode
        checkpoint = self._checkpoint
        decoded: Dict[Optional[int], Optional[Term]] = {None: None}
        encoded: Dict[str, int] = {}                 # output text -> value id

        def inputs_of(keys: list) -> List[tuple]:
            """The argument tuples ``keys`` stand for, in terms, built a
            column at a time; an id is decoded the first time it is met."""
            columns, place = [], 0
            for arg in args:
                if type(arg) is not int:
                    columns.append(repeat(arg, len(keys)))
                    continue
                cells = keys if single else [key[place] for key in keys]
                place += 1
                for cell in set(cells).difference(decoded):
                    decoded[cell] = decode(cell)
                columns.append(map(decoded.__getitem__, cells))
            return list(zip(*columns)) if columns else [()] * len(keys)

        def value_id(output: object) -> Optional[int]:
            if output.__class__ is not str:
                term = coerce_udf_result(output)
                return None if term is None else encode(term)
            value = encoded.get(output)
            if value is None:
                value = encoded[output] = encode(coerce_udf_result(output))
            return value

        for batch in batches:
            keys = [key_of(row) for row in batch]
            pending = [key for key in dict.fromkeys(keys) if key not in resolved]
            step = resolver.limit or len(pending) or 1
            for start in range(0, len(pending), step):
                chunk = pending[start:start + step]
                checkpoint(len(chunk))
                outputs, calls = self.udfs.call_batch(name, inputs_of(chunk))
                counts[0] += calls
                resolved.update(zip(chunk, map(value_id, outputs)))
            counts[1] += len(pending)
            counts[2] += len(batch)
            bound = []
            for row, key in zip(batch, keys):
                value = resolved[key]
                if value is not None:
                    if row[slot] is None:
                        row = row[:]
                        row[slot] = value
                    elif row[slot] != value:  # already bound to something else
                        continue
                bound.append(row)
            if bound:
                yield bound

    def _values(self, node: Node, batches: Iterator[List[Row]],
                layout: Layout) -> Iterator[Row]:
        encode = self.terms.encode
        bindings = [[(slot, encode(term)) for slot, term in binding]
                    for binding in node.compiled]
        for batch in batches:
            for row in batch:
                for binding in bindings:
                    merged = _merge(row, binding)
                    if merged is not None:
                        yield merged

    def _subselect(self, node: Node, batches: Iterator[List[Row]],
                   layout: Layout) -> Iterator[Row]:
        result = None
        for batch in batches:
            for row in batch:
                if result is None:
                    variables, inner = self._select(node.compiled)
                    slots = [layout[variable] for variable in variables]
                    result = [[(slot, value) for slot, value in zip(slots, found)
                               if value is not None]
                              for found in _flatten(inner)]
                for binding in result:
                    merged = _merge(row, binding)
                    if merged is not None:
                        yield merged

    def _exists(self, pattern: GroupPattern, row: Row, layout: Layout) -> bool:
        # Stop at the first witness instead of materialising every match.
        for _ in self._run(layout.exists[id(pattern)], iter(([row[:]],)), layout):
            return True
        return False

    # -- grouping / aggregation ----------------------------------------------
    def _group(self, plan: Plan, batches: Iterator[List[Row]]) -> List[Row]:
        """GROUP BY on id keys; one output row per group, in the query layout.

        A grouped row binds the grouping *variables* and, in their alias
        slots, the aggregates (an aggregate without an alias has no name to
        be read by, and is not computed); groups failing HAVING are dropped.
        """
        key_fns = [self._id_fn(cell) for cell in plan.keys]
        groups: Dict[Tuple, List[Row]] = {}
        for batch in batches:
            for row in batch:
                groups.setdefault(tuple([fn(row) for fn in key_fns]),
                                  []).append(row)
        if not groups and not plan.keys:
            groups[()] = []
        aggregates = [(slot, aggregate,
                       None if cell is None else self._id_fn(cell))
                      for slot, aggregate, cell in plan.aggregates]
        grouped = []
        for key, members in groups.items():
            row = plan.layout.blank()
            for cell, value in zip(plan.keys, key):
                if type(cell) is int:
                    row[cell] = value
            for slot, aggregate, value_id in aggregates:
                row[slot] = self._aggregate(aggregate, value_id, members)
            if all(self._holds(test, row) for test in plan.having):
                grouped.append(row)
        return grouped

    def _holds(self, test: Callable, row: Row) -> bool:
        try:
            return test(row, self.context)
        except (QueryError, UDFError):
            return False  # an error in HAVING drops the group

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
    def _projection(self, plan: Plan) -> Callable[[Row], Tuple]:
        """``row -> output tuple`` for an explicit SELECT list."""
        if all(type(cell) is int for cell in plan.cells):
            return _projector(list(plan.cells))
        cells = [cell if type(cell) is int else self._id_fn(cell)
                 for cell in plan.cells]
        return lambda row: tuple([row[cell] if type(cell) is int else cell(row)
                                  for cell in cells])

    @staticmethod
    def _bound_variables(query: SelectQuery, rows: List[Row],
                         layout: Layout) -> List[Variable]:
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

    def _order(self, plan: Plan, rows: List[Row]) -> List[Row]:
        keys = plan.order
        context = self.context
        # Decorate-sort-undecorate: every sort key is computed exactly once
        # per row, then stable sorts compose from the last condition to the
        # first (each with its own direction).
        decorated = [([_order_key(key(row, context)) for key in keys], row)
                     for row in rows]
        for index in reversed(range(len(keys))):
            decorated.sort(key=lambda entry: entry[0][index],
                           reverse=plan.scope.order_by[index].descending)
        return [row for _, row in decorated]

    def _instances(self, templates: Iterable[TriplePattern], row: Row,
                   layout: Layout) -> Iterator[Triple]:
        """The templates with the row's bindings substituted; a template
        naming an unbound variable yields nothing."""
        for pattern in templates:
            terms = []
            for term in pattern:
                if isinstance(term, Variable):
                    slot = layout.get(term)
                    if slot is None or row[slot] is None:
                        break
                    term = self.terms.decode(row[slot])
                terms.append(term)
            else:
                yield Triple(*terms)

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
            plan = self.plan_for(update)
            layout = plan.layout
            rows = _flatten(self._rows(plan))
            # Last exit before mutation: a deadline or cancellation that trips
            # here aborts with the graph untouched; past this point the update
            # runs to completion, so no reader ever observes a half-applied
            # MODIFY.
            self._checkpoint(0)
            graph = target(update.graph)
            # The rows are ids, read through the term overlay from here on:
            # let go of the snapshot they came from, so the writes below copy
            # its indexes only if some reader still holds it.
            self.graph = graph
            affected = 0
            for row in rows:
                for triple in self._instances(update.delete_template, row, layout):
                    affected += graph.remove(*triple)
                for triple in self._instances(update.insert_template, row, layout):
                    affected += bool(graph.add(triple))
            return affected
        raise UpdateError(f"unsupported update type {type(update).__name__}")


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

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
