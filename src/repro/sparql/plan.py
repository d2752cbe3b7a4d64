"""The physical plan of a query: built once, run by the evaluator, printed
by ``explain``.

:func:`build` is the only place that decides how a WHERE group runs.  It
walks the group once, in the order the optimizer picks — join runs cost-
ordered, every BGP's patterns ordered under the variables earlier elements
certainly bind, property paths lowered — and hands back an immutable tree of
:class:`Node`\\ s.  A node holds both halves of one operator, written by the
same builder arm: ``compiled``, what the evaluator runs (constants interned
to ids, variables resolved to :class:`Layout` slots, folds, expression
closures), and ``facts``, what :func:`render` prints it from — so the
printed plan is the executed plan by construction, and a query that is
merely run pays for no text.

Trees are cached per evaluation target by :class:`QueryPlan` and shared
between concurrent readers, so nothing a run counts lives on a node:
:func:`render` reads the counters off the evaluator that ran the tree.
"""

from __future__ import annotations

import weakref
from itertools import count
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

from repro.exceptions import QueryError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Variable
from repro.sparql.ast import (
    Aggregate,
    AlternativePath,
    BGP,
    BindPattern,
    ClosurePattern,
    ConstantExpr,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    InversePath,
    LinkPath,
    MinusPattern,
    MulPath,
    NegatedPath,
    NegatedPathPattern,
    OptionalPattern,
    PathPattern,
    SelectItem,
    SelectQuery,
    SequencePath,
    SubSelectPattern,
    UnionPattern,
    ValuesPattern,
    VariableExpr,
)
from repro.sparql.cache import EpochLRU
from repro.sparql.functions import (
    UDFRegistry,
    aggregate_variable,
    compile_expression,
    compile_filter,
    walk_expression,
)
from repro.sparql.optimizer import (
    element_variables,
    estimate_element_cardinality,
    joint_estimate,
    pattern_text,
    reorder_group_elements,
    reorder_patterns,
)
from repro.sparql.paths import invert_path, normalize_path, rewrite_path_pattern
from repro.sparql.serializer import (
    serialize_expression,
    serialize_path,
    serialize_term,
)

__all__ = ["Layout", "Node", "Plan", "QueryPlan", "build", "render",
           "output_variables", "reachable"]


class Layout(dict):
    """``Variable -> slot`` for every variable one query can bind.

    Slots are query-wide: a row that leaves any operator has the same width
    and the same meaning per position, so joins, OPTIONAL and UNION need no
    re-mapping.  The builder hands slots out as it meets variables (and one
    scratch slot per OPTIONAL); ``width`` is final once the tree is built.
    ``exists`` holds the planned group of every ``EXISTS { ... }`` by the
    identity of its pattern — how a compiled expression names its sub-plan.
    A sub-SELECT has a layout of its own — its variables are a different
    scope — and meets the outer one through its projection.
    """

    __slots__ = ("width", "exists")

    def __init__(self) -> None:
        super().__init__()
        self.width = 0
        self.exists: Dict[int, Tuple["Node", ...]] = {}

    def slot(self, variable: Optional[Variable] = None) -> int:
        """The variable's slot; without a variable, a fresh scratch slot."""
        index = self.get(variable)
        if index is None:
            index = self.width
            self.width += 1
            if variable is not None:
                self[variable] = index
        return index

    def blank(self) -> List[Optional[int]]:
        return [None] * self.width


def _output_variable(item: SelectItem, index: int) -> Variable:
    if item.alias is not None:
        return item.alias
    if isinstance(item.expression, VariableExpr):
        return item.expression.variable
    return Variable(f"expr{index}")


def output_variables(query: SelectQuery) -> List[Variable]:
    """The columns of a SELECT, in order (``*``: the syntactic candidates)."""
    if query.select_all:
        return query.projected_variables()
    return [_output_variable(item, index)
            for index, item in enumerate(query.select_items)]


# ---------------------------------------------------------------------------
# Compiled artifacts
# ---------------------------------------------------------------------------

class CompiledBGP(NamedTuple):
    """A BGP compiled to id space.

    ``specs`` holds one ``((s_const, s_slot), (p_const, p_slot),
    (o_const, o_slot))`` entry per kept (ordered) triple pattern, where
    exactly one of ``const`` (an interned term id) and ``slot`` (the
    variable's position in the query layout) is set per component.
    ``slots`` covers every variable of the BGP, and ``empty`` marks one
    containing a constant the dictionary has never interned — it cannot
    match anything.

    ``intersectors`` runs parallel to ``specs``: each entry is a tuple of
    ``(spec, unbound_position)`` pairs for patterns *folded out* of the
    backtracking join by :func:`_fold_intersectors` — enforced batch-at-a-
    time as id-set intersections at the level that binds their join
    variable, instead of one nested-loop level per pattern (folded patterns
    never introduce new variables).  The executed order is each level
    followed by its folds.
    """

    specs: tuple
    slots: Tuple[int, ...]
    empty: bool
    intersectors: tuple


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

    Returns ``(kept, folds)``: the indices of the specs that stay join
    levels, and per kept level the ``(spec index, unbound_position)`` pairs
    enforced there.  Multiset semantics are preserved exactly: a folded
    pattern's multiplicity per candidate is one (all other components
    ground), which is what set membership encodes.  Folding only considers
    *static* bindings — a level whose join variable arrives pre-bound at
    runtime (seeded input solution) degenerates to ground containment
    probes, handled by the runtime.
    """
    bound = set()            # slots statically bound by kept levels
    level_of_slot = {}       # slot -> kept level that first binds it
    target_slot = {}         # kept level -> its single new slot, if any
    kept = []
    folds = []
    for number, spec in enumerate(specs):
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
                folds[latest] = folds[latest] + ((number, v_positions[0]),)
                continue
        level = len(kept)
        kept.append(number)
        folds.append(())
        for _, slot in positions:
            if slot not in bound:
                bound.add(slot)
                level_of_slot[slot] = level
        if len(new) == 1:
            v = next(iter(new))
            if sum(1 for _, slot in positions if slot == v) == 1:
                target_slot[level] = v
    return kept, folds


def _compile_step(dictionary: TermDictionary, path):
    """Compile a (normalized) path into an id-space successor function.

    The returned callable maps ``(graph, node_id, tick)`` to an iterable of
    successor ids in ``graph`` — one application of the path.  It reads the
    graph it is handed, never the one it was compiled against: a cached
    tree must not keep a superseded snapshot alive.  ``tick`` is the
    caller's amortised checkpoint hook; composite steps forward it into
    their inner loops so even a nested closure stays preemptable.
    Constants ``dictionary`` has never interned simply yield no successors.
    """
    inverse = isinstance(path, InversePath)
    link = path.path if inverse else path
    if isinstance(link, LinkPath):
        pid = dictionary.lookup(link.iri)
        if pid is None:
            return lambda graph, node, tick: ()
        if inverse:
            return lambda graph, node, tick: graph.subject_ids(pid, node)
        return lambda graph, node, tick: graph.object_ids(node, pid)
    if isinstance(link, NegatedPath):
        # ^!(...) traverses the negated set's matching edges in reverse;
        # member-set swapping cannot express this (``!()`` matches every
        # forward edge, so ``^!()`` must match every reversed edge).
        return _negated_step(negated_directions(dictionary, link, inverse))
    if inverse:  # pragma: no cover - normalize_path pushes ^ down to links
        return _compile_step(dictionary, normalize_path(path))
    if isinstance(path, SequencePath):
        steps = [_compile_step(dictionary, step) for step in path.steps]

        def seq_step(graph, node, tick):
            frontier = {node}
            for position, step in enumerate(steps):
                if (position == 1 and node in frontier
                        and not is_node(graph, node)):
                    # Later steps start from a fresh variable, which ranges
                    # over graph nodes (see is_node): a start term the graph
                    # never mentions passes a zero-length first step only.
                    frontier.discard(node)
                successors = set()
                for member in frontier:
                    tick()
                    successors.update(step(graph, member, tick))
                frontier = successors
                if not frontier:
                    break
            return frontier

        return seq_step
    if isinstance(path, AlternativePath):
        branches = [_compile_step(dictionary, alt) for alt in path.alternatives]

        def alt_step(graph, node, tick):
            out = set()
            for branch in branches:
                out.update(branch(graph, node, tick))
            return out

        return alt_step
    if isinstance(path, MulPath):
        inner = _compile_step(dictionary, path.path)
        modifier = path.modifier

        def mul_step(graph, node, tick):
            out = set(reachable(graph, inner, node, modifier, tick))
            if modifier != "+":
                out.add(node)
            return out

        return mul_step
    raise QueryError(f"unsupported path expression {type(path).__name__}")


def is_node(graph: Graph, term_id: int) -> bool:
    """Is ``term_id`` a subject or object of some triple — in ``nodes(G)``?

    SPARQL 1.1 evaluates a path with a variable at both ends over the
    graph's nodes (§18.5), and a sequence ``X P/Q Y`` as the join
    ``X P ?V . ?V Q Y`` of independently evaluated steps (§18.2.2.4).  So a
    zero-length pair ``(t, t)`` of a step between two variables exists only
    for a node ``t``, even when sideways passing already bound one end.
    """
    return (next(iter(graph.triples_ids(term_id, None, None)), None) is not None
            or next(iter(graph.triples_ids(None, None, term_id)), None)
            is not None)


def reachable(graph: Graph, step, start: int, modifier: str,
              tick) -> Iterator[int]:
    """BFS in ``graph`` from ``start``: each distinct node one or more
    (``?``: exactly one) applications of ``step`` away, as it is
    discovered."""
    seen = set()
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            tick()
            for successor in step(graph, node, tick):
                tick()
                if successor not in seen:
                    seen.add(successor)
                    next_frontier.append(successor)
                    yield successor
        frontier = () if modifier == "?" else next_frontier


class CompiledClosure(NamedTuple):
    """A ``*``/``+``/``?`` closure compiled to id-space step functions.

    ``forward`` applies the inner path once subject→object; ``backward``
    applies the structural inverse (used when only the object endpoint is
    bound, so the BFS can run object→subject over the POS index instead of
    enumerating the node universe).  An endpoint is a slot (variable) or a
    term (constant; the run interns it, privately if the store lacks it).
    """

    forward: Callable
    backward: Callable
    modifier: str
    subject: object
    object: object


class CompiledNegated(NamedTuple):
    """A negated property set: the directions it matches in (see
    :func:`negated_directions`) between two endpoints (slot or term)."""

    directions: list
    subject: object
    object: object


class CompiledInfer(NamedTuple):
    """A direct call to a batch-resolved UDF: the function's name (resolved
    when it runs, as UDFs register and unregister at run time), one slot
    (variable) or term (constant) per argument, and the slot the value is
    bound in — the variable's for a BIND, a scratch one only the projection
    reads for a SELECT item."""

    slot: int
    name: str
    args: tuple


def negated_directions(dictionary: TermDictionary, path: NegatedPath,
                       reverse: bool = False):
    """``(excluded predicate ids, subject position, object position)`` per
    direction a negated set matches in: (s, o) forward when a triple
    (s, p, o) exists with p outside the forward exclusions, and inversely
    when a triple (o, p, s) exists with p outside the inverse ones.
    ``reverse`` swaps the endpoints (``^!(...)``)."""
    lookup = dictionary.lookup
    directions = []
    for iris, matches, ends in ((path.forward, path.match_forward, (0, 2)),
                                (path.inverse, path.match_inverse, (2, 0))):
        if matches:
            excluded = {lookup(iri) for iri in iris}
            excluded.discard(None)
            directions.append((excluded, *(ends[::-1] if reverse else ends)))
    return directions


def _negated_step(directions):
    """A negated set as a successor function (one edge from ``node``)."""

    def negated_step(graph, node, tick):
        out = set()
        for excluded, s_position, o_position in directions:
            pattern = [None, None, None]
            pattern[s_position] = node
            for triple in graph.triples_ids(*pattern):
                tick()
                if triple[1] not in excluded:
                    out.add(triple[o_position])
        return out

    return negated_step


# ---------------------------------------------------------------------------
# The tree
# ---------------------------------------------------------------------------

class Node(NamedTuple):
    """One physical operator of a WHERE group.

    ``kind`` names the evaluator operator that runs it (``explain`` prints
    it as ``node``), ``index`` numbers it within its query's tree (the key
    of everything a run counts for it), ``compiled`` is what the operator
    needs at run time, ``facts`` what :func:`render` describes it from and
    ``groups`` its child groups.  ``facts`` is the AST element itself
    unless the plan knows more (a BGP's order, a join element's seed):
    cached trees are many and long-lived, so a node owns few objects, and
    none that would keep a superseded graph snapshot alive.
    """

    kind: str
    index: int
    compiled: object = None
    facts: object = None
    groups: Tuple[Tuple["Node", ...], ...] = ()


class Plan(NamedTuple):
    """One query scope ready to run: a SELECT with its compiled solution
    modifiers, or a bare WHERE group (ASK / CONSTRUCT / MODIFY).  A *cell*
    is a slot to read or a compiled ``(row, context) -> Term`` closure:
    ``keys`` are the GROUP BY cells, ``aggregates`` the ``(slot, Aggregate,
    argument cell or None)`` triples grouping computes, ``having`` the
    compiled tests, ``order`` the term closures, ``cells`` the projection
    and ``infer`` the nodes that fill the slots some of its cells read,
    run over the solutions as they are when the projection sees them.
    """

    scope: object
    layout: Layout
    where: Tuple[Node, ...]
    keys: tuple = ()
    aggregates: tuple = ()
    having: tuple = ()
    order: tuple = ()
    cells: tuple = ()
    infer: Tuple[Node, ...] = ()


_UNSEEDED: frozenset = frozenset()


def _frozen(bound) -> frozenset:
    return frozenset(bound) if bound else _UNSEEDED


def build(scope, graph: Graph, optimize_joins: bool = True,
          udfs: Optional[UDFRegistry] = None) -> Plan:
    """Plan a SELECT query or a bare WHERE group against ``graph``; calls to
    the batch-resolved functions of ``udfs`` become ``infer`` nodes."""
    builder = _Builder(graph, optimize_joins, udfs)
    if isinstance(scope, SelectQuery):
        return builder.select(scope)
    layout = Layout()
    return Plan(scope, layout, builder.group(scope, layout, ()))


class _Builder:
    """Builds the trees of one query (its sub-SELECTs and EXISTS groups
    included) against one graph; ``bound`` is always the set of variables
    the elements before a point certainly bind."""

    def __init__(self, graph: Graph, optimize: bool,
                 udfs: Optional[UDFRegistry] = None) -> None:
        self.graph = graph
        self.optimize = optimize
        self.udfs = udfs
        self.indices = count()

    def select(self, query: SelectQuery) -> Plan:
        layout = Layout()
        where = self.group(query.where, layout, ())
        aggregates = []
        for item in query.select_items:
            if isinstance(item.expression, Aggregate) and item.alias is not None:
                aggregates.append((item.alias, item.expression))
        # An aggregate inside HAVING is computed with the group's others,
        # into the slot of a hidden variable the compiled test reads.
        for expression in query.having:
            for node in walk_expression(expression):
                if isinstance(node, Aggregate):
                    aggregates.append((aggregate_variable(node), node))
        aggregates = tuple([
            (layout.slot(variable), aggregate, None if aggregate.expr is None
             else self._cell(aggregate.expr, layout))
            for variable, aggregate in aggregates])
        cells, infer = [], []
        for index, item in enumerate(query.select_items):
            if isinstance(item.expression, Aggregate):
                # Folded into its output variable's slot by grouping.
                cells.append(layout.slot(_output_variable(item, index)))
            elif self._resolved_in_batches(item.expression):
                infer.append(self._infer(item.expression, layout.slot(),
                                         item, layout))
                cells.append(infer[-1].compiled.slot)
            else:
                cells.append(self._cell(item.expression, layout))
        return Plan(
            query, layout, where,
            tuple([self._cell(key, layout) for key in query.group_by]),
            aggregates,
            tuple([self._compile(compile_filter, test, layout)
                   for test in query.having]),
            tuple([self._compile(compile_expression, condition.expression,
                                 layout) for condition in query.order_by]),
            tuple(cells), tuple(infer))

    def group(self, group: GroupPattern, layout: Layout,
              bound) -> Tuple[Node, ...]:
        """One node per element, in the order the group runs.

        Contiguous runs of join-commutative elements (BGPs, path patterns,
        closures, negated property sets) are cost-ordered, so e.g. an
        unanchored transitive closure runs after the patterns that bind one
        of its endpoints.  FILTER / OPTIONAL / MINUS / BIND / VALUES / UNION
        / sub-SELECT elements never move.
        """
        bound = set(bound)
        elements = group.elements
        if self.optimize and len(elements) > 1:
            elements = reorder_group_elements(self.graph, elements, bound)
        nodes = []
        for element in elements:
            nodes.append(self._node(element, layout, bound))
            bound.update(element_variables(element))
        return tuple(nodes)

    def _node(self, element, layout: Layout, bound) -> Node:
        index = next(self.indices)
        if isinstance(element, BGP):
            return self._bgp(index, element, layout, bound)
        if isinstance(element, PathPattern):
            # seq/alt/inv lower to BGPs and unions over fresh join
            # variables (which own slots no projection ever names),
            # */+/? to closures, !(...) to a negated-set scan.
            rewritten, _ = rewrite_path_pattern(element)
            return Node("path", index, None, self._seed(element, bound),
                        (self.group(rewritten, layout, bound),))
        if isinstance(element, ClosurePattern):
            path = normalize_path(element.path)
            dictionary = self.graph.dictionary
            return Node("closure", index, CompiledClosure(
                _compile_step(dictionary, path),
                _compile_step(dictionary, normalize_path(invert_path(path))),
                element.modifier, *self._ends(element, layout)),
                self._seed(element, bound))
        if isinstance(element, NegatedPathPattern):
            return Node("negated-property-set", index, CompiledNegated(
                negated_directions(self.graph.dictionary, element.path),
                *self._ends(element, layout)), self._seed(element, bound))
        if isinstance(element, FilterPattern):
            return Node("filter", index, self._compile(
                compile_filter, element.expression, layout, bound), element)
        if isinstance(element, OptionalPattern):
            # The scratch slot is where the left join numbers its input rows.
            return Node("optional", index, layout.slot(), None,
                        (self.group(element.pattern, layout, bound),))
        if isinstance(element, UnionPattern):
            return Node("union", index, None, None,
                        tuple([self.group(branch, layout, bound)
                               for branch in element.alternatives]))
        if isinstance(element, MinusPattern):
            # Runs from an empty seed row; compared on the slots it can bind.
            inner = self.group(element.pattern, layout, ())
            return Node("minus", index,
                        [layout[variable] for variable
                         in dict.fromkeys(element.pattern.variables())
                         if variable in layout], None, (inner,))
        if isinstance(element, BindPattern):
            if self._resolved_in_batches(element.expression):
                return self._infer(element.expression,
                                   layout.slot(element.variable), element,
                                   layout, index)
            return Node("bind", index,
                        (layout.slot(element.variable),
                         self._cell(element.expression, layout, bound)),
                        element)
        if isinstance(element, ValuesPattern):
            slots = [layout.slot(variable) for variable in element.variables]
            return Node("values", index,
                        [[(slot, term) for slot, term in zip(slots, values)
                          if term is not None] for values in element.rows],
                        element)
        if isinstance(element, SubSelectPattern):
            inner = self.select(element.query)
            for variable in output_variables(element.query):
                layout.slot(variable)
            return Node("subselect", index, inner, None,
                        (inner.where + inner.infer,))
        raise QueryError(  # pragma: no cover - defensive
            f"unsupported pattern element {type(element).__name__}")

    def _bgp(self, index: int, element: BGP, layout: Layout, bound) -> Node:
        """Order the patterns, intern them, fold what folds.  The facts:
        ``(patterns in join order, their estimates — None when a lone
        pattern or no optimizer left the order as written —, the executed
        steps as (pattern number, folded) pairs — None when nothing folded
        —, the seed, whether estimates are wanted)``."""
        patterns, estimates = element.triples, None
        if self.optimize and len(patterns) > 1:
            levels = reorder_patterns(self.graph, patterns, bound)
            patterns = [pattern for pattern, _ in levels]
            estimates = [estimate for _, estimate in levels]
        lookup = self.graph.dictionary.lookup
        slots: Dict[int, None] = {}
        specs = []
        empty = False
        for pattern in patterns:
            spec = []
            for term in pattern:
                if isinstance(term, Variable):
                    slots[layout.slot(term)] = None
                    spec.append((None, layout[term]))
                else:
                    term_id = lookup(term)
                    if term_id is None:
                        # Constant never stored: the whole BGP is empty.
                        empty = True
                    spec.append((term_id, None))
            specs.append(tuple(spec))
        intersectors, steps = ((),) * len(specs), None
        if estimates is not None and not empty:
            kept, folds = _fold_intersectors(specs)
            if len(kept) < len(specs):
                # What runs, in order: each level, then what folded into it.
                steps = tuple([step for level, folded in zip(kept, folds)
                               for step in [(level, False)]
                               + [(number, True) for number, _ in folded]])
                intersectors = tuple([
                    tuple([(specs[number], position)
                           for number, position in folded])
                    for folded in folds])
                specs = [specs[number] for number in kept]
        return Node("bgp", index,
                    CompiledBGP(tuple(specs), tuple(slots), empty, intersectors),
                    (patterns, estimates, steps, _frozen(bound), self.optimize))

    def _resolved_in_batches(self, expression: Expression) -> bool:
        """A direct call, on variables and constants only, to a function
        registered with a batch resolver (the registry is asked about
        function calls only: a plain query pays nothing for the question)."""
        return (isinstance(expression, FunctionCall) and self.udfs is not None
                and self.udfs.batch(expression.name) is not None
                and all(isinstance(arg, (VariableExpr, ConstantExpr))
                        for arg in expression.args))

    def _infer(self, call: FunctionCall, slot: int, facts, layout: Layout,
               index: Optional[int] = None) -> Node:
        args = tuple([layout.slot(arg.variable)
                      if isinstance(arg, VariableExpr) else arg.value
                      for arg in call.args])
        return Node("infer", next(self.indices) if index is None else index,
                    CompiledInfer(slot, call.name, args), facts)

    def _seed(self, element, bound):
        """A path-like element's facts: what its estimate is made from."""
        return element, _frozen(bound), self.optimize

    @staticmethod
    def _ends(element, layout: Layout):
        return [layout.slot(term) if isinstance(term, Variable) else term
                for term in (element.subject, element.object)]

    def _compile(self, compiler: Callable, expression: Expression,
                 layout: Layout, bound=()) -> Callable:
        """``compile_filter`` / ``compile_expression`` the expression, once
        every ``EXISTS`` group inside it is planned (seeded with ``bound``:
        it runs from the row the expression is evaluated on)."""
        for node in walk_expression(expression):
            if isinstance(node, ExistsExpr):
                layout.exists[id(node.pattern)] = self.group(
                    node.pattern, layout, bound)
        return compiler(expression, layout, self.graph.dictionary)

    def _cell(self, expression: Expression, layout: Layout, bound=()):
        if isinstance(expression, VariableExpr):
            return layout.slot(expression.variable)
        return self._compile(compile_expression, expression, layout, bound)


def _describe(node: Node, graph: Graph) -> Dict[str, object]:
    """What ``explain`` says about one node besides its kind and children."""
    kind, facts = node.kind, node.facts
    if kind == "bgp":
        patterns, estimates, steps, bound, costed = facts
        optimized = estimates is not None
        if costed and not optimized:  # never ordered, so never estimated
            estimates = [estimate for _, estimate
                         in reorder_patterns(graph, patterns, bound)]
        steps = steps or [(number, False) for number in range(len(patterns))]
        texts = [pattern_text(pattern) for pattern in patterns]
        out: Dict[str, object] = {}
        if costed:
            out["levels"] = [{"pattern": texts[number],
                              "estimated": round(estimates[number], 3),
                              **({"folded": True} if folded else {})}
                             for number, folded in steps]
            out["estimated_cardinality"] = round(joint_estimate(estimates), 3)
        out["patterns"] = [texts[number] for number, _ in steps]
        out["join_order_optimized"] = optimized
        return out
    if kind in ("path", "closure", "negated-property-set"):
        element, bound, costed = facts
        out = {"iterator": "bfs-closure", "modifier": element.modifier} \
            if kind == "closure" else {}
        out.update(path=serialize_path(element.path),
                   subject=serialize_term(element.subject),
                   object=serialize_term(element.object))
        if costed:
            out["estimated_cardinality"] = round(
                estimate_element_cardinality(graph, element, bound), 3)
        if kind == "path":
            out["fresh_variables"] = sorted(
                variable.name for variable in rewrite_path_pattern(element)[1])
        return out
    if kind == "filter":
        return {"expression": serialize_expression(facts.expression)}
    if kind in ("bind", "infer"):  # facts: a BindPattern or a SelectItem
        variable = (facts.variable if isinstance(facts, BindPattern)
                    else facts.alias)
        return {"variable": variable.n3() if variable is not None else None,
                "expression": serialize_expression(facts.expression)}
    if kind == "values":
        return {"variables": [variable.n3() for variable in facts.variables],
                "rows": len(facts.rows)}
    return {}


def render(nodes: Tuple[Node, ...], graph: Graph,
           run=None) -> List[Dict[str, object]]:
    """The nodes of a tree built for ``graph`` as JSON-ready dicts, in the
    order they run.

    ``run`` is an evaluator that executed the tree with counting on
    (``QueryEvaluator.analyze``): every node then reports its ``rows_out``
    and every BGP step ``actual``, the rows it handed to the next step.
    """
    out = []
    for node in nodes:
        item: Dict[str, object] = {"node": node.kind, **_describe(node, graph)}
        if node.groups:
            groups = [render(group, graph, run) for group in node.groups]
            if node.kind == "union":
                item["branches"] = groups
            else:
                item["rewritten" if node.kind == "path" else "children"] = groups[0]
        if run is not None:
            item["rows_out"] = run.rows_out.get(node.index, 0)
            if node.kind == "infer":
                item.update(zip(("calls", "distinct_targets", "rows"),
                                run.inference.get(node.index, (0, 0, 0))))
            if "levels" in item:
                entering = run.entered(node) + [item["rows_out"]]
                item["levels"] = [dict(level, actual=after) for level, after
                                  in zip(item["levels"], entering[1:])]
        out.append(item)
    return out


class QueryPlan:
    """The plan trees of one parsed query, *per evaluation target*.

    :meth:`tree_for` hands each evaluator the tree built for its exact graph
    object and join-optimization flag, stamped with the graph's epoch: a tree
    from any other epoch is dropped, so a cached plan can never serve ids or
    join orders compiled under other conditions (the optimizer statistics
    are maintained on the write path, so they change with the epoch).
    Readers of *different* pinned snapshots (e.g. across a writer's commit)
    get independent trees, readers of one snapshot share one.  Graphs are
    held via weakref and verified by identity, so a recycled ``id()`` can
    never alias a dead graph's compiled ids.
    """

    #: Retained (scope, graph, flag) trees; evicted oldest-first.
    MAX_TREES = 4

    def __init__(self) -> None:
        self._trees = EpochLRU(self.MAX_TREES)

    def tree_for(self, scope, graph: Graph, optimize_joins: bool,
                 udfs: Optional[UDFRegistry] = None) -> Plan:
        key = (id(scope), id(graph), optimize_joins)
        epoch = graph.epoch
        held, _ = self._trees.get(key, epoch)
        if held is None or held[0]() is not graph or held[1].scope is not scope:
            # Concurrent evaluators may both build the same tree; either is
            # correct for the target, last writer wins.
            held = (weakref.ref(graph),
                    build(scope, graph, optimize_joins, udfs))
            self._trees.put(key, epoch, held)
        return held[1]
