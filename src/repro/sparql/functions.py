"""Expression evaluation: SPARQL built-in functions and operators.

Two evaluators share the operator semantics defined here.
:func:`compile_expression` / :func:`compile_filter` turn an expression AST
into a closure over *id rows* (the streaming evaluator's fixed-width lists of
term ids): constant sub-expressions fold at compile time, ``=`` / ``!=`` /
``IN`` / ``BOUND`` against IRI or blank-node constants compare ids and never
decode, and everything else decodes a cell by list index on demand.
:func:`evaluate_expression` is the tree-walking interpreter over
``Variable -> Term`` solutions; it stays as the independent oracle the
reference evaluator and the differential tests run.  User-defined functions (the paper's ``sql:UDFS.getNodeClass`` and
``sql:UDFS.getKeyValue``) are resolved through a :class:`UDFRegistry` owned by
the endpoint, which is how KGNet interfaces trained models with the RDF
engine (paper §III-B and §IV-B.3).
"""

from __future__ import annotations

import operator
import re
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.exceptions import QueryError, UDFError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Variable,
    XSD_BOOLEAN,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from repro.sparql.ast import (
    Aggregate,
    BinaryOp,
    ConstantExpr,
    ExistsExpr,
    Expression,
    FunctionCall,
    InExpr,
    UnaryOp,
    VariableExpr,
)
from repro.sparql.results import Solution

__all__ = [
    "BUILTIN_FUNCTIONS",
    "UDFRegistry",
    "BatchResolver",
    "EvaluationContext",
    "OpaqueValue",
    "coerce_udf_result",
    "compile_expression",
    "compile_filter",
    "evaluate_expression",
    "walk_expression",
    "aggregate_variable",
    "effective_boolean_value",
    "TRUE",
    "FALSE",
]

TRUE = Literal("true", datatype=XSD_BOOLEAN)
FALSE = Literal("false", datatype=XSD_BOOLEAN)

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}
#: Ordered comparisons, and each as seen from the other operand.
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


class OpaqueValue(Term):
    """A non-RDF Python value flowing through a query as a binding.

    Virtuoso lets UDFs return SQL values (e.g. the dictionary of predicted
    venues built by the inner sub-select of paper Fig 12).  ``OpaqueValue``
    is the equivalent here: it wraps an arbitrary Python object so a later
    UDF (``sql:UDFS.getKeyValue``) can consume it.
    """

    __slots__ = ("value",)
    _sort_rank = 4

    def __init__(self, value: object) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("OpaqueValue is immutable")

    def n3(self) -> str:
        return f'"<opaque:{type(self.value).__name__}>"'

    def __repr__(self) -> str:
        return f"OpaqueValue({type(self.value).__name__})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpaqueValue) and other.value is self.value

    def __hash__(self) -> int:
        return hash(("OpaqueValue", id(self.value)))

    def __reduce__(self):
        return (OpaqueValue, (self.value,))

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


class BatchResolver(NamedTuple):
    """A UDF computed for many argument tuples at once (an ``infer`` plan node).

    ``resolve(inputs)`` takes a list of argument tuples — the terms a scalar
    call would receive, ``None`` for unbound — and returns ``(outputs,
    calls)``: one result per input, in order, coerced like a scalar UDF's
    return value, and how many remote (GMLaaS "HTTP") calls computing them
    took.  ``limit`` caps the inputs handed over per ``resolve`` (1 for a
    function whose service route takes one instance); ``None`` passes every
    input an evaluator batch has not seen before at once.
    """

    resolve: Callable[[List[tuple]], Tuple[List[object], int]]
    limit: Optional[int] = None

    def scalar(self, *args: object) -> object:
        """The same function for one argument tuple."""
        return self.resolve([args])[0][0]


class UDFRegistry:
    """Registry of user-defined functions callable from SPARQL expressions.

    Functions are registered under one or more names (their prefixed form,
    e.g. ``sql:UDFS.getNodeClass``, and optionally a bare local name).  The
    registry counts nothing: a query's inference calls are counted by the
    ``infer`` nodes that make them (paper Figs 11-12).  A function registered with a :class:`BatchResolver` is that resolver
    called with one input, wherever an expression calls it row by row; where
    a SELECT item or BIND is a direct call to it, the planner makes it an
    ``infer`` node that resolves whole batches.
    """

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., object]] = {}
        self._batch: Dict[str, BatchResolver] = {}

    def register(self, name: str, function: Optional[Callable[..., object]] = None,
                 aliases: Optional[List[str]] = None,
                 batch: Optional[BatchResolver] = None) -> None:
        if function is None:
            if batch is None:
                raise UDFError(f"no function given for {name!r}")
            function = batch.scalar
        for key in map(self._normalise, [name] + list(aliases or [])):
            self._functions[key] = function
            if batch is not None:
                self._batch[key] = batch
            else:
                self._batch.pop(key, None)

    def unregister(self, name: str) -> None:
        self._functions.pop(self._normalise(name), None)
        self._batch.pop(self._normalise(name), None)

    def batch(self, name: str) -> Optional[BatchResolver]:
        """The batch resolver ``name`` is registered with, if any."""
        return self._batch.get(self._normalise(name))

    @staticmethod
    def _normalise(name: str) -> str:
        return name.strip().lower()

    def lookup(self, name: str) -> Optional[Callable[..., object]]:
        return self._functions.get(self._normalise(name))

    def __contains__(self, name: str) -> bool:
        return self._normalise(name) in self._functions

    def call(self, name: str, *args: object) -> object:
        function = self._functions.get(self._normalise(name))
        if function is None:
            raise UDFError(f"unknown user-defined function {name!r}")
        return function(*args)

    def call_batch(self, name: str,
                   inputs: List[tuple]) -> Tuple[List[object], int]:
        """One call of ``name``'s batch resolver."""
        resolver = self._batch.get(self._normalise(name))
        if resolver is None:
            raise UDFError(f"unknown batch-resolved function {name!r}")
        return resolver.resolve(inputs)


class EvaluationContext:
    """Everything an expression may need at evaluation time."""

    def __init__(self, udfs: Optional[UDFRegistry] = None,
                 exists_evaluator: Optional[Callable] = None,
                 terms=None) -> None:
        self.udfs = udfs or UDFRegistry()
        #: Callback used to evaluate EXISTS { ... } sub-patterns; injected by
        #: the query evaluator to avoid a circular import.  The tree-walker
        #: calls it with ``(pattern, solution)``, compiled closures with
        #: ``(pattern, id_row, slots)``.
        self.exists_evaluator = exists_evaluator
        #: id -> Term for compiled closures: the per-query
        #: :class:`~repro.rdf.dictionary.DictionaryOverlay`'s ``decode``.
        self.decode = terms.decode if terms is not None else None


# ---------------------------------------------------------------------------
# Value conversions
# ---------------------------------------------------------------------------

def term_to_number(term: Optional[Term]) -> float:
    if isinstance(term, Literal):
        try:
            return float(term.lexical)
        except ValueError as exc:
            raise QueryError(f"literal {term.lexical!r} is not numeric") from exc
    raise QueryError(f"cannot convert {term!r} to a number")


def _make_numeric_literal(value: float) -> Literal:
    if float(value).is_integer():
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    return Literal(repr(float(value)), datatype=XSD_DOUBLE)


def effective_boolean_value(term: Optional[Term]) -> bool:
    """SPARQL effective boolean value (EBV) rules, simplified."""
    if term is None:
        return False
    if isinstance(term, Literal):
        if term.datatype == XSD_BOOLEAN:
            return term.lexical in ("true", "1")
        if term.is_numeric():
            try:
                return float(term.lexical) != 0.0
            except ValueError:
                return False
        return bool(term.lexical)
    # IRIs / blank nodes are errors per spec; treating them as true is the
    # most useful behaviour for this engine.
    return True


def _boolean(value: bool) -> Literal:
    return TRUE if value else FALSE


def _compare(op: str, left: Term, right: Term) -> bool:
    """Compare two *bound* terms (callers map an unbound operand to FALSE).

    Numeric literals compare by value, so ``"1"^^xsd:integer = "1.0"^^
    xsd:double``; everything else is equal only as the same term.  Order
    keys (floats, lexical forms, N3 text) are built for ``< <= > >=`` only.
    """
    both_literals = isinstance(left, Literal) and isinstance(right, Literal)
    numeric = both_literals and left.is_numeric() and right.is_numeric()
    if op == "=" or op == "!=":
        equal = (float(left.lexical) == float(right.lexical) if numeric
                 else left == right)
        return equal if op == "=" else not equal
    if numeric:
        lv, rv = float(left.lexical), float(right.lexical)
    elif both_literals:
        lv, rv = left.lexical, right.lexical
    else:
        lv, rv = left.n3(), right.n3()
    if op not in _ORDERINGS:
        raise QueryError(f"unknown comparison operator {op!r}")
    return _ORDERINGS[op](lv, rv)


def _arithmetic(op: str, left: Optional[Term], right: Optional[Term]) -> Literal:
    """``+ - * /`` over two evaluated operands (both evaluators)."""
    lv, rv = term_to_number(left), term_to_number(right)
    apply = _ARITHMETIC.get(op)
    if apply is None:
        raise QueryError(f"unknown operator {op!r}")
    if op == "/" and rv == 0:
        raise QueryError("division by zero in FILTER expression")
    return _make_numeric_literal(apply(lv, rv))


def _in_list(value: Optional[Term], members: List[Optional[Term]]) -> bool:
    return value is not None and any(
        member is not None and _compare("=", value, member)
        for member in members)


def _call_udf(name: str, args: List[Optional[Term]],
              context: "EvaluationContext") -> Optional[Term]:
    """Apply the user-defined function registered with the endpoint as
    ``name``; resolved per call, as UDFs register and unregister at run time."""
    if name in context.udfs:
        return coerce_udf_result(context.udfs.call(name, *args))
    raise UDFError(f"unknown function {name!r}")


def walk_expression(expression: Optional[Expression]):
    """Every node of an expression tree (``EXISTS`` groups are not entered)."""
    stack = [expression]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        if isinstance(node, BinaryOp):
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


def aggregate_variable(aggregate: Aggregate) -> Variable:
    """The hidden variable a grouped row carries ``aggregate`` under when it
    occurs inside an expression (HAVING) rather than as a select item."""
    return Variable(f"__agg{id(aggregate)}")


# ---------------------------------------------------------------------------
# Built-in function implementations
# ---------------------------------------------------------------------------

def _builtin_str(args: List[Optional[Term]]) -> Term:
    term = args[0]
    if isinstance(term, Literal):
        return Literal(term.lexical)
    if isinstance(term, IRI):
        return Literal(term.value)
    if term is None:
        raise QueryError("STR() of an unbound value")
    return Literal(term.n3())


def _builtin_regex(args: List[Optional[Term]]) -> Term:
    text = args[0]
    pattern = args[1]
    flags_term = args[2] if len(args) > 2 else None
    if not isinstance(text, Literal) or not isinstance(pattern, Literal):
        return FALSE
    flags = 0
    if isinstance(flags_term, Literal) and "i" in flags_term.lexical:
        flags |= re.IGNORECASE
    return _boolean(re.search(pattern.lexical, text.lexical, flags) is not None)


_BUILTINS: Dict[str, Callable[[List[Optional[Term]]], Term]] = {
    "STR": _builtin_str,
    "REGEX": _builtin_regex,
    "UCASE": lambda args: Literal(str(args[0]).upper()),
    "LCASE": lambda args: Literal(str(args[0]).lower()),
    "STRLEN": lambda args: Literal(len(str(args[0]))),
    "CONTAINS": lambda args: _boolean(str(args[1]) in str(args[0])),
    "STRSTARTS": lambda args: _boolean(str(args[0]).startswith(str(args[1]))),
    "STRENDS": lambda args: _boolean(str(args[0]).endswith(str(args[1]))),
    "CONCAT": lambda args: Literal("".join(str(a) for a in args)),
    "ABS": lambda args: _make_numeric_literal(abs(term_to_number(args[0]))),
    "CEIL": lambda args: _make_numeric_literal(float(__import__("math").ceil(term_to_number(args[0])))),
    "FLOOR": lambda args: _make_numeric_literal(float(__import__("math").floor(term_to_number(args[0])))),
    "ROUND": lambda args: _make_numeric_literal(float(round(term_to_number(args[0])))),
    "ISIRI": lambda args: _boolean(isinstance(args[0], IRI)),
    "ISURI": lambda args: _boolean(isinstance(args[0], IRI)),
    "ISLITERAL": lambda args: _boolean(isinstance(args[0], Literal)),
    "ISBLANK": lambda args: _boolean(isinstance(args[0], BNode)),
    "ISNUMERIC": lambda args: _boolean(isinstance(args[0], Literal) and args[0].is_numeric()),
    "DATATYPE": lambda args: args[0].datatype if isinstance(args[0], Literal) else IRI("urn:error"),
    "LANG": lambda args: Literal(args[0].language or "") if isinstance(args[0], Literal) else Literal(""),
    "IRI": lambda args: IRI(str(args[0])),
    "URI": lambda args: IRI(str(args[0])),
    "XSD_INTEGER_CAST": lambda args: Literal(int(float(str(args[0])))),
    "SAMETERM": lambda args: _boolean(args[0] is not None and args[0] == args[1]),
}

#: Upper-cased names the compiler evaluates itself; a call to any other name
#: is a user-defined function (:func:`_compile_call`).
BUILTIN_FUNCTIONS = frozenset(_BUILTINS) | {"BOUND", "IF", "COALESCE"}


# ---------------------------------------------------------------------------
# Compiled expressions over id rows
# ---------------------------------------------------------------------------
#
# The compiler maps every AST node to ``(closure, is_constant, returns_bool)``.
# Closures take ``(row, context)``: ``row`` is a list of term ids indexed by
# slot (``None`` = unbound, negative = the query's private overlay ids) and
# ``context`` the per-query :class:`EvaluationContext` (``decode``, UDFs,
# EXISTS callback) — so one compiled closure serves every execution of a
# cached plan.  Boolean-valued nodes return plain ``bool`` and are boxed to
# ``TRUE`` / ``FALSE`` only where a term is needed; FILTER never boxes.

_Node = Tuple[Callable, bool, bool]

def compile_expression(expr: Expression, slots: Mapping[Variable, int],
                       dictionary) -> Callable[[Sequence, EvaluationContext],
                                               Optional[Term]]:
    """Compile ``expr`` to ``(row, context) -> Term | None``.

    ``slots`` maps variables to row positions (a variable without a slot can
    never be bound); ``dictionary`` resolves constants to ids at compile
    time.  The closure is equivalent to :func:`evaluate_expression` on the
    decoded row, including the errors it raises.
    """
    return _term_fn(_compile(expr, slots, dictionary))


def compile_filter(expr: Expression, slots: Mapping[Variable, int],
                   dictionary) -> Callable[[Sequence, EvaluationContext], bool]:
    """Compile ``expr`` to its effective boolean value: ``(row, context) -> bool``."""
    return _test_fn(_compile(expr, slots, dictionary))


def _term_fn(node: _Node) -> Callable:
    fn, _, boolean = node
    if not boolean:
        return fn
    return lambda row, context: TRUE if fn(row, context) else FALSE


def _test_fn(node: _Node) -> Callable:
    fn, _, boolean = node
    if boolean:
        return fn
    return lambda row, context: effective_boolean_value(fn(row, context))


def _constant(value: object, boolean: bool = False) -> _Node:
    return (lambda row, context: value), True, boolean


def _fold(fn: Callable, constant: bool, boolean: bool = False) -> _Node:
    """Evaluate a node over constant operands once, at compile time."""
    if not constant:
        return fn, False, boolean
    try:
        return _constant(fn(None, None), boolean)
    except Exception:  # noqa: BLE001 — whatever it raises, it raises per row
        return fn, False, boolean


def _raiser(error: type, message: str) -> _Node:
    def fail(row, context):
        raise error(message)
    return fail, False, False


def _id_membership(variable: Expression, constants: Sequence[Expression],
                   slots: Mapping[Variable, int], dictionary) -> Optional[Callable]:
    """``?v`` is one of the IRI constants, by id: ``True`` / ``False`` /
    ``None`` (unbound); no closure when the operands have another shape.

    Sound for IRI and blank-node constants only: those are equal to nothing
    but the same term, whereas numeric literals are equal by value across
    lexical forms.  Private (negative) ids and constants the dictionary
    does not hold fall back to comparing terms.
    """
    if not (isinstance(variable, VariableExpr) and all(
            isinstance(constant, ConstantExpr)
            and isinstance(constant.value, (IRI, BNode))
            for constant in constants)):
        return None
    slot = slots.get(variable.variable)
    if slot is None:
        return None
    terms = frozenset(constant.value for constant in constants)
    ids = frozenset(dictionary.lookup(term) for term in terms)
    all_stored = None not in ids

    def member(row, context):
        cell = row[slot]
        if cell is None:
            return None
        if cell >= 0 and all_stored:
            return cell in ids
        return context.decode(cell) in terms

    return member


def _id_reader(expr: Expression, slots: Mapping[Variable, int],
               dictionary) -> Optional[Callable]:
    """``row -> id`` for a variable with a slot or a stored constant."""
    if isinstance(expr, VariableExpr) and expr.variable in slots:
        return operator.itemgetter(slots[expr.variable])
    if isinstance(expr, ConstantExpr) and expr.value is not None:
        term_id = dictionary.lookup(expr.value)
        if term_id is not None:
            return lambda row: term_id
    return None


def _compile(expr: Expression, slots: Mapping[Variable, int],
             dictionary) -> _Node:
    if isinstance(expr, ConstantExpr):
        return _constant(expr.value)
    if isinstance(expr, VariableExpr):
        slot = slots.get(expr.variable)
        if slot is None:
            return _constant(None)

        def variable(row, context):
            cell = row[slot]
            return None if cell is None else context.decode(cell)

        return variable, False, False
    if isinstance(expr, UnaryOp):
        operand = _compile(expr.operand, slots, dictionary)
        if expr.op == "!":
            test = _test_fn(operand)
            return _fold(lambda row, context: not test(row, context),
                         operand[1], True)
        value = _term_fn(operand)
        negate = expr.op == "-"

        def signed(row, context):
            number = term_to_number(value(row, context))
            return _make_numeric_literal(-number if negate else number)

        return _fold(signed, operand[1])
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, slots, dictionary)
    if isinstance(expr, InExpr):
        return _compile_in(expr, slots, dictionary)
    if isinstance(expr, ExistsExpr):
        pattern, negated = expr.pattern, expr.negated

        def exists(row, context):
            if context.exists_evaluator is None:
                raise QueryError("EXISTS is not available in this context")
            return context.exists_evaluator(pattern, row, slots) != negated

        return exists, False, True
    if isinstance(expr, Aggregate):
        if aggregate_variable(expr) in slots:  # grouping left it in a slot
            return _compile(VariableExpr(aggregate_variable(expr)), slots,
                            dictionary)
        return _raiser(QueryError, "aggregate used outside GROUP BY evaluation")
    if isinstance(expr, FunctionCall):
        return _compile_call(expr, slots, dictionary)
    return _raiser(QueryError,
                   f"cannot evaluate expression node {type(expr).__name__}")


def _compile_binary(expr: BinaryOp, slots: Mapping[Variable, int],
                    dictionary) -> _Node:
    op = expr.op
    left = _compile(expr.left, slots, dictionary)
    right = _compile(expr.right, slots, dictionary)
    constant = left[1] and right[1]
    if op == "&&" or op == "||":
        first, second = _test_fn(left), _test_fn(right)
        if op == "&&":
            return _fold(lambda row, context: first(row, context)
                         and second(row, context), constant, True)
        return _fold(lambda row, context: first(row, context)
                     or second(row, context), constant, True)
    if op == "=" or op == "!=":
        same = (_id_membership(expr.left, (expr.right,), slots, dictionary)
                or _id_membership(expr.right, (expr.left,), slots, dictionary))
        if same is not None:
            wanted = op == "="  # an unbound cell (None) satisfies neither
            return (lambda row, context: same(row, context) is wanted), False, True
    lhs, rhs = _term_fn(left), _term_fn(right)
    if op in _ORDERINGS and left[1] != right[1]:  # exactly one constant side
        ordered = (_against_numeric_constant(op, lhs, rhs) if right[1]
                   else _against_numeric_constant(_MIRRORED[op], rhs, lhs))
        if ordered is not None:
            return ordered, False, True
    if op in _COMPARISONS:
        def compare(row, context):
            a, b = lhs(row, context), rhs(row, context)
            return a is not None and b is not None and _compare(op, a, b)

        return _fold(compare, constant, True)
    return _fold(lambda row, context: _arithmetic(
        op, lhs(row, context), rhs(row, context)), constant)


def _against_numeric_constant(op: str, value: Callable,
                              constant: Callable) -> Optional[Callable]:
    """``value <op> constant`` for a numeric constant, its order key (the
    float :func:`_compare` would re-derive for every row) computed once;
    no closure when the constant is anything else."""
    try:
        bound = constant(None, None)
        if not (isinstance(bound, Literal) and bound.is_numeric()):
            return None
        key = float(bound.lexical)
    except Exception:  # noqa: BLE001 — whatever it raises, it raises per row
        return None
    holds = _ORDERINGS[op]

    def ordered(row, context):
        term = value(row, context)
        if term is None:
            return False
        if isinstance(term, Literal) and term.is_numeric():
            return holds(float(term.lexical), key)
        return _compare(op, term, bound)

    return ordered


def _compile_in(expr: InExpr, slots: Mapping[Variable, int],
                dictionary) -> _Node:
    negated = expr.negated
    listed = _id_membership(expr.operand, expr.choices, slots, dictionary)
    if listed is not None:
        # Unbound is in no list: ``NOT IN`` holds for it.
        return (lambda row, context: bool(listed(row, context)) != negated), False, True
    operand = _compile(expr.operand, slots, dictionary)
    choices = [_compile(choice, slots, dictionary) for choice in expr.choices]
    value = _term_fn(operand)
    members = [_term_fn(choice) for choice in choices]

    return _fold(lambda row, context: _in_list(
        value(row, context), [fn(row, context) for fn in members]) != negated,
        operand[1] and all(c[1] for c in choices), True)


def _compile_call(expr: FunctionCall, slots: Mapping[Variable, int],
                  dictionary) -> _Node:
    name = expr.name.upper()
    if name == "BOUND":
        if not expr.args or not isinstance(expr.args[0], VariableExpr):
            return _raiser(QueryError, "BOUND expects a variable")
        slot = slots.get(expr.args[0].variable)
        if slot is None:
            return _constant(False, True)
        return (lambda row, context: row[slot] is not None), False, True
    if name == "SAMETERM" and len(expr.args) == 2:
        left, right = (_id_reader(arg, slots, dictionary) for arg in expr.args)
        if left is not None and right is not None:
            # One term has one id (stored or private) per query: no decode.
            def same(row, context):
                cell = left(row)
                return cell is not None and cell == right(row)

            return same, False, True
    args = [_compile(arg, slots, dictionary) for arg in expr.args]
    constant = all(arg[1] for arg in args)
    if name == "IF":
        if len(args) != 3:
            return _raiser(QueryError, "IF expects three arguments")
        condition = _test_fn(args[0])
        then, otherwise = _term_fn(args[1]), _term_fn(args[2])
        return _fold(lambda row, context: then(row, context)
                     if condition(row, context) else otherwise(row, context),
                     constant)
    fns = [_term_fn(arg) for arg in args]
    if name == "COALESCE":
        def coalesce(row, context):
            for fn in fns:
                value = fn(row, context)
                if value is not None:
                    return value
            return None

        return _fold(coalesce, constant)
    builtin = _BUILTINS.get(name)
    if builtin is not None:
        return _fold(lambda row, context: builtin(
            [fn(row, context) for fn in fns]), constant)
    udf = expr.name  # never folded: it may have effects
    return (lambda row, context: _call_udf(
        udf, [fn(row, context) for fn in fns], context)), False, False


# ---------------------------------------------------------------------------
# Tree-walking interpreter (the reference oracle)
# ---------------------------------------------------------------------------

def evaluate_expression(expr: Expression, solution: Solution,
                        context: Optional[EvaluationContext] = None) -> Optional[Term]:
    """Evaluate ``expr`` against ``solution``; returns None for unbound errors."""
    context = context or EvaluationContext()

    if isinstance(expr, ConstantExpr):
        return expr.value

    if isinstance(expr, VariableExpr):
        return solution.get(expr.variable)

    if isinstance(expr, UnaryOp):
        value = evaluate_expression(expr.operand, solution, context)
        if expr.op == "!":
            return _boolean(not effective_boolean_value(value))
        number = term_to_number(value)
        return _make_numeric_literal(-number if expr.op == "-" else number)

    if isinstance(expr, BinaryOp):
        if expr.op == "&&":
            left = evaluate_expression(expr.left, solution, context)
            if not effective_boolean_value(left):
                return FALSE
            right = evaluate_expression(expr.right, solution, context)
            return _boolean(effective_boolean_value(right))
        if expr.op == "||":
            left = evaluate_expression(expr.left, solution, context)
            if effective_boolean_value(left):
                return TRUE
            right = evaluate_expression(expr.right, solution, context)
            return _boolean(effective_boolean_value(right))
        left = evaluate_expression(expr.left, solution, context)
        right = evaluate_expression(expr.right, solution, context)
        if expr.op in _COMPARISONS:
            if left is None or right is None:
                return FALSE
            return _boolean(_compare(expr.op, left, right))
        return _arithmetic(expr.op, left, right)

    if isinstance(expr, InExpr):
        value = evaluate_expression(expr.operand, solution, context)
        members = [evaluate_expression(choice, solution, context) for choice in expr.choices]
        return _boolean(_in_list(value, members) != expr.negated)

    if isinstance(expr, ExistsExpr):
        if context.exists_evaluator is None:
            raise QueryError("EXISTS is not available in this context")
        exists = context.exists_evaluator(expr.pattern, solution)
        return _boolean(exists != expr.negated)

    if isinstance(expr, Aggregate):
        if aggregate_variable(expr) in solution:  # grouping left it there
            return solution[aggregate_variable(expr)]
        raise QueryError("aggregate used outside GROUP BY evaluation")

    if isinstance(expr, FunctionCall):
        name = expr.name.upper()
        if name == "BOUND":
            inner = expr.args[0]
            if not isinstance(inner, VariableExpr):
                raise QueryError("BOUND expects a variable")
            return _boolean(inner.variable in solution)
        if name in ("IF",):
            condition = evaluate_expression(expr.args[0], solution, context)
            branch = expr.args[1] if effective_boolean_value(condition) else expr.args[2]
            return evaluate_expression(branch, solution, context)
        if name == "COALESCE":
            for arg in expr.args:
                value = evaluate_expression(arg, solution, context)
                if value is not None:
                    return value
            return None
        args = [evaluate_expression(arg, solution, context) for arg in expr.args]
        if name in _BUILTINS:
            return _BUILTINS[name](args)
        return _call_udf(expr.name, args, context)

    raise QueryError(f"cannot evaluate expression node {type(expr).__name__}")


def coerce_udf_result(result: object) -> Optional[Term]:
    """Coerce a UDF return value into an RDF term (dicts become literals)."""
    if result is None:
        return None
    if isinstance(result, Term):
        return result
    if isinstance(result, bool):
        return _boolean(result)
    if isinstance(result, (int, float)):
        return _make_numeric_literal(float(result))
    if isinstance(result, str):
        if result.startswith(("http://", "https://", "urn:")):
            try:
                return IRI(result)
            except Exception:
                # Not a single well-formed IRI (e.g. a comma-joined top-k
                # list from getTopKLinks): keep it as a plain literal.
                return Literal(result)
        return Literal(result)
    if isinstance(result, (dict, list, tuple, set)):
        # Dictionaries (e.g. the venue dictionary of Fig 12) flow through the
        # query as opaque values so a later UDF (getKeyValue) can consume them.
        return OpaqueValue(result)
    return Literal(str(result))
