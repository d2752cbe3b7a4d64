"""The SPARQL-ML Query Re-writer (paper Figs 11 and 12).

Given a parsed SPARQL-ML SELECT query, one :class:`UserDefinedPredicate`, the
model chosen by the optimizer and the plan choice, the re-writer produces an
ordinary SPARQL query in which the user-defined predicate has been replaced
by UDF calls:

* **per-instance plan** (Fig 11) — the predicate's object variable becomes a
  projection expression ``sql:UDFS.getNodeClass(<model>, ?subject)``; the RDF
  engine ends up issuing one UDF (HTTP) call per result row,
* **dictionary plan** (Fig 12) — an inner sub-select issues a single UDF call
  that materialises the full prediction dictionary
  (``sql:UDFS.getNodeClasses(<model>)`` — a function of its own, so which
  plan a call belongs to is the rewriter's decision, never a guess from its
  argument), and the outer query looks rows up with
  ``sql:UDFS.getKeyValue(?dict, ?subject)``.

The rewriter works AST to AST: the SPARQL-ML service evaluates
:attr:`RewrittenQuery.query` as it is.  :attr:`RewrittenQuery.text` is the
same query as SPARQL text (:mod:`repro.sparql.serializer`), executable by the
plain SPARQL engine with the UDFs registered; it is rendered when first
asked for, not by the rewrite.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import List

from repro.exceptions import SPARQLMLError
from repro.gml.tasks import TaskType
from repro.kgnet.sparqlml.optimizer import PlanChoice
from repro.kgnet.sparqlml.parser import UserDefinedPredicate
from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql.ast import (
    BGP,
    ConstantExpr,
    FunctionCall,
    GroupPattern,
    SelectItem,
    SelectQuery,
    SubSelectPattern,
    TriplePattern,
    VariableExpr,
)
from repro.sparql.serializer import serialize_select

__all__ = ["RewrittenQuery", "SPARQLMLRewriter"]

# Names of the UDFs as they appear in rewritten queries (Virtuoso-style).
UDF_GET_NODE_CLASS = "sql:UDFS.getNodeClass"
UDF_GET_NODE_CLASSES = "sql:UDFS.getNodeClasses"
UDF_GET_KEY_VALUE = "sql:UDFS.getKeyValue"
UDF_GET_LINK_PRED = "sql:UDFS.getLinkPred"
UDF_GET_TOPK_LINKS = "sql:UDFS.getTopKLinks"
UDF_GET_SIMILAR = "sql:UDFS.getSimilarEntities"


@dataclass
class RewrittenQuery:
    """A rewritten SPARQL query plus how it was produced."""

    query: SelectQuery
    plan: str
    model_uri: IRI
    predicate_variable: str

    @cached_property
    def text(self) -> str:
        return serialize_select(self.query)

    def as_dict(self) -> dict:
        return {
            "plan": self.plan,
            "model_uri": self.model_uri.value,
            "predicate_variable": self.predicate_variable,
            "query": self.text,
        }


class SPARQLMLRewriter:
    """Rewrites SPARQL-ML SELECT queries into plain SPARQL + UDF calls."""

    def rewrite(self, query: SelectQuery, predicate: UserDefinedPredicate,
                model_uri: IRI, plan: PlanChoice) -> RewrittenQuery:
        """Produce the rewritten query for one user-defined predicate."""
        if predicate.subject_variable is None:
            raise SPARQLMLError(
                f"user-defined predicate {predicate.variable.n3()} never appears "
                f"in a data triple pattern")
        # A shallow copy: the rewrite replaces the WHERE group and the SELECT
        # list and leaves every pattern it keeps as it is.
        rewritten = copy.copy(query)
        rewritten.where = self._strip_predicate_triples(query.where, predicate)

        if predicate.task_type == TaskType.NODE_CLASSIFICATION:
            if plan.plan == "dictionary":
                self._apply_dictionary_plan(rewritten, predicate, model_uri)
            else:
                self._apply_per_instance_plan(rewritten, predicate, model_uri)
        elif predicate.task_type == TaskType.LINK_PREDICTION:
            self._apply_link_prediction_plan(rewritten, predicate, model_uri)
        else:
            self._apply_similarity_plan(rewritten, predicate, model_uri)

        return RewrittenQuery(query=rewritten, plan=plan.plan,
                              model_uri=model_uri,
                              predicate_variable=predicate.variable.n3())

    # ------------------------------------------------------------------
    # Pattern surgery
    # ------------------------------------------------------------------
    def _strip_predicate_triples(self, where: GroupPattern,
                                 predicate: UserDefinedPredicate) -> GroupPattern:
        """Remove the UDP's constraint triples and its data triple pattern."""
        variable = predicate.variable
        new_elements = []
        for element in where.elements:
            if isinstance(element, BGP):
                kept = [t for t in element.triples
                        if not self._mentions_predicate_variable(t, variable)]
                if kept:
                    new_elements.append(BGP(kept))
            else:
                new_elements.append(element)
        return GroupPattern(new_elements)

    @staticmethod
    def _mentions_predicate_variable(pattern: TriplePattern,
                                     variable: Variable) -> bool:
        return pattern.subject == variable or pattern.predicate == variable \
            or pattern.object == variable

    def _replace_projection(self, query: SelectQuery, output_variable: Variable,
                            expression: FunctionCall) -> None:
        """Bind the UDP's object variable via a projection expression."""
        replaced = False
        new_items: List[SelectItem] = []
        for item in query.select_items:
            if isinstance(item.expression, VariableExpr) and \
                    item.expression.variable == output_variable and item.alias is None:
                new_items.append(SelectItem(expression=expression,
                                            alias=output_variable))
                replaced = True
            else:
                new_items.append(item)
        if not replaced:
            new_items.append(SelectItem(expression=expression, alias=output_variable))
        query.select_items = new_items
        query.select_all = False

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _apply_per_instance_plan(self, query: SelectQuery,
                                 predicate: UserDefinedPredicate,
                                 model_uri: IRI) -> None:
        output = predicate.object_variable or Variable("prediction")
        call = FunctionCall(UDF_GET_NODE_CLASS, (
            ConstantExpr(model_uri),
            VariableExpr(predicate.subject_variable),
        ))
        self._replace_projection(query, output, call)

    def _apply_dictionary_plan(self, query: SelectQuery,
                               predicate: UserDefinedPredicate,
                               model_uri: IRI) -> None:
        output = predicate.object_variable or Variable("prediction")
        dictionary_variable = Variable(f"{output.name}_dic")
        # Inner sub-select: one UDF call materialising the whole dictionary.
        inner_call = FunctionCall(UDF_GET_NODE_CLASSES, (ConstantExpr(model_uri),))
        inner = SelectQuery(
            select_items=[SelectItem(expression=inner_call, alias=dictionary_variable)],
            where=GroupPattern([]),
            prefixes={},
        )
        query.where.elements.append(SubSelectPattern(inner))
        # Outer lookup per row.
        lookup = FunctionCall(UDF_GET_KEY_VALUE, (
            VariableExpr(dictionary_variable),
            VariableExpr(predicate.subject_variable),
        ))
        self._replace_projection(query, output, lookup)

    def _apply_link_prediction_plan(self, query: SelectQuery,
                                    predicate: UserDefinedPredicate,
                                    model_uri: IRI) -> None:
        output = predicate.object_variable or Variable("prediction")
        if predicate.top_k and predicate.top_k > 1:
            call = FunctionCall(UDF_GET_TOPK_LINKS, (
                ConstantExpr(model_uri),
                VariableExpr(predicate.subject_variable),
                ConstantExpr(Literal(int(predicate.top_k))),
            ))
        else:
            call = FunctionCall(UDF_GET_LINK_PRED, (
                ConstantExpr(model_uri),
                VariableExpr(predicate.subject_variable),
            ))
        self._replace_projection(query, output, call)

    def _apply_similarity_plan(self, query: SelectQuery,
                               predicate: UserDefinedPredicate,
                               model_uri: IRI) -> None:
        output = predicate.object_variable or Variable("similar")
        call = FunctionCall(UDF_GET_SIMILAR, (
            ConstantExpr(model_uri),
            VariableExpr(predicate.subject_variable),
            ConstantExpr(Literal(int(predicate.top_k or 10))),
        ))
        self._replace_projection(query, output, call)
