"""SPARQL-ML parsing: user-defined predicates, TrainGML inserts, deletes.

SPARQL-ML keeps plain SPARQL's pattern-matching surface (paper §I): a
*user-defined predicate* is a variable used in the predicate position whose
model class and task description are constrained by additional triple
patterns on ``kgnet:`` properties (Fig 2 lines 8-10, Fig 10 lines 6-9).
``INSERT`` requests wrap a ``kgnet.TrainGML({...})`` call whose JSON object
describes the task and budget (Fig 8); ``DELETE`` requests select the models
to drop by the same kgnet: triple patterns (Fig 9).

This module analyses a parsed query and produces:

* :class:`UserDefinedPredicate` — one per predicate variable,
* :class:`TrainGMLRequest` — for SPARQL-ML INSERT,
* :class:`DeleteModelRequest` — for SPARQL-ML DELETE.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import DatasetError, KGNetError, SPARQLMLError, TrainingError
from repro.gml.tasks import TaskSpec, TaskType
from repro.gml.train.budget import TaskBudget
from repro.kgnet.kgmeta import ontology as O
from repro.rdf.namespace import KGNET, NamespaceManager
from repro.rdf.terms import IRI, Literal, Term, Variable, RDF_TYPE
from repro.sparql.ast import GroupPattern, ModifyUpdate, SelectQuery
from repro.sparql.parser import SPARQLParser

__all__ = [
    "UserDefinedPredicate",
    "TrainGMLRequest",
    "DeleteModelRequest",
    "SPARQLMLParser",
]


@dataclass
class UserDefinedPredicate:
    """A predicate variable bound to a GML model class in a SPARQL-ML query."""

    variable: Variable
    model_class: IRI
    task_type: str
    #: kgnet: property -> required value (TargetNode, NodeLabel, SourceNode ...).
    constraints: Dict[IRI, Term] = field(default_factory=dict)
    #: The data triple pattern the predicate appears in: (subject, object).
    subject_variable: Optional[Variable] = None
    object_variable: Optional[Variable] = None
    top_k: Optional[int] = None


@dataclass
class TrainGMLRequest:
    """Everything a SPARQL-ML INSERT asks the platform to do."""

    name: str
    task: TaskSpec
    budget: TaskBudget
    method: Optional[str] = None


@dataclass
class DeleteModelRequest:
    """A SPARQL-ML DELETE: drop every model matching the constraints."""

    model_class: IRI
    task_type: str
    constraints: Dict[IRI, Term] = field(default_factory=dict)


class SPARQLMLParser:
    """Front end for SPARQL-ML requests."""

    _TRAIN_RE = re.compile(r"TrainGML\s*\(", re.IGNORECASE)
    #: An IRI, a string literal or a ``#`` comment (group 1): a ``#`` inside
    #: an IRI or a string does not start a comment.
    _COMMENT_RE = re.compile(
        r"""<[^<>\s]*>|"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*'|(#[^\n]*)""")

    def __init__(self, namespaces: Optional[NamespaceManager] = None) -> None:
        self.namespaces = namespaces or NamespaceManager()

    # ------------------------------------------------------------------
    # Request classification
    # ------------------------------------------------------------------
    def classify(self, text: str) -> str:
        """Return one of ``"train"``, ``"delete"``, ``"select"``, ``"sparql"``.

        A ``TrainGML(`` call outside comments makes a text ``"train"`` before
        any parse (its loose JSON argument is not SPARQL).  Every other kind
        comes from the parsed request: a SELECT, or a DELETE ... WHERE, whose
        WHERE types a variable as a model class (:meth:`extract_predicates`,
        as :meth:`parse_select` and :meth:`parse_delete` read it).  Anything
        else, a text that does not parse included, is plain SPARQL.
        """
        if self._TRAIN_RE.search(self._strip_comments(text)):
            return "train"
        try:
            parsed = SPARQLParser(text, namespaces=self.namespaces).parse()
        except KGNetError:
            return "sparql"      # the plain SPARQL path reports the error
        if isinstance(parsed, SelectQuery):
            return "select" if self.extract_predicates(parsed.where) else "sparql"
        if isinstance(parsed, list) and any(
                isinstance(update, ModifyUpdate) and update.delete_template
                and self.extract_predicates(update.where) for update in parsed):
            return "delete"
        return "sparql"

    @classmethod
    def _strip_comments(cls, text: str) -> str:
        return cls._COMMENT_RE.sub(
            lambda match: "" if match.group(1) else match.group(0), text)

    # ------------------------------------------------------------------
    # SELECT queries with user-defined predicates
    # ------------------------------------------------------------------
    def parse_select(self, text: str) -> Tuple[SelectQuery, List[UserDefinedPredicate]]:
        """Parse a SPARQL-ML SELECT and extract its user-defined predicates."""
        parser = SPARQLParser(text, namespaces=self.namespaces)
        query = parser.parse_query()
        if not isinstance(query, SelectQuery):
            raise SPARQLMLError("SPARQL-ML SELECT expected a SELECT query")
        predicates = self.extract_predicates(query.where)
        return query, predicates

    def extract_predicates(self, where: GroupPattern) -> List[UserDefinedPredicate]:
        triples = where.triple_patterns()
        predicates: Dict[Variable, UserDefinedPredicate] = {}
        # Pass 1: find variables typed as a kgnet model class.
        for pattern in triples:
            if (isinstance(pattern.subject, Variable)
                    and pattern.predicate == RDF_TYPE
                    and isinstance(pattern.object, IRI)):
                task_type = O.task_type_for_classifier(pattern.object)
                if task_type is not None:
                    predicates[pattern.subject] = UserDefinedPredicate(
                        variable=pattern.subject,
                        model_class=pattern.object,
                        task_type=task_type)
        if not predicates:
            return []
        # Pass 2: collect constraints and the data triple the variable appears in.
        for pattern in triples:
            # Constraint triples: ?M kgnet:TargetNode dblp:Publication.
            if isinstance(pattern.subject, Variable) and pattern.subject in predicates:
                udp = predicates[pattern.subject]
                if pattern.predicate == RDF_TYPE:
                    continue
                if isinstance(pattern.predicate, IRI) and pattern.predicate in KGNET:
                    if pattern.predicate == O.TOPK_LINKS and \
                            isinstance(pattern.object, Literal):
                        udp.top_k = int(float(pattern.object.lexical))
                    elif isinstance(pattern.object, (IRI, Literal)):
                        udp.constraints[pattern.predicate] = pattern.object
                continue
            # Data triples: ?paper ?M ?venue.
            if isinstance(pattern.predicate, Variable) and pattern.predicate in predicates:
                udp = predicates[pattern.predicate]
                if isinstance(pattern.subject, Variable):
                    udp.subject_variable = pattern.subject
                if isinstance(pattern.object, Variable):
                    udp.object_variable = pattern.object
        return list(predicates.values())

    # ------------------------------------------------------------------
    # INSERT / TrainGML
    # ------------------------------------------------------------------
    def parse_train(self, text: str) -> TrainGMLRequest:
        """Parse a SPARQL-ML INSERT (Fig 8) into a :class:`TrainGMLRequest`."""
        stripped = self._strip_comments(text)
        match = self._TRAIN_RE.search(stripped)
        if match is None:
            raise SPARQLMLError("INSERT query does not call kgnet.TrainGML")
        payload_text = self._extract_balanced(stripped, match.end() - 1)
        return self.request_from_payload(self._parse_loose_json(payload_text))

    def request_from_payload(self, payload: Dict[str, object]) -> TrainGMLRequest:
        """Build a :class:`TrainGMLRequest` from an (already parsed) JSON object."""
        flat = {self._normalise_key(k): v for k, v in payload.items()}
        name = str(flat.get("name", "unnamed_task"))
        task_payload = flat.get("gmltask") or flat.get("task") or {}
        if not isinstance(task_payload, dict):
            raise SPARQLMLError("TrainGML payload is missing the GML-Task object")
        budget_payload = flat.get("taskbudget", flat.get("budget", {}))
        if not isinstance(budget_payload, dict):
            raise SPARQLMLError("TrainGML's Task Budget must be an object")
        try:
            task = self._task_from_payload(name, task_payload)
            budget = TaskBudget.from_json(budget_payload)
        except (ValueError, DatasetError, TrainingError) as exc:
            raise SPARQLMLError(f"invalid TrainGML payload: {exc}") from None
        task_flat = {self._normalise_key(k): v for k, v in task_payload.items()}
        method = flat.get("gmlmethod") or task_flat.get("gmlmethod")
        return TrainGMLRequest(name=name, task=task, budget=budget,
                               method=str(method).lower() if method else None)

    def _task_from_payload(self, name: str, payload: Dict[str, object]) -> TaskSpec:
        flat = {self._normalise_key(k): v for k, v in payload.items()}
        task_type_raw = str(flat.get("tasktype", "")).strip()
        task_type = self._task_type_from_string(task_type_raw)
        def iri(key: str) -> Optional[IRI]:
            value = flat.get(key)
            if value is None:
                return None
            return self._resolve_iri(str(value))
        if task_type == TaskType.NODE_CLASSIFICATION:
            return TaskSpec(task_type=task_type, name=name,
                            target_node_type=iri("targetnode"),
                            label_predicate=iri("nodelable") or iri("nodelabel"))
        if task_type == TaskType.LINK_PREDICTION:
            return TaskSpec(task_type=task_type, name=name,
                            source_node_type=iri("sourcenode"),
                            destination_node_type=iri("destinationnode"),
                            target_predicate=iri("targetedge") or iri("targetpredicate")
                            or iri("nodelable") or iri("nodelabel"))
        return TaskSpec(task_type=task_type, name=name,
                        entity_node_type=iri("targetnode") or iri("entitynode"))

    def _task_type_from_string(self, value: str) -> str:
        lowered = value.lower()
        if "classif" in lowered:
            return TaskType.NODE_CLASSIFICATION
        if "link" in lowered:
            return TaskType.LINK_PREDICTION
        if "similar" in lowered or "matching" in lowered:
            return TaskType.ENTITY_SIMILARITY
        raise SPARQLMLError(f"cannot determine task type from {value!r}")

    def _resolve_iri(self, value: str) -> IRI:
        value = value.strip().strip("<>")
        if value.startswith(("http://", "https://", "urn:")):
            return IRI(value)
        if ":" in value:
            try:
                return self.namespaces.expand(value)
            except Exception:
                pass
        return IRI(KGNET.base + value)

    @staticmethod
    def _normalise_key(key: str) -> str:
        return re.sub(r"[^a-z0-9]", "", str(key).lower())

    @staticmethod
    def _extract_balanced(text: str, open_paren_index: int) -> str:
        """Return the contents of the balanced parenthesis starting at index."""
        depth = 0
        for index in range(open_paren_index, len(text)):
            char = text[index]
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    return text[open_paren_index + 1:index]
        raise SPARQLMLError("unbalanced parentheses in TrainGML call")

    @classmethod
    def _parse_loose_json(cls, text: str) -> Dict[str, object]:
        """Parse the TrainGML argument, tolerating the paper's loose JSON.

        The paper's Fig 8 uses unquoted keys, single quotes and prefixed names
        as bare values; this normaliser quotes them before handing the text to
        the standard JSON parser.
        """
        text = text.strip()
        if not text:
            raise SPARQLMLError("TrainGML call has an empty argument")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            pass
        normalised = text
        # 'single quoted' -> "double quoted"
        normalised = re.sub(r"'([^']*)'", r'"\1"', normalised)
        # Quote unquoted keys:   Name: -> "Name":
        normalised = re.sub(r"([{,]\s*)([A-Za-z_][A-Za-z0-9_\- ]*?)\s*:",
                            lambda m: f'{m.group(1)}"{m.group(2).strip()}":', normalised)
        # Quote bare values that are not numbers / objects / already quoted,
        # e.g.  kgnet:NodeClassifier, 50GB, 1h, ModelScore.
        def quote_value(match: "re.Match") -> str:
            token = match.group(1)
            try:
                float(token)
                return match.group(0)  # plain number: leave as-is
            except ValueError:
                return f': "{token}"'
        normalised = re.sub(
            r':\s*(?!["{\[])([A-Za-z0-9][A-Za-z0-9:_\-./]*)',
            quote_value, normalised)
        try:
            return json.loads(normalised)
        except json.JSONDecodeError as exc:
            raise SPARQLMLError(f"cannot parse TrainGML JSON payload: {exc}") from exc

    # ------------------------------------------------------------------
    # DELETE
    # ------------------------------------------------------------------
    def parse_delete(self, text: str) -> DeleteModelRequest:
        """Parse a SPARQL-ML DELETE (Fig 9) into a :class:`DeleteModelRequest`."""
        parser = SPARQLParser(text, namespaces=self.namespaces)
        updates = parser.parse_update()
        for update in updates:
            where = getattr(update, "where", None)
            if where is None:
                continue
            predicates = self.extract_predicates(where)
            if predicates:
                udp = predicates[0]
                return DeleteModelRequest(model_class=udp.model_class,
                                          task_type=udp.task_type,
                                          constraints=udp.constraints)
        raise SPARQLMLError(
            "DELETE query does not constrain a kgnet model class; nothing to delete")
