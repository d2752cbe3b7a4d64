"""Recursive-descent parser for the supported SPARQL subset.

The grammar covers what the KGNet platform needs (paper Figs 2, 8-12):

* ``SELECT`` (with projection expressions, ``DISTINCT``, sub-``SELECT``,
  ``FILTER``, ``OPTIONAL``, ``UNION``, ``MINUS``, ``BIND``, ``VALUES``,
  ``GROUP BY`` + aggregates, ``ORDER BY``, ``LIMIT``/``OFFSET``),
* ``ASK`` and ``CONSTRUCT``,
* SPARQL UPDATE: ``INSERT DATA``, ``DELETE DATA``, ``INSERT/DELETE ...
  WHERE``, ``DELETE WHERE``, ``CLEAR`` and the Virtuoso-style
  ``INSERT INTO <g> { ... } WHERE { ... }`` used by the paper's Fig 8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ParseError, UnsupportedFeatureError
from repro.rdf.io import _unescape
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Term,
    Triple,
    Variable,
    RDF_TYPE,
    XSD_BOOLEAN,
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
    ConstantExpr,
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
    OptionalPattern,
    OrderCondition,
    PathExpr,
    PathPattern,
    Query,
    SequencePath,
    SelectItem,
    SelectQuery,
    SubSelectPattern,
    TriplePattern,
    UnaryOp,
    UnionPattern,
    Update,
    ValuesPattern,
    VariableExpr,
)
from repro.sparql.tokenizer import Token, tokenize

__all__ = ["SPARQLParser", "parse_query", "parse_update", "parse"]

_AGGREGATE_NAMES = {"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"}


class SPARQLParser:
    """Parses one SPARQL query or update request."""

    def __init__(self, text: str,
                 namespaces: Optional[NamespaceManager] = None) -> None:
        self.text = text
        self.tokens: List[Token] = tokenize(text)
        self.pos = 0
        self.namespaces = (namespaces or NamespaceManager()).copy()
        self.prefixes: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, line=token.line, column=token.column)

    def _expect_keyword(self, *names: str) -> Token:
        token = self._next()
        if token.kind != "KEYWORD" or token.value not in names:
            raise self._error(f"expected {' or '.join(names)}, got {token.value!r}", token)
        return token

    def _expect_punct(self, value: str) -> Token:
        token = self._next()
        if token.kind not in ("PUNCT", "OP") or token.value != value:
            raise self._error(f"expected {value!r}, got {token.value!r}", token)
        return token

    def _at_punct(self, value: str) -> bool:
        token = self._peek()
        return token.kind in ("PUNCT", "OP") and token.value == value

    def _at_keyword(self, *names: str, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token.kind == "KEYWORD" and token.value in names

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse(self) -> Union[Query, List[Update]]:
        """Parse either a query or an update request."""
        self._parse_prologue()
        if self._at_keyword("SELECT", "ASK", "CONSTRUCT", "DESCRIBE"):
            return self.parse_query_body()
        return self.parse_update_body()

    def parse_query(self) -> Query:
        self._parse_prologue()
        return self.parse_query_body()

    def parse_update(self) -> List[Update]:
        self._parse_prologue()
        return self.parse_update_body()

    # ------------------------------------------------------------------
    # Prologue
    # ------------------------------------------------------------------
    def _parse_prologue(self) -> None:
        while self._at_keyword("PREFIX", "BASE"):
            keyword = self._next()
            if keyword.value == "PREFIX":
                name_token = self._next()
                if name_token.kind != "QNAME":
                    raise self._error("expected prefix name after PREFIX", name_token)
                prefix = name_token.value.rstrip(":")
                iri_token = self._next()
                if iri_token.kind != "IRI":
                    raise self._error("expected IRI after prefix name", iri_token)
                base = iri_token.value[1:-1]
                self.namespaces.bind(prefix, base)
                self.prefixes[prefix] = base
            else:
                iri_token = self._next()
                if iri_token.kind != "IRI":
                    raise self._error("expected IRI after BASE", iri_token)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def parse_query_body(self) -> Query:
        if self._at_keyword("SELECT"):
            return self._parse_select()
        if self._at_keyword("ASK"):
            return self._parse_ask()
        if self._at_keyword("CONSTRUCT"):
            return self._parse_construct()
        raise UnsupportedFeatureError(
            f"query form {self._peek().value!r} is not supported")

    def _parse_select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = False
        reduced = False
        if self._at_keyword("DISTINCT"):
            self._next()
            distinct = True
        elif self._at_keyword("REDUCED"):
            self._next()
            reduced = True
        select_all = False
        items: List[SelectItem] = []
        if self._at_punct("*"):
            self._next()
            select_all = True
        else:
            while not (self._at_keyword("WHERE", "FROM") or self._at_punct("{")
                       or self._peek().kind == "EOF"):
                items.append(self._parse_select_item())
            if not items:
                raise self._error("SELECT requires at least one projection")
        from_graphs: List[IRI] = []
        while self._at_keyword("FROM"):
            self._next()
            if self._at_keyword("NAMED"):
                self._next()
            from_graphs.append(self._parse_iri())
        if self._at_keyword("WHERE"):
            self._next()
        where = self._parse_group_pattern()
        query = SelectQuery(
            select_items=items,
            where=where,
            select_all=select_all,
            distinct=distinct,
            reduced=reduced,
            prefixes=dict(self.prefixes),
            from_graphs=from_graphs,
        )
        self._parse_solution_modifiers(query)
        return query

    def _parse_select_item(self) -> SelectItem:
        if self._at_punct("("):
            self._next()
            expression = self._parse_expression()
            self._expect_keyword("AS")
            alias = self._parse_variable()
            self._expect_punct(")")
            return SelectItem(expression=expression, alias=alias)
        expression = self._parse_expression()
        alias: Optional[Variable] = None
        if self._at_keyword("AS"):
            self._next()
            alias = self._parse_variable()
        if alias is None and not isinstance(expression, VariableExpr):
            raise self._error("projection expressions require an AS ?alias")
        return SelectItem(expression=expression, alias=alias)

    def _parse_solution_modifiers(self, query: SelectQuery) -> None:
        if self._at_keyword("GROUP"):
            self._next()
            self._expect_keyword("BY")
            while True:
                query.group_by.append(self._parse_expression())
                if (self._at_keyword("HAVING", "ORDER", "LIMIT", "OFFSET")
                        or self._peek().kind == "EOF" or self._at_punct("}")):
                    break
        if self._at_keyword("HAVING"):
            self._next()
            query.having.append(self._parse_expression())
        if self._at_keyword("ORDER"):
            self._next()
            self._expect_keyword("BY")
            while True:
                descending = False
                if self._at_keyword("ASC"):
                    self._next()
                    self._expect_punct("(")
                    expr = self._parse_expression()
                    self._expect_punct(")")
                elif self._at_keyword("DESC"):
                    self._next()
                    descending = True
                    self._expect_punct("(")
                    expr = self._parse_expression()
                    self._expect_punct(")")
                else:
                    expr = self._parse_expression()
                query.order_by.append(OrderCondition(expr, descending))
                if (self._at_keyword("LIMIT", "OFFSET") or self._peek().kind == "EOF"
                        or self._at_punct("}")):
                    break
        while self._at_keyword("LIMIT", "OFFSET"):
            keyword = self._next()
            value_token = self._next()
            if value_token.kind != "NUMBER":
                raise self._error("expected an integer", value_token)
            value = int(float(value_token.value))
            if keyword.value == "LIMIT":
                query.limit = value
            else:
                query.offset = value

    def _parse_ask(self) -> AskQuery:
        self._expect_keyword("ASK")
        if self._at_keyword("WHERE"):
            self._next()
        where = self._parse_group_pattern()
        return AskQuery(where=where, prefixes=dict(self.prefixes))

    def _parse_construct(self) -> ConstructQuery:
        self._expect_keyword("CONSTRUCT")
        template = self._parse_triples_template()
        if self._at_keyword("WHERE"):
            self._next()
        where = self._parse_group_pattern()
        query = ConstructQuery(template=template, where=where,
                               prefixes=dict(self.prefixes))
        while self._at_keyword("LIMIT"):
            self._next()
            token = self._next()
            query.limit = int(float(token.value))
        return query

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def parse_update_body(self) -> List[Update]:
        updates: List[Update] = []
        while self._peek().kind != "EOF":
            if self._at_punct(";"):
                self._next()
                continue
            self._parse_prologue()
            if self._peek().kind == "EOF":
                break
            updates.append(self._parse_single_update())
        if not updates:
            raise self._error("empty update request")
        return updates

    def _parse_single_update(self) -> Update:
        if self._at_keyword("CLEAR", "DROP"):
            self._next()
            silent = False
            if self._at_keyword("SILENT"):
                self._next()
                silent = True
            graph: Optional[IRI] = None
            if self._at_keyword("GRAPH"):
                self._next()
                graph = self._parse_iri()
            elif self._at_keyword("DEFAULT", "ALL"):
                self._next()
            return ClearUpdate(graph=graph, silent=silent)

        with_graph: Optional[IRI] = None
        if self._at_keyword("WITH"):
            self._next()
            with_graph = self._parse_iri()

        if self._at_keyword("INSERT"):
            self._next()
            if self._at_keyword("DATA"):
                self._next()
                graph, triples = self._parse_quad_data()
                return InsertDataUpdate(triples=triples, graph=graph or with_graph,
                                        prefixes=dict(self.prefixes))
            if self._at_keyword("INTO"):
                # Virtuoso-style: INSERT INTO <g> { template } [WHERE { ... }]
                self._next()
                graph = self._parse_iri()
            else:
                graph = with_graph
            template = self._parse_triples_template()
            if self._at_keyword("WHERE"):
                self._next()
                where = self._parse_group_pattern()
                return ModifyUpdate(delete_template=[], insert_template=template,
                                    where=where, graph=graph,
                                    prefixes=dict(self.prefixes))
            ground = [t.as_triple() for t in template if t.as_triple().is_ground()]
            return InsertDataUpdate(triples=ground, graph=graph,
                                    prefixes=dict(self.prefixes))

        if self._at_keyword("DELETE"):
            self._next()
            if self._at_keyword("DATA"):
                self._next()
                graph, triples = self._parse_quad_data()
                return DeleteDataUpdate(triples=triples, graph=graph or with_graph,
                                        prefixes=dict(self.prefixes))
            if self._at_keyword("WHERE"):
                # DELETE WHERE { pattern }: pattern doubles as delete template.
                self._next()
                where = self._parse_group_pattern()
                if _group_contains_path(where):
                    raise UnsupportedFeatureError(
                        "property paths are not allowed in a DELETE WHERE "
                        "template; use DELETE {...} WHERE {...} instead")
                template = [TriplePattern(*t) for t in where.triple_patterns()]
                return ModifyUpdate(delete_template=template, insert_template=[],
                                    where=where, graph=with_graph,
                                    prefixes=dict(self.prefixes))
            delete_template = self._parse_triples_template()
            insert_template: List[TriplePattern] = []
            if self._at_keyword("INSERT"):
                self._next()
                insert_template = self._parse_triples_template()
            self._expect_keyword("WHERE")
            where = self._parse_group_pattern()
            return ModifyUpdate(delete_template=delete_template,
                                insert_template=insert_template,
                                where=where, graph=with_graph,
                                prefixes=dict(self.prefixes))

        raise UnsupportedFeatureError(
            f"update form {self._peek().value!r} is not supported")

    def _parse_quad_data(self) -> Tuple[Optional[IRI], List[Triple]]:
        graph: Optional[IRI] = None
        self._expect_punct("{")
        if self._at_keyword("GRAPH"):
            self._next()
            graph = self._parse_iri()
            triples = [tp.as_triple() for tp in self._parse_triples_block(braced=True)]
            self._expect_punct("}")
            return graph, triples
        triples = [tp.as_triple() for tp in self._parse_triples_block(braced=False)]
        self._expect_punct("}")
        return graph, triples

    def _parse_triples_template(self) -> List[TriplePattern]:
        self._expect_punct("{")
        triples = self._parse_triples_block(braced=False)
        self._expect_punct("}")
        return triples

    def _parse_triples_block(self, braced: bool) -> List[TriplePattern]:
        if braced:
            self._expect_punct("{")
        triples: List[TriplePattern] = []
        while not self._at_punct("}") and self._peek().kind != "EOF":
            # Templates are ground-able patterns: property paths are rejected.
            triples.extend(self._parse_triples_same_subject(allow_paths=False))
            if self._at_punct("."):
                self._next()
        if braced:
            self._expect_punct("}")
        return triples

    # ------------------------------------------------------------------
    # Graph patterns
    # ------------------------------------------------------------------
    def _parse_group_pattern(self) -> GroupPattern:
        self._expect_punct("{")
        group = GroupPattern()
        current_bgp: Optional[BGP] = None

        def flush() -> None:
            nonlocal current_bgp
            if current_bgp is not None and current_bgp.triples:
                group.elements.append(current_bgp)
            current_bgp = None

        while not self._at_punct("}"):
            token = self._peek()
            if token.kind == "EOF":
                raise self._error("unterminated group pattern")
            if self._at_punct("{"):
                # Either a sub-SELECT or a nested group (possibly UNION branch).
                if self._at_keyword("SELECT", offset=1):
                    flush()
                    self._next()
                    subquery = self._parse_select()
                    self._expect_punct("}")
                    group.elements.append(SubSelectPattern(subquery))
                else:
                    flush()
                    first = self._parse_group_pattern()
                    if self._at_keyword("UNION"):
                        alternatives = [first]
                        while self._at_keyword("UNION"):
                            self._next()
                            alternatives.append(self._parse_group_pattern())
                        group.elements.append(UnionPattern(alternatives))
                    else:
                        # Inline nested group: splice its elements.
                        group.elements.extend(first.elements)
                continue
            if self._at_keyword("FILTER"):
                self._next()
                flush()
                expression = self._parse_bracketted_or_function_expression()
                group.elements.append(FilterPattern(expression))
                if self._at_punct("."):
                    self._next()
                continue
            if self._at_keyword("OPTIONAL"):
                self._next()
                flush()
                group.elements.append(OptionalPattern(self._parse_group_pattern()))
                if self._at_punct("."):
                    self._next()
                continue
            if self._at_keyword("MINUS"):
                self._next()
                flush()
                group.elements.append(MinusPattern(self._parse_group_pattern()))
                continue
            if self._at_keyword("BIND"):
                self._next()
                flush()
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_keyword("AS")
                variable = self._parse_variable()
                self._expect_punct(")")
                group.elements.append(BindPattern(expression, variable))
                if self._at_punct("."):
                    self._next()
                continue
            if self._at_keyword("VALUES"):
                self._next()
                flush()
                group.elements.append(self._parse_values())
                continue
            if self._at_keyword("GRAPH"):
                # GRAPH <g> { ... } — evaluated against the union graph in this
                # reproduction; the named-graph scoping is handled by the endpoint.
                self._next()
                self._parse_term(position="object")
                nested = self._parse_group_pattern()
                flush()
                group.elements.extend(nested.elements)
                continue
            # Otherwise: triples (possibly with property-path predicates).
            for item in self._parse_triples_same_subject():
                if isinstance(item, PathPattern):
                    flush()
                    group.elements.append(item)
                else:
                    if current_bgp is None:
                        current_bgp = BGP()
                    current_bgp.triples.append(item)
            if self._at_punct("."):
                self._next()
        flush()
        self._expect_punct("}")
        return group

    def _parse_values(self) -> ValuesPattern:
        variables: List[Variable] = []
        rows: List[List[Optional[Term]]] = []
        if self._at_punct("("):
            self._next()
            while not self._at_punct(")"):
                variables.append(self._parse_variable())
            self._next()
            self._expect_punct("{")
            while not self._at_punct("}"):
                self._expect_punct("(")
                row: List[Optional[Term]] = []
                while not self._at_punct(")"):
                    if self._at_keyword("UNDEF"):
                        self._next()
                        row.append(None)
                    else:
                        row.append(self._parse_term(position="object"))
                self._next()
                rows.append(row)
            self._next()
        else:
            variables.append(self._parse_variable())
            self._expect_punct("{")
            while not self._at_punct("}"):
                if self._at_keyword("UNDEF"):
                    self._next()
                    rows.append([None])
                else:
                    rows.append([self._parse_term(position="object")])
            self._next()
        return ValuesPattern(variables, rows)

    def _parse_triples_same_subject(
            self, allow_paths: bool = True,
    ) -> List[Union[TriplePattern, PathPattern]]:
        subject = self._parse_term(position="subject")
        triples: List[Union[TriplePattern, PathPattern]] = []
        while True:
            predicate = self._parse_verb(allow_paths)
            while True:
                obj = self._parse_term(position="object")
                if isinstance(predicate, PathExpr):
                    triples.append(PathPattern(subject, predicate, obj))
                else:
                    triples.append(TriplePattern(subject, predicate, obj))
                if self._at_punct(","):
                    self._next()
                    continue
                break
            if self._at_punct(";"):
                self._next()
                if self._at_punct(".") or self._at_punct("}"):
                    break
                continue
            break
        return triples

    def _parse_verb(self, allow_paths: bool) -> Union[Term, PathExpr]:
        """Parse the predicate position: a variable, an IRI, or a path."""
        token = self._peek()
        if token.kind == "VAR":
            self._next()
            return Variable(token.value)
        if not allow_paths:
            return self._parse_term(position="predicate")
        path = self._parse_path()
        if isinstance(path, LinkPath):
            # A trivial path is a plain predicate: keep the seed TriplePattern
            # shape so plan caching and the SPARQL-ML rewriter see no change.
            return path.iri
        return path

    # ------------------------------------------------------------------
    # Property paths (SPARQL 1.1 section 9)
    # ------------------------------------------------------------------
    def _parse_path(self) -> PathExpr:
        branches = [self._parse_path_sequence()]
        while self._at_punct("|"):
            self._next()
            branches.append(self._parse_path_sequence())
        if len(branches) == 1:
            return branches[0]
        return AlternativePath(tuple(branches))

    def _parse_path_sequence(self) -> PathExpr:
        steps = [self._parse_path_elt_or_inverse()]
        while self._at_punct("/"):
            self._next()
            steps.append(self._parse_path_elt_or_inverse())
        if len(steps) == 1:
            return steps[0]
        return SequencePath(tuple(steps))

    def _parse_path_elt_or_inverse(self) -> PathExpr:
        if self._at_punct("^"):
            self._next()
            return InversePath(self._parse_path_elt())
        return self._parse_path_elt()

    def _parse_path_elt(self) -> PathExpr:
        primary = self._parse_path_primary()
        token = self._peek()
        if token.kind == "OP" and token.value in ("*", "+", "?"):
            self._next()
            return MulPath(primary, token.value)
        return primary

    def _parse_path_primary(self) -> PathExpr:
        token = self._peek()
        if self._at_punct("("):
            self._next()
            path = self._parse_path()
            self._expect_punct(")")
            return path
        if self._at_punct("!"):
            self._next()
            return self._parse_negated_property_set()
        if token.kind == "KEYWORD" and token.value == "A":
            self._next()
            return LinkPath(RDF_TYPE)
        if token.kind in ("IRI", "QNAME"):
            return LinkPath(self._parse_iri())
        raise self._error(
            f"expected a predicate or property path, got {token.value!r}", token)

    def _parse_negated_property_set(self) -> NegatedPath:
        forward: List[IRI] = []
        inverse: List[IRI] = []

        def one_member() -> None:
            if self._at_punct("^"):
                self._next()
                inverse.append(self._parse_path_iri_or_a())
            else:
                forward.append(self._parse_path_iri_or_a())

        if self._at_punct("("):
            self._next()
            while not self._at_punct(")"):
                one_member()
                if self._at_punct("|"):
                    self._next()
                elif not self._at_punct(")"):
                    raise self._error("expected '|' or ')' in negated property set")
            self._next()
        else:
            one_member()
        return NegatedPath(tuple(forward), tuple(inverse))

    def _parse_path_iri_or_a(self) -> IRI:
        if self._at_keyword("A"):
            self._next()
            return RDF_TYPE
        return self._parse_iri()

    # ------------------------------------------------------------------
    # Terms
    # ------------------------------------------------------------------
    def _parse_iri(self) -> IRI:
        token = self._next()
        if token.kind == "IRI":
            return IRI(token.value[1:-1])
        if token.kind == "QNAME":
            return self._expand_qname(token)
        raise self._error("expected an IRI", token)

    def _expand_qname(self, token: Token) -> IRI:
        try:
            return self.namespaces.expand(token.value)
        except Exception:
            # Unknown prefix: keep the raw name inside a synthetic URN so the
            # SPARQL-ML layer can still recognise UDF names like sql:UDFS.x.
            prefix, local = token.value.split(":", 1)
            return IRI(f"urn:prefix:{prefix}:{local}")

    def _parse_variable(self) -> Variable:
        token = self._next()
        if token.kind != "VAR":
            raise self._error("expected a variable", token)
        return Variable(token.value)

    def _parse_term(self, position: str) -> Term:
        token = self._next()
        if token.kind == "VAR":
            return Variable(token.value)
        if token.kind == "IRI":
            return IRI(token.value[1:-1])
        if token.kind == "QNAME":
            return self._expand_qname(token)
        if token.kind == "KEYWORD" and token.value == "A":
            if position != "predicate":
                raise self._error("'a' is only valid as a predicate", token)
            return RDF_TYPE
        if token.kind == "BNODE":
            return BNode(token.value[2:])
        if token.kind == "STRING":
            lexical = token.value[1:-1]
            if "\\" in lexical:
                lexical = _unescape(lexical, line=token.line)
            nxt = self._peek()
            if nxt.kind == "LANGTAG":
                self._next()
                return Literal(lexical, language=nxt.value[1:])
            if nxt.kind == "DOUBLE_CARET":
                self._next()
                datatype = self._parse_iri()
                return Literal(lexical, datatype=datatype)
            return Literal(lexical)
        if token.kind == "NUMBER":
            if any(ch in token.value for ch in ".eE"):
                return Literal(token.value, datatype=XSD_DOUBLE)
            return Literal(token.value, datatype=XSD_INTEGER)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            return Literal(token.value.lower(), datatype=XSD_BOOLEAN)
        raise self._error(f"unexpected token {token.value!r} in {position} position",
                          token)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_bracketted_or_function_expression(self) -> Expression:
        if self._at_punct("("):
            self._next()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        return self._parse_expression()

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._peek().kind == "OP" and self._peek().value == "||":
            self._next()
            right = self._parse_and()
            left = BinaryOp("||", left, right)
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self._peek().kind == "OP" and self._peek().value == "&&":
            self._next()
            right = self._parse_relational()
            left = BinaryOp("&&", left, right)
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            right = self._parse_additive()
            return BinaryOp(token.value, left, right)
        if self._at_keyword("NOT") and self._at_keyword("IN", offset=1):
            self._next()
            self._next()
            choices = self._parse_expression_list()
            return InExpr(left, tuple(choices), negated=True)
        if self._at_keyword("IN"):
            self._next()
            choices = self._parse_expression_list()
            return InExpr(left, tuple(choices), negated=False)
        return left

    def _parse_expression_list(self) -> List[Expression]:
        self._expect_punct("(")
        choices: List[Expression] = []
        while not self._at_punct(")"):
            choices.append(self._parse_expression())
            if self._at_punct(","):
                self._next()
        self._next()
        return choices

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self._peek().kind == "OP" and self._peek().value in ("+", "-"):
            op = self._next().value
            right = self._parse_multiplicative()
            left = BinaryOp(op, left, right)
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self._peek().kind == "OP" and self._peek().value in ("*", "/"):
            op = self._next().value
            right = self._parse_unary()
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "OP" and token.value in ("!", "-", "+"):
            self._next()
            return UnaryOp(token.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if self._at_punct("("):
            self._next()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "VAR":
            self._next()
            return VariableExpr(Variable(token.value))
        if token.kind == "KEYWORD" and token.value in _AGGREGATE_NAMES:
            return self._parse_aggregate()
        if token.kind == "KEYWORD" and token.value == "NOT" and \
                self._at_keyword("EXISTS", offset=1):
            self._next()
            self._next()
            return ExistsExpr(self._parse_group_pattern(), negated=True)
        if token.kind == "KEYWORD" and token.value == "EXISTS":
            self._next()
            return ExistsExpr(self._parse_group_pattern(), negated=False)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self._next()
            return ConstantExpr(Literal(token.value.lower(), datatype=XSD_BOOLEAN))
        if token.kind == "NAME":
            # Builtin call such as REGEX(...), STR(...), BOUND(...).
            self._next()
            if self._at_punct("("):
                args = self._parse_call_arguments()
                return FunctionCall(token.value.upper(), tuple(args))
            raise self._error(f"unexpected identifier {token.value!r}", token)
        if token.kind in ("IRI", "QNAME"):
            # Either a constant IRI or a (user-defined) function call.
            self._next()
            if token.kind == "IRI":
                iri = IRI(token.value[1:-1])
                name = iri.value
            else:
                iri = self._expand_qname(token)
                name = token.value
            if self._at_punct("("):
                args = self._parse_call_arguments()
                return FunctionCall(name, tuple(args))
            return ConstantExpr(iri)
        if token.kind in ("STRING", "NUMBER"):
            return ConstantExpr(self._parse_term(position="object"))
        raise self._error(f"unexpected token {token.value!r} in expression", token)

    def _parse_call_arguments(self) -> List[Expression]:
        self._expect_punct("(")
        args: List[Expression] = []
        while not self._at_punct(")"):
            if self._at_keyword("DISTINCT"):
                self._next()
                continue
            args.append(self._parse_expression())
            if self._at_punct(","):
                self._next()
        self._next()
        return args

    def _parse_aggregate(self) -> Aggregate:
        name = self._next().value
        self._expect_punct("(")
        distinct = False
        if self._at_keyword("DISTINCT"):
            self._next()
            distinct = True
        expr: Optional[Expression] = None
        separator = " "
        if self._at_punct("*"):
            self._next()
        else:
            expr = self._parse_expression()
        if self._at_punct(";"):
            self._next()
            self._expect_keyword("SEPARATOR")
            self._expect_punct("=")
            sep_token = self._next()
            separator = sep_token.value[1:-1]
        self._expect_punct(")")
        return Aggregate(name=name, expr=expr, distinct=distinct, separator=separator)


# ---------------------------------------------------------------------------
# Module-level helpers
# ---------------------------------------------------------------------------

def _group_contains_path(group: GroupPattern) -> bool:
    for element in group.elements:
        if isinstance(element, PathPattern):
            return True
        if isinstance(element, (OptionalPattern, MinusPattern)):
            if _group_contains_path(element.pattern):
                return True
        if isinstance(element, UnionPattern):
            if any(_group_contains_path(alt) for alt in element.alternatives):
                return True
    return False


def parse_query(text: str, namespaces: Optional[NamespaceManager] = None) -> Query:
    """Parse a SPARQL query string into its AST."""
    return SPARQLParser(text, namespaces=namespaces).parse_query()


def parse_update(text: str) -> List[Update]:
    """Parse a SPARQL UPDATE request into a list of update operations."""
    return SPARQLParser(text).parse_update()


def parse(text: str,
          namespaces: Optional[NamespaceManager] = None) -> Union[Query, List[Update]]:
    """Parse either a query or an update request."""
    return SPARQLParser(text, namespaces=namespaces).parse()
