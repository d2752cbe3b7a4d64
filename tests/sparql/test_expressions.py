"""Unit tests for FILTER expressions, built-in functions and aggregates."""

import pytest

from repro.exceptions import QueryError, UDFError
from repro.rdf import DBLP, Graph, IRI, Literal, Variable
from repro.sparql import SPARQLEndpoint, Solution, UDFRegistry
from repro.sparql.functions import (
    OpaqueValue,
    effective_boolean_value,
    evaluate_expression,
    term_to_number,
    EvaluationContext,
    TRUE,
    FALSE,
)
from repro.sparql.parser import SPARQLParser

PREFIXES = "PREFIX dblp: <https://www.dblp.org/>\n"


def _expr(text: str):
    """Parse a standalone expression by wrapping it in a FILTER."""
    parser = SPARQLParser(f"SELECT ?x WHERE {{ ?x ?p ?o . FILTER({text}) }}")
    query = parser.parse_query()
    return query.where.elements[1].expression


def _eval(text: str, bindings=None, udfs=None):
    solution = Solution(bindings or {})
    context = EvaluationContext(udfs=udfs)
    return evaluate_expression(_expr(text), solution, context)


@pytest.fixture()
def numbers_endpoint():
    graph = Graph()
    for index, year in enumerate([1999, 2005, 2010, 2020, 2020]):
        paper = DBLP[f"p{index}"]
        graph.add(paper, DBLP["year"], Literal(year))
        graph.add(paper, DBLP["venue"], DBLP[f"venue{index % 2}"])
        graph.add(paper, DBLP["title"], Literal(f"Paper {index}"))
    endpoint = SPARQLEndpoint()
    endpoint.load(graph)
    return endpoint


class TestOperators:
    def test_comparisons_numeric(self):
        assert _eval("3 < 5") == TRUE
        assert _eval("5 <= 5") == TRUE
        assert _eval("7 > 9") == FALSE
        assert _eval("2 = 2.0") == TRUE
        assert _eval("2 != 3") == TRUE

    def test_comparison_strings(self):
        assert _eval('"abc" < "abd"') == TRUE

    def test_arithmetic(self):
        assert term_to_number(_eval("2 + 3 * 4")) == 14
        assert term_to_number(_eval("(2 + 3) * 4")) == 20
        assert term_to_number(_eval("10 / 4")) == pytest.approx(2.5)
        assert term_to_number(_eval("7 - 10")) == -3

    def test_division_by_zero_raises(self):
        with pytest.raises(QueryError):
            _eval("1 / 0")

    def test_logical_and_or_not(self):
        assert _eval("1 < 2 && 3 < 4") == TRUE
        assert _eval("1 > 2 || 3 < 4") == TRUE
        assert _eval("!(1 > 2)") == TRUE
        assert _eval("1 > 2 && 3 < 4") == FALSE

    def test_unary_minus(self):
        assert term_to_number(_eval("-(3) + 5")) == 2

    def test_in_operator(self):
        bindings = {Variable("x"): Literal(3)}
        assert _eval("?x IN (1, 2, 3)", bindings) == TRUE
        assert _eval("?x NOT IN (1, 2)", bindings) == TRUE

    def test_comparison_with_unbound_is_false(self):
        assert _eval("?missing > 3") == FALSE


class TestBuiltins:
    def test_str_and_case_functions(self):
        bindings = {Variable("x"): DBLP["Publication"]}
        assert _eval("STR(?x)", bindings) == Literal("https://www.dblp.org/Publication")
        assert _eval('UCASE("abc")') == Literal("ABC")
        assert _eval('LCASE("ABC")') == Literal("abc")

    def test_strlen_contains_starts_ends(self):
        assert term_to_number(_eval('STRLEN("hello")')) == 5
        assert _eval('CONTAINS("hello", "ell")') == TRUE
        assert _eval('STRSTARTS("hello", "he")') == TRUE
        assert _eval('STRENDS("hello", "lo")') == TRUE

    def test_concat(self):
        assert _eval('CONCAT("a", "b", "c")') == Literal("abc")

    def test_regex(self):
        assert _eval('REGEX("KGNet platform", "platform")') == TRUE
        assert _eval('REGEX("KGNet", "kgnet", "i")') == TRUE
        assert _eval('REGEX("KGNet", "missing")') == FALSE

    def test_numeric_builtins(self):
        assert term_to_number(_eval("ABS(-4)")) == 4
        assert term_to_number(_eval("CEIL(2.1)")) == 3
        assert term_to_number(_eval("FLOOR(2.9)")) == 2
        assert term_to_number(_eval("ROUND(2.5)")) == 2  # banker's rounding

    def test_type_checks(self):
        bindings = {Variable("x"): DBLP["a"], Variable("y"): Literal(3)}
        assert _eval("ISIRI(?x)", bindings) == TRUE
        assert _eval("ISLITERAL(?y)", bindings) == TRUE
        assert _eval("ISNUMERIC(?y)", bindings) == TRUE
        assert _eval("ISBLANK(?x)", bindings) == FALSE

    def test_bound_and_coalesce_and_if(self):
        bindings = {Variable("x"): Literal(1)}
        assert _eval("BOUND(?x)", bindings) == TRUE
        assert _eval("BOUND(?y)", bindings) == FALSE
        assert _eval('COALESCE(?y, "fallback")', bindings) == Literal("fallback")
        assert _eval('IF(?x = 1, "yes", "no")', bindings) == Literal("yes")

    def test_datatype_and_lang(self):
        assert _eval("DATATYPE(3)").local_name() == "integer"
        assert _eval('LANG("x")') == Literal("")

    def test_iri_constructor(self):
        assert _eval('IRI("https://x.org/a")') == IRI("https://x.org/a")

    def test_unknown_function_raises(self):
        with pytest.raises(UDFError):
            _eval("NOSUCHFUNCTION(1)")


class TestEffectiveBooleanValue:
    def test_boolean_literals(self):
        assert effective_boolean_value(TRUE) is True
        assert effective_boolean_value(FALSE) is False

    def test_numbers(self):
        assert effective_boolean_value(Literal(0)) is False
        assert effective_boolean_value(Literal(2)) is True

    def test_strings(self):
        assert effective_boolean_value(Literal("")) is False
        assert effective_boolean_value(Literal("x")) is True

    def test_none_is_false(self):
        assert effective_boolean_value(None) is False


class TestUDFRegistry:
    def test_register_and_call(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.double", lambda x: float(str(x)) * 2)
        assert registry.call("sql:UDFS.double", Literal(2)) == 4.0

    def test_alias_lookup_case_insensitive(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.f", lambda: 1, aliases=["f"])
        assert "SQL:UDFS.F" in registry
        assert "F" in registry

    def test_unknown_udf_raises(self):
        with pytest.raises(UDFError):
            UDFRegistry().call("nope")

    def test_udf_in_expression_and_opaque_results(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.getDict", lambda: {"a": "b"})
        value = _eval("sql:UDFS.getDict()", udfs=registry)
        assert isinstance(value, OpaqueValue)
        assert value.value == {"a": "b"}

    def test_udf_string_results_coerced_to_terms(self):
        registry = UDFRegistry()
        registry.register("sql:UDFS.venue", lambda: "https://www.dblp.org/venue/ICDE")
        assert _eval("sql:UDFS.venue()", udfs=registry) == DBLP["venue/ICDE"]


class TestAggregates:
    def test_count_all_rows(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES +
                                         "SELECT (COUNT(?p) AS ?n) WHERE { ?p dblp:year ?y . }")
        assert result[0].get_value("n").to_python() == 5

    def test_count_distinct(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES +
                                         "SELECT (COUNT(DISTINCT ?y) AS ?n) WHERE { ?p dblp:year ?y . }")
        assert result[0].get_value("n").to_python() == 4

    def test_sum_avg_min_max(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT (SUM(?y) AS ?total) (AVG(?y) AS ?mean)
                   (MIN(?y) AS ?low) (MAX(?y) AS ?high)
            WHERE { ?p dblp:year ?y . }""")
        row = result[0]
        assert row.get_value("total").to_python() == 1999 + 2005 + 2010 + 2020 + 2020
        assert row.get_value("mean").to_python() == pytest.approx(2010.8)
        assert row.get_value("low").to_python() == 1999
        assert row.get_value("high").to_python() == 2020

    def test_group_by_counts_per_group(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT ?venue (COUNT(?p) AS ?n) WHERE { ?p dblp:venue ?venue . }
            GROUP BY ?venue ORDER BY DESC(?n)""")
        assert len(result) == 2
        counts = sorted(row.get_value("n").to_python() for row in result)
        assert counts == [2, 3]

    def test_group_concat_and_sample(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT ?venue (GROUP_CONCAT(?t; SEPARATOR=", ") AS ?titles)
                   (SAMPLE(?t) AS ?one)
            WHERE { ?p dblp:venue ?venue . ?p dblp:title ?t . } GROUP BY ?venue""")
        assert len(result) == 2
        for row in result:
            assert ", " in row.get_value("titles").lexical or \
                row.get_value("titles").lexical.startswith("Paper")
            assert row.get_value("one") is not None

    def test_count_on_empty_result(self, numbers_endpoint):
        result = numbers_endpoint.select(PREFIXES + """
            SELECT (COUNT(?p) AS ?n) WHERE { ?p dblp:missing ?x . }""")
        assert result[0].get_value("n").to_python() == 0


class TestCompareSemantics:
    """``_compare`` is shared by the tree-walker and the compiled closures."""

    X = "<http://example.org/x>"
    INT01 = '"01"^^<http://www.w3.org/2001/XMLSchema#integer>'
    TABLE = [
        # numeric literals in different lexical forms compare by value
        ("1 = 1.0", TRUE), ("1 != 1.0", FALSE), (f"{INT01} = 1", TRUE),
        (f"{INT01} != 1.0", FALSE), ("1 < 1.0", FALSE), ("1 <= 1.0", TRUE),
        ("2 > 1.5", TRUE), (f"{INT01} >= 2", FALSE),
        # a language tag makes a different term; order is by lexical form
        ('"chat"@fr = "chat"', FALSE), ('"chat"@fr != "chat"', TRUE),
        ('"chat"@fr = "chat"@fr', TRUE), ('"chat"@fr <= "chat"', TRUE),
        # a numeric literal and a string never compare by value
        ('"1" = 1', FALSE), ('"1" != 1', TRUE),
        # IRI vs literal: never equal, ordered by surface form
        (f'{X} = "http://example.org/x"', FALSE),
        (f'{X} != "http://example.org/x"', TRUE),
        (f"{X} = {X}", TRUE), (f"{X} != {X}", FALSE),
        (f'{X} > "http://example.org/x"', TRUE),
        # an unbound operand satisfies no comparison at all
        ("?u = 1", FALSE), ("?u != 1", FALSE), ("?u < 1", FALSE),
        (f"{X} != ?u", FALSE), ("?u = ?u", FALSE),
    ]

    @pytest.mark.parametrize("text,expected", TABLE)
    def test_table(self, text, expected):
        from repro.rdf.dictionary import DictionaryOverlay, TermDictionary
        from repro.sparql.functions import compile_expression
        assert _eval(text) == expected
        dictionary = TermDictionary()
        context = EvaluationContext(terms=DictionaryOverlay(dictionary))
        compiled = compile_expression(_expr(text), {}, dictionary)
        assert compiled([], context) == expected

    def test_equality_builds_no_order_keys(self, monkeypatch):
        from repro.sparql.functions import _compare
        def no_keys(self):
            raise AssertionError("an order key was built for an equality test")
        monkeypatch.setattr(IRI, "n3", no_keys)
        monkeypatch.setattr(Literal, "n3", no_keys)
        assert _compare("!=", IRI("http://example.org/a"), IRI("http://example.org/b"))
        assert not _compare("=", IRI("http://example.org/a"), Literal("a"))
        assert _compare("=", Literal(1), Literal(1.0))
        with pytest.raises(AssertionError):
            _compare("<", IRI("http://example.org/a"), Literal("a"))
