"""Unit tests for the RDF term model."""

import copy
import pickle

import pytest

from repro.exceptions import TermError
from repro.rdf.terms import (
    IRI,
    BNode,
    Literal,
    Triple,
    Variable,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    python_from_term,
    term_from_python,
)


class TestIRI:
    def test_value_and_str(self):
        iri = IRI("https://www.dblp.org/Publication")
        assert iri.value == "https://www.dblp.org/Publication"
        assert str(iri) == iri.value

    def test_n3_form(self):
        assert IRI("https://x.org/a").n3() == "<https://x.org/a>"

    def test_equality_and_hash(self):
        assert IRI("https://x.org/a") == IRI("https://x.org/a")
        assert IRI("https://x.org/a") != IRI("https://x.org/b")
        assert hash(IRI("https://x.org/a")) == hash(IRI("https://x.org/a"))

    def test_rejects_empty_and_bad_characters(self):
        with pytest.raises(TermError):
            IRI("")
        with pytest.raises(TermError):
            IRI("http://example.org/has space")
        with pytest.raises(TermError):
            IRI("<wrapped>")

    def test_local_name_with_hash_and_slash(self):
        assert IRI("https://x.org/schema#title").local_name() == "title"
        assert IRI("https://x.org/venue/ICDE").local_name() == "ICDE"

    def test_namespace(self):
        assert IRI("https://x.org/schema#title").namespace() == "https://x.org/schema#"

    def test_immutable(self):
        iri = IRI("https://x.org/a")
        with pytest.raises(AttributeError):
            iri.value = "other"

    def test_not_equal_to_literal_with_same_text(self):
        assert IRI("https://x.org/a") != Literal("https://x.org/a")

    def test_deepcopy_and_pickle_roundtrip(self):
        iri = IRI("https://x.org/a")
        assert copy.deepcopy(iri) == iri
        assert pickle.loads(pickle.dumps(iri)) == iri


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.lexical == "hello"
        assert lit.datatype == XSD_STRING
        assert lit.to_python() == "hello"

    def test_integer_conversion(self):
        lit = Literal(42)
        assert lit.datatype == XSD_INTEGER
        assert lit.to_python() == 42
        assert lit.is_numeric()

    def test_float_conversion(self):
        lit = Literal(2.5)
        assert lit.datatype == XSD_DOUBLE
        assert lit.to_python() == pytest.approx(2.5)

    def test_boolean_conversion(self):
        assert Literal(True).datatype == XSD_BOOLEAN
        assert Literal(True).to_python() is True
        assert Literal(False).to_python() is False

    @pytest.mark.parametrize("datatype", [XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE])
    def test_ill_typed_numeric_is_its_lexical_form(self, datatype):
        assert Literal("abc", datatype=datatype).to_python() == "abc"
        assert Literal("", datatype=datatype).to_python() == ""
        assert python_from_term(Literal("1.5.", datatype=datatype)) == "1.5."

    def test_language_tag(self):
        lit = Literal("bonjour", language="FR")
        assert lit.language == "fr"
        assert lit.n3() == '"bonjour"@fr'

    def test_language_and_datatype_conflict(self):
        with pytest.raises(TermError):
            Literal("x", datatype=XSD_STRING, language="en")

    def test_n3_escaping(self):
        lit = Literal('say "hi"\nnow')
        assert '\\"' in lit.n3()
        assert "\\n" in lit.n3()

    def test_typed_n3(self):
        assert Literal(7).n3().endswith("integer>")

    def test_equality_requires_datatype_match(self):
        assert Literal("1") != Literal(1)
        assert Literal(1) == Literal(1)

    def test_rejects_unsupported_python_types(self):
        with pytest.raises(TermError):
            Literal(object())

    def test_pickle_roundtrip_language(self):
        lit = Literal("hola", language="es")
        assert pickle.loads(pickle.dumps(lit)) == lit

    def test_pickle_roundtrip_typed(self):
        lit = Literal(3.5)
        assert pickle.loads(pickle.dumps(lit)) == lit


class TestBNodeAndVariable:
    def test_bnode_auto_id_unique(self):
        assert BNode().id != BNode().id

    def test_bnode_n3(self):
        assert BNode("b1").n3() == "_:b1"

    def test_variable_strips_question_mark(self):
        assert Variable("?paper").name == "paper"
        assert Variable("$paper").name == "paper"
        assert Variable("paper") == Variable("?paper")

    def test_variable_n3(self):
        assert Variable("x").n3() == "?x"

    def test_variable_requires_name(self):
        with pytest.raises(TermError):
            Variable("")


class TestTriple:
    def test_is_ground(self):
        ground = Triple(IRI("https://x.org/s"), RDF_TYPE, IRI("https://x.org/C"))
        assert ground.is_ground()
        assert not Triple(Variable("s"), RDF_TYPE, IRI("https://x.org/C")).is_ground()

    def test_variables_iteration(self):
        triple = Triple(Variable("s"), RDF_TYPE, Variable("o"))
        assert list(triple.variables()) == [Variable("s"), Variable("o")]

    def test_n3(self):
        triple = Triple(IRI("https://x.org/s"), RDF_TYPE, Literal("x"))
        assert triple.n3().endswith(" .")


class TestConversions:
    def test_term_from_python_strings(self):
        assert isinstance(term_from_python("https://x.org/a"), IRI)
        assert isinstance(term_from_python("hello"), Literal)

    def test_term_from_python_numbers(self):
        assert term_from_python(3).datatype == XSD_INTEGER
        assert term_from_python(3.5).datatype == XSD_DOUBLE
        assert term_from_python(True).datatype == XSD_BOOLEAN

    def test_term_passthrough(self):
        iri = IRI("https://x.org/a")
        assert term_from_python(iri) is iri

    def test_term_from_python_rejects_unknown(self):
        with pytest.raises(TermError):
            term_from_python(object())

    def test_python_from_term(self):
        assert python_from_term(IRI("https://x.org/a")) == "https://x.org/a"
        assert python_from_term(Literal(3)) == 3
        assert python_from_term(Variable("x")) == "?x"
        assert python_from_term(BNode("b")) == "_:b"

    def test_sort_key_orders_across_kinds(self):
        bnode, iri, lit = BNode("b"), IRI("https://x.org/a"), Literal("a")
        ordered = sorted([lit, iri, bnode], key=lambda t: t.sort_key())
        assert ordered[0] is bnode and ordered[1] is iri and ordered[2] is lit
