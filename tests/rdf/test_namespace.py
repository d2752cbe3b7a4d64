"""Unit tests for namespaces and prefix management."""

import pytest

from repro.exceptions import TermError
from repro.rdf.namespace import (
    DBLP,
    DEFAULT_PREFIXES,
    KGNET,
    Namespace,
    NamespaceManager,
    RDF,
    YAGO,
)
from repro.rdf.terms import IRI


class TestNamespace:
    def test_attribute_access(self):
        assert DBLP.Publication == IRI("https://www.dblp.org/Publication")

    def test_item_access(self):
        assert DBLP["venue/ICDE"] == IRI("https://www.dblp.org/venue/ICDE")

    def test_contains(self):
        assert DBLP.Publication in DBLP
        assert DBLP.Publication not in YAGO

    def test_equality(self):
        assert Namespace("https://x.org/") == Namespace("https://x.org/")

    def test_rejects_empty_base(self):
        with pytest.raises(TermError):
            Namespace("")

    def test_kgnet_vocabulary_base(self):
        assert KGNET.NodeClassifier.value == "https://www.kgnet.com/NodeClassifier"

    def test_private_attribute_raises(self):
        with pytest.raises(AttributeError):
            DBLP._hidden


class TestNamespaceManager:
    def test_defaults_include_paper_prefixes(self):
        manager = NamespaceManager()
        for prefix in ("dblp", "kgnet", "rdf", "yago"):
            assert prefix in manager

    def test_expand(self):
        manager = NamespaceManager()
        assert manager.expand("dblp:Publication") == DBLP.Publication
        assert manager.expand("rdf:type") == RDF.type

    def test_expand_unknown_prefix(self):
        manager = NamespaceManager()
        with pytest.raises(TermError):
            manager.expand("nope:thing")

    def test_expand_requires_colon(self):
        with pytest.raises(TermError):
            NamespaceManager().expand("nocolon")

    def test_bind_and_shrink(self):
        manager = NamespaceManager()
        manager.bind("ex", "https://example.org/")
        assert manager.expand("ex:thing") == IRI("https://example.org/thing")
        assert manager.shrink(IRI("https://example.org/thing")) == "ex:thing"

    def test_bind_accepts_namespace_object(self):
        manager = NamespaceManager(include_defaults=False)
        manager.bind("dblp", DBLP)
        assert manager.expand("dblp:x") == DBLP.x

    def test_shrink_prefers_longest_match(self):
        manager = NamespaceManager(include_defaults=False)
        manager.bind("a", "https://example.org/")
        manager.bind("b", "https://example.org/deep/")
        assert manager.shrink(IRI("https://example.org/deep/x")) == "b:x"

    def test_shrink_returns_none_without_match(self):
        manager = NamespaceManager(include_defaults=False)
        assert manager.shrink(IRI("https://elsewhere.org/x")) is None

    def test_shrink_refuses_slashy_locals(self):
        manager = NamespaceManager()
        assert manager.shrink(IRI("https://www.dblp.org/a/b/c")) is None

    def test_copy_is_independent(self):
        manager = NamespaceManager()
        clone = manager.copy()
        clone.bind("zz", "https://zz.org/")
        assert "zz" in clone and "zz" not in manager

    def test_len_counts_bindings(self):
        assert len(NamespaceManager(include_defaults=False)) == 0
        assert len(NamespaceManager()) == len(DEFAULT_PREFIXES)

    def test_prefixes_sorted(self):
        prefixes = [p for p, _ in NamespaceManager().prefixes()]
        assert prefixes == sorted(prefixes)
