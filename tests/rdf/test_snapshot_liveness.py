"""Snapshot isolation when a write skips the index copy.

A write copies the top-level index dicts only while the snapshot pinned
since the last write is still held; otherwise it mutates in place, and the
bucket-ownership set decides which inner buckets older, still-held
snapshots share.  These state machines interleave pins, holds, releases
and every kind of write, on a :class:`Graph` and on a :class:`Dataset`, and
check after each step that every held snapshot still answers exactly what
it pinned — triples, ``len``, counts, estimates and distinct counts, in term
space and in id space — and that the live store equals a plain reference
set.  Two rules grow one index leaf from none to one id (the bare ``int``)
to two (a ``set``) and shrink it back (a set left with one id holds it bare
again), so both leaf forms and both transitions meet pinned snapshots.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.rdf import Dataset, Graph, IRI, Literal, Triple

EX = "http://example.org/"
SUBJECTS = [IRI(EX + f"s{i}") for i in range(4)]
PREDICATES = [IRI(EX + f"p{i}") for i in range(3)]
OBJECTS = SUBJECTS + [Literal(i) for i in range(3)]
NAMES = [IRI(EX + f"g{i}") for i in range(2)]

triples = st.builds(Triple, st.sampled_from(SUBJECTS),
                    st.sampled_from(PREDICATES), st.sampled_from(OBJECTS))
patterns = st.tuples(st.sampled_from([None] + SUBJECTS),
                     st.sampled_from([None] + PREDICATES),
                     st.sampled_from([None] + OBJECTS))


def _matches(triple: Triple, pattern) -> bool:
    return all(want is None or want == have
               for want, have in zip(pattern, triple))


def _counts(expected) -> Counter:
    """Every one- and two-constant pattern's count over ``expected``."""
    counts: Counter = Counter()
    for s, p, o in expected:
        for key in ((s, None, None), (None, p, None), (None, None, o),
                    (s, p, None), (None, p, o), (s, None, o)):
            counts[key] += 1
    return counts


def _distincts(graph, predicate=None):
    """(distinct subjects, distinct objects) of ``predicate``, or overall,
    from the id-level counters; a predicate the graph never stored has
    none (``encode_term``'s ``None`` would select every triple instead)."""
    if predicate is None:
        return graph.distinct_subjects_ids(), graph.distinct_objects_ids()
    pid = graph.encode_term(predicate)
    if pid is None:
        return 0, 0
    return graph.distinct_subjects_ids(pid), graph.distinct_objects_ids(pid)


def assert_holds(graph, expected) -> None:
    """``graph`` (live or pinned) answers exactly what ``expected`` holds."""
    expected = set(expected)
    assert set(graph) == expected
    assert len(graph) == len(expected)
    counts = _counts(expected)
    for s in [None] + SUBJECTS:
        for p in [None] + PREDICATES:
            for o in [None] + OBJECTS:
                if s is not None and p is not None and o is not None:
                    assert (Triple(s, p, o) in graph) == (
                        Triple(s, p, o) in expected)
                    continue
                want = (len(expected) if s is p is o is None
                        else counts[(s, p, o)])
                assert graph.count(s, p, o) == want, (s, p, o)
                assert graph.estimate_cardinality(s, p, o) == want
    for p in PREDICATES:
        assert _distincts(graph, p) == (
            len({s for s, q, _ in expected if q == p}),
            len({o for _, q, o in expected if q == p}))
    assert _distincts(graph) == (len({s for s, _, _ in expected}),
                                 len({o for _, _, o in expected}))
    assert_ids_hold(graph, expected)


def assert_ids_hold(graph, expected) -> None:
    """The id-space readers of ``graph`` answer what ``expected`` holds:
    every ``triples_ids`` shape, ``count_ids``, ``contains_ids`` and the
    slot iterators, over every interned term of the vocabulary."""
    encode = graph.encode_term
    ids = {(encode(s), encode(p), encode(o)) for s, p, o in expected}
    vocab = [[None] + [i for i in map(encode, terms) if i is not None]
             for terms in (SUBJECTS, PREDICATES, OBJECTS)]
    slots = (graph.subject_ids, graph.predicate_ids, graph.object_ids)
    for s in vocab[0]:
        for p in vocab[1]:
            for o in vocab[2]:
                pattern = (s, p, o)
                want = {t for t in ids if _matches(t, pattern)}
                got = list(graph.triples_ids(s, p, o))
                assert len(got) == len(want) and set(got) == want, pattern
                assert graph.count_ids(s, p, o) == len(want), pattern
                unbound = [i for i, bound in enumerate(pattern) if bound is None]
                if not unbound:
                    assert graph.contains_ids(s, p, o) == bool(want)
                elif len(unbound) == 1:
                    (position,) = unbound
                    key = [bound for bound in pattern if bound is not None]
                    slot = list(slots[position](*key))
                    assert len(slot) == len(want) and set(slot) == {
                        t[position] for t in want}, pattern


#: Per index, the two positions keying a leaf and the one it completes.
LEAVES = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
VOCABULARY = (SUBJECTS, PREDICATES, OBJECTS)

_SETTINGS = settings(max_examples=40, stateful_step_count=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class GraphMachine(RuleBasedStateMachine):
    """Pins, holds, releases and writes on one live :class:`Graph`."""

    @initialize(seed=st.lists(triples, max_size=12))
    def start(self, seed):
        self.graph = Graph()
        self.graph.add_all(seed)
        self.model = set(seed)
        #: (held snapshot, the triples it pinned)
        self.held = []

    @rule()
    def pin_and_hold(self):
        self.held.append((self.graph.snapshot(), frozenset(self.model)))

    @rule()
    def pin_and_release(self):
        snapshot = self.graph.snapshot()
        assert set(snapshot) == self.model

    @rule(data=st.data())
    def release(self, data):
        if self.held:
            self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))

    @rule(triple=triples)
    def add(self, triple):
        assert self.graph.add(triple) == (triple not in self.model)
        self.model.add(triple)

    @rule(pattern=patterns)
    def remove(self, pattern):
        gone = {t for t in self.model if _matches(t, pattern)}
        assert self.graph.remove(*pattern) == len(gone)
        self.model -= gone

    @rule(batch=st.lists(triples, max_size=6))
    def add_all(self, batch):
        assert self.graph.add_all(batch) == len(set(batch) - self.model)
        self.model.update(batch)

    def _leaf(self, data):
        """A drawn index leaf: (its two keying positions and terms, the
        position it completes, the terms it holds now)."""
        first, second, third = data.draw(st.sampled_from(LEAVES))
        key = {position: data.draw(st.sampled_from(VOCABULARY[position]))
               for position in (first, second)}
        held = [t[third] for t in self.model
                if all(t[position] == term for position, term in key.items())]
        return key, third, held

    def _pin_first(self, data):
        if data.draw(st.booleans()):
            self.pin_and_hold()

    @rule(data=st.data())
    def grow_a_leaf(self, data):
        """One more id in a leaf: none -> a bare id -> a set."""
        key, third, held = self._leaf(data)
        if len(held) >= 2:
            return
        choices = [term for term in VOCABULARY[third] if term not in held]
        key[third] = data.draw(st.sampled_from(choices))
        triple = Triple(key[0], key[1], key[2])
        self._pin_first(data)
        assert self.graph.add(triple)
        self.model.add(triple)

    @rule(data=st.data())
    def shrink_a_leaf(self, data):
        """One id fewer in a leaf: a set -> one id, held bare again -> none."""
        key, third, held = self._leaf(data)
        if not held:
            return
        first, second = key
        key[third] = data.draw(st.sampled_from(held))
        triple = Triple(key[0], key[1], key[2])
        self._pin_first(data)
        assert self.graph.remove(triple) == 1
        self.model.discard(triple)
        if len(held) == 2:
            (left,) = set(held) - {key[third]}
            index = (self.graph._spo, self.graph._pos, self.graph._osp)[first]
            leaf = index[self.graph.encode_term(key[first])][
                self.graph.encode_term(key[second])]
            assert leaf.__class__ is int and leaf == self.graph.encode_term(left)

    @rule()
    def add_all_self(self):
        assert self.graph.add_all(self.graph) == 0

    @rule()
    def clear(self):
        self.graph.clear()
        self.model.clear()

    @invariant()
    def held_snapshots_are_frozen(self):
        for snapshot, expected in self.held:
            assert_holds(snapshot, expected)

    @invariant()
    def live_graph_equals_reference(self):
        assert_holds(self.graph, self.model)


class DatasetMachine(RuleBasedStateMachine):
    """The same over a :class:`Dataset`: dataset-wide pins, writes to the
    default and to named graphs, named-graph create and drop."""

    @initialize(seed=st.lists(triples, max_size=8))
    def start(self, seed):
        self.dataset = Dataset()
        self.dataset.default_graph.add_all(seed)
        self.model = {None: set(seed)}
        #: (held DatasetSnapshot, {graph name: the triples it pinned})
        self.held = []

    def _graph(self, name):
        return self.dataset.graph(name)

    @rule()
    def pin_and_hold(self):
        self.held.append((self.dataset.snapshot(),
                          {name: frozenset(triples)
                           for name, triples in self.model.items()}))

    @rule()
    def pin_and_release(self):
        snapshot = self.dataset.snapshot()
        assert set(snapshot.union()) == set().union(*self.model.values())

    @rule(data=st.data())
    def release(self, data):
        if self.held:
            self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))

    @rule(name=st.sampled_from(NAMES))
    def create(self, name):
        self.dataset.graph(name)
        self.model.setdefault(name, set())

    @rule(name=st.sampled_from(NAMES))
    def drop(self, name):
        assert self.dataset.drop_graph(name) == (name in self.model)
        self.model.pop(name, None)

    @rule(data=st.data(), triple=triples)
    def add(self, data, triple):
        name = data.draw(st.sampled_from(sorted(self.model, key=str)))
        self._graph(name).add(triple)
        self.model[name].add(triple)

    @rule(data=st.data(), pattern=patterns)
    def remove(self, data, pattern):
        name = data.draw(st.sampled_from(sorted(self.model, key=str)))
        gone = {t for t in self.model[name] if _matches(t, pattern)}
        assert self._graph(name).remove(*pattern) == len(gone)
        self.model[name] -= gone

    @rule(data=st.data(), batch=st.lists(triples, max_size=6))
    def add_all(self, data, batch):
        name = data.draw(st.sampled_from(sorted(self.model, key=str)))
        self._graph(name).add_all(batch)
        self.model[name].update(batch)

    @rule(data=st.data())
    def clear(self, data):
        name = data.draw(st.sampled_from(sorted(self.model, key=str)))
        self._graph(name).clear()
        self.model[name].clear()

    @invariant()
    def held_snapshots_are_frozen(self):
        for snapshot, expected in self.held:
            assert set(snapshot.named) == set(expected) - {None}
            assert_holds(snapshot.default, expected[None])
            for name, pinned in snapshot.named.items():
                assert_holds(pinned, expected[name])
            assert set(snapshot.union()) == set().union(*expected.values())

    @invariant()
    def live_dataset_equals_reference(self):
        assert set(self.dataset._named) == set(self.model) - {None}
        for name, expected in self.model.items():
            assert_holds(self._graph(name), expected)


TestGraphMachine = GraphMachine.TestCase
TestGraphMachine.settings = _SETTINGS
TestDatasetMachine = DatasetMachine.TestCase
TestDatasetMachine.settings = _SETTINGS


def _triple(s: int, p: int, o: int) -> Triple:
    return Triple(SUBJECTS[s], PREDICATES[p], OBJECTS[o])


class TestCopyDecision:
    def test_released_snapshot_costs_the_next_write_no_copy(self):
        graph = Graph()
        graph.add(_triple(0, 0, 1))
        graph.snapshot()
        spo = graph._spo
        graph.add(_triple(1, 0, 2))
        assert graph._spo is spo

    def test_held_snapshot_makes_the_next_write_copy(self):
        graph = Graph()
        graph.add(_triple(0, 0, 1))
        held = graph.snapshot()
        spo = graph._spo
        graph.add(_triple(1, 0, 2))
        assert graph._spo is not spo
        assert set(held) == {_triple(0, 0, 1)}

    def test_a_write_drops_the_stale_snapshot_caches(self):
        dataset = Dataset()
        dataset.default_graph.add(_triple(0, 0, 1))
        pinned = weakref.ref(dataset.snapshot().union())
        dataset.default_graph.add(_triple(1, 0, 2))
        assert pinned() is None
        assert dataset._snapshot_cache is None
        assert dataset.default_graph._snapshot_cache is None

    def test_the_only_unsafe_interleaving(self):
        """S1 held; a write; S2 pinned and released; then writes into a
        bucket S1 still shares and one copied since: S1 is unchanged."""
        graph = Graph()
        graph.add_all([_triple(0, 0, 1), _triple(1, 0, 2)])
        s1 = graph.snapshot()
        graph.add(_triple(0, 0, 2))        # copies: S1 held; s0's bucket copied
        s2 = graph.snapshot()
        del s2                            # released: the next write skips
        gc.collect()
        spo = graph._spo
        graph.add(_triple(1, 0, 3))        # s1's bucket: still shared with S1
        graph.add(_triple(0, 0, 3))        # s0's bucket: owned since the copy
        graph.remove(_triple(0, 0, 1))
        assert graph._spo is spo
        assert_holds(s1, {_triple(0, 0, 1), _triple(1, 0, 2)})
        assert_holds(graph, {_triple(0, 0, 2), _triple(1, 0, 2),
                             _triple(1, 0, 3), _triple(0, 0, 3)})

    def test_ownership_bookkeeping_stops_once_no_snapshot_is_held(self):
        graph = Graph()
        graph.add(_triple(0, 0, 1))
        held = graph.snapshot()
        graph.add(_triple(1, 0, 2))
        assert graph._fresh is not None
        del held
        graph.snapshot()
        graph.add(_triple(2, 0, 2))
        assert graph._fresh is None
