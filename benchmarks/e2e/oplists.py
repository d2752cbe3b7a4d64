"""Seeded, self-owned op generation: every op list is a pure function of the seed.

The program under test never sees the seed, only the requests built here.
What a seed may change is deliberately narrow.  The *cost-relevant* part of
every list -- which class an op belongs to and which shape (anchor types,
predicates, hubs) it uses -- is a frozen, stratified grid, so two seeds send
the same mix of work; the seed picks the cost-neutral constants (which
subject, which excluded entity, which offset), the popularity ranking and the
order.  That is what keeps ten runs on ten seeds within a few percent of each
other while no two of them send the same text.

This module does not import ``repro``; in particular it does not use
``repro.kgnet.sparqlml.workload``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

ZIPF_BASE = "https://repro.example/skg/"
DBLP = "https://www.dblp.org/"
NO_STORE = (("Cache-Control", "no-store"),)
JSON_BODY = (("Content-Type", "application/json"),)
UPDATE_BODY = (("Content-Type", "application/sparql-update"),)

SPARQLML_PREFIXES = (f"prefix dblp: <{DBLP}>\n"
                     "prefix kgnet: <https://www.kgnet.com/>\n")


@dataclass(frozen=True)
class Op:
    """One request, fully encoded, plus what the checker needs to judge it."""

    cls: str                               # class within the workload
    route: str                             # "query" | "update" | "envelope"
    method: str
    target: str
    headers: Tuple[Tuple[str, str], ...] = ()
    body: bytes = b""
    #: The SPARQL / SPARQL-ML text (the in-process probes replay it).
    text: str = ""
    #: Envelope params besides ``query`` (``force_plan`` ...).
    params: Tuple[Tuple[str, object], ...] = ()
    #: Key of the expected answer; ops that differ only in the forced plan
    #: share a key, which is how plan equivalence is asserted.
    key: str = ""
    #: A fixed expectation the op carries itself (ASK after a write).
    expect: Optional[bool] = None
    #: The request as it goes on the wire, encoded once.
    request: bytes = field(default=b"", repr=False, compare=False)

    def __post_init__(self) -> None:
        lines = [f"{self.method} {self.target} HTTP/1.1", "Host: 127.0.0.1"]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        if self.body:
            lines.append(f"Content-Length: {len(self.body)}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        object.__setattr__(self, "request", head.encode("ascii") + self.body)

    def digest_fields(self) -> str:
        return "\x1f".join((self.cls, self.method, self.target,
                            repr(self.headers), self.body.decode("utf-8")))


def query_op(cls: str, text: str, no_store: bool = False,
             expect: Optional[bool] = None) -> Op:
    return Op(cls=cls, route="query", method="GET",
              target="/sparql?query=" + quote(text, safe=""),
              headers=NO_STORE if no_store else (), text=text, key=text,
              expect=expect)


def update_op(cls: str, text: str) -> Op:
    return Op(cls=cls, route="update", method="POST", target="/sparql",
              headers=UPDATE_BODY, body=text.encode("utf-8"), text=text)


def envelope_op(cls: str, op_name: str, text: str, key: Optional[str] = None,
                **params: object) -> Op:
    payload = {"query": text, **params} if text else dict(params)
    return Op(cls=cls, route="envelope", method="POST",
              target=f"/kgnet/v1/{op_name}", headers=JSON_BODY,
              body=json.dumps(payload, sort_keys=True).encode("utf-8"),
              text=text, params=tuple(sorted(params.items())),
              key=key if key is not None else text)


@dataclass
class OpList:
    """The ops of one workload, split over the generator's connections."""

    workload: str
    seed: int
    #: Distinct ops; ``sequence`` indexes into it.
    ops: List[Op]
    #: The order in which the ops are sent (cycled when the window is longer).
    sequence: List[int]
    #: Ops sent once before the window, unmeasured.
    warmup: List[int] = field(default_factory=list)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for op in self.ops:
            digest.update(op.digest_fields().encode("utf-8"))
            digest.update(b"\x1e")
        digest.update(json.dumps(self.sequence).encode("ascii"))
        return digest.hexdigest()

    def class_mix(self) -> Dict[str, int]:
        mix: Dict[str, int] = {}
        for index in self.sequence:
            cls = self.ops[index].cls
            mix[cls] = mix.get(cls, 0) + 1
        return mix

    def for_connection(self, conn: int, conns: int) -> List[Op]:
        return [self.ops[i] for i in self.sequence[conn::conns]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"kgnet-e2e/{workload}/{seed}")


def _stratified(rng: random.Random, shapes: Sequence, count: int) -> List:
    """``count`` shapes, each used equally often, in a seeded order."""
    order = list(shapes)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def zipf_entities(triples: int) -> int:
    """``StreamingKGConfig.num_entities`` for a KG of ``triples`` triples."""
    return max(1024, triples // 8)


def _e(index: int) -> str:
    return f"<{ZIPF_BASE}e{index}>"


def _p(rank: int) -> str:
    return f"<{ZIPF_BASE}p{rank}>"


def _t(rank: int) -> str:
    return f"<{ZIPF_BASE}T{rank}>"


# ---------------------------------------------------------------------------
# lookup_hot: 96 cheap texts, Zipf-popular, default headers
# ---------------------------------------------------------------------------

#: Class of the text at each popularity rank, repeated: 64 subject lookups,
#: 16 RareType scans, 16 two-pattern joins.  The pattern is frozen so that
#: every seed sends the same share of traffic to each class; the seed decides
#: *which* text of the class holds the rank.
HOT_RANK_PATTERN = ("subject", "subject", "rare", "subject", "subject", "pair")
HOT_TEXTS = 96
HOT_SEQUENCE_LENGTH = 4096
HOT_POPULARITY_EXPONENT = 1.1


def hot_texts(rng: random.Random, entities: int) -> List[Tuple[str, str]]:
    """The 96 texts, most popular first."""
    texts: List[Tuple[str, str]] = []
    for n, i in enumerate(rng.sample(range(20, entities), HOT_TEXTS)):
        cls = HOT_RANK_PATTERN[n % len(HOT_RANK_PATTERN)]
        if cls == "subject":
            text = f"SELECT ?p ?o WHERE {{ {_e(i)} ?p ?o }}"
        elif cls == "rare":
            text = (f"SELECT ?s WHERE {{ ?s a <{ZIPF_BASE}RareType> . "
                    f"FILTER(?s != {_e(i)}) }}")
        else:
            text = f"SELECT ?o ?t WHERE {{ {_e(i)} {_p(n % 2)} ?o . ?o a ?t }}"
        texts.append((cls, text))
    return texts


def _zipf_sequence(rng: random.Random, population: int, length: int) -> List[int]:
    """Ranks 0..population-1, rank r taking its (r+1)^-s share of ``length``
    exactly (largest remainders), in a seeded order: every seed sends the
    same number of requests to every rank."""
    weights = [(rank + 1) ** -HOT_POPULARITY_EXPONENT
               for rank in range(population)]
    exact = [length * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(population),
                          key=lambda rank: (counts[rank] - exact[rank], rank))
    for rank in by_remainder[:length - sum(counts)]:
        counts[rank] += 1
    sequence = [rank for rank, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(sequence)
    return sequence


def build_lookup_hot(seed: int, triples: int) -> OpList:
    rng = _rng("lookup_hot", seed)
    ops = [query_op(cls, text) for cls, text in
           hot_texts(rng, zipf_entities(triples))]
    return OpList("lookup_hot", seed, ops,
                  _zipf_sequence(rng, len(ops), HOT_SEQUENCE_LENGTH),
                  warmup=list(range(len(ops))))


# ---------------------------------------------------------------------------
# query_cold: 384 distinct texts, no-store, six classes on a frozen grid
# ---------------------------------------------------------------------------

#: Shapes per class, calibrated once on the 100k-triple fixture so that every
#: shape costs 2-8 ms at the service boundary (README, "query_cold"): heavy
#: enough that parse/optimize/evaluate/serialize outweigh the transport,
#: light enough that a window holds well over a thousand ops.
COLD_SHAPES = {
    # type rank, first predicate, second predicate
    "join": ((4, 1, 1), (5, 1, 1), (5, 1, 2), (6, 1, 0), (7, 0, 1),
             (8, 0, 1), (8, 0, 2), (7, 1, 0)),
    "star": ((3, 1, 2), (4, 0, 2), (5, 0, 2), (6, 0, 1), (7, 0, 1), (6, 0, 2)),
    # predicate, hub object
    "agg": ((0, 8), (0, 10), (1, 4), (1, 5), (2, 3), (3, 2)),
    # type rank, optional predicate
    "optional": ((6, 1), (6, 2), (6, 3), (6, 5), (7, 1), (7, 2), (5, 5), (8, 1)),
    # path predicate, hub it leads into
    "path": ((3, 2), (4, 1), (1, 4), (3, 3), (4, 2), (3, 1)),
    # predicate
    "wide": ((0,), (1,), (2,)),
}
#: Ops per class in the list.  Equal counts put every class's share of busy
#: time inside the 10-25 % band (README has the measured shares); frozen.
COLD_COUNTS = {cls: 64 for cls in COLD_SHAPES}


def _cold_text(cls: str, shape: Tuple[int, ...], neutral: int, extra: int) -> str:
    x = _e(neutral)
    if cls == "join":
        k, i, j = shape
        return (f"SELECT ?a ?b ?c WHERE {{ ?a a {_t(k)} . ?a {_p(i)} ?b . "
                f"?b {_p(j)} ?c . FILTER(?c != {x}) }}")
    if cls == "star":
        k, i, j = shape
        return (f"SELECT ?s ?a ?b WHERE {{ ?s a {_t(k)} . ?s {_p(i)} ?a . "
                f"?s {_p(j)} ?b . FILTER(?a != {x}) }}")
    if cls == "agg":
        i, hub = shape
        return (f"SELECT ?t (COUNT(?s) AS ?n) WHERE {{ ?s {_p(i)} {_e(hub)} . "
                f"?s a ?t . FILTER(?s != {x}) }} GROUP BY ?t")
    if cls == "optional":
        k, i = shape
        return (f"SELECT ?s ?o WHERE {{ ?s a {_t(k)} . OPTIONAL {{ ?s {_p(i)} ?o }} "
                f"FILTER(!BOUND(?o) || ?o != {x}) }}")
    if cls == "path":
        i, hub = shape
        return (f"SELECT ?s WHERE {{ ?s {_p(i)}+ {_e(hub)} . "
                f"FILTER(?s != {x}) }}")
    (i,) = shape
    return f"SELECT ?s ?o WHERE {{ ?s {_p(i)} ?o }} LIMIT 2000 OFFSET {extra}"


def build_query_cold(seed: int, triples: int) -> OpList:
    rng = _rng("query_cold", seed)
    entities = zipf_entities(triples)
    neutrals = rng.sample(range(entities // 2, entities), sum(COLD_COUNTS.values()))
    offsets = rng.sample(range(0, 1000), COLD_COUNTS["wide"])
    ops: List[Op] = []
    for cls, count in COLD_COUNTS.items():
        for n, shape in enumerate(_stratified(rng, COLD_SHAPES[cls], count)):
            text = _cold_text(cls, shape, neutrals[len(ops)],
                              offsets[n % len(offsets)])
            ops.append(query_op(cls, text, no_store=True))
    sequence = list(range(len(ops)))
    rng.shuffle(sequence)
    return OpList("query_cold", seed, ops, sequence)


# ---------------------------------------------------------------------------
# sparqlml_infer: the paper's own query, four classes
# ---------------------------------------------------------------------------

NC_PREDICATE = ("?paper ?NC ?venue. ?NC a kgnet:NodeClassifier. "
                "?NC kgnet:TargetNode dblp:Publication. "
                "?NC kgnet:NodeLabel dblp:publishedIn. ")
LP_PREDICATE = ("?author ?LP ?aff. ?LP a kgnet:LinkPredictor. "
                "?LP kgnet:SourceNode dblp:Person. "
                "?LP kgnet:DestinationNode dblp:Affiliation. "
                "?LP kgnet:TopK-Links {k}. ")
INFER_COUNTS = {"nc_all": 24, "nc_filtered": 32, "lp_topk": 8, "nc_join": 48}


def build_sparqlml_infer(seed: int, scale: float) -> OpList:
    rng = _rng("sparqlml_infer", seed)
    affiliations = max(4, int(round(24 * scale)))
    ops: List[Op] = []
    nc_all = (SPARQLML_PREFIXES + "select ?paper ?venue where { "
              "?paper a dblp:Publication. " + NC_PREDICATE + "}")
    ops.extend(envelope_op("nc_all", "sparqlml_select", nc_all)
               for _ in range(INFER_COUNTS["nc_all"]))
    # ~9 % selectivity: two of the 23 publication years.  Every other op
    # forces the per-instance plan; both plans must return the same rows.
    years = _stratified(rng, range(2000, 2022), INFER_COUNTS["nc_filtered"])
    for n, year in enumerate(years):
        text = (SPARQLML_PREFIXES + "select ?paper ?venue where { "
                "?paper a dblp:Publication. ?paper dblp:yearOfPublication ?y. "
                + NC_PREDICATE + f"FILTER(?y >= {year} && ?y <= {year + 1}) }}")
        plan = {"force_plan": "per_instance"} if n % 2 else {}
        ops.append(envelope_op("nc_filtered", "sparqlml_select", text, **plan))
    for k in _stratified(rng, (2, 3, 4, 5), INFER_COUNTS["lp_topk"]):
        text = (SPARQLML_PREFIXES + "select ?author ?aff where { "
                "?author a dblp:Person. " + LP_PREDICATE.format(k=k) + "}")
        ops.append(envelope_op("lp_topk", "sparqlml_select", text))
    for r in _stratified(rng, range(affiliations), INFER_COUNTS["nc_join"]):
        text = (SPARQLML_PREFIXES + "select ?paper ?venue ?author ?title where { "
                "?paper a dblp:Publication. ?paper dblp:authoredBy ?author. "
                f"?author dblp:affiliation <{DBLP}affiliation/{r}>. "
                "?paper dblp:title ?title. " + NC_PREDICATE + "}")
        ops.append(envelope_op("nc_join", "sparqlml_select", text))
    sequence = list(range(len(ops)))
    rng.shuffle(sequence)
    return OpList("sparqlml_infer", seed, ops, sequence)


# ---------------------------------------------------------------------------
# update_mix: each connection repeats  W R R R R
# ---------------------------------------------------------------------------

#: Reads per connection before the read order repeats, and the cycles (three
#: reads each) hashed into the record: one full period of the unbounded
#: sequence, so the hashed class mix is the same for every seed.
UPDATE_READ_PERIOD = 768
UPDATE_HASHED_CYCLES = UPDATE_READ_PERIOD // 3
WRITE_PREDICATE = f"<{ZIPF_BASE}written>"


def _written_triples(seed: int, conn: int, cycle: int, entities: int) -> Tuple[str, str]:
    """(subject, triples text) inserted by write ``cycle`` of ``conn``.

    Fresh subjects under a predicate the fixture never uses, so no write
    changes the answer of any ``lookup_hot`` text the same loop reads.
    """
    subject = f"<{ZIPF_BASE}w/{seed}/{conn}/{cycle}>"
    target = random.Random(f"{seed}/{conn}/{cycle}").randrange(entities)
    return subject, (f"{subject} {WRITE_PREDICATE} {_e(target)} . "
                     f"{subject} <{ZIPF_BASE}writtenAt> \"{cycle}\"")


@dataclass
class UpdateMix:
    """The unbounded ``W R R R R`` sequence of one connection."""

    seed: int
    conn: int
    entities: int
    reads: List[Op]
    read_order: List[int]

    def cycle(self, k: int) -> List[Op]:
        """The five ops of cycle ``k``: every 4th write deletes cycle k-2."""
        if k % 4 == 3:
            subject, triples = _written_triples(self.seed, self.conn, k - 2,
                                                self.entities)
            write = update_op("delete", f"DELETE DATA {{ {triples} }}")
            present = False
        else:
            subject, triples = _written_triples(self.seed, self.conn, k,
                                                self.entities)
            write = update_op("insert", f"INSERT DATA {{ {triples} }}")
            present = True
        ask = query_op("ask", f"ASK {{ {subject} {WRITE_PREDICATE} ?o }}",
                       expect=present)
        reads = [self.reads[self.read_order[(3 * k + n) % len(self.read_order)]]
                 for n in range(3)]
        return [write, ask] + reads

    def subject(self, k: int) -> str:
        return _written_triples(self.seed, self.conn, k, self.entities)[0][1:-1]


def build_update_mix(seed: int, triples: int, conns: int) -> Tuple[OpList, List[UpdateMix]]:
    """The read texts as an :class:`OpList` plus one sequence per connection."""
    rng = _rng("update_mix", seed)
    entities = zipf_entities(triples)
    reads = [query_op(cls, text) for cls, text in hot_texts(rng, entities)]
    mixes = [UpdateMix(seed, conn, entities, reads,
                       _zipf_sequence(rng, len(reads), UPDATE_READ_PERIOD))
             for conn in range(conns)]
    hashed: List[Op] = []
    for mix in mixes:
        for k in range(UPDATE_HASHED_CYCLES):
            hashed.extend(mix.cycle(k))
    return OpList("update_mix", seed, hashed, list(range(len(hashed))),
                  warmup=[]), mixes


# ---------------------------------------------------------------------------
# train_pipeline: the paper's training tasks as TrainGML INSERTs
# ---------------------------------------------------------------------------

NC_TASK = ("TaskType: kgnet:NodeClassifier, TargetNode: dblp:Publication, "
           "NodeLable: dblp:publishedIn")
LP_TASK = ("TaskType: kgnet:LinkPredictor, SourceNode: dblp:Person, "
           "DestinationNode: dblp:Affiliation, TargetEdge: dblp:affiliation")
#: name, task body, GML method, trained on the full KG instead of KG'
TRAIN_TASKS = (("T1", NC_TASK, "graph_saint", False),
               ("T2", NC_TASK, "rgcn", False),
               ("T3", LP_TASK, "morse", False),
               ("T4", NC_TASK, "rgcn", True))


def train_text(name: str, task: str, method: str) -> str:
    return (f"prefix dblp:<{DBLP}>\nprefix kgnet:<https://www.kgnet.com/>\n"
            "Insert into <kgnet> { ?s ?p ?o }\n"
            "where {select * from kgnet.TrainGML(\n"
            f"  {{Name: '{name}', GML-Method: {method},\n"
            f"   GML-Task:{{ {task} }},\n"
            "   Task Budget:{ MaxMemory:8GB, MaxTime:10min, "
            "Priority:ModelScore} } )};")


FULL_KG_REP = -1


def train_rep(seed: int, rep: int, scale: float) -> List[Tuple[Op, Op]]:
    """(train op, inference-check template) pairs of repetition ``rep``.

    A repetition is T1-T3 in a seeded order.  ``rep=FULL_KG_REP`` is the one
    full-KG task T4, sent once after the window: it is reported, not gated,
    and three equally frequent tasks keep the median latency inside one task
    (T3) instead of on the boundary between two.

    The check op has no ``model_uri`` yet: the harness fills it in from the
    train report, because only the server knows the URI it minted.
    """
    rng = random.Random(f"kgnet-e2e/train_pipeline/{seed}/{rep}")
    tasks = [t for t in TRAIN_TASKS if t[3] == (rep == FULL_KG_REP)]
    rng.shuffle(tasks)
    papers = max(1, int(round(400 * scale)))
    persons = max(10, int(round(200 * scale)))
    pairs = []
    for label, task, method, full_kg in tasks:
        params = {"use_meta_sampling": False} if full_kg else {}
        train = envelope_op(f"train:{label}", "sparqlml",
                            train_text(f"{label}_s{seed}_r{rep % 1000}", task, method),
                            **params)
        if task is NC_TASK:
            check = envelope_op("check:nc", "infer_node_class", "",
                                node=f"{DBLP}publication/{rng.randrange(papers)}")
        else:
            check = envelope_op("check:lp", "infer_links", "", k=3,
                                source=f"{DBLP}person/{rng.randrange(persons)}")
        pairs.append((train, check))
    return pairs


def build_train_pipeline(seed: int, scale: float, reps: int = 8) -> OpList:
    """The first ``reps`` repetitions and T4, for the record's hash and mix."""
    ops = [op for rep in list(range(reps)) + [FULL_KG_REP]
           for pair in train_rep(seed, rep, scale) for op in pair]
    return OpList("train_pipeline", seed, ops, list(range(len(ops))))
