"""The benchmark's inputs: the dataset, the query catalogues and the
operation streams, all derived from the ``--seed`` argument.

Every constant a query names is drawn from ``UniProtGenerator`` output
for the seed; the program under test only ever receives finished query
texts and triples.  Each stream is seeded with a string such as
``"7:serve_hot:measure"`` (``random.Random`` hashes strings with
SHA-512), so no stream depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from repro.rdf.terms import Literal
from repro.workloads.uniprot import PROBE_SUBJECT, UniProtGenerator

TRIPLES = 50_000
#: Triples generated past the loaded ones: the pool new inserts come from.
TAIL = 30_000
#: Cap on each insert pool; far more than a run can insert.
POOL = 10_000
MODEL = "uniprot"
INGEST_MODEL = "ingest"
#: Predicate only the benchmark writes, so ``serve_plain``'s inserts
#: into ``uniprot`` never change a catalogue answer.
BENCH_PREDICATE = "urn:bench:tag"

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
SEE_ALSO = "http://www.w3.org/2000/01/rdf-schema#seeAlso"
UP = "urn:lsid:uniprot.org:ontology:"
PROTEIN = UP + "Protein"
ORGANISM = UP + "organism"
KEYWORD = UP + "keyword"
NAME = UP + "name"
MNEMONIC = UP + "mnemonic"
#: Predicates a protein record carries exactly once.
SINGLE_VALUED = (RDF_TYPE, NAME, MNEMONIC, UP + "created", ORGANISM,
                 UP + "sequence")


@dataclass(frozen=True)
class Query:
    """One finished ``SDO_RDF_MATCH`` request."""

    text: str
    models: tuple[str, ...] = (MODEL,)
    filter: str | None = None
    order_by: str | None = None
    limit: int | None = None

    def __str__(self) -> str:
        extras = [f"{name}={value!r}" for name, value in self.kwargs().items()
                  if value is not None]
        return " ".join([self.text, *extras])

    def kwargs(self) -> dict:
        return {"filter": self.filter, "order_by": self.order_by,
                "limit": self.limit}


@dataclass
class Dataset:
    """The constants drawn from the generated triples.

    This is all the measuring process keeps: the triples themselves
    live only in the process that loads them.
    """

    seed: int
    subjects: list[str] = field(default_factory=list)
    keywords: list[str] = field(default_factory=list)
    organisms: list[str] = field(default_factory=list)
    mnemonics: list[str] = field(default_factory=list)
    #: Reification DBUri subjects, filled in by the load.
    dburis: list[str] = field(default_factory=list)
    #: Unloaded triples of single-valued predicates, one per
    #: (subject, predicate): what ``serve_hot`` inserts into ``ingest``,
    #: as ``[s, p, o, lexical form of o]``.
    ingest_pool: list[list[str]] = field(default_factory=list)
    #: New-subject triples re-labelled with ``BENCH_PREDICATE``: what
    #: ``serve_plain`` inserts into ``uniprot``.
    tag_pool: list[list[str]] = field(default_factory=list)


def object_text(term) -> str:
    """The text form ``RDFStore.find_link`` and ``/insert`` accept."""
    return str(term) if isinstance(term, Literal) else term.lexical


def spo(triple) -> tuple[str, str, str]:
    return (triple.subject.lexical, triple.predicate.lexical,
            object_text(triple.object))


def make_dataset(seed: int) -> tuple[Dataset, list, list]:
    """The constants, the triples to load and the statements to reify."""
    generator = UniProtGenerator(seed=seed)
    generated = list(generator.triples(TRIPLES + TAIL))
    loaded, tail = generated[:TRIPLES], generated[TRIPLES:]
    data = Dataset(seed)
    seen_subjects: set[str] = set()
    keywords: set[str] = set()
    organisms: set[str] = set()
    for triple in loaded:
        subject = triple.subject.lexical
        if subject not in seen_subjects:
            seen_subjects.add(subject)
            data.subjects.append(subject)
        predicate = triple.predicate.lexical
        if predicate == KEYWORD:
            keywords.add(triple.object.lexical)
        elif predicate == ORGANISM:
            organisms.add(triple.object.lexical)
        elif predicate == MNEMONIC:
            data.mnemonics.append(triple.object.lexical)
    data.keywords = sorted(keywords)
    data.organisms = sorted(organisms)
    # The record cut at the TRIPLES boundary is partly loaded: inserts
    # only ever name subjects the loaded data does not have.
    tagged: set[tuple[str, str]] = set()
    for triple in tail:
        subject, predicate, obj = spo(triple)
        if subject in seen_subjects:
            continue
        if predicate in SINGLE_VALUED:
            data.ingest_pool.append([subject, predicate, obj,
                                     triple.object.lexical])
        if (subject, obj) not in tagged:
            tagged.add((subject, obj))
            data.tag_pool.append([subject, BENCH_PREDICATE, obj])
    del data.ingest_pool[POOL:], data.tag_pool[POOL:]
    return data, loaded, generator.reified_statements(TRIPLES)


def rng(seed: int, workload: str, phase: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{phase}")


def stream_hash(ops: list) -> str:
    """A short digest of an operation stream, for the info line."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(json.dumps(op, sort_keys=True, default=repr)
                      .encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# query shapes
# ----------------------------------------------------------------------

def subject_lookup(subject: str) -> Query:
    """Experiment I / Table 1: every statement about one subject."""
    return Query(f"(<{subject}> ?p ?o)")


def dburi_lookup(dburi: str) -> Query:
    """A direct read of a reification DBUri subject (paper section 5)."""
    return Query(f"(<{dburi}> ?p ?o)")


def keyword_lookup(keyword: str) -> Query:
    return Query(f"(?s <{KEYWORD}> <{keyword}>)")


def organism_lookup(organism: str) -> Query:
    return Query(f"(?s <{ORGANISM}> <{organism}>)")


def star_join(keyword: str, organism: str) -> Query:
    """Subject-star join: proteins with a keyword in one organism."""
    return Query(f"(?s <{KEYWORD}> <{keyword}>) "
                 f"(?s <{ORGANISM}> <{organism}>)")


def mnemonic_like(prefix: str, limit: int) -> Query:
    return Query(f"(?s <{MNEMONIC}> ?m)",
                 filter=f'?m LIKE "{prefix}%"', order_by="m", limit=limit)


def see_also_scan() -> Query:
    return Query(f"(?s <{SEE_ALSO}> ?o)")


def see_also_like(database: str) -> Query:
    return Query(f"(?s <{SEE_ALSO}> ?o)",
                 filter=f'?o LIKE "%:{database}:%"')


def type_organism(organism: str) -> Query:
    return Query(f"(?s <{RDF_TYPE}> <{PROTEIN}>) "
                 f"(?s <{ORGANISM}> <{organism}>)")


def keyword_name(keyword: str) -> Query:
    return Query(f"(?s <{KEYWORD}> <{keyword}>) (?s <{NAME}> ?n)")


def readback(subject: str, predicate: str) -> Query:
    return Query(f"(<{subject}> <{predicate}> ?o)",
                 models=(INGEST_MODEL,))


# ----------------------------------------------------------------------
# catalogues
# ----------------------------------------------------------------------

def hot_catalogue(data: Dataset) -> list[Query]:
    """200 distinct queries for ``serve_hot``, rank order fixed by shape.

    Rank r gets shape ``r % 5`` so the Zipf weight each shape receives
    is the same on every seed; only the constants vary.
    """
    pick = rng(data.seed, "serve_hot", "catalogue")
    subjects = pick.sample(data.subjects[1:], 80)
    dburis = pick.sample(data.dburis, 40)
    pairs = [(k, o) for k in data.keywords for o in data.organisms]
    stars = pick.sample(pairs, 40)
    anchors = ([keyword_lookup(k) for k in pick.sample(data.keywords, 30)]
               + [organism_lookup(o) for o in data.organisms])
    pick.shuffle(anchors)
    columns = [
        [subject_lookup(PROBE_SUBJECT)] + [subject_lookup(s)
                                           for s in subjects[:39]],
        [dburi_lookup(dburi) for dburi in dburis],
        [subject_lookup(s) for s in subjects[39:79]],
        [star_join(k, o) for k, o in stars],
        anchors,
    ]
    return [column[rank] for rank in range(40) for column in columns]


def plain_catalogue(data: Dataset) -> dict[str, list[Query]]:
    """At least 2,000 distinct queries for ``serve_plain``, by shape."""
    pick = rng(data.seed, "serve_plain", "catalogue")
    pairs = [(k, o) for k in data.keywords for o in data.organisms]
    prefixes = sorted({m[:4] for m in data.mnemonics})
    return {
        "subject": [subject_lookup(s)
                    for s in pick.sample(data.subjects, 1100)],
        "anchored": ([keyword_lookup(k) for k in data.keywords]
                     + [organism_lookup(o) for o in data.organisms]),
        "star": [star_join(k, o) for k, o in pick.sample(pairs, 600)],
        "like": [mnemonic_like(p, 5) for p in prefixes],
    }


def scan_catalogue(data: Dataset) -> dict[str, list[Query]]:
    """The large-result shapes of ``scan_inproc``."""
    return {
        "seealso": [see_also_scan()],
        "seealso_like": [see_also_like(db) for db in
                         ("smart", "interpro", "prosite", "pfam", "embl",
                          "pdb", "go")],
        "type_organism": [type_organism(o) for o in data.organisms],
        "keyword_name": [keyword_name(k) for k in data.keywords],
        "organism": [organism_lookup(o) for o in data.organisms],
        "keyword": [keyword_lookup(k) for k in data.keywords],
    }
