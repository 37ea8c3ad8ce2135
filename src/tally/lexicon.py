"""Concept vocabularies and synonym expansion.

A concept is (concept_id, name, definition). Each concept gets a SynonymSet:
the normalized original name first, then provider-suggested alternatives,
normalized and deduplicated, each tagged with where it came from. Synonym
lists drive both corpus matching and prompt construction, so their order is
part of the contract (ties in downstream argmaxes resolve by list position).

Providers are pluggable: an HTTP endpoint (POST /synonyms {"name": ...} ->
{"synonyms": [...]}) for real runs, a fixture file for tests and offline
work. A SynonymCache wraps one provider and answers from a file of its
responses, keyed by concept name, so re-runs are deterministic and free.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .corpus import normalize_text
from .errors import InputError, ProviderError
from .io import SORTED_JSON, json_int, loads_line, read_jsonl, read_table, string_list, write_jsonl

if TYPE_CHECKING:
    from .embeddings import EmbeddingMatrix

logger = logging.getLogger(__name__)

PROVENANCE_ORIGINAL = "original"
PROVENANCE_PROVIDER = "provider"
PROVENANCE_MANUAL = "manual"
_PROVENANCE_TAGS = (PROVENANCE_ORIGINAL, PROVENANCE_PROVIDER, PROVENANCE_MANUAL)


@dataclass(frozen=True)
class Concept:
    concept_id: int
    name: str
    definition: str = ""

    def __post_init__(self):
        if not self.name or not self.name.strip():
            raise InputError(f"concept {self.concept_id} has an empty name")


class ConceptSet:
    """Ordered collection of concepts with unique ids."""

    def __init__(self, concepts: list[Concept]):
        self.concepts = list(concepts)
        self._by_id: dict[int, Concept] = {}
        for c in self.concepts:
            if c.concept_id in self._by_id:
                raise InputError(f"duplicate concept_id {c.concept_id}")
            self._by_id[c.concept_id] = c

    def __iter__(self):
        return iter(self.concepts)

    def __len__(self):
        return len(self.concepts)

    def __getitem__(self, concept_id: int) -> Concept:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise InputError(f"unknown concept_id {concept_id}") from None

    def __contains__(self, concept_id: int) -> bool:
        return concept_id in self._by_id

    @property
    def ids(self) -> list[int]:
        return [c.concept_id for c in self.concepts]

    @classmethod
    def from_jsonl(cls, path: str) -> "ConceptSet":
        def parse(obj) -> Concept:
            return Concept(json_int(obj, "concept_id"), str(obj["name"]), str(obj.get("definition", "")))

        return cls(read_jsonl(path, "concept record", parse))


@dataclass
class SynonymSet:
    """Normalized, deduplicated synonyms for one concept; original name first.

    `name` is the concept's name as given, before normalization; it
    defaults to the original synonym.
    """

    concept_id: int
    synonyms: list[str]
    provenance: list[str] = field(default_factory=list)
    name: str = ""

    def __post_init__(self):
        if not self.synonyms:
            raise InputError(f"concept {self.concept_id}: synonym list is empty")
        self.name = self.name or self.synonyms[0]
        if len(self.provenance) != len(self.synonyms):
            raise InputError(
                f"concept {self.concept_id}: {len(self.synonyms)} synonyms "
                f"but {len(self.provenance)} provenance tags"
            )
        seen = set()
        for s in self.synonyms:
            if s != normalize_text(s) or not s:
                raise InputError(f"concept {self.concept_id}: synonym {s!r} is not normalized")
            if s in seen:
                raise InputError(f"concept {self.concept_id}: duplicate synonym {s!r}")
            seen.add(s)
        for tag in self.provenance:
            if tag not in _PROVENANCE_TAGS:
                raise InputError(f"concept {self.concept_id}: unknown provenance tag {tag!r}")

    @property
    def original(self) -> str:
        return self.synonyms[0]


def table_id(kind: str, table: dict) -> str:
    """`kind:<16 hex>`, from a sha256 of an offline provider's table, so that
    an edited fixture or blocklist starts a fresh cache slot."""
    digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode("utf-8")).hexdigest()
    return f"{kind}:{digest[:16]}"


class FixtureSynonymProvider:
    """Synonyms from an in-memory mapping or a JSONL file of {"name","synonyms"}."""

    def __init__(self, table: dict[str, list[str]]):
        self.table = dict(table)
        self.provider_id = table_id("fixture", self.table)

    @classmethod
    def from_jsonl(cls, path: str) -> "FixtureSynonymProvider":
        return cls(read_table(path, "synonym record", "synonyms"))

    def synonyms_for(self, name: str) -> list[str]:
        return list(self.table.get(name, []))


def post_json(url: str, payload: dict, timeout: float, parse, failure: str, concept_id=None):
    """POST payload as JSON and return parse(reply). A transport, status,
    JSON or reply-shape failure (KeyError/TypeError/ValueError from parse)
    is a ProviderError "<failure>: <cause>" carrying concept_id."""
    import requests  # only HTTP providers pay for it

    try:
        resp = requests.post(url, json=payload, timeout=timeout)
        resp.raise_for_status()
        return parse(resp.json())
    except (requests.RequestException, KeyError, TypeError, ValueError) as e:
        raise ProviderError(f"{failure}: {e}", concept_id) from e


class HttpSynonymProvider:
    """POST {"name": <concept name>} to <base_url>/synonyms, expect {"synonyms": [...]}."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.provider_id = f"http:{self.base_url}"
        self.timeout = timeout

    def synonyms_for(self, name: str) -> list[str]:
        return post_json(
            self.base_url + "/synonyms", {"name": name}, self.timeout,
            lambda reply: string_list(reply["synonyms"], "synonyms"),
            f"synonym provider failed for {name!r}",
        )


class CacheFile:
    """An append-only JSONL table of provider answers that survives a torn final line.

    The constructor loads every record through parse(obj) -> (key, value),
    later records winning; `put` stores and appends a key at most once, and
    a lock serializes `get` and `put` across threads. A writer killed
    mid-append leaves the last line without its newline. Loading skips that
    line when it is not a valid record, and the first `put` truncates it; a
    valid record that only lacks its newline is kept and ended before the
    next record is written. Any other malformed line is an InputError naming
    path:lineno. Appends share one handle, flushed after each record so a
    kill tears at most the last line, and closed when the CacheFile is
    collected (in CPython, as soon as its owner drops it).
    """

    def __init__(self, path: str, parse):
        self.path = path
        self._repair: tuple[int, bytes] | None = None  # truncate at, then write
        self._handle = None
        self._lock = threading.Lock()
        self._table = {}
        if not os.path.exists(path):
            return
        with open(path, "rb") as f:
            data = f.read()
        offset = 0
        for lineno, line in enumerate(data.split(b"\n"), 1):
            end = offset + len(line)
            if line.strip():
                try:
                    key, value = parse(loads_line(line))
                except (KeyError, TypeError, ValueError) as e:
                    if end < len(data):
                        raise InputError(f"{self.path}:{lineno}: bad cache record: {e}") from e
                    logger.warning("%s:%d: skipping a torn final line", self.path, lineno)
                    self._repair = (offset, b"")
                else:
                    self._table[key] = value
                    if end == len(data):
                        self._repair = (end, b"\n")
            offset = end + 1

    def get(self, key):
        with self._lock:
            return self._table.get(key)

    def put(self, key, value, record: dict) -> None:
        """Store value under key and append record, unless key is already stored."""
        with self._lock:
            if key in self._table:
                return
            self._table[key] = value
            if self._handle is None:
                self._handle = open(self.path, "ab")
                weakref.finalize(self, self._handle.close)
                if self._repair is not None:
                    at, glue = self._repair
                    self._handle.truncate(at)
                    self._handle.write(glue)
                    self._repair = None
            self._handle.write(SORTED_JSON.encode(record).encode("utf-8") + b"\n")
            self._handle.flush()


class SynonymCache:
    """A provider that answers from cache_dir/synonyms_<id>_<sha256 of id>.jsonl, the
    wrapped provider's raw responses {"name", "synonyms"} (before normalization, so
    changing the normalizer never invalidates it), and asks that provider only on a miss."""

    def __init__(self, cache_dir: str, provider):
        os.makedirs(cache_dir, exist_ok=True)
        self._provider = provider
        self.provider_id = provider.provider_id
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in self.provider_id)
        digest = hashlib.sha256(self.provider_id.encode("utf-8")).hexdigest()[:8]
        self._file = CacheFile(
            os.path.join(cache_dir, f"synonyms_{safe}_{digest}.jsonl"),
            lambda obj: (obj["name"], string_list(obj["synonyms"], "synonyms")),
        )

    def synonyms_for(self, name: str) -> list[str]:
        synonyms = self._file.get(name)
        if synonyms is None:
            synonyms = self._provider.synonyms_for(name)
            self._file.put(name, synonyms, {"name": name, "synonyms": synonyms})
        return synonyms


def expand_synonyms(concept: Concept, provider) -> SynonymSet:
    """Build the concept's SynonymSet from a provider (a SynonymCache, to cache it).

    The normalized original name always comes first; provider suggestions
    follow in response order, normalized, with duplicates (including of the
    name) dropped. An empty response degrades to the name alone with a
    warning. Provider failures propagate as ProviderError carrying the
    concept id.
    """
    name_norm = normalize_text(concept.name)
    if not name_norm:
        raise InputError(
            f"concept {concept.concept_id}: name {concept.name!r} normalizes to nothing"
        )
    try:
        raw = provider.synonyms_for(concept.name)
    except ProviderError as e:
        e.concept_id = concept.concept_id
        raise
    if not raw:
        logger.warning(
            "concept %d (%r): provider %s returned no synonyms; using the name alone",
            concept.concept_id,
            concept.name,
            provider.provider_id,
        )
    synonyms = [name_norm]
    provenance = [PROVENANCE_ORIGINAL]
    for s in raw:
        s_norm = normalize_text(s)
        if s_norm and s_norm not in synonyms:
            synonyms.append(s_norm)
            provenance.append(PROVENANCE_PROVIDER)
    return SynonymSet(concept.concept_id, synonyms, provenance, concept.name)


def filter_synonyms(
    sets: list[SynonymSet],
    concepts: ConceptSet,
    name_embeddings: EmbeddingMatrix,
    synonym_embeddings: EmbeddingMatrix,
) -> list[SynonymSet]:
    """Drop synonyms that sit closer to some other concept's name.

    A synonym s of concept c is retained iff cosine(emb(s), emb(name(c)))
    is at least its cosine to every other concept's name embedding (exact
    ties keep). The original name is always retained. Order is preserved,
    so the pass is idempotent. Embeddings are looked up by normalized name
    / synonym string; a missing key raises MissingEmbeddingError naming it.
    """
    import numpy as np

    ids = [s.concept_id for s in sets]
    name_keys = [normalize_text(concepts[cid].name) for cid in ids]
    name_mat = name_embeddings.rows(name_keys).astype(np.float64)
    name_norms = np.linalg.norm(name_mat, axis=1)
    if np.any(name_norms == 0.0):
        raise InputError("a concept name embedding is the zero vector")

    out = []
    for row, synset in enumerate(sets):
        kept_syn = synset.synonyms[:1]
        kept_prov = synset.provenance[:1]
        candidates = synset.synonyms[1:]
        vecs = synonym_embeddings.rows(candidates).astype(np.float64)
        for s, tag, v in zip(candidates, synset.provenance[1:], vecs):
            nv = np.linalg.norm(v)
            if nv == 0.0:
                raise InputError(f"synonym {s!r} has a zero embedding")
            sims = (name_mat @ v) / (name_norms * nv)
            if sims[row] >= np.max(sims):
                kept_syn.append(s)
                kept_prov.append(tag)
            else:
                logger.info(
                    "concept %d: dropping synonym %r (closer to concept %d)",
                    synset.concept_id,
                    s,
                    ids[int(np.argmax(sims))],
                )
        out.append(SynonymSet(synset.concept_id, kept_syn, kept_prov, synset.name))
    return out


def load_synonym_sets(path: str) -> list[SynonymSet]:
    """Read the synonyms artifact: JSONL {"concept_id","name","synonyms","provenance"}."""

    def parse(obj) -> SynonymSet:
        synonyms = string_list(obj["synonyms"], "synonyms")
        provenance = string_list(obj.get("provenance", []), "provenance")
        if not provenance:
            provenance = [PROVENANCE_ORIGINAL] + [PROVENANCE_PROVIDER] * (len(synonyms) - 1)
        return SynonymSet(json_int(obj, "concept_id"), synonyms, provenance, str(obj.get("name", "")))

    sets = read_jsonl(path, "synonym set", parse)
    if not sets:
        raise InputError(f"{path}: no synonym sets")
    return sets


def save_synonym_sets(sets: list[SynonymSet], path: str) -> None:
    write_jsonl(
        path,
        (
            {
                "concept_id": s.concept_id,
                "name": s.name,
                "synonyms": s.synonyms,
                "provenance": s.provenance,
            }
            for s in sets
        ),
    )
