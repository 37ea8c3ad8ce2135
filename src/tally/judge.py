"""Relevance judging: separate true concept mentions from string collisions.

A raw string match is only a candidate — "tiger shark swimming in water"
matches the pattern "tiger" without containing one. Each unique
(caption, concept) pair gets one verdict from a judge; filtered frequency
then counts only captions with at least one relevant hit.

Judges are pluggable:
  HttpJudge  — POST {"concept","definition","caption"} to <url>/judge,
               expects {"relevant": bool}; how the provider phrases the
               question is its business.
  RuleStubJudge — offline stand-in driven by per-concept blocklists: a
               caption is rejected iff it contains a blocklisted phrase.

A VerdictCache wraps a judge and answers from disk, keyed by (judge_id,
concept_id, caption hash), so re-runs are deterministic and never re-query
the provider. Transient judge failures retry with exponential backoff; when
the budget is spent the pair's verdict is undecided (relevant=None) and it
is excluded from filtered counts rather than silently counted either way.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

from .analytics import FrequencyTable
from .corpus import normalize_text
from .errors import (
    ConsistencyError,
    InputError,
    ProviderError,
    UndefinedPrecisionError,
)
from .io import Schema, json_field, read_jsonl, read_table
from .lexicon import CacheFile, Concept, ConceptSet, post_json, table_id
from .matcher import MatchHit, count_captions

logger = logging.getLogger(__name__)


class JudgeVerdict(NamedTuple):
    """One judged pair; an undecided pair has relevant=None and judge_id ""."""

    caption_id: int
    concept_id: int
    relevant: bool | None
    judge_id: str


@dataclass
class ValidationSet:
    """Gold (caption, concept, relevant) triples for definition tuning."""

    pairs: list[tuple[int, int, bool]]  # (caption_id, concept_id, gold_relevant)

    def __post_init__(self):
        seen = set()
        for caption_id, concept_id, _ in self.pairs:
            key = (caption_id, concept_id)
            if key in seen:
                raise InputError(f"duplicate validation pair {key}")
            seen.add(key)

    @classmethod
    def from_jsonl(cls, path: str) -> "ValidationSet":
        def parse(obj) -> tuple[int, int, bool]:
            pair = json_field(obj, "caption_id"), json_field(obj, "concept_id")
            return *pair, json_field(obj, "gold_relevant", bool)

        pairs = read_jsonl(path, "validation pair", parse, ("validation pair", lambda p: p[:2]))
        if not pairs:
            raise InputError(f"{path}: empty validation set")
        return cls(pairs)


class RuleStubJudge:
    """Deterministic offline judge: reject iff the caption contains any
    blocklisted phrase for the concept; accept otherwise.

    Blocklist phrases are normalized at load and tested by plain substring
    against the caption, which callers pass already normalized. The
    default judge_id names the normalized blocklists by their sha256.
    """

    def __init__(self, blocklists: dict[str, list[str]], judge_id: str | None = None):
        self.blocklists = {
            name: [normalize_text(p) for p in phrases] for name, phrases in blocklists.items()
        }
        self.judge_id = judge_id or table_id("rule-stub", self.blocklists)

    @classmethod
    def from_jsonl(cls, path: str) -> "RuleStubJudge":
        """Load JSONL of {"name": <concept name>, "reject_phrases": [...]}."""
        return cls(read_table(path, "blocklist record", "reject_phrases"))

    def judge(self, concept: Concept, caption: str, definition: str | None = None) -> bool:
        """`caption` is normalized text, as judge_hits and definition_precision pass it."""
        for phrase in self.blocklists.get(concept.name, []):
            if phrase and phrase in caption:
                return False
        return True


class HttpJudge:
    """POST {"concept","definition","caption"} to <base_url>/judge."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.judge_id = f"http:{self.base_url}"
        self.timeout = timeout

    def judge(self, concept: Concept, caption: str, definition: str | None = None) -> bool:
        payload = {
            "concept": concept.name,
            "definition": concept.definition if definition is None else definition,
            "caption": caption,
        }
        return post_json(
            self.base_url + "/judge", payload, self.timeout, lambda r: json_field(r, "relevant", bool),
            f"judge failed for concept {concept.concept_id}", concept.concept_id,
        )


# A verdicts-file line, and a verdict-cache line.
_VERDICT = Schema(caption_id=int, concept_id=int, judge_id=str, relevant=bool | None)
_CACHED = Schema(caption_sha256=str, concept_id=int, judge_id=str, relevant=bool)


def caption_hash(norm_text: str) -> str:
    return hashlib.sha256(norm_text.encode("utf-8")).hexdigest()


class VerdictCache:
    """A judge that answers from cache_dir/verdicts.jsonl, verdicts keyed (judge_id,
    concept_id, caption hash), and asks the wrapped judge only on a miss. Its `judge`
    takes no definition, so definition tuning never reads a cached verdict."""

    def __init__(self, cache_dir: str, judge):
        os.makedirs(cache_dir, exist_ok=True)
        self.judge_id = judge.judge_id
        self._judge = judge
        self._file = CacheFile(
            os.path.join(cache_dir, "verdicts.jsonl"),
            lambda obj: (
                (json_field(obj, "judge_id", str), json_field(obj, "concept_id"),
                 json_field(obj, "caption_sha256", str)),
                json_field(obj, "relevant", bool),
            ),
            _CACHED,
            lambda cap_hash, concept_id, judge_id, relevant: ((judge_id, concept_id, cap_hash), relevant),
        )

    def judge(self, concept: Concept, caption: str) -> bool:
        cap_hash = caption_hash(caption)
        relevant = self.get(self.judge_id, concept.concept_id, cap_hash)
        if relevant is None:
            relevant = self._judge.judge(concept, caption)
            self.put(self.judge_id, concept.concept_id, cap_hash, relevant)
        return relevant

    def get(self, judge_id: str, concept_id: int, cap_hash: str) -> bool | None:
        return self._file.get((judge_id, concept_id, cap_hash))

    def put(self, judge_id: str, concept_id: int, cap_hash: str, relevant: bool) -> None:
        self._file.put((judge_id, concept_id, cap_hash), relevant, (cap_hash, concept_id, judge_id, relevant))


def judge_hits(
    hits: list[MatchHit],
    concepts: ConceptSet,
    captions: dict[int, str],
    judge,
    *,
    max_attempts: int = 3,
    backoff_s: float = 0.5,
    max_workers: int = 1,
) -> list[JudgeVerdict]:
    """One verdict per unique (caption, concept) pair among the hits.

    `captions` maps caption_id -> normalized text (only ids appearing in
    hits are required); pass a VerdictCache as `judge` to cache verdicts.
    Provider failures retry up to max_attempts with exponential backoff; an
    exhausted budget gives the pair relevant=None (undecided) rather than
    failing the run. Verdict order follows first appearance in the hit stream
    regardless of worker count.
    """
    pairs = list(dict.fromkeys((h.caption_id, h.concept_id) for h in hits))  # first appearance order
    for caption_id, concept_id in pairs:
        if caption_id not in captions:
            raise InputError(f"no caption text supplied for caption_id {caption_id}")
        concepts[concept_id]  # raises InputError when unknown

    def decide(pair: tuple[int, int]) -> JudgeVerdict:
        caption_id, concept_id = pair
        last_error: Exception | None = None
        for attempt in range(max_attempts):
            try:
                relevant = judge.judge(concepts[concept_id], captions[caption_id])
                return JudgeVerdict(caption_id, concept_id, relevant, judge.judge_id)
            except ProviderError as e:
                last_error = e
                if attempt + 1 < max_attempts and backoff_s > 0:
                    time.sleep(backoff_s * (2**attempt))
        logger.warning(
            "judge gave no verdict for caption %d / concept %d after %d attempts: %s",
            caption_id,
            concept_id,
            max_attempts,
            last_error,
        )
        return JudgeVerdict(caption_id, concept_id, None, "")

    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(decide, pairs))
    return [decide(p) for p in pairs]


def relevant_pairs(hits: list[MatchHit], verdicts: list[JudgeVerdict]) -> set[tuple[int, int]]:
    """The judged-relevant (caption, concept) pairs of the hits.

    Every pair in the hits must carry exactly one verdict, undecided ones
    included — anything else is a ConsistencyError, because a silently
    unjudged hit would make raw and filtered counts incomparable, and of two
    verdicts for one pair neither is the answer. Undecided pairs are never
    relevant.
    """
    relevance: dict[tuple[int, int], bool | None] = {}
    for v in verdicts:
        key = (v.caption_id, v.concept_id)
        if key in relevance:
            raise ConsistencyError(f"pair (caption {v.caption_id}, concept {v.concept_id}) has two verdicts")
        relevance[key] = v.relevant
    for h in hits:
        if (h.caption_id, h.concept_id) not in relevance:
            raise ConsistencyError(f"hit (caption {h.caption_id}, concept {h.concept_id}) has no verdict")
    return {key for key, rel in relevance.items() if rel}


def filtered_frequency(
    hits: list[MatchHit],
    verdicts: list[JudgeVerdict],
    concepts: ConceptSet | None = None,
) -> tuple[FrequencyTable, dict[tuple[int, str], int]]:
    """Per-concept counts of captions with ≥1 hit (raw) and ≥1 relevant hit
    (filtered), and captions per (concept, synonym) counting only relevant
    pairs. Undecided pairs count toward raw but not filtered."""
    ids = concepts.ids if concepts is not None else None
    return count_captions(hits, ids, relevant_pairs(hits, verdicts))


def filtered_synonym_counts(hits: list[MatchHit], verdicts: list[JudgeVerdict]) -> dict[tuple[int, str], int]:
    """Captions per (concept, synonym) counting only judged-relevant pairs."""
    return filtered_frequency(hits, verdicts)[1]


def definition_precision(
    concept: Concept,
    definition: str,
    validation: ValidationSet,
    judge,
    captions: dict[int, str],
) -> float:
    """Precision of a candidate definition on the concept's validation pairs.

    precision = |judged relevant ∧ gold relevant| / |judged relevant|.
    Zero judged-relevant pairs leave precision undefined and raise — a 0
    would look like a terrible definition when the judge simply rejected
    everything. Judges are queried directly (never through the verdict
    cache) so a definition edit is actually re-evaluated.
    """
    pairs = [(cap, gold) for cap, cid, gold in validation.pairs if cid == concept.concept_id]
    if not pairs:
        raise InputError(f"validation set has no pairs for concept {concept.concept_id}")
    judged_relevant = 0
    agree = 0
    for caption_id, gold in pairs:
        if caption_id not in captions:
            raise InputError(f"no caption text supplied for caption_id {caption_id}")
        if judge.judge(concept, captions[caption_id], definition=definition):
            judged_relevant += 1
            if gold:
                agree += 1
    if judged_relevant == 0:
        raise UndefinedPrecisionError(
            f"concept {concept.concept_id}: judge marked zero validation pairs relevant"
        )
    return agree / judged_relevant


def save_verdicts(verdicts: list[JudgeVerdict], path: str) -> None:
    """Decided verdicts, then undecided ones ({"relevant": null, "judge_id": ""}), each in order."""
    ordered = sorted(verdicts, key=lambda v: v.relevant is None)
    _VERDICT.write(path, ((v.caption_id, v.concept_id, v.judge_id, v.relevant) for v in ordered))


def load_verdicts(path: str) -> list[JudgeVerdict]:
    """Verdicts in file order; a (caption_id, concept_id) pair may appear once."""

    def parse(obj) -> JudgeVerdict:
        pair = json_field(obj, "caption_id"), json_field(obj, "concept_id")
        relevant = None if obj["relevant"] is None else json_field(obj, "relevant", bool)
        return JudgeVerdict(*pair, relevant, json_field(obj, "judge_id", str, default=""))

    def build(caption_id: int, concept_id: int, judge_id: str, relevant: bool | None) -> JudgeVerdict:
        return JudgeVerdict(caption_id, concept_id, relevant, judge_id)

    return read_jsonl(
        path, "verdict record", parse, ("(caption_id, concept_id)", lambda v: v[:2]), schema=_VERDICT, build=build
    )
