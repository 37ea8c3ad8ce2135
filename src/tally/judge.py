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
the budget is spent the pair is reported undecided and excluded from
filtered counts rather than silently counted either way.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import dataclass, field

from .analytics import FrequencyTable
from .corpus import normalize_text
from .errors import (
    ConsistencyError,
    InputError,
    ProviderError,
    UndefinedPrecisionError,
)
from .io import json_int, read_jsonl, read_table, write_jsonl
from .lexicon import CacheFile, Concept, ConceptSet, post_json, table_id
from .matcher import MatchHit, count_captions

logger = logging.getLogger(__name__)


def _flag(obj: dict, key: str = "relevant") -> bool:
    """obj[key] if it is a JSON bool; "false" or 0 is a TypeError, not read through bool()."""
    value = obj[key]
    if not isinstance(value, bool):
        raise TypeError(f"{key!r} is {type(value).__name__}, not bool")
    return value


@dataclass(frozen=True)
class JudgeVerdict:
    caption_id: int
    concept_id: int
    relevant: bool
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
            return json_int(obj, "caption_id"), json_int(obj, "concept_id"), _flag(obj, "gold_relevant")

        pairs = read_jsonl(path, "validation pair", parse)
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
            self.base_url + "/judge", payload, self.timeout, _flag,
            f"judge failed for concept {concept.concept_id}", concept.concept_id,
        )


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
                (obj["judge_id"], json_int(obj, "concept_id"), obj["caption_sha256"]),
                _flag(obj),
            ),
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
        self._file.put(
            (judge_id, concept_id, cap_hash),
            relevant,
            {
                "judge_id": judge_id,
                "concept_id": concept_id,
                "caption_sha256": cap_hash,
                "relevant": relevant,
            },
        )


@dataclass
class JudgeOutcome:
    verdicts: list[JudgeVerdict]
    undecided: list[tuple[int, int]] = field(default_factory=list)  # (caption_id, concept_id)

    @classmethod
    def of(cls, results) -> "JudgeOutcome":
        """Split a stream of verdicts and undecided pairs, keeping each in order."""
        outcome = cls(verdicts=[])
        for r in results:
            if isinstance(r, JudgeVerdict):
                outcome.verdicts.append(r)
            else:
                outcome.undecided.append(r)
        return outcome


def judge_hits(
    hits: list[MatchHit],
    concepts: ConceptSet,
    captions: dict[int, str],
    judge,
    *,
    max_attempts: int = 3,
    backoff_s: float = 0.5,
    max_workers: int = 1,
) -> JudgeOutcome:
    """One verdict per unique (caption, concept) pair among the hits.

    `captions` maps caption_id -> normalized text (only ids appearing in
    hits are required); pass a VerdictCache as `judge` to cache verdicts.
    Provider failures retry up to max_attempts with exponential backoff; an
    exhausted budget marks the pair undecided rather than failing the run.
    Verdict order follows first appearance in the hit stream regardless of
    worker count.
    """
    pairs: list[tuple[int, int]] = []
    seen = set()
    for h in hits:
        key = (h.caption_id, h.concept_id)
        if key not in seen:
            seen.add(key)
            pairs.append(key)
    for caption_id, concept_id in pairs:
        if caption_id not in captions:
            raise InputError(f"no caption text supplied for caption_id {caption_id}")
        concepts[concept_id]  # raises InputError when unknown

    def decide(pair: tuple[int, int]) -> JudgeVerdict | tuple[int, int]:
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
        return pair

    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(decide, pairs))
    else:
        results = [decide(p) for p in pairs]

    return JudgeOutcome.of(results)


def relevant_pairs(
    hits: list[MatchHit],
    verdicts: list[JudgeVerdict],
    undecided: list[tuple[int, int]] | None,
) -> set[tuple[int, int]]:
    """The judged-relevant (caption, concept) pairs of the hits.

    Every pair in the hits must carry a verdict or be listed as undecided —
    anything else is a ConsistencyError, because a silently unjudged hit
    would make raw and filtered counts incomparable. Undecided pairs are
    never relevant.
    """
    verdict_map = {(v.caption_id, v.concept_id): v.relevant for v in verdicts}
    undecided_set = set(undecided or [])
    for h in hits:
        key = (h.caption_id, h.concept_id)
        if key not in verdict_map and key not in undecided_set:
            raise ConsistencyError(
                f"hit (caption {h.caption_id}, concept {h.concept_id}) has no verdict "
                f"and is not marked undecided"
            )
    return {key for key, rel in verdict_map.items() if rel and key not in undecided_set}


def filtered_frequency(
    hits: list[MatchHit],
    verdicts: list[JudgeVerdict],
    concepts: ConceptSet | None = None,
    *,
    undecided: list[tuple[int, int]] | None = None,
) -> tuple[FrequencyTable, dict[tuple[int, str], int]]:
    """Per-concept counts of captions with ≥1 hit (raw) and ≥1 relevant hit
    (filtered), and captions per (concept, synonym) counting only relevant
    pairs. Undecided pairs count toward raw but not filtered."""
    relevant = relevant_pairs(hits, verdicts, undecided)
    ids = concepts.ids if concepts is not None else None
    return count_captions(hits, ids, relevant)


def filtered_synonym_counts(
    hits: list[MatchHit],
    verdicts: list[JudgeVerdict],
    *,
    undecided: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, str], int]:
    """Captions per (concept, synonym) counting only judged-relevant pairs."""
    return filtered_frequency(hits, verdicts, undecided=undecided)[1]


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


def save_verdicts(outcome: JudgeOutcome, path: str) -> None:
    """Verdicts, then undecided pairs as {"relevant": null, "judge_id": ""}."""
    rows = [(v.caption_id, v.concept_id, v.relevant, v.judge_id) for v in outcome.verdicts]
    rows += [(caption_id, concept_id, None, "") for caption_id, concept_id in outcome.undecided]
    keys = ("caption_id", "concept_id", "relevant", "judge_id")
    write_jsonl(path, (dict(zip(keys, row)) for row in rows))


def load_verdicts(path: str) -> JudgeOutcome:
    def parse(obj) -> JudgeVerdict | tuple[int, int]:
        pair = json_int(obj, "caption_id"), json_int(obj, "concept_id")
        if obj["relevant"] is None:
            return pair
        return JudgeVerdict(*pair, _flag(obj), str(obj.get("judge_id", "")))

    return JudgeOutcome.of(read_jsonl(path, "verdict record", parse))
