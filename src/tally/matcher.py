"""Multi-pattern string matching over normalized captions.

Finds every occurrence of every synonym in one pass per caption.

Two modes:
  whole_word — an occurrence must be delimited by string boundaries or
    spaces on both sides ("tigers" does not contain "tiger"); multi-word
    patterns match contiguous token runs. Normalized captions separate
    words by single spaces and synonyms are normalized, so this is a token
    index: each pattern is filed under its first token, and a caption is
    split on " " once, each token looked up, and the tokens after a hit
    compared with the rest of the pattern. (It is the whole-word case of an
    Aho-Corasick automaton, where the automaton reduces to a dict.)
  partial — plain substring matching, no boundary requirement (useful for
    vocabularies like car model names where captions abbreviate freely).
    Patterns are grouped by length and each length class becomes one
    compiled regex alternation wrapped in a capturing lookahead
    `(?=(a|b|...))`, which makes the scan emit *overlapping* occurrences:
    at a fixed start position at most one pattern of a given length can
    match, so per-length alternations enumerate every (position, pattern)
    occurrence exactly. A single combined `search` prefilter skips captions
    that contain no candidate at all.

Counting is per caption: a caption contributes at most 1 to a concept's
raw count no matter how many times, or via how many synonyms, it mentions
the concept. Hits are emitted one per (caption, concept, synonym) with the
span of the first occurrence.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .analytics import FrequencyTable
from .corpus import CorpusShard, iter_shard
from .errors import EmptyPatternSetError, InputError
from .lexicon import SynonymSet

MODES = ("whole_word", "partial")


@dataclass(frozen=True)
class MatchHit:
    """One synonym of one concept seen in one caption (first occurrence).

    span indexes the normalized text: norm_text[span[0]:span[1]] == synonym.
    Hits read back from disk carry no span (the file schema omits it).
    """

    caption_id: int
    concept_id: int
    synonym: str
    span: tuple[int, int] | None = None


@dataclass
class PatternAutomaton:
    """Compiled synonym patterns; build with `compile`, reusable across scans."""

    mode: str
    owners: dict[str, tuple[int, ...]]  # pattern -> owning concept_ids
    concept_ids: tuple[int, ...]  # every concept in the task, in input order
    pattern_count: int
    # whole_word: first token -> [(pattern, its remaining tokens)]
    _index: dict[str, list[tuple[str, list[str]]]] = field(repr=False, default_factory=dict)
    # partial: one lookahead scanner per pattern length, and an existence prefilter
    _scanners: list[re.Pattern] = field(repr=False, default_factory=list)
    _prefilter: re.Pattern | None = field(repr=False, default=None)

    def find(self, norm_text: str) -> list[tuple[str, int]]:
        """All (pattern, start) occurrences in one normalized caption."""
        found = []
        if self.mode == "whole_word":
            tokens = norm_text.split(" ")
            # Most captions hold no pattern's first token; this set-level
            # check skips them without a Python loop over their tokens.
            if self._index.keys().isdisjoint(tokens):
                return found
            start = 0  # char offset of tokens[i]
            for i, token in enumerate(tokens):
                for pattern, rest in self._index.get(token, ()):
                    if tokens[i + 1 : i + 1 + len(rest)] == rest:
                        found.append((pattern, start))
                start += len(token) + 1
            return found
        if self._prefilter.search(norm_text) is None:
            return found
        for scanner in self._scanners:
            for m in scanner.finditer(norm_text):
                found.append((m.group(1), m.start(1)))
        return found


def compile(sets: list[SynonymSet], mode: str = "whole_word") -> PatternAutomaton:
    """Build a PatternAutomaton from synonym sets.

    Every synonym becomes a pattern; a synonym shared by several concepts
    is compiled once and owns all of them. The pattern count equals the
    total number of synonyms across sets.
    """
    if mode not in MODES:
        raise InputError(f"unknown match mode {mode!r}; expected one of {MODES}")
    owners: dict[str, list[int]] = {}
    pattern_count = 0
    for synset in sets:
        for s in synset.synonyms:
            pattern_count += 1
            owners.setdefault(s, []).append(synset.concept_id)
    if not owners:
        raise EmptyPatternSetError("no patterns to compile")

    index: dict[str, list[tuple[str, list[str]]]] = {}
    scanners = []
    prefilter = None
    if mode == "whole_word":
        for pattern in owners:
            first, *rest = pattern.split(" ")
            index.setdefault(first, []).append((pattern, rest))
    else:
        by_len: dict[int, list[str]] = {}
        for pattern in owners:
            by_len.setdefault(len(pattern), []).append(pattern)
        for length in sorted(by_len):
            alternation = "|".join(re.escape(p) for p in sorted(by_len[length]))
            scanners.append(re.compile(f"(?=((?:{alternation})))"))
        # Existence prefilter: no overlap bookkeeping — one C-speed search
        # that can only over-approximate, never miss.
        all_patterns = "|".join(re.escape(p) for p in sorted(owners, key=len, reverse=True))
        prefilter = re.compile(all_patterns)

    return PatternAutomaton(
        mode=mode,
        owners={p: tuple(cids) for p, cids in owners.items()},
        concept_ids=tuple(s.concept_id for s in sets),
        pattern_count=pattern_count,
        _index=index,
        _scanners=scanners,
        _prefilter=prefilter,
    )


@dataclass
class ScanResult:
    """Output of one scan: hits plus per-concept (and optional per-synonym) tallies."""

    table: FrequencyTable
    n_records: int
    n_skipped: int = 0
    hits: list[MatchHit] = field(default_factory=list)
    synonym_counts: dict[tuple[int, str], int] | None = None

    def merge(self, other: "ScanResult") -> "ScanResult":
        """Combine two shard results; merging is associative addition."""
        counts = {
            cid: (
                self.table.raw(cid) + other.table.raw(cid),
                self.table.filtered(cid) + other.table.filtered(cid),
            )
            for cid in self.table.counts
        }
        syn = None
        if self.synonym_counts is not None and other.synonym_counts is not None:
            syn = dict(self.synonym_counts)
            for key, n in other.synonym_counts.items():
                syn[key] = syn.get(key, 0) + n
        return ScanResult(
            table=FrequencyTable(counts, corpus_id=self.table.corpus_id),
            n_records=self.n_records + other.n_records,
            n_skipped=self.n_skipped + other.n_skipped,
            hits=self.hits + other.hits,
            synonym_counts=syn,
        )


def caption_hits(record_id: int, norm_text: str, automaton: PatternAutomaton) -> list[MatchHit]:
    """Hits for one caption: one per (concept, synonym), first occurrence,
    ordered by (concept_id, synonym)."""
    first: dict[str, int] = {}
    for pattern, start in automaton.find(norm_text):
        if pattern not in first or start < first[pattern]:
            first[pattern] = start
    hits = []
    for pattern, start in first.items():
        for cid in automaton.owners[pattern]:
            hits.append(MatchHit(record_id, cid, pattern, (start, start + len(pattern))))
    hits.sort(key=lambda h: (h.concept_id, h.synonym))
    return hits


def scan(
    records,
    automaton: PatternAutomaton,
    *,
    per_synonym: bool = False,
    hit_sink=None,
    corpus_id: str = "",
) -> ScanResult:
    """Scan an iterable of CaptionRecords.

    Raw counts are per caption (≤ 1 per concept per caption); the returned
    FrequencyTable carries them in both raw and filtered slots — judging
    replaces the filtered slot downstream. With per_synonym=True the result
    also tallies captions per (concept_id, synonym), the input to
    most-frequent-synonym selection. When `hit_sink` is given each hit is
    passed to it instead of being retained in memory.
    """
    concept_counts = {cid: 0 for cid in automaton.concept_ids}
    synonym_counts: dict[tuple[int, str], int] | None = {} if per_synonym else None
    collected: list[MatchHit] = []
    n_records = 0
    for rec in records:
        n_records += 1
        hits = caption_hits(rec.id, rec.norm_text, automaton)
        seen_concepts = set()
        for hit in hits:
            if hit.concept_id not in seen_concepts:
                seen_concepts.add(hit.concept_id)
                concept_counts[hit.concept_id] = concept_counts.get(hit.concept_id, 0) + 1
            if synonym_counts is not None:
                key = (hit.concept_id, hit.synonym)
                synonym_counts[key] = synonym_counts.get(key, 0) + 1
            if hit_sink is not None:
                hit_sink(hit)
            else:
                collected.append(hit)
    table = FrequencyTable(
        {cid: (n, n) for cid, n in concept_counts.items()}, corpus_id=corpus_id
    )
    return ScanResult(
        table=table,
        n_records=n_records,
        n_skipped=getattr(records, "skip_count", 0),
        hits=collected,
        synonym_counts=synonym_counts,
    )


def scan_shards(
    shards: list[CorpusShard],
    automaton: PatternAutomaton,
    format: str = "jsonl",
    *,
    threads: int = 1,
    per_synonym: bool = False,
    corpus_id: str = "",
) -> ScanResult:
    """Scan shards concurrently and merge in shard order.

    Counts merge by addition and hit streams concatenate in shard order, so
    the result is identical to a single-pass scan regardless of thread
    count.
    """
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")

    def run(shard: CorpusShard) -> ScanResult:
        return scan(
            iter_shard(shard, format),
            automaton,
            per_synonym=per_synonym,
            corpus_id=corpus_id,
        )

    if threads == 1 or len(shards) == 1:
        results = [run(s) for s in shards]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, shards))
    merged = results[0]
    for r in results[1:]:
        merged = merged.merge(r)
    return merged


def save_hits(hits: list[MatchHit], path: str) -> None:
    """Write hits as JSONL {"caption_id","concept_id","synonym"}, scan order."""
    with open(path, "w", encoding="utf-8") as f:
        for h in hits:
            f.write(
                json.dumps(
                    {"caption_id": h.caption_id, "concept_id": h.concept_id, "synonym": h.synonym},
                    sort_keys=True,
                )
                + "\n"
            )


def load_hits(path: str) -> list[MatchHit]:
    hits = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                hits.append(
                    MatchHit(int(obj["caption_id"]), int(obj["concept_id"]), str(obj["synonym"]))
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise InputError(f"{path}:{lineno}: bad hit record: {e}") from e
    return hits
