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

Hits are emitted one per (caption, concept, synonym) with the span of the
first occurrence. `count_captions` is the one counter every stage uses: a
caption contributes at most 1 to a concept's count no matter how many
times, or via how many synonyms, it mentions the concept.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .analytics import FrequencyTable
from .corpus import CorpusShard, iter_shard, normalize_texts
from .errors import EmptyPatternSetError, InputError
from .io import Schema, json_field, read_jsonl
from .lexicon import SynonymSet

MODES = ("whole_word", "partial")
_BATCH = 256  # records normalized together by a scan; more keep more records alive for the collector


class MatchHit(NamedTuple):
    """One synonym of one concept seen in one caption (first occurrence).

    span indexes the normalized text: norm_text[span[0]:span[1]] == synonym.
    Hits read back from disk carry no span (the file schema omits it).
    offset is the byte offset of the caption's corpus line; the hits file requires it.
    """

    caption_id: int
    concept_id: int
    synonym: str
    span: tuple[int, int] | None = None
    offset: int | None = None


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
        """All (pattern, start) occurrences in one normalized caption, each
        pattern's in increasing start order."""
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
    """Output of one scan: every hit, and the per-concept counts they give."""

    table: FrequencyTable
    n_records: int
    n_skipped: int = 0
    hits: list[MatchHit] = field(default_factory=list)


def caption_hits(
    record_id: int, norm_text: str, automaton: PatternAutomaton, offset: int | None = None
) -> list[MatchHit]:
    """Hits for one caption: one per (concept, synonym), first occurrence,
    ordered by (concept_id, synonym); each carries the caption's offset."""
    return _hits(record_id, automaton.find(norm_text), automaton, offset)


def _hits(record_id: int, found: list[tuple[str, int]], automaton: PatternAutomaton, offset: int | None):
    """caption_hits from the caption's (pattern, start) occurrences."""
    if not found:
        return []
    first: dict[str, int] = {}
    for pattern, start in found:
        first.setdefault(pattern, start)
    hits = []
    for pattern, start in first.items():
        for cid in automaton.owners[pattern]:
            hits.append(MatchHit(record_id, cid, pattern, (start, start + len(pattern)), offset))
    hits.sort(key=lambda h: (h.concept_id, h.synonym))
    return hits


def count_captions(
    hits: list[MatchHit],
    concept_ids: list[int] | None = None,
    relevant: set[tuple[int, int]] | None = None,
) -> tuple[FrequencyTable, dict[tuple[int, str], int]]:
    """Distinct captions per concept and per (concept_id, synonym).

    The table's raw count takes every hit; its filtered count takes only
    hits whose (caption_id, concept_id) pair is in `relevant`, or every hit
    when `relevant` is None. The per-synonym counts take the same hits as
    the filtered count. Table rows are `concept_ids` in that order (zero
    rows included), or the concepts seen in the hits in ascending order.
    A hit for a concept outside `concept_ids` is an InputError.
    """
    raw: dict[int, set[int]] = {}
    kept: dict[int, set[int]] = {}
    per_synonym: dict[tuple[int, str], set[int]] = {}
    for h in hits:
        raw.setdefault(h.concept_id, set()).add(h.caption_id)
        if relevant is None or (h.caption_id, h.concept_id) in relevant:
            kept.setdefault(h.concept_id, set()).add(h.caption_id)
            per_synonym.setdefault((h.concept_id, h.synonym), set()).add(h.caption_id)
    ids = sorted(raw) if concept_ids is None else concept_ids
    unknown = sorted(set(raw).difference(ids))
    if unknown:
        raise InputError(f"hits for concepts not in the concept list: {unknown[:5]}")
    table = FrequencyTable({cid: (len(raw.get(cid, ())), len(kept.get(cid, ()))) for cid in ids})
    return table, {key: len(caps) for key, caps in per_synonym.items()}


def _match_records(records, automaton: PatternAutomaton) -> tuple[list[MatchHit], int, int]:
    """(hits, records read, records skipped) of one pass over a record stream,
    normalized a batch at a time."""
    hits: list[MatchHit] = []
    n_records = 0
    find = automaton.find
    stream = iter(records)
    while batch := list(itertools.islice(stream, _BATCH)):
        n_records += len(batch)
        for rec, norm_text in zip(batch, normalize_texts([rec.raw_text for rec in batch])):
            if found := find(norm_text):
                hits.extend(_hits(rec.id, found, automaton, rec.byte_offset))
    return hits, n_records, getattr(records, "skip_count", 0)


def scan(records, automaton: PatternAutomaton) -> ScanResult:
    """Scan an iterable of CaptionRecords.

    Raw counts are per caption (≤ 1 per concept per caption); the returned
    FrequencyTable carries them in both raw and filtered slots — judging
    replaces the filtered slot downstream. Per-synonym counts come from
    `count_captions(result.hits)`.
    """
    hits, n_records, n_skipped = _match_records(records, automaton)
    table, _ = count_captions(hits, automaton.concept_ids)
    return ScanResult(table, n_records, n_skipped, hits)


def scan_shards(
    shards: list[CorpusShard],
    automaton: PatternAutomaton,
    format: str = "jsonl",
    *,
    threads: int = 1,
) -> ScanResult:
    """Scan shards concurrently and count once over the hits in shard order.

    Hit streams concatenate in shard order, so the result is identical to a
    single-pass scan regardless of thread count.
    """
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")

    def run(shard: CorpusShard):
        return _match_records(iter_shard(shard, format), automaton)

    if threads == 1 or len(shards) == 1:
        results = [run(s) for s in shards]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, shards))
    hits = [h for shard_hits, _, _ in results for h in shard_hits]
    table, _ = count_captions(hits, automaton.concept_ids)
    n_records = sum(n for _, n, _ in results)
    n_skipped = sum(n for _, _, n in results)
    return ScanResult(table, n_records, n_skipped, hits)


# A hits-file line.
_HIT = Schema(caption_id=int, concept_id=int, offset=int, synonym=str)


def save_hits(hits: list[MatchHit], path: str) -> None:
    """Write hits as JSONL {"caption_id","concept_id","synonym","offset"}, scan order; each needs an offset."""

    def row(h: MatchHit) -> tuple:
        if h.offset is None:
            raise ValueError(f"hit for caption id {h.caption_id} has no offset")
        return h.caption_id, h.concept_id, h.offset, h.synonym

    _HIT.write(path, map(row, hits))


def load_hits(path: str) -> list[MatchHit]:
    """Read hits back, each with the byte offset its caption was scanned at. A line
    without one (a scan older than offsets) or a caption at two offsets is an InputError."""
    offsets: dict[int, int] = {}

    def checked(caption_id: int, offset: int) -> int:
        if offset < 0:
            raise ValueError(f"offset {offset} is not a byte offset")
        if (first := offsets.setdefault(caption_id, offset)) != offset:
            raise ValueError(f"caption id {caption_id} has two offsets, {first} and {offset}")
        return offset

    def parse(obj) -> MatchHit:
        caption_id = json_field(obj, "caption_id")
        if "offset" not in obj:
            raise ValueError(f"hit for caption id {caption_id} has no offset; rerun tally scan")
        offset = checked(caption_id, json_field(obj, "offset"))
        return MatchHit(caption_id, json_field(obj, "concept_id"), json_field(obj, "synonym", str), None, offset)

    def build(caption_id: int, concept_id: int, offset: int, synonym: str) -> MatchHit:
        return MatchHit(caption_id, concept_id, synonym, None, checked(caption_id, offset))

    return read_jsonl(path, "hit record", parse, schema=_HIT, build=build)
