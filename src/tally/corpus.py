"""Streaming access to caption corpora.

A corpus is a line-oriented file of (id, text) records, either JSONL
({"id": int, "text": str} per line) or TSV (id<TAB>text, with csv-style
quoting so a quoted caption may contain tabs). A record is normalized when
its norm_text is read, so a pass that keeps few records pays for few;
`normalize_texts` normalizes a batch of them at once.

JSONL is read with the block codec of `tally.io`: memory holds one block of
about 64 KiB, and a line that is byte-exactly `{"id": <up to 18 digits>, "text":
"<printable ASCII without '"' or '\\'>"}` (what SORTED_JSON writes) is decoded
by one regex over the block. Every other line (escapes, non-ASCII text, a
negative id, other spacing or keys, "\r\n", blank or malformed) is decoded on
its own exactly as before, with the same skip reasons and byte offsets. TSV is
read line by line.
Malformed lines are counted and skipped, never fatal, so a single bad row
in a web-scale dump cannot kill a multi-hour scan; a repeated id is an
InputError, since its hits could not say which text they came from.
`read_captions_at` reads back only the records at the byte offsets a scan
recorded, so judging pays for the hits, not the corpus.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import re
import unicodedata
from dataclasses import dataclass
from typing import NamedTuple

from .errors import EmptyCorpusError, InputError
from .io import Schema, jsonl_lines, loads_line

FORMATS = ("jsonl", "tsv")

# Runs of "not Unicode-alphanumeric". Python's \w is alphanumeric plus
# underscore, so [\W_] is exactly the complement of alphanumeric.
_NON_ALNUM = re.compile(r"[\W_]+", re.UNICODE)

# Keep per-skip detail for at most this many skips; the total count is exact.
_MAX_SKIP_DETAIL = 1000


# ASCII text is its own NFKC form, and its alphanumerics are [A-Za-z0-9].
_ASCII_NON_ALNUM = {c: " " for c in range(128) if not chr(c).isalnum()}
# The same for captions joined by "\n", which keeps them apart.
_ASCII_LINES = {c: " " for c in _ASCII_NON_ALNUM if c != ord("\n")}

# A JSONL record line in its canonical form, as the block codec claims it.
_RECORD = Schema(id=int, text=str)


def normalize_text(raw: str) -> str:
    """Canonicalize caption text for matching.

    NFKC-normalize, lowercase, collapse every maximal run of
    non-alphanumeric characters to a single space, and strip. Idempotent:
    normalize_text(normalize_text(s)) == normalize_text(s). ASCII text gives
    the same string by translate and split, without NFKC or the regex.
    """
    if raw.isascii():
        return " ".join(raw.lower().translate(_ASCII_NON_ALNUM).split())
    text = unicodedata.normalize("NFKC", raw).lower()
    return _NON_ALNUM.sub(" ", text).strip()


def _joinable(raw: str) -> bool:
    return raw.isascii() and "\n" not in raw


def normalize_texts(raws: list[str]) -> list[str]:
    """[normalize_text(raw) for raw in raws]. The ASCII captions without a "\n"
    are joined by "\n", and lowered, translated and their spaces collapsed as
    one string; any other caption goes through normalize_text."""
    joined = "\n".join(raws)
    if joined.isascii() and joined.count("\n") < len(raws):
        text = joined.lower().translate(_ASCII_LINES)
        while "  " in text:
            text = text.replace("  ", " ")
        return text.replace(" \n", "\n").replace("\n ", "\n").strip(" ").split("\n")
    joinable = [raw for raw in raws if _joinable(raw)]
    batch = iter(normalize_texts(joinable) if joinable else ())
    return [next(batch) if _joinable(raw) else normalize_text(raw) for raw in raws]


class CaptionRecord(NamedTuple):
    """One corpus record; byte_offset is the absolute file offset of its line."""

    id: int
    raw_text: str
    byte_offset: int

    @property
    def norm_text(self) -> str:
        """normalize_text(raw_text), computed on each access."""
        return normalize_text(self.raw_text)


# CaptionRecord((id, raw_text, byte_offset)) without the Python-level __new__ of a NamedTuple.
_new_record = functools.partial(tuple.__new__, CaptionRecord)


@dataclass(frozen=True)
class SkippedLine:
    byte_offset: int
    reason: str


@dataclass(frozen=True)
class CorpusShard:
    """A contiguous byte range of a corpus file, aligned to record boundaries."""

    path: str
    start_byte: int
    end_byte: int
    record_count: int


def _parse_jsonl_line(line: str) -> tuple[int, str] | str:
    """Return (id, text) or a reason string when the line is malformed."""
    try:
        obj = loads_line(line)
    except json.JSONDecodeError as e:
        return f"invalid json: {e.msg}"
    if not isinstance(obj, dict):
        return "not a json object"
    rec_id = obj.get("id")
    text = obj.get("text")
    if type(rec_id) is not int or rec_id < 0:  # a bool is an int subclass
        return "missing or invalid 'id'"
    if not isinstance(text, str):
        return "missing or invalid 'text'"
    return rec_id, text


def _parse_tsv_line(line: str) -> tuple[int, str] | str:
    row = next(csv.reader(io.StringIO(line), delimiter="\t"), None)
    if row is None or len(row) != 2:
        return "expected exactly 2 tab-separated fields"
    try:
        rec_id = int(row[0])
    except ValueError:
        return "id is not an integer"
    if rec_id < 0:
        return "id is negative"
    return rec_id, row[1]


_PARSERS = {"jsonl": _parse_jsonl_line, "tsv": _parse_tsv_line}


def _parse_raw_line(raw: bytes, parse) -> tuple[int, str] | str | None:
    """Parse one line as read from the file: None when it is blank, else
    (id, text) or a reason string when it is malformed."""
    stripped = raw.strip(b"\r\n")
    if not stripped:
        return None
    try:
        line = stripped.decode("utf-8")
    except UnicodeDecodeError as e:
        return f"invalid utf-8: {e.reason}"
    return parse(line)


class CorpusReader:
    """Single-pass iterator over corpus records.

    Tracks skip statistics while iterating: ``skip_count`` is exact,
    ``skips`` keeps detail (byte offset + reason) for the first 1000 skips.
    Raises EmptyCorpusError at end of iteration if no record parsed — an
    empty corpus is a configuration mistake, not a valid measurement of 0.
    """

    def __init__(
        self,
        path: str,
        format: str = "jsonl",
        *,
        start_byte: int = 0,
        end_byte: int | None = None,
        allow_empty: bool = False,
    ):
        if format not in FORMATS:
            raise InputError(f"unknown corpus format {format!r}; expected one of {FORMATS}")
        self.path = str(path)
        self.format = format
        self.start_byte = start_byte
        self.end_byte = end_byte
        self.allow_empty = allow_empty
        self.record_count = 0
        self.skip_count = 0
        self.skips: list[SkippedLine] = []

    def _skip(self, offset: int, reason: str) -> None:
        self.skip_count += 1
        if len(self.skips) < _MAX_SKIP_DETAIL:
            self.skips.append(SkippedLine(offset, reason))

    def __iter__(self):
        parse = _PARSERS[self.format]
        seen: set[int] = set()
        schema = _RECORD if self.format == "jsonl" else None
        for offset, parsed, raw in jsonl_lines(self.path, schema, self.start_byte, self.end_byte):
            if parsed is None:  # a line the block codec did not claim, or a TSV line
                parsed = _parse_raw_line(raw, parse)
                if parsed is None:
                    continue
                if isinstance(parsed, str):
                    self._skip(offset, parsed)
                    continue
            rec_id, text = parsed
            if rec_id in seen:
                raise InputError(f"{self.path}: duplicate caption id {rec_id} at byte {offset}")
            seen.add(rec_id)
            self.record_count += 1
            yield _new_record((rec_id, text, offset))
        if self.record_count == 0 and not self.allow_empty:
            raise EmptyCorpusError(f"no parsable records in {self.path}")


def open_corpus(path: str, format: str = "jsonl") -> CorpusReader:
    """Open a corpus file for streaming iteration."""
    return CorpusReader(path, format)


def read_captions_at(path: str, format: str, offsets: dict[int, int]) -> dict[int, str]:
    """Normalized text of each caption id, read from the line that starts at
    its byte offset (as a scan recorded it) with the parser of CorpusReader.

    Lines are read in file order. A blank, malformed or other-id line at an
    offset, or none, is an InputError naming the path and the id: the
    corpus changed since the scan.
    """
    parse = _PARSERS[format]
    captions: dict[int, str] = {}
    with open(path, "rb") as f:
        for rec_id, offset in sorted(offsets.items(), key=lambda item: item[1]):
            f.seek(offset)
            parsed = _parse_raw_line(f.readline(), parse)
            if not isinstance(parsed, tuple) or parsed[0] != rec_id:
                raise InputError(
                    f"{path}: corpus changed since scan: no caption id {rec_id} at byte {offset}"
                )
            captions[rec_id] = normalize_text(parsed[1])
    return captions


def shard_corpus(path: str, n_shards: int, format: str = "jsonl") -> list[CorpusShard]:
    """Partition a corpus into contiguous shards on record boundaries.

    Shard byte ranges cover the whole file without overlap; every parsable
    record lands in exactly one shard, so concatenating shard scans yields
    the same record sequence as a single scan. If n_shards exceeds the
    record count, one shard per record is returned.
    """
    if n_shards < 1:
        raise InputError(f"n_shards must be >= 1, got {n_shards}")
    reader = CorpusReader(path, format)
    offsets = [rec.byte_offset for rec in reader]
    n_records = len(offsets)
    n_shards = min(n_shards, n_records)
    with open(path, "rb") as f:
        f.seek(0, 2)
        file_size = f.tell()

    shards = []
    # Record-index boundaries of each shard: near-equal contiguous runs.
    bounds = [round(i * n_records / n_shards) for i in range(n_shards + 1)]
    for i in range(n_shards):
        lo, hi = bounds[i], bounds[i + 1]
        start = 0 if i == 0 else offsets[lo]
        end = file_size if i == n_shards - 1 else offsets[hi]
        shards.append(
            CorpusShard(path=str(path), start_byte=start, end_byte=end, record_count=hi - lo)
        )
    return shards


def iter_shard(shard: CorpusShard, format: str = "jsonl") -> CorpusReader:
    """Iterate the records inside one shard's byte range."""
    return CorpusReader(
        shard.path,
        format,
        start_byte=shard.start_byte,
        end_byte=shard.end_byte,
        allow_empty=True,
    )
