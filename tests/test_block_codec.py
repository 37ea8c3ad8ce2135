"""The block codec of `tally.io` against the line-by-line path it replaces.

Each property writes a file, reads it through the block codec with a block
size of a few bytes (so lines straddle blocks and some lines are longer than
a block), and reads it again the old way, one line at a time, with the same
per-line decoders. Records, byte offsets, skip reasons and errors must match.
"""

import json
import os
import string
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tally import corpus, io, judge, matcher
from tally.corpus import CorpusReader, normalize_text, normalize_texts
from tally.errors import InputError

SCHEMAS = {
    "corpus": corpus._RECORD,
    "hits": matcher._HIT,
    "verdicts": judge._VERDICT,
    "cache": judge._CACHED,
}

# Printable ASCII without '"' and '\': the text a claimed line's string holds.
_PLAIN = st.text(st.sampled_from([c for c in string.printable[:95] if c not in '"\\']), max_size=12)
_ANY_TEXT = st.text(max_size=12)  # escapes, control characters, non-ASCII, lone surrogates


def _dumps(obj, **kwargs) -> bytes:
    return json.dumps(obj, **kwargs).encode("utf-8", "surrogatepass")


def _corpus_line(kind: str, rec_id: int, text: str) -> bytes:
    """One corpus line of the given kind, "\n" included."""
    canonical = _dumps({"id": rec_id, "text": text}, sort_keys=True)
    return {
        "canonical": canonical + b"\n",
        "escaped": _dumps({"id": rec_id, "text": text + '"\\\x01'}) + b"\n",
        "raw-utf8": _dumps({"id": rec_id, "text": text + "é"}, ensure_ascii=False) + b"\n",
        "crlf": canonical + b"\r\n",
        "spaced": b" " + canonical + b" \n",
        "blank": b"  \t\n",
        "empty": b"\n",
        "not-json": b"{not json\n",
        "not-utf8": b'{"id": 1, "text": "\xff"}\n',
        "bool-id": _dumps({"id": True, "text": text}) + b"\n",
        "float-id": b'{"id": 1.0, "text": "x"}\n',
        "no-text": _dumps({"id": rec_id}) + b"\n",
        "extra-key": _dumps({"id": rec_id, "text": text, "x": 1}, sort_keys=True) + b"\n",
        "reordered": _dumps({"text": text, "id": rec_id}) + b"\n",
        "long": _dumps({"id": rec_id, "text": "w" * 150 + text}, sort_keys=True) + b"\n",
        "leading-zero": b'{"id": 07, "text": "x"}\n',
    }[kind]


_CORPUS_KINDS = ["canonical"] * 8 + [
    "escaped", "raw-utf8", "crlf", "spaced", "blank", "empty", "not-json", "not-utf8",
    "bool-id", "float-id", "no-text", "extra-key", "reordered", "long", "leading-zero",
]
_CORPUS_LINES = st.lists(
    st.tuples(st.sampled_from(_CORPUS_KINDS), st.integers(-3, 40), st.one_of(_PLAIN, _ANY_TEXT)), max_size=25
)


def _line_path_read(path: str, start: int = 0, end=None, allow_empty: bool = True):
    """CorpusReader's JSONL loop as it was before the block codec: the file's
    lines one at a time, each through the per-line decoder."""
    records, skips, seen = [], [], set()
    with open(path, "rb") as f:
        f.seek(start)
        offset = start
        for raw in f:
            if end is not None and offset >= end:
                break
            line_offset, offset = offset, offset + len(raw)
            parsed = corpus._parse_raw_line(raw, corpus._parse_jsonl_line)
            if parsed is None:
                continue
            if isinstance(parsed, str):
                skips.append((line_offset, parsed))
                continue
            rec_id, text = parsed
            if rec_id in seen:
                return records, skips, f"{path}: duplicate caption id {rec_id} at byte {line_offset}"
            seen.add(rec_id)
            records.append((rec_id, text, line_offset))
    if not records and not allow_empty:
        return records, skips, f"no parsable records in {path}"
    return records, skips, None


def _block_read(path: str, start: int = 0, end=None, allow_empty: bool = True):
    reader = CorpusReader(path, start_byte=start, end_byte=end, allow_empty=allow_empty)
    records, error = [], None
    try:
        for rec in reader:
            records.append((rec.id, rec.raw_text, rec.byte_offset))
    except InputError as e:
        error = str(e)
    assert reader.skip_count == len(reader.skips)
    return records, [(s.byte_offset, s.reason) for s in reader.skips], error


@given(
    lines=_CORPUS_LINES,
    final_newline=st.booleans(),
    block=st.integers(1, 48),
    cuts=st.lists(st.integers(0, 4000), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_corpus_reader_blocks_equal_the_line_path(tmp_path_factory, lines, final_newline, block, cuts):
    """Whole and in byte ranges (shards, a cut anywhere), at any block size."""
    data = b"".join(_corpus_line(*line) for line in lines)
    if not final_newline:
        data = data.removesuffix(b"\n")
    path = str(tmp_path_factory.mktemp("corpus") / "c.jsonl")
    with open(path, "wb") as f:
        f.write(data)
    bounds = sorted({0, *(c % (len(data) + 1) for c in cuts)})
    ranges = [(0, None, False)] + [(a, b, True) for a, b in zip(bounds, [*bounds[1:], None])]
    with mock.patch.object(io, "BLOCK_SIZE", block):
        for start, end, allow_empty in ranges:
            assert _block_read(path, start, end, allow_empty) == _line_path_read(path, start, end, allow_empty)


def test_corpus_reader_claims_canonical_lines_and_keeps_their_checks(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id": -1, "text": "x"}\n{"id": 2, "text": "a b"}\n{"id": 2, "text": "c"}\n')
    claimed = [values for _, values, _ in io.jsonl_lines(str(path), corpus._RECORD)]
    assert claimed == [None, (2, "a b"), (2, "c")]  # a negative id is the line decoder's
    reader = CorpusReader(str(path))
    with pytest.raises(InputError, match="duplicate caption id 2 at byte 49"):
        list(reader)
    assert [(s.byte_offset, s.reason) for s in reader.skips] == [(0, "missing or invalid 'id'")]


# ------------------------------------------------------------- normalize


_CAPTION = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=30),
    st.text(max_size=30),
    st.text(st.sampled_from("aB1 .\n\t_-é Ａ"), max_size=30),
)


@given(st.lists(_CAPTION, max_size=40))
@settings(max_examples=300, deadline=None)
def test_normalize_texts_is_normalize_text(raws):
    assert normalize_texts(raws) == [normalize_text(raw) for raw in raws]


def test_scan_normalizes_across_batches(monkeypatch):
    records = [corpus.CaptionRecord(i, text, 10 * i) for i, text in
               enumerate(["A Tiger!", "tiger\nshark", "TIGRE é", "", "no match", "ｔｉｇｅｒ"] * 3)]
    auto = matcher.compile([matcher.SynonymSet(0, ["tiger"], ["original"])])
    expected = [h for r in records for h in matcher.caption_hits(r.id, r.norm_text, auto, r.byte_offset)]
    assert [h.caption_id for h in expected] == [0, 1, 5, 6, 7, 11, 12, 13, 17]
    monkeypatch.setattr(matcher, "_BATCH", 4)
    assert matcher.scan(records, auto).hits == expected


# ---------------------------------------------------------------- writers


def _values(schema: io.Schema, draw_int, draw_str, draw_bool):
    return st.tuples(*[
        {"caption_id": draw_int, "concept_id": draw_int, "offset": draw_int, "id": draw_int,
         "synonym": draw_str, "text": draw_str, "judge_id": draw_str, "caption_sha256": draw_str,
         "relevant": draw_bool if schema is judge._CACHED else st.one_of(draw_bool, st.none())}[name]
        for name in schema.names
    ])


_BIG_INTS = st.one_of(st.integers(-5, 5), st.integers(), st.integers(-(10**40), 10**40))
_CLAIMED_INTS = st.one_of(st.integers(0, 5), st.integers(0, 10**18 - 1))  # what a Schema's regex claims
_ODD = st.one_of(st.booleans(), st.floats(allow_nan=False), st.none(), st.just(7))


@pytest.mark.parametrize("name", SCHEMAS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_schema_encode_is_sorted_json(name, data):
    """Exact bytes, for the declared types and for any other value (which takes SORTED_JSON itself)."""
    schema = SCHEMAS[name]
    values = data.draw(st.one_of(
        _values(schema, _BIG_INTS, st.one_of(_PLAIN, _ANY_TEXT), st.booleans()),
        _values(schema, st.one_of(_BIG_INTS, _ODD), st.one_of(_ANY_TEXT, _ODD), _ODD),
    ))
    record = dict(zip(schema.names, values))
    assert schema.encode(values) == io.SORTED_JSON.encode(record) + "\n"


@pytest.mark.parametrize("name", SCHEMAS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_schema_claims_what_it_writes_with_plain_strings(tmp_path_factory, name, data):
    schema = SCHEMAS[name]
    rows = data.draw(st.lists(_values(schema, _CLAIMED_INTS, _PLAIN, st.booleans()), max_size=8))
    path = str(tmp_path_factory.mktemp("schema") / "a.jsonl")
    schema.write(path, rows)
    with mock.patch.object(io, "BLOCK_SIZE", data.draw(st.integers(1, 64))):
        got = list(io.jsonl_lines(path, schema))
    assert [values for _, values, _ in got] == [tuple(row) for row in rows]
    assert [offset for offset, _, _ in got] == [sum(len(schema.encode(r)) for r in rows[:i]) for i in range(len(rows))]


# ---------------------------------------------------------------- readers


def _old_read_jsonl(path: str, what: str, parse, key=None):
    """read_jsonl as it was before the block codec."""
    with open(path, "rb") as f:
        lines = ((lineno, line) for lineno, line in enumerate(f, 1) if line.strip())
        return io._parse_each(path, what, lines, lambda line: parse(io.loads_line(line.decode("utf-8"))), key)


def _outcome(read, path):
    try:
        return "ok", read(path)
    except InputError as e:
        return "InputError", str(e)


# The malformed lines of tests/test_io.py, and the artifact cases of tests/test_cli.py and tests/test_judge.py.
_BAD_LINES = [
    b'{broken\n', b'[1]\n', b'{"x": "\xff"}\n', '\ufeff{"x": 1}\n'.encode(), b"1, 2\n", b'{"a": 1}{"b": 2}\n',
    b'{"a": 1}\x1c\n', '{"a": 1}\u0085\n'.encode(), b'{"x": NaN}\n', b'{"x": 1e999}\n', b"12\n", b"\x1c\n",
    b'{"caption_id": 0, "concept_id": 0, "synonym": "tiger"}\n',
    b'{"caption_id": 0, "concept_id": 0, "offset": -1, "synonym": "tiger"}\n',
    b'{"caption_id": 0, "concept_id": 0, "offset": 242, "synonym": "cat"}\n',
    b'{"caption_id": 0, "concept_id": true, "offset": 0, "synonym": "tiger"}\n',
    b'{"caption_id": 0, "concept_id": 0, "offset": 0, "synonym": null}\n',
    b'{"caption_id": 0, "concept_id": 0, "judge_id": "j", "relevant": true}\n',
    b'{"caption_id": 0, "concept_id": 0, "judge_id": "j", "relevant": 1}\n',
    b'{"caption_id": 0, "concept_id": 1, "relevant": null}\n',
    b'{"caption_sha256": "ab", "concept_id": 0, "judge_id": "j", "relevant": null}\n',
    b'{"caption_sha256": "ab", "concept_id": 0, "judge_id": "j", "relevant": "yes"}\n',
    b'{"caption_id": 0, "concept_id": 0, "offset": 1' + b"0" * 5000 + b', "synonym": "tiger"}\n',
    b'{"caption_sha256": "ab", "concept_id": 1' + b"0" * 5000 + b', "judge_id": "j", "relevant": true}\n',
]
_GOOD_LINES = [
    b'{"caption_id": 0, "concept_id": 0, "offset": 0, "synonym": "tiger"}\n',
    b'{"caption_id": 5, "concept_id": 1, "offset": 80, "synonym": "big cat"}\n',
    b'{"caption_id": 5, "concept_id": 2, "judge_id": "j", "relevant": false}\n',
    b'{"caption_id": 6, "concept_id": 2, "judge_id": "", "relevant": null}\n',
    b'{"caption_sha256": "ab", "concept_id": 0, "judge_id": "j", "relevant": true}\n',
    b'{"caption_sha256": "cd", "concept_id": 0, "judge_id": "j", "relevant": false}\n',
    b'{"caption_id": 7, "concept_id": 0, "offset": 90, "synonym": "a\\\\b \\u00e9"}\n',
    b'{"caption_id": 8, "concept_id": 3, "judge_id": "\\"j\\"", "relevant": true}\n',
    b'\n', b'  \r\n',
]


class _NoJudge:
    judge_id = "j"


def _cache_table(path: str) -> dict:
    """The verdict cache in the directory of `path`, a verdicts.jsonl."""
    return judge.VerdictCache(os.path.dirname(path), _NoJudge())._file._table


@pytest.mark.parametrize(
    "name, read, schema_at",
    [
        ("hits", matcher.load_hits, (matcher, "_HIT")),
        ("verdicts", judge.load_verdicts, (judge, "_VERDICT")),
        ("cache", _cache_table, (judge, "_CACHED")),
    ],
)
@given(
    lines=st.lists(st.sampled_from(_GOOD_LINES * 3 + _BAD_LINES), max_size=8),
    final_newline=st.booleans(),
    block=st.integers(1, 64),
)
@settings(max_examples=150, deadline=None)
def test_schema_readers_equal_the_line_path(tmp_path_factory, name, read, schema_at, lines, final_newline, block):
    """Same records or the same path:lineno message with the schema as without it,
    where every line is decoded on its own; a cache's torn last line included."""
    data = b"".join(lines)
    if not final_newline:
        data = data.removesuffix(b"\n")
    path = str(tmp_path_factory.mktemp("records") / "verdicts.jsonl")
    with open(path, "wb") as f:
        f.write(data)
    with mock.patch.object(io, "BLOCK_SIZE", block):
        claimed = _outcome(read, path)
        with mock.patch.object(*schema_at, None):
            assert _outcome(read, path) == claimed


@given(lines=st.lists(st.sampled_from(_GOOD_LINES + _BAD_LINES), max_size=8), block=st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_read_jsonl_lines_equal_file_lines(tmp_path_factory, lines, block):
    path = str(tmp_path_factory.mktemp("lines") / "a.jsonl")
    with open(path, "wb") as f:
        f.write(b"".join(lines))
    key = ("key", lambda obj: json.dumps(obj, sort_keys=True))
    with mock.patch.object(io, "BLOCK_SIZE", block):
        got = _outcome(lambda p: io.read_jsonl(p, "widget", dict, key), path)
    assert got == _outcome(lambda p: _old_read_jsonl(p, "widget", dict, key), path)
