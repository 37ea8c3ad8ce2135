"""Corpus reading, normalization, and sharding."""

import json
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_jsonl
from tally.corpus import (
    CorpusReader,
    iter_shard,
    normalize_text,
    open_corpus,
    shard_corpus,
)
from tally.errors import EmptyCorpusError, InputError


# ------------------------------------------------------------- normalize


def test_normalize_basic_punctuation():
    assert normalize_text("Tiger—Shark!!  swimming") == "tiger shark swimming"


def test_normalize_preserves_accents_and_scripts():
    # NFKC + lowercase keeps letters; only non-alphanumerics collapse.
    assert normalize_text("Crème Brûlée") == "crème brûlée"
    assert normalize_text("老虎 tiger") == "老虎 tiger"


def test_normalize_nfkc_compatibility_forms():
    # Fullwidth letters and the ﬁ ligature decompose under NFKC.
    assert normalize_text("ＴＩＧＥＲ") == "tiger"
    assert normalize_text("ﬁre") == "fire"


def test_normalize_whitespace_and_underscores():
    assert normalize_text("a_b\tc\nd   e") == "a b c d e"


def test_normalize_strips_and_empty():
    assert normalize_text("  !!  ") == ""
    assert normalize_text("") == ""


def test_normalize_idempotent_on_fixture():
    s = normalize_text("Tiger—Shark!! №5 ½ ＴＩＧＥＲ ﬁre")
    assert normalize_text(s) == s


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_normalize_output_shape(text):
    out = normalize_text(text)
    assert out == out.strip()
    assert "  " not in out
    for ch in out:
        assert ch == " " or ch.isalnum()


def _normalize_reference(text):
    """The normalization spelled out in full: NFKC, lower, [\\W_]+ runs to a space, strip."""
    return re.sub(r"[\W_]+", " ", unicodedata.normalize("NFKC", text).lower()).strip()


# ASCII letters, digits, "_", tabs, the \x1c-\x1f separators str.split() treats as
# whitespace, and the other ASCII punctuation and controls.
_ASCII_CHARS = st.one_of(st.characters(max_codepoint=0x7F), st.sampled_from("_\t\x1c\x1d\x1e\x1f 09aZ"))
# Full-width letters and digits, which NFKC maps into ASCII.
_FULL_WIDTH = st.one_of(
    st.characters(min_codepoint=0xFF10, max_codepoint=0xFF19),
    st.characters(min_codepoint=0xFF21, max_codepoint=0xFF3A),
    st.characters(min_codepoint=0xFF41, max_codepoint=0xFF5A),
)


@given(st.text(_ASCII_CHARS, max_size=80) | st.text(_ASCII_CHARS | _FULL_WIDTH, max_size=80))
@settings(max_examples=500, deadline=None)
def test_normalize_ascii_path_matches_reference(text):
    assert normalize_text(text) == _normalize_reference(text)


# ------------------------------------------------------------ open_corpus


def test_open_corpus_jsonl_skips_malformed(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [
        json.dumps({"id": 0, "text": "first caption"}),
        "{not json",
        json.dumps({"id": 1, "text": "second caption"}),
        json.dumps({"id": 2}),  # missing text
        json.dumps({"id": "x", "text": "bad id"}),
        json.dumps({"id": 3, "text": "third caption"}),
    ]
    path.write_text("\n".join(lines) + "\n")
    reader = open_corpus(str(path))
    records = list(reader)
    assert [r.id for r in records] == [0, 1, 3]
    assert reader.skip_count == 3
    reasons = [s.reason for s in reader.skips]
    assert any("json" in r for r in reasons)
    assert any("text" in r for r in reasons)
    assert any("id" in r for r in reasons)


def test_open_corpus_skip_reasons_are_json_loads_messages(tmp_path):
    """Malformed lines skip with the reason json.loads gives, edge cases included."""
    lines = [
        '{"id": 0, "text": "ok"}',
        "{not json",
        '{"id": 1, "text": "a"} {"id": 2}',
        '{"id": 3, "text": "b"}\x1c',
        '\ufeff{"id": 4, "text": "bom"}',
        "[1, 2]",
        "1, 2",
        '{"id": NaN, "text": "nan"}',
        '{"id": 1e999, "text": "inf"}',
        '{"id": true, "text": "bool"}',
        '{"id": 5}',
        "  \t ",
        '{"id": 6, "text": "tail"}  \t',
        '  {"id": 7, "text": "lead"}',
        '{"id": 8, "text": "x"}\u0085',
        '{"id": 9, "text": "y"}\xa0',
    ]
    path = tmp_path / "c.jsonl"
    path.write_bytes("\n".join(lines).encode() + b"\n\xff\xfe\n")
    reader = open_corpus(str(path))
    assert [r.id for r in reader] == [0, 6, 7]
    assert reader.skip_count == 14
    assert [s.reason for s in reader.skips] == [
        "invalid json: Expecting property name enclosed in double quotes",
        "invalid json: Extra data",
        "invalid json: Extra data",
        "invalid json: Unexpected UTF-8 BOM (decode using utf-8-sig)",
        "not a json object",
        "invalid json: Extra data",
        "missing or invalid 'id'",
        "missing or invalid 'id'",
        "missing or invalid 'id'",
        "missing or invalid 'text'",
        "invalid json: Expecting value",
        "invalid json: Extra data",
        "invalid json: Extra data",
        "invalid utf-8: invalid start byte",
    ]


def test_open_corpus_normalizes_once(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": 7, "text": "  A Tiger! "}])
    (rec,) = list(open_corpus(path))
    assert rec.raw_text == "  A Tiger! "
    assert rec.norm_text == "a tiger"


def test_open_corpus_rejects_duplicate_id(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": 3, "text": "a tiger in the grass"},
        {"id": 4, "text": "a dog"},
        {"id": 3, "text": "a cat on a mat"},
    ])
    with open(path, "rb") as f:
        first, second, _ = f.readlines()
    offset = len(first) + len(second)
    with pytest.raises(InputError, match=f"duplicate caption id 3 at byte {offset}"):
        list(open_corpus(path))


def test_shard_corpus_refuses_duplicate_id(tmp_path):
    """Sharding reads the whole file, so a repeat in a later shard is caught too."""
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": i % 5, "text": "x"} for i in range(8)])
    with pytest.raises(InputError, match="duplicate caption id 0"):
        shard_corpus(path, 2)


def test_open_corpus_rejects_negative_and_bool_ids(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps({"id": -1, "text": "x"})
        + "\n"
        + json.dumps({"id": True, "text": "y"})
        + "\n"
        + json.dumps({"id": 5, "text": "ok"})
        + "\n"
    )
    reader = open_corpus(str(path))
    assert [r.id for r in reader] == [5]
    assert reader.skip_count == 2


def test_open_corpus_invalid_utf8_carries_offset(tmp_path):
    path = tmp_path / "c.jsonl"
    good = json.dumps({"id": 0, "text": "fine"}).encode() + b"\n"
    bad = b'{"id": 1, "text": "\xff\xfe"}\n'
    with open(path, "wb") as f:
        f.write(good)
        f.write(bad)
        f.write(json.dumps({"id": 2, "text": "also fine"}).encode() + b"\n")
    reader = open_corpus(str(path))
    assert [r.id for r in reader] == [0, 2]
    assert reader.skip_count == 1
    (skip,) = reader.skips
    assert skip.byte_offset == len(good)
    assert "utf-8" in skip.reason


def test_open_corpus_byte_offsets_point_at_lines(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl", [{"id": i, "text": f"caption number {i}"} for i in range(5)]
    )
    records = list(open_corpus(path))
    with open(path, "rb") as f:
        for rec in records:
            f.seek(rec.byte_offset)
            line = f.readline().decode("utf-8")
            assert json.loads(line)["id"] == rec.id


def test_open_corpus_empty_raises(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    with pytest.raises(EmptyCorpusError):
        list(open_corpus(str(path)))


def test_open_corpus_all_malformed_raises(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("nope\nstill nope\n")
    reader = open_corpus(str(path))
    with pytest.raises(EmptyCorpusError):
        list(reader)
    assert reader.skip_count == 2


def test_open_corpus_unknown_format(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("{}")
    with pytest.raises(InputError):
        open_corpus(str(path), "parquet")


def test_open_corpus_blank_lines_ignored(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n" + json.dumps({"id": 1, "text": "x"}) + "\n\n")
    reader = open_corpus(str(path))
    assert [r.id for r in reader] == [1]
    assert reader.skip_count == 0


# -------------------------------------------------------------------- tsv


def test_tsv_basic(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("0\tfirst caption\n1\tsecond caption\n")
    records = list(open_corpus(str(path), "tsv"))
    assert [(r.id, r.raw_text) for r in records] == [(0, "first caption"), (1, "second caption")]


def test_tsv_quoted_tab_preserved_against_naive_split(tmp_path):
    """A quoted caption containing a tab parses as one field; naive
    splitting on tab would shear it apart."""
    caption = "left part\tright part"
    line = '7\t"left part\tright part"'
    path = tmp_path / "c.tsv"
    path.write_text(line + "\n")
    (rec,) = list(open_corpus(str(path), "tsv"))
    assert rec.raw_text == caption
    naive = line.split("\t")
    assert len(naive) == 3  # the oracle confirms naive splitting breaks


def test_tsv_malformed_lines_skip(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("0\tok caption\nnot_an_int\toops\n1\textra\tfield\n2\tfine\n")
    reader = open_corpus(str(path), "tsv")
    assert [r.id for r in reader] == [0, 2]
    assert reader.skip_count == 2


# ------------------------------------------------------------------ shards


def test_shard_counts_exact(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl", [{"id": i, "text": f"caption {i}"} for i in range(100)]
    )
    shards = shard_corpus(path, 4)
    assert len(shards) == 4
    assert [s.record_count for s in shards] == [25, 25, 25, 25]


def test_shards_cover_file_without_overlap(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl", [{"id": i, "text": f"caption {i}"} for i in range(37)]
    )
    shards = shard_corpus(path, 5)
    assert shards[0].start_byte == 0
    for a, b in zip(shards, shards[1:]):
        assert a.end_byte == b.start_byte
    import os

    assert shards[-1].end_byte == os.path.getsize(path)


def test_shard_iteration_equals_single_scan(tmp_path):
    """Concatenated shard scans must reproduce the single-scan record
    sequence exactly, malformed lines and all."""
    path = tmp_path / "c.jsonl"
    lines = []
    for i in range(50):
        lines.append(json.dumps({"id": i, "text": f"caption {i} words"}))
        if i % 7 == 0:
            lines.append("garbage line")
    path.write_text("\n".join(lines) + "\n")
    single = [(r.id, r.norm_text, r.byte_offset) for r in open_corpus(str(path))]
    for n in (1, 2, 3, 7, 50):
        shards = shard_corpus(str(path), n)
        merged = []
        for shard in shards:
            merged.extend((r.id, r.norm_text, r.byte_offset) for r in iter_shard(shard))
        assert merged == single, f"n_shards={n}"
        assert sum(s.record_count for s in shards) == 50


def test_more_shards_than_records(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": i, "text": "w"} for i in range(3)])
    shards = shard_corpus(path, 10)
    assert len(shards) == 3
    assert all(s.record_count == 1 for s in shards)


def test_shard_bad_arguments(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": 0, "text": "w"}])
    with pytest.raises(InputError):
        shard_corpus(path, 0)


def test_shard_empty_corpus_raises(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("junk\n")
    with pytest.raises(EmptyCorpusError):
        shard_corpus(str(path), 2)


@given(
    n_records=st.integers(min_value=1, max_value=60),
    n_shards=st.integers(min_value=1, max_value=70),
)
@settings(max_examples=40, deadline=None)
def test_shard_partition_properties(tmp_path_factory, n_records, n_shards):
    tmp = tmp_path_factory.mktemp("shards")
    path = write_jsonl(
        tmp / "c.jsonl", [{"id": i, "text": f"text {i}"} for i in range(n_records)]
    )
    shards = shard_corpus(path, n_shards)
    assert len(shards) == min(n_shards, n_records)
    assert sum(s.record_count for s in shards) == n_records
    assert all(s.record_count >= 1 for s in shards)
    ids = []
    for shard in shards:
        ids.extend(r.id for r in iter_shard(shard))
    assert ids == list(range(n_records))


def test_reader_is_restartable(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": i, "text": "x"} for i in range(4)])
    reader = CorpusReader(path)
    assert [r.id for r in reader] == [0, 1, 2, 3]
    # iterating again re-reads from the start (counts keep accumulating)
    assert [r.id for r in reader] == [0, 1, 2, 3]
