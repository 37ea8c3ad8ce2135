"""Pattern compilation, overlapping occurrence scanning, and shard merging."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import tally
from conftest import write_jsonl
from oracles import (
    brute_force_counts,
    brute_force_hits,
    brute_force_occurrences,
    brute_force_synonym_counts,
)
from tally.corpus import CaptionRecord, open_corpus, shard_corpus
from tally.errors import EmptyPatternSetError, InputError
from tally.lexicon import SynonymSet
from tally.matcher import (
    MatchHit,
    caption_hits,
    compile,
    count_captions,
    load_hits,
    save_hits,
    scan,
    scan_shards,
)


def records_of(texts):
    """In-memory records from already-normalized strings."""
    return [CaptionRecord(i, t, 0) for i, t in enumerate(texts)]


def hit_tuples(hits):
    return {(h.caption_id, h.concept_id, h.synonym, h.span[0], h.span[1]) for h in hits}


# ---------------------------------------------------------------- compile


def test_compile_counts_shared_patterns(tiger_sets):
    auto = compile(tiger_sets)
    assert auto.pattern_count == 5  # "big cat" counted once per owning concept
    assert auto.owners["big cat"] == (0, 1)
    assert auto.owners["tiger"] == (0,)
    assert auto.concept_ids == (0, 1)


def test_compile_empty_error():
    with pytest.raises(EmptyPatternSetError):
        compile([])


def test_compile_unknown_mode(tiger_sets):
    with pytest.raises(InputError, match="mode"):
        compile(tiger_sets, mode="fuzzy")


# ------------------------------------------------------- match semantics


def test_whole_word_rejects_inflections():
    auto = compile([SynonymSet(0, ["tiger"], ["original"])])
    assert auto.find("tigers tigers tigers") == []
    assert auto.find("the tiger sleeps") == [("tiger", 4)]


def test_whole_word_multiword_contiguous():
    auto = compile([SynonymSet(0, ["panthera tigris"], ["original"])])
    assert auto.find("portrait of panthera tigris at dusk") == [("panthera tigris", 12)]
    assert auto.find("panthera near tigris") == []


def test_whole_word_at_string_edges():
    auto = compile([SynonymSet(0, ["cat"], ["original"])])
    assert auto.find("cat") == [("cat", 0)]
    assert auto.find("cat nap") == [("cat", 0)]
    assert auto.find("nap cat") == [("cat", 4)]
    assert auto.find("bobcat") == []
    assert auto.find("catalog") == []


def test_partial_matches_substrings():
    auto = compile([SynonymSet(0, ["cat"], ["original"])], mode="partial")
    assert auto.find("bobcat") == [("cat", 3)]
    assert auto.find("catalog") == [("cat", 0)]


def test_partial_overlapping_same_length():
    auto = compile(
        [SynonymSet(0, ["ab"], ["original"]), SynonymSet(1, ["ba"], ["original"])],
        mode="partial",
    )
    assert sorted(auto.find("ababa")) == [("ab", 0), ("ab", 2), ("ba", 1), ("ba", 3)]


def test_caption_hits_first_occurrence_and_dedup():
    auto = compile([SynonymSet(0, ["tiger"], ["original"])])
    hits = caption_hits(6, "tiger tiger tiger burning bright", auto)
    assert hits == [MatchHit(6, 0, "tiger", (0, 5))]


def test_caption_hits_shared_synonym_hits_all_owners(tiger_sets):
    auto = compile(tiger_sets)
    hits = caption_hits(5, "the big cat sleeps", auto)
    assert hits == [
        MatchHit(5, 0, "big cat", (4, 11)),
        MatchHit(5, 1, "big cat", (4, 11)),
        MatchHit(5, 1, "cat", (8, 11)),
    ]


def test_span_invariant(tiger_sets):
    auto = compile(tiger_sets, mode="partial")
    text = "tigers and big cats and panthera tigris"
    for h in caption_hits(0, text, auto):
        s, e = h.span
        assert text[s:e] == h.synonym


# -------------------------------------------------------------- counting


def test_scan_counts_captions_not_occurrences(tiger_corpus, tiger_sets):
    path, _ = tiger_corpus
    auto = compile(tiger_sets)
    result = scan(open_corpus(path), auto)
    assert result.n_records == 7
    assert result.table.raw(0) == 5  # captions 0, 1, 3, 5, 6
    assert result.table.raw(1) == 1  # caption 5 only
    assert result.table.filtered(0) == 5  # judging not applied yet
    table, synonym_counts = count_captions(result.hits)
    assert table.counts == result.table.counts
    assert synonym_counts == {
        (0, "tiger"): 3,
        (0, "panthera tigris"): 1,
        (0, "big cat"): 1,
        (1, "big cat"): 1,
        (1, "cat"): 1,
    }


def test_count_captions_refuses_hits_outside_the_concept_list():
    hits = [MatchHit(i, cid, "x") for i, cid in enumerate([0, 9, 5, 8, 7, 6, 3, 0])]
    with pytest.raises(InputError, match=r"\[3, 5, 6, 7, 8\]"):
        count_captions(hits, [0])
    table, _ = count_captions(hits, [0, 3, 5, 6, 7, 8, 9, 4])
    assert table.raw(0) == 2 and table.raw(4) == 0


def test_scan_partial_mode_counts(tiger_corpus, tiger_sets):
    path, _ = tiger_corpus
    result = scan(open_corpus(path), compile(tiger_sets, mode="partial"))
    assert result.table.raw(0) == 6  # "tigers tigers tigers" now matches
    assert result.table.raw(1) == 2  # "three cats on a mat" now matches


def test_scan_monotone_in_corpus_size(tiger_sets):
    texts = [
        "a tiger walking",
        "tigers everywhere",
        "the big cat sleeps",
        "panthera tigris at dusk",
    ]
    auto = compile(tiger_sets)
    full = scan(records_of(texts), auto)
    for k in range(len(texts)):
        part = scan(records_of(texts)[: k + 1], auto)
        for cid in (0, 1):
            assert part.table.raw(cid) <= full.table.raw(cid)


def test_scan_reports_reader_skips(tmp_path, tiger_sets):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": 0, "text": "a tiger"}\nnot json\n{"id": 1, "text": "a cat"}\n{"broken"\n'
    )
    result = scan(open_corpus(str(path)), compile(tiger_sets))
    assert result.n_records == 2
    assert result.n_skipped == 2


# ---------------------------------------------- adversarial whole-word


ADVERSARIAL_SETS = [
    SynonymSet(0, ["new", "new york", "new york city"], ["manual"] * 3),
    SynonymSet(1, ["york city", "city"], ["manual"] * 2),
    SynonymSet(2, ["café au lait", "straße"], ["manual"] * 2),
    SynonymSet(3, ["東京 タワー", "タワー"], ["manual"] * 2),
    SynonymSet(4, ["cat", "big cat"], ["manual"] * 2),
]

ADVERSARIAL_CAPTIONS = [
    "",
    "new",
    "cat",
    "new york city",
    "new new york",
    "new york new york city new",
    "new york new york new york",
    "york new city",
    "newyork new yorker anew",
    "a café au lait straße café au laitx",
    "夜の 東京 タワー 東京タワー 東京 タワー",
    "cats bobcat ca scat big cats big cat",
    "big big cat cat",
]


@pytest.mark.parametrize("text", ADVERSARIAL_CAPTIONS)
def test_whole_word_find_returns_every_occurrence(text):
    auto = compile(ADVERSARIAL_SETS)
    assert sorted(auto.find(text)) == brute_force_occurrences(text, list(auto.owners))


def test_whole_word_find_shared_first_token():
    auto = compile(ADVERSARIAL_SETS)
    assert sorted(auto.find("new new york city")) == [
        ("city", 13), ("new", 0), ("new", 4), ("new york", 4), ("new york city", 4),
        ("york city", 8),
    ]
    # char offsets, not byte offsets: "夜の " is 3 chars but 7 bytes
    assert sorted(auto.find("夜の 東京 タワー")) == [("タワー", 6), ("東京 タワー", 3)]


def test_whole_word_scan_matches_oracle_on_adversarial_captions():
    records = records_of(ADVERSARIAL_CAPTIONS)
    result = scan(records, compile(ADVERSARIAL_SETS))
    oracle = brute_force_hits(records, ADVERSARIAL_SETS)
    assert hit_tuples(result.hits) == oracle
    concept_ids = [s.concept_id for s in ADVERSARIAL_SETS]
    assert result.table.counts == {
        cid: (n, n) for cid, n in brute_force_counts(oracle, concept_ids).items()
    }
    assert count_captions(result.hits)[1] == brute_force_synonym_counts(oracle)


def _modules_loaded_by(module: str, then: str = "") -> set[str]:
    """The names in sys.modules after a fresh interpreter runs `import module`
    and then the statement `then`."""
    src_dir = os.path.dirname(os.path.dirname(tally.__file__))
    code = f"import sys, {module}\n{then}\nprint(chr(10).join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src_dir},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(out.stdout.split())


def test_import_cli_does_not_load_scipy(tmp_path):
    """The statistics are numpy alone: neither importing the CLI nor running
    `tally analyze`, which correlates, loads scipy."""
    assert "scipy" not in _modules_loaded_by("tally.cli")
    freq, acc = tmp_path / "freq.csv", tmp_path / "acc.csv"
    freq.write_text("concept_id,raw,filtered\n0,1,1\n1,5,4\n2,50,40\n3,9,9\n")
    acc.write_text("concept_id,accuracy\n0,0.1\n1,0.4\n2,0.9\n3,0.5\n")
    argv = ["analyze", "--freq", str(freq), "--acc", str(acc), "--out-dir", str(tmp_path / "an")]
    loaded = _modules_loaded_by("tally.cli", f"assert tally.cli.main({argv!r}) == 0")
    assert (tmp_path / "an" / "correlation.csv").exists()
    assert "scipy" not in loaded


def test_import_cli_does_not_load_requests():
    """Only the HTTP provider and judge use requests; offline stages skip it."""
    assert "requests" not in _modules_loaded_by("tally.cli")


def test_count_stages_do_not_load_numpy(tmp_path):
    """synonyms (without --filter), scan, judge, freq and report compute
    nothing with embeddings or statistics, so none of them loads numpy."""
    write_jsonl(tmp_path / "concepts.jsonl", [
        {"concept_id": 0, "name": "tiger"}, {"concept_id": 1, "name": "cat"},
    ])
    write_jsonl(tmp_path / "fixture.jsonl", [{"name": "tiger", "synonyms": ["big cat"]}])
    write_jsonl(tmp_path / "corpus.jsonl", [
        {"id": 0, "text": "a tiger"}, {"id": 1, "text": "tiger shark"}, {"id": 2, "text": "a cat"},
    ])
    write_jsonl(tmp_path / "blocklist.jsonl", [{"name": "tiger", "reject_phrases": ["shark"]}])
    (tmp_path / "run").mkdir()
    f = {name: str(tmp_path / name) for name in (
        "concepts.jsonl", "fixture.jsonl", "corpus.jsonl", "blocklist.jsonl", "cache",
        "synsets.jsonl", "hits.jsonl", "verdicts.jsonl", "run/freq.csv", "run", "report.md",
    )}
    stages = [
        ["synonyms", "--concepts", f["concepts.jsonl"], "--fixture", f["fixture.jsonl"],
         "--cache-dir", f["cache"], "--out", f["synsets.jsonl"]],
        ["scan", "--corpus", f["corpus.jsonl"], "--synonyms", f["synsets.jsonl"],
         "--out", f["hits.jsonl"]],
        ["judge", "--concepts", f["concepts.jsonl"], "--corpus", f["corpus.jsonl"],
         "--hits", f["hits.jsonl"], "--blocklist", f["blocklist.jsonl"],
         "--cache-dir", f["cache"], "--out", f["verdicts.jsonl"]],
        ["freq", "--hits", f["hits.jsonl"], "--verdicts", f["verdicts.jsonl"],
         "--concepts", f["concepts.jsonl"], "--out", f["run/freq.csv"]],
        ["report", "--run-dir", f["run"], "--out", f["report.md"]],
    ]
    for argv in stages:
        loaded = _modules_loaded_by("tally.cli", f"assert tally.cli.main({argv!r}) == 0")
        assert "numpy" not in loaded, argv[0]
    assert "tiger" in (tmp_path / "report.md").read_text()


def test_import_tally_loads_no_submodule():
    """Every name has one import path, its module; the package root re-exports none."""
    loaded = _modules_loaded_by("tally")
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.startswith("tally.")) == []


# -------------------------------------------------- randomized oracle


TOKENS = ["a", "b", "c", "ab", "ba", "aa", "bc", "abc", "cab"]


def random_world(rng):
    texts = [
        " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(5, 120))
    ]
    records = records_of(texts)
    sets = []
    for cid in range(rng.randint(1, 6)):
        syns = list(
            dict.fromkeys(
                " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 4))
            )
        )
        sets.append(SynonymSet(cid, syns, ["manual"] * len(syns)))
    return records, sets


@pytest.mark.parametrize("mode", ["whole_word", "partial"])
def test_randomized_equivalence_with_brute_force(mode):
    for trial in range(40):
        rng = random.Random(1000 * (mode == "partial") + trial)
        records, sets = random_world(rng)
        auto = compile(sets, mode=mode)
        result = scan(records, auto)
        oracle = brute_force_hits(records, sets, mode=mode)
        assert hit_tuples(result.hits) == oracle, f"trial {trial}"
        expected_counts = brute_force_counts(oracle, [s.concept_id for s in sets])
        assert {cid: result.table.raw(cid) for cid in expected_counts} == expected_counts
        expected_syn = brute_force_synonym_counts(oracle)
        assert count_captions(result.hits)[1] == expected_syn


# ---------------------------------------------------------------- shards


def write_noisy_corpus(tmp_path, n_records, seed=0):
    rng = random.Random(seed)
    path = tmp_path / "noisy.jsonl"
    rows = []
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n_records):
            text = " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 8)))
            rows.append({"id": i, "text": text})
            f.write(f'{{"id": {i}, "text": "{text}"}}\n')
            if rng.random() < 0.15:
                f.write("%% not a record %%\n")
    return str(path)


@pytest.mark.parametrize("n_shards,threads", [(1, 1), (2, 1), (3, 4), (7, 4)])
def test_shard_scan_equals_single_scan(tmp_path, n_shards, threads):
    path = write_noisy_corpus(tmp_path, 57)
    sets = [
        SynonymSet(0, ["a", "ab c"], ["manual", "manual"]),
        SynonymSet(1, ["ba", "a"], ["manual", "manual"]),
    ]
    auto = compile(sets)
    single = scan(open_corpus(path), auto)
    shards = shard_corpus(path, n_shards)
    merged = scan_shards(shards, auto, threads=threads)
    assert merged.table.counts == single.table.counts
    assert merged.hits == single.hits
    assert merged.n_records == single.n_records
    assert merged.n_skipped == single.n_skipped
    assert count_captions(merged.hits) == count_captions(single.hits)


def test_split_scans_count_as_whole_scan(tiger_sets):
    """Counting the concatenated hits of scans over consecutive parts of a
    corpus gives the whole scan's counts, wherever the parts are cut."""
    auto = compile(tiger_sets)
    records = records_of(
        ["a tiger walking", "the big cat sleeps", "no match here", "panthera tigris", "tiger"]
    )
    whole = scan(records, auto)
    for cut in range(len(records) + 1):
        hits = scan(records[:cut], auto).hits + scan(records[cut:], auto).hits
        assert hits == whole.hits
        table, per_synonym = count_captions(hits, auto.concept_ids)
        assert table.counts == whole.table.counts
        assert per_synonym == count_captions(whole.hits)[1]


def test_scan_shards_rejects_zero_threads(tmp_path, tiger_sets):
    path = write_noisy_corpus(tmp_path, 5)
    with pytest.raises(InputError, match="threads"):
        scan_shards(shard_corpus(path, 2), compile(tiger_sets), threads=0)


# ------------------------------------------------------------ hits on disk


def test_hits_round_trip(tmp_path, tiger_corpus, tiger_sets):
    path, _ = tiger_corpus
    result = scan(open_corpus(path), compile(tiger_sets))
    out = tmp_path / "hits.jsonl"
    save_hits(result.hits, str(out))
    back = load_hits(str(out))
    assert [(h.caption_id, h.concept_id, h.synonym) for h in back] == [
        (h.caption_id, h.concept_id, h.synonym) for h in result.hits
    ]
    assert all(h.span is None for h in back)


def test_hits_keep_caption_offsets(tmp_path, tiger_corpus, tiger_sets):
    """Each hit carries its caption's byte offset, and save/load keeps it."""
    path, _ = tiger_corpus
    at = {rec.id: rec.byte_offset for rec in open_corpus(path)}
    result = scan(open_corpus(path), compile(tiger_sets))
    assert result.hits and all(h.offset == at[h.caption_id] for h in result.hits)
    out = tmp_path / "hits.jsonl"
    save_hits(result.hits, str(out))
    assert [h.offset for h in load_hits(str(out))] == [h.offset for h in result.hits]


def test_load_hits_bad_offset(tmp_path):
    path = tmp_path / "hits.jsonl"
    path.write_text('{"caption_id": 1, "concept_id": 2, "synonym": "x", "offset": -4}\n')
    with pytest.raises(InputError, match=":1: bad hit record: offset -4"):
        load_hits(str(path))


@pytest.mark.parametrize(
    "field, value",
    [("caption_id", "7.9"), ("concept_id", "true"), ("offset", "true"), ("offset", "3.0")],
)
def test_load_hits_refuses_ids_and_offsets_that_are_not_integers(tmp_path, field, value):
    record = {"caption_id": 7, "concept_id": 1, "synonym": "x", "offset": 0}
    path = tmp_path / "hits.jsonl"
    path.write_text(json.dumps({**record, field: "?"}).replace('"?"', value) + "\n")
    with pytest.raises(InputError, match=f":1: bad hit record: {field} is {value}, not an integer"):
        load_hits(str(path))


def test_load_hits_bad_record(tmp_path):
    path = tmp_path / "hits.jsonl"
    path.write_text('{"caption_id": 1, "concept_id": 2, "synonym": "x", "offset": 0}\n{"caption_id": 1}\n')
    with pytest.raises(InputError, match=":2"):
        load_hits(str(path))


@pytest.mark.parametrize("value", ["null", "7", '["x"]'])
def test_load_hits_refuses_a_synonym_that_is_not_a_string(tmp_path, value):
    """A null synonym is refused, not read through str() as the synonym "None"."""
    path = tmp_path / "hits.jsonl"
    path.write_text(f'{{"caption_id": 1, "concept_id": 2, "synonym": {value}, "offset": 0}}\n')
    with pytest.raises(InputError) as err:
        load_hits(str(path))
    assert str(err.value) == f"{path}:1: bad hit record: synonym is {value}, not a string"


def test_normalize_patterns_validator():
    """The token index assumes normalized patterns; SynonymSet enforces it."""
    SynonymSet(0, ["big cat"], ["manual"])
    for bad in ("Tiger", "big  cat", " cat", "cat "):
        with pytest.raises(InputError, match="not normalized"):
            SynonymSet(0, [bad], ["manual"])


# --------------------------------------------------------------- scaling


def test_medium_scale_oracle_under_time_budget():
    """A mid-size randomized corpus stays fast and exact; the full-size
    bound lives in the acceptance suite."""
    rng = random.Random(7)
    records = records_of(
        " ".join(rng.choice(TOKENS) for _ in range(rng.randint(3, 12))) for _ in range(2000)
    )
    sets = []
    for cid in range(40):
        syns = list(
            dict.fromkeys(
                " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))
            )
        )
        sets.append(SynonymSet(cid, syns, ["manual"] * len(syns)))
    start = time.monotonic()
    auto = compile(sets)
    result = scan(records, auto)
    assert hit_tuples(result.hits) == brute_force_hits(records, sets)
    assert time.monotonic() - start < 20.0
