"""Relevance judging, verdict caching, and filtered frequency counting."""

import json
import logging
import threading

import pytest
import requests

from conftest import fake_post
from tally import judge as judge_module
from tally.corpus import normalize_text, open_corpus
from tally.errors import (
    ConsistencyError,
    InputError,
    ProviderError,
    UndefinedPrecisionError,
)
from tally.judge import (
    HttpJudge,
    JudgeOutcome,
    JudgeVerdict,
    RuleStubJudge,
    ValidationSet,
    VerdictCache,
    caption_hash,
    definition_precision,
    filtered_frequency,
    filtered_synonym_counts,
    judge_hits,
    load_verdicts,
    save_verdicts,
)
from tally.lexicon import Concept, ConceptSet
from tally.matcher import MatchHit, compile, scan


# --------------------------------------------------------------- rule stub


def test_rule_stub_rejects_blocklisted_phrase():
    judge = RuleStubJudge({"tiger": ["Tiger Shark"]})
    tiger = Concept(0, "tiger")
    assert judge.judge(tiger, "a tiger walking in the grass") is True
    assert judge.judge(tiger, "tiger shark swimming in water") is False
    assert judge.judge(Concept(1, "cat"), "tiger shark swimming in water") is True


def test_rule_stub_from_jsonl(tmp_path):
    path = tmp_path / "blocklist.jsonl"
    path.write_text('{"name": "tiger", "reject_phrases": ["tiger shark", "tiger lily"]}\n')
    judge = RuleStubJudge.from_jsonl(str(path))
    tiger = Concept(0, "tiger")
    assert judge.judge(tiger, "wild tiger lily in bloom") is False
    assert judge.judge(tiger, "a bengal tiger") is True


def test_rule_stub_bad_record(tmp_path):
    path = tmp_path / "blocklist.jsonl"
    path.write_text('{"name": "tiger"}\n')
    with pytest.raises(InputError, match=":1"):
        RuleStubJudge.from_jsonl(str(path))


def test_rule_stub_refuses_a_bare_string_of_phrases(tmp_path):
    """A bare string is refused, not read as a list of its letters."""
    path = tmp_path / "blocklist.jsonl"
    path.write_text('{"name": "tiger", "reject_phrases": "tiger shark"}\n')
    with pytest.raises(InputError, match=f"{path}:1: bad blocklist record: reject_phrases is a string"):
        RuleStubJudge.from_jsonl(str(path))


def test_rule_stub_default_id_follows_its_blocklists():
    stub = RuleStubJudge({"tiger": ["tiger shark"]})
    assert stub.judge_id.startswith("rule-stub:")
    assert len(stub.judge_id) == len("rule-stub:") + 16
    assert RuleStubJudge({"tiger": ["Tiger  Shark"]}).judge_id == stub.judge_id
    assert RuleStubJudge({"tiger": ["tiger lily"]}).judge_id != stub.judge_id
    assert RuleStubJudge({}, judge_id="strict").judge_id == "strict"


# ------------------------------------------------------------- judge_hits


def pipeline_fixture(tiger_corpus, tiger_sets):
    path, captions = tiger_corpus
    result = scan(open_corpus(path), compile(tiger_sets))
    return result.hits, captions


def test_filtering_removes_string_collisions(tiger_corpus, tiger_concepts, tiger_sets):
    """A blocked phrase drops exactly the colliding captions from the
    filtered count while raw counts are unchanged."""
    hits, captions = pipeline_fixture(tiger_corpus, tiger_sets)
    judge = RuleStubJudge({"tiger": ["tiger shark"]})
    outcome = judge_hits(hits, tiger_concepts, captions, judge)
    table, _ = filtered_frequency(hits, outcome.verdicts, tiger_concepts)
    assert table.raw(0) == 5
    assert table.filtered(0) == 4  # caption 1 ("tiger shark ...") removed
    assert table.raw(1) == 1
    assert table.filtered(1) == 1


def test_judge_hits_one_verdict_per_unique_pair(tiger_concepts):
    hits = [
        MatchHit(10, 0, "tiger"),
        MatchHit(10, 0, "panthera tigris"),  # same pair via another synonym
        MatchHit(11, 0, "tiger"),
        MatchHit(10, 1, "cat"),
    ]
    calls = []

    class Recording:
        judge_id = "recording"

        def judge(self, concept, caption, definition=None):
            calls.append((concept.concept_id, caption))
            return True

    captions = {10: "a tiger and a cat", 11: "another tiger"}
    outcome = judge_hits(hits, tiger_concepts, captions, Recording())
    assert [(v.caption_id, v.concept_id) for v in outcome.verdicts] == [
        (10, 0),
        (11, 0),
        (10, 1),
    ]
    assert len(calls) == 3


def test_judge_hits_normalizes_no_caption_again(monkeypatch, tiger_concepts):
    """judge_hits passes normalized text, so the rule stub does not normalize it."""
    stub = RuleStubJudge({"tiger": ["tiger shark"]})
    calls = []

    def counting_normalize(text):
        calls.append(text)
        return normalize_text(text)

    monkeypatch.setattr(judge_module, "normalize_text", counting_normalize)
    hits = [MatchHit(1, 0, "tiger"), MatchHit(2, 0, "tiger")]
    captions = {1: "a tiger", 2: "tiger shark swimming in water"}
    outcome = judge_hits(hits, tiger_concepts, captions, stub)
    assert [v.relevant for v in outcome.verdicts] == [True, False]
    assert calls == []


def test_judge_hits_missing_caption_text(tiger_concepts):
    with pytest.raises(InputError, match="caption_id 99"):
        judge_hits([MatchHit(99, 0, "tiger")], tiger_concepts, {}, RuleStubJudge({}))


def test_judge_hits_unknown_concept(tiger_concepts):
    with pytest.raises(InputError, match="77"):
        judge_hits([MatchHit(1, 77, "x")], tiger_concepts, {1: "x"}, RuleStubJudge({}))


class FlakyJudge:
    """Fails the first n calls per pair, then answers."""

    def __init__(self, failures_before_success):
        self.failures_before_success = failures_before_success
        self.attempts = {}
        self.judge_id = "flaky"

    def judge(self, concept, caption, definition=None):
        key = (concept.concept_id, caption)
        n = self.attempts.get(key, 0)
        self.attempts[key] = n + 1
        if n < self.failures_before_success:
            raise ProviderError("transient", concept.concept_id)
        return True


def test_retry_recovers_from_transient_failures(tiger_concepts):
    judge = FlakyJudge(failures_before_success=2)
    outcome = judge_hits(
        [MatchHit(1, 0, "tiger")],
        tiger_concepts,
        {1: "a tiger"},
        judge,
        max_attempts=3,
        backoff_s=0,
    )
    assert outcome.undecided == []
    assert outcome.verdicts == [JudgeVerdict(1, 0, True, "flaky")]
    assert judge.attempts[(0, "a tiger")] == 3


def test_exhausted_retries_mark_pair_undecided(tiger_concepts, caplog):
    judge = FlakyJudge(failures_before_success=5)
    with caplog.at_level(logging.WARNING, logger="tally.judge"):
        outcome = judge_hits(
            [MatchHit(1, 0, "tiger"), MatchHit(2, 0, "tiger")],
            tiger_concepts,
            {1: "a tiger", 2: "two tigers"},
            judge,
            max_attempts=2,
            backoff_s=0,
        )
    assert outcome.verdicts == []
    assert outcome.undecided == [(1, 0), (2, 0)]
    assert sum("no verdict" in r.message for r in caplog.records) == 2


def test_cache_skips_provider_on_rerun(tmp_path, tiger_concepts):
    cache_dir = str(tmp_path / "cache")
    hits = [MatchHit(1, 0, "tiger"), MatchHit(2, 0, "tiger")]
    captions = {1: "a tiger", 2: "tiger shark swimming in water"}
    judge = RuleStubJudge({"tiger": ["tiger shark"]})
    first = judge_hits(hits, tiger_concepts, captions, VerdictCache(cache_dir, judge))

    stub_id = judge.judge_id

    class Dead:
        judge_id = stub_id  # same id -> same cache slots

        def judge(self, concept, caption, definition=None):
            raise AssertionError("cache miss: provider was consulted")

    second = judge_hits(hits, tiger_concepts, captions, VerdictCache(cache_dir, Dead()))
    assert second.verdicts == first.verdicts


def test_cache_keyed_by_judge_id(tmp_path, tiger_concepts):
    cache_dir = str(tmp_path / "cache")
    hits = [MatchHit(1, 0, "tiger")]
    captions = {1: "tiger shark swimming in water"}
    strict = VerdictCache(cache_dir, RuleStubJudge({"tiger": ["tiger shark"]}, judge_id="strict"))
    assert judge_hits(hits, tiger_concepts, captions, strict).verdicts[0].relevant is False
    lax = VerdictCache(cache_dir, RuleStubJudge({}, judge_id="lax"))
    assert judge_hits(hits, tiger_concepts, captions, lax).verdicts[0].relevant is True


def test_cache_file_schema(tmp_path):
    cache = VerdictCache(str(tmp_path / "cache"), RuleStubJudge({}))
    h = caption_hash("a tiger")
    cache.put("stub", 3, h, True)
    cache.put("stub", 3, h, False)  # duplicate key ignored, not rewritten
    lines = (tmp_path / "cache" / "verdicts.jsonl").read_text().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj == {"caption_sha256": h, "concept_id": 3, "judge_id": "stub", "relevant": True}
    assert VerdictCache(str(tmp_path / "cache"), RuleStubJudge({})).get("stub", 3, h) is True


def _verdict_line(concept_id, relevant):
    return json.dumps(
        {"caption_sha256": caption_hash("a tiger"), "concept_id": concept_id,
         "judge_id": "stub", "relevant": relevant},
        sort_keys=True,
    )


@pytest.mark.parametrize("cut", [1, 30, -1])
def test_cache_skips_torn_final_line(tmp_path, cut):
    """A writer killed mid-append leaves an unterminated, unparsable last
    line: it is skipped on load and truncated before the next append."""
    path = tmp_path / "cache" / "verdicts.jsonl"
    path.parent.mkdir()
    path.write_text(_verdict_line(1, True) + "\n" + _verdict_line(2, False)[:cut])
    h = caption_hash("a tiger")
    cache = VerdictCache(str(tmp_path / "cache"), RuleStubJudge({}))
    assert cache.get("stub", 1, h) is True
    assert cache.get("stub", 2, h) is None
    cache.put("stub", 3, h, False)
    assert path.read_text() == _verdict_line(1, True) + "\n" + _verdict_line(3, False) + "\n"
    reloaded = VerdictCache(str(tmp_path / "cache"), RuleStubJudge({}))
    assert reloaded.get("stub", 3, h) is False


def test_cache_keeps_unterminated_complete_final_line(tmp_path):
    path = tmp_path / "cache" / "verdicts.jsonl"
    path.parent.mkdir()
    path.write_text(_verdict_line(1, True))
    h = caption_hash("a tiger")
    cache = VerdictCache(str(tmp_path / "cache"), RuleStubJudge({}))
    assert cache.get("stub", 1, h) is True
    cache.put("stub", 2, h, False)
    assert path.read_text() == _verdict_line(1, True) + "\n" + _verdict_line(2, False) + "\n"


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("{torn\n" + _verdict_line(1, True) + "\n", 1),  # not the last line
        (_verdict_line(1, True) + "\n{torn\n", 2),  # terminated, so fully written
        (_verdict_line(1, True) + '\n{"judge_id": "stub"}\n', 2),  # missing fields
        (_verdict_line(1, "false") + "\n", 1),  # bool() would read it as True
        (_verdict_line(1, 0) + "\n", 1),
    ],
    ids=["first-line", "terminated-last-line", "missing-fields", "relevant-str", "relevant-int"],
)
def test_cache_malformed_line_is_input_error(tmp_path, body, lineno):
    path = tmp_path / "cache" / "verdicts.jsonl"
    path.parent.mkdir()
    path.write_text(body)
    with pytest.raises(InputError, match=f"verdicts.jsonl:{lineno}:"):
        VerdictCache(str(tmp_path / "cache"), RuleStubJudge({}))


def test_verdict_cache_asks_its_judge_on_a_miss_only(tmp_path, tiger_concepts):
    judge = FlakyJudge(failures_before_success=0)
    cache = VerdictCache(str(tmp_path / "cache"), judge)
    assert cache.judge_id == "flaky"
    tiger = tiger_concepts[0]
    assert cache.judge(tiger, "a tiger") is True
    assert cache.judge(tiger, "a tiger") is True
    assert judge.attempts == {(0, "a tiger"): 1}
    assert cache.get("flaky", 0, caption_hash("a tiger")) is True


def test_judge_hits_hashes_no_caption_when_nothing_caches(monkeypatch, tiger_concepts):
    def refuse(text):
        raise AssertionError("caption hashed")

    monkeypatch.setattr(judge_module, "caption_hash", refuse)
    outcome = judge_hits([MatchHit(1, 0, "tiger")], tiger_concepts, {1: "a tiger"}, RuleStubJudge({}))
    assert [v.relevant for v in outcome.verdicts] == [True]


def test_worker_count_does_not_change_order(tiger_concepts):
    hits = [MatchHit(i, i % 2, "x") for i in range(20)]
    captions = {i: f"caption {i}" for i in range(20)}

    class SlowFirst:
        judge_id = "slow"

        def __init__(self):
            self.first = threading.Event()

        def judge(self, concept, caption, definition=None):
            if caption == "caption 0" and not self.first.is_set():
                self.first.set()
                import time

                time.sleep(0.05)
            return True

    serial = judge_hits(hits, tiger_concepts, captions, SlowFirst())
    threaded = judge_hits(hits, tiger_concepts, captions, SlowFirst(), max_workers=4)
    assert threaded.verdicts == serial.verdicts


# --------------------------------------------------------------- filtering


def test_filtered_frequency_requires_verdicts():
    hits = [MatchHit(1, 0, "tiger")]
    with pytest.raises(ConsistencyError, match="caption 1"):
        filtered_frequency(hits, [])


def test_filtered_frequency_undecided_excluded_from_filtered():
    hits = [MatchHit(1, 0, "tiger"), MatchHit(2, 0, "tiger")]
    verdicts = [JudgeVerdict(1, 0, True, "j")]
    table, _ = filtered_frequency(hits, verdicts, undecided=[(2, 0)])
    assert table.raw(0) == 2
    assert table.filtered(0) == 1


def test_filtered_frequency_zero_rows_for_unmatched_concepts(tiger_concepts):
    hits = [MatchHit(1, 0, "tiger")]
    verdicts = [JudgeVerdict(1, 0, True, "j")]
    table, _ = filtered_frequency(hits, verdicts, tiger_concepts)
    assert table.raw(1) == 0
    assert table.filtered(1) == 0


def test_filtered_frequency_any_relevant_hit_counts():
    """A caption counts as filtered-relevant for a concept iff its single
    (caption, concept) verdict is relevant, regardless of synonym count."""
    hits = [
        MatchHit(1, 0, "tiger"),
        MatchHit(1, 0, "panthera tigris"),
        MatchHit(2, 0, "tiger"),
    ]
    verdicts = [JudgeVerdict(1, 0, False, "j"), JudgeVerdict(2, 0, True, "j")]
    table, _ = filtered_frequency(hits, verdicts)
    assert table.raw(0) == 2
    assert table.filtered(0) == 1


def test_filtered_synonym_counts():
    hits = [
        MatchHit(1, 0, "tiger"),
        MatchHit(1, 0, "big cat"),
        MatchHit(2, 0, "tiger"),
        MatchHit(3, 0, "tiger"),
    ]
    verdicts = [
        JudgeVerdict(1, 0, True, "j"),
        JudgeVerdict(2, 0, False, "j"),
    ]
    counts = filtered_synonym_counts(hits, verdicts, undecided=[(3, 0)])
    assert counts == {(0, "tiger"): 1, (0, "big cat"): 1}


def test_filtered_synonym_counts_missing_verdict():
    with pytest.raises(ConsistencyError):
        filtered_synonym_counts([MatchHit(1, 0, "tiger")], [])


# --------------------------------------------------------------- precision


def test_definition_precision_hand_computed():
    """judge accepts pairs 1,2,3; gold says 1,2 relevant, 3 not -> 2/3."""
    concept = Concept(0, "tiger", "large striped cat")
    validation = ValidationSet(
        [(1, 0, True), (2, 0, True), (3, 0, False), (4, 0, False)]
    )
    captions = {
        1: "a tiger in the grass",
        2: "bengal tiger portrait",
        3: "tiger shark swimming",
        4: "tiger lily flower",
    }
    judge = RuleStubJudge({"tiger": ["tiger lily"]})  # rejects only pair 4
    precision = definition_precision(concept, "large striped cat", validation, judge, captions)
    assert precision == pytest.approx(2 / 3)


def test_definition_precision_perfect_judge():
    concept = Concept(0, "tiger")
    validation = ValidationSet([(1, 0, True), (2, 0, False)])
    captions = {1: "a tiger", 2: "tiger shark swimming"}
    judge = RuleStubJudge({"tiger": ["tiger shark"]})
    assert definition_precision(concept, "", validation, judge, captions) == 1.0


def test_definition_precision_undefined_when_all_rejected():
    concept = Concept(0, "tiger")
    validation = ValidationSet([(1, 0, True)])
    judge = RuleStubJudge({"tiger": ["tiger"]})  # rejects every mention
    with pytest.raises(UndefinedPrecisionError):
        definition_precision(concept, "", validation, judge, {1: "a tiger"})


def test_definition_precision_no_pairs_for_concept():
    validation = ValidationSet([(1, 1, True)])
    with pytest.raises(InputError, match="no pairs"):
        definition_precision(Concept(0, "tiger"), "", validation, RuleStubJudge({}), {1: "x"})


def test_definition_precision_accept_all_equals_gold_rate():
    """An always-accept judge scores the gold base rate exactly."""
    concept = Concept(0, "tiger")
    pairs = [(i, 0, i % 3 == 0) for i in range(12)]
    validation = ValidationSet(pairs)
    captions = {i: f"caption {i}" for i in range(12)}
    precision = definition_precision(concept, "", validation, RuleStubJudge({}), captions)
    assert precision == pytest.approx(4 / 12)


def test_validation_set_duplicate_pair():
    with pytest.raises(InputError, match="duplicate"):
        ValidationSet([(1, 0, True), (1, 0, False)])


def test_validation_set_jsonl(tmp_path):
    path = tmp_path / "validation.jsonl"
    path.write_text(
        '{"caption_id": 1, "concept_id": 0, "gold_relevant": true}\n'
        '{"caption_id": 2, "concept_id": 0, "gold_relevant": false}\n'
    )
    vs = ValidationSet.from_jsonl(str(path))
    assert vs.pairs == [(1, 0, True), (2, 0, False)]


# ------------------------------------------------------------------- http


def test_http_judge(http_provider):
    seen = []

    def handler(req):
        seen.append(req)
        return (200, {"relevant": "shark" not in req["caption"]})

    http_provider.route("/judge", handler)
    judge = HttpJudge(http_provider.url)
    tiger = Concept(0, "tiger", "a large striped cat")
    assert judge.judge(tiger, "a tiger walking") is True
    assert judge.judge(tiger, "tiger shark swimming") is False
    assert seen[0] == {
        "concept": "tiger",
        "definition": "a large striped cat",
        "caption": "a tiger walking",
    }


def test_http_judge_definition_override(http_provider):
    http_provider.route("/judge", lambda req: (200, {"relevant": True}))
    HttpJudge(http_provider.url).judge(
        Concept(0, "tiger", "default"), "text", definition="custom"
    )
    assert http_provider.calls[-1][1]["definition"] == "custom"


def test_http_judge_error_status(http_provider):
    http_provider.route("/judge", lambda req: (503, {}))
    with pytest.raises(ProviderError) as err:
        HttpJudge(http_provider.url).judge(Concept(7, "tiger"), "text")
    assert err.value.concept_id == 7


def test_http_judge_non_bool_relevant(http_provider):
    http_provider.route("/judge", lambda req: (200, {"relevant": 1}))
    with pytest.raises(ProviderError, match="not bool"):
        HttpJudge(http_provider.url).judge(Concept(0, "tiger"), "text")


@pytest.mark.parametrize(
    "outcome, message",
    [
        (requests.ConnectionError("refused"), "refused"),
        (b"<html>not json", "judge failed for concept 7"),
        (b'{"relevant": "yes"}', "not bool"),
        (b'{"verdict": true}', "relevant"),
    ],
)
def test_http_judge_failures_are_provider_errors(monkeypatch, outcome, message):
    monkeypatch.setattr(requests, "post", fake_post(outcome))
    with pytest.raises(ProviderError, match=message) as err:
        HttpJudge("http://judge.invalid").judge(Concept(7, "tiger"), "text")
    assert err.value.concept_id == 7


# ------------------------------------------------------------ persistence


def test_verdicts_round_trip(tmp_path):
    outcome = JudgeOutcome(
        verdicts=[JudgeVerdict(1, 0, True, "j"), JudgeVerdict(2, 0, False, "j")],
        undecided=[(3, 0)],
    )
    path = tmp_path / "verdicts.jsonl"
    save_verdicts(outcome, str(path))
    back = load_verdicts(str(path))
    assert back.verdicts == outcome.verdicts
    assert back.undecided == outcome.undecided


@pytest.mark.parametrize("relevant", ['"false"', "0"])
def test_verdict_and_validation_files_refuse_a_relevant_that_is_not_a_bool(tmp_path, relevant):
    path = tmp_path / "verdicts.jsonl"
    path.write_text(f'{{"caption_id": 1, "concept_id": 0, "relevant": {relevant}}}\n')
    with pytest.raises(InputError, match=":1: bad verdict record: 'relevant' is"):
        load_verdicts(str(path))
    path.write_text(f'{{"caption_id": 1, "concept_id": 0, "gold_relevant": {relevant}}}\n')
    with pytest.raises(InputError, match=":1: bad validation pair: 'gold_relevant' is"):
        ValidationSet.from_jsonl(str(path))


@pytest.mark.parametrize("relevant", ["true", "null"])
@pytest.mark.parametrize("ids", ['"caption_id": 1.0, "concept_id": 0', '"caption_id": 1, "concept_id": false'])
def test_verdict_and_validation_files_refuse_ids_that_are_not_integers(tmp_path, ids, relevant):
    path = tmp_path / "verdicts.jsonl"
    path.write_text(f'{{{ids}, "relevant": {relevant}}}\n')
    with pytest.raises(InputError, match=":1: bad verdict record: .*_id is .*, not an integer"):
        load_verdicts(str(path))
    path.write_text(f'{{{ids}, "gold_relevant": true}}\n')
    with pytest.raises(InputError, match=":1: bad validation pair: .*_id is .*, not an integer"):
        ValidationSet.from_jsonl(str(path))


def test_load_verdicts_bad_record(tmp_path):
    path = tmp_path / "verdicts.jsonl"
    path.write_text('{"caption_id": 1}\n')
    with pytest.raises(InputError, match=":1"):
        load_verdicts(str(path))


def test_caption_hash_is_stable():
    assert caption_hash("a tiger") == caption_hash("a tiger")
    assert caption_hash("a tiger") != caption_hash("a tigers")
    assert caption_hash(normalize_text("A  tiger!")) == caption_hash("a tiger")
