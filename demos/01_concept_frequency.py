"""How often does a web-scale corpus actually talk about a concept?

Counting the string "tiger" is not enough, in both directions at once:

* too few hits  — captions say "panthera tigris" or "big cat" and never
  the word "tiger" itself, so name-only counting undercounts;
* too many hits — "tiger shark swimming in water" contains "tiger" but is
  about a fish, so substring counting overcounts.

This demo measures concept frequency the honest way: expand each concept
into its lexical variants, scan the corpus with whole-word matching, then
let a relevance judge veto mentions that refer to something else.
"""

from tally.corpus import CaptionRecord
from tally.judge import RuleStubJudge, filtered_frequency, judge_hits
from tally.lexicon import Concept, ConceptSet, FixtureSynonymProvider, SynonymSet, expand_synonyms
from tally.matcher import compile, count_captions, scan

CAPTIONS = [
    "A tiger walking in the grass",
    "tiger shark swimming in water",
    "Tigers! tigers, tigers.",
    "portrait of Panthera tigris at dusk",
    "three cats on a mat",
    "the big cat sleeps",
    "tiger tiger tiger burning bright",
]


def main() -> None:
    concepts = ConceptSet([
        Concept(0, "tiger", "a large striped Asian cat"),
        Concept(1, "cat", "a small domesticated feline"),
    ])

    # A synonym provider would normally be an external service; here a
    # fixture stands in for it. The original name always stays first.
    provider = FixtureSynonymProvider({
        "tiger": ["Panthera tigris", "big cat"],
        "cat": ["big cat"],
    })
    sets: list[SynonymSet] = []
    for concept in concepts:
        synset = expand_synonyms(concept, provider)
        sets.append(synset)
        print(f"{concept.name!r} expands to {synset.synonyms}")

    records = [CaptionRecord(i, text, 0) for i, text in enumerate(CAPTIONS)]
    automaton = compile(sets, mode="whole_word")
    result = scan(records, automaton)
    _, synonym_counts = count_captions(result.hits)

    print(f"\nscanned {result.n_records} captions, {len(result.hits)} matches")
    for (cid, synonym), n in sorted(synonym_counts.items()):
        print(f"  concept {cid}: {synonym!r} appears in {n} captions")
    print("note: 'Tigers!' was never matched — whole-word means no plural bleed")

    # The judge vetoes mentions whose context points at a different
    # referent. A blocklist rule plays that role offline.
    judge = RuleStubJudge({"tiger": ["tiger shark"]})
    captions_by_id = {r.id: r.norm_text for r in records}
    verdicts = judge_hits(result.hits, concepts, captions_by_id, judge)
    table, _ = filtered_frequency(result.hits, verdicts, concepts)

    print("\nconcept          raw  filtered")
    for concept in concepts:
        raw, filtered = table.counts[concept.concept_id]
        print(f"{concept.name:<14} {raw:5d} {filtered:9d}")
    print("\nthe tiger-shark caption matched the string but failed the judge,")
    print("so the filtered count is the one to trust.")


if __name__ == "__main__":
    main()
