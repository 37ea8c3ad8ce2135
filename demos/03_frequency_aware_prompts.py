"""Prompt with the words the corpus actually uses.

An embedding model knows a concept best under the surface form it saw
most often during pretraining. If captions say "ATM" ten times more often
than "cash machine", then a zero-shot prompt built from "cash machine"
sits in a weaker region of text space. The fix is mechanical: count how
often each synonym appears (after relevance filtering), then build the
prompt from the most frequent one.
"""

import numpy as np

from tally.lexicon import SynonymSet
from tally.realprompt import (
    PromptTemplateSet,
    build_prompts,
    build_zeroshot,
    chosen_synonym_report,
    classify_batch,
    most_frequent_synonym,
)
from tally.embeddings import EmbeddingMatrix

DIM = 24


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def main() -> None:
    rng = np.random.default_rng(7)

    sets = [
        SynonymSet(0, ["cash machine", "atm"], ["original", "provider"]),
        SynonymSet(1, ["sneaker", "running shoes"], ["original", "provider"]),
    ]
    # Filtered per-synonym caption counts, as the scanning pipeline reports
    # them. "atm" outnumbers the given name 10:1.
    synonym_counts = {
        (0, "cash machine"): 40,
        (0, "atm"): 400,
        (1, "sneaker"): 210,
        (1, "running shoes"): 95,
    }

    for synset in sets:
        chosen, count = most_frequent_synonym(synset, synonym_counts)
        print(f"concept {synset.concept_id}: {synset.original!r} -> prompt with {chosen!r} ({count} captions)")
    print()
    for row in chosen_synonym_report(sets, synonym_counts):
        print("  report row:", row)

    # Toy embedding space. The image cluster for each class sits where the
    # *frequent* surface form's prompt lands; the rare form's prompt is off
    # to the side, which is exactly what frequency does to text embeddings.
    anchors = {0: unit(rng.standard_normal(DIM)), 1: unit(rng.standard_normal(DIM))}
    templates = PromptTemplateSet.builtin("photo_of")

    def prompt_vector(concept_id: int, synonym: str, frequent: bool) -> np.ndarray:
        # A frequent surface form lands near the image cluster; a rare one is
        # mostly noise, barely correlated with the concept it names.
        offset = 0.25 if frequent else 3.0
        return unit(anchors[concept_id] + offset * unit(rng.standard_normal(DIM)))

    keys, vecs = [], []
    for synset in sets:
        for synonym in synset.synonyms:
            frequent = synonym_counts[(synset.concept_id, synonym)] >= 200
            for prompt in build_prompts(synonym, templates):
                keys.append(prompt)
                vecs.append(prompt_vector(synset.concept_id, synonym, frequent))
    prompt_embs = EmbeddingMatrix(keys, np.stack(vecs).astype(np.float32), normalized=True)

    def zeroshot(pick_most_frequent: bool):
        concept_prompts = []
        for synset in sets:
            synonym = (
                most_frequent_synonym(synset, synonym_counts)[0]
                if pick_most_frequent
                else synset.original
            )
            concept_prompts.append((synset.concept_id, build_prompts(synonym, templates)))
        return build_zeroshot(concept_prompts, prompt_embs)

    test_x = np.stack([
        unit(anchors[c] + 0.6 * unit(rng.standard_normal(DIM)))
        for c in (0, 1)
        for _ in range(200)
    ]).astype(np.float32)
    test_y = np.repeat([0, 1], 200)

    for label, flag in (("given names ", False), ("most frequent", True)):
        weights = zeroshot(flag)
        acc = float(np.mean(classify_batch(weights, test_x) == test_y))
        print(f"\nzero-shot with {label}: accuracy {acc:.3f}")


if __name__ == "__main__":
    main()
