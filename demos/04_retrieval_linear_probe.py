"""Repair tail classes with retrieved examples and a cross-modal probe.

Zero-shot rows for rarely-mentioned concepts are noisy, so those classes
score poorly. But the pretraining corpus still *contains* good examples of
them — you just have to go get them. This demo builds a small synthetic
embedding world with that exact shape, then runs the repair recipe:

  1. retrieve a balanced top-K set of caption embeddings per concept,
  2. train a linear probe on them (plus text examples), warm-started
     from the zero-shot weights,
  3. ensemble by literally adding the trained and zero-shot matrices.

The mean per-class accuracy gain concentrates on the tail, which is the
point: the head was already fine.
"""

import numpy as np

from tally.embeddings import EmbeddingMatrix
from tally.lexicon import SynonymSet
from tally.matcher import MatchHit
from tally.analytics import FrequencyTable, head_tail_split
from tally.realprompt import ClassifierWeights
from tally.reallinear import (
    TrainConfig,
    build_text_examples,
    concept_queries,
    ensemble,
    evaluate,
    retrieve_balanced,
    train_crossmodal,
)

N_CONCEPTS = 10
DIM = 32
K = 40
TEST_PER_CLASS = 60

rng = np.random.default_rng(20260814)


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def noisy(proto: np.ndarray, sigma: float) -> np.ndarray:
    # Noise with norm exactly sigma, so the angle to the prototype does not
    # depend on the embedding dimension.
    g = rng.standard_normal(DIM)
    return unit(proto + sigma * (g / np.linalg.norm(g)))


def main() -> None:
    protos, _ = np.linalg.qr(rng.standard_normal((DIM, N_CONCEPTS)))
    protos = protos.T  # (concepts × dim), orthonormal rows

    names = [f"taxon {i:02d}" for i in range(N_CONCEPTS)]
    sets = [SynonymSet(i, [names[i]], ["original"]) for i in range(N_CONCEPTS)]

    # Zipf-ish pool sizes: the head concept has hundreds of captions, the
    # tail a couple dozen (some below K, so retrieval reports a shortfall).
    pool_sizes = [max(24, round(300 * (i + 1) ** -1.1)) for i in range(N_CONCEPTS)]

    hits, caption_keys, caption_vecs = [], [], []
    next_id = 0
    for cid, n in enumerate(pool_sizes):
        for _ in range(n):
            hits.append(MatchHit(next_id, cid, names[cid], None))
            caption_keys.append(str(next_id))
            caption_vecs.append(noisy(protos[cid], 0.45))
            next_id += 1
    captions = EmbeddingMatrix(caption_keys, np.stack(caption_vecs).astype(np.float32))

    synonyms = EmbeddingMatrix(
        names, np.stack([noisy(protos[i], 0.10) for i in range(N_CONCEPTS)]).astype(np.float32)
    )

    # Zero-shot rows degrade toward the tail — and not with harmless
    # isotropic blur: a rarely-seen name's prompt drifts toward whatever the
    # tokens do evoke, typically a confusable neighbor. Model that by mixing
    # a rival prototype into the row, more strongly for rarer concepts.
    def prompt_row(i: int) -> np.ndarray:
        sigma = 0.15 + 1.35 * (i / (N_CONCEPTS - 1)) ** 2
        rival = protos[(i + 3) % N_CONCEPTS]
        g = rng.standard_normal(DIM)
        drift = unit(rival + 0.3 * (g / np.linalg.norm(g)))
        return unit(protos[i] + sigma * drift)

    zeroshot = ClassifierWeights(
        role="W_zs",
        concept_ids=list(range(N_CONCEPTS)),
        matrix=np.stack([prompt_row(i) for i in range(N_CONCEPTS)]).astype(np.float32),
    )

    queries = concept_queries(sets, synonyms)
    retrieved = retrieve_balanced(hits, captions, queries, k=K)
    print(f"retrieved top-{K} per concept; shortfalls: {retrieved.shortfall(K) or 'none'}")

    image_keys, image_y = [], []
    for cid, rows in sorted(retrieved.ranked.items()):
        for caption_id, _score in rows:
            image_keys.append(str(caption_id))
            image_y.append(cid)
    image_x = captions.rows(image_keys)
    image_y = np.asarray(image_y, dtype=np.int64)
    text_x, text_y = build_text_examples(sets, synonyms, zeroshot)

    config = TrainConfig(learning_rate=0.3, epochs=10, seed=0)
    trained = train_crossmodal(image_x, image_y, text_x, text_y, config, init=zeroshot)
    combined = ensemble(trained, zeroshot)
    print(f"trained {trained.provenance['steps']} SGD steps "
          f"on {len(image_y)} image + {len(text_y)} text examples")

    test_x = np.stack(
        [noisy(protos[c], 0.60) for c in range(N_CONCEPTS) for _ in range(TEST_PER_CLASS)]
    ).astype(np.float32)
    test_gold = [c for c in range(N_CONCEPTS) for _ in range(TEST_PER_CLASS)]

    freq = FrequencyTable({cid: (n, n) for cid, n in enumerate(pool_sizes)})
    head, tail = head_tail_split(freq)

    print(f"\n{'classifier':<12} {'mpca':>7} {'head':>7} {'tail':>7}")
    results = {}
    for weights in (zeroshot, combined):
        mpca, table = evaluate(weights, test_x, test_gold)
        head_acc = table.mean(head)
        tail_acc = table.mean(tail)
        results[weights.role] = (mpca, head_acc, tail_acc)
        print(f"{weights.role:<12} {mpca:>7.3f} {head_acc:>7.3f} {tail_acc:>7.3f}")

    zs, ens = results["W_zs"], results["W_ensemble"]
    print(f"\nensemble gain: mpca {ens[0]-zs[0]:+.3f} "
          f"(head {ens[1]-zs[1]:+.3f}, tail {ens[2]-zs[2]:+.3f})")


if __name__ == "__main__":
    main()
