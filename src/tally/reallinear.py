"""Balanced retrieval and cross-modal linear probing.

Web data is long-tailed, so "take whatever matches" hands the head classes
thousands of examples and the tail a handful. Instead: per concept, rank
the captions that matched it by cosine similarity between the caption
embedding and the concept's averaged synonym embedding, keep the same
top-K everywhere, and train one linear classifier on the pooled retrieved
image embeddings plus the concepts' text embeddings. The trained matrix W
is summed elementwise with the zero-shot matrix W_zs — no mixing
coefficient — which consistently beats either alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analytics import AccuracyTable, mean_per_class_accuracy
from .defaults import DEFAULT_K, TRAIN_MODES
from .embeddings import EmbeddingMatrix
from .errors import DivergenceError, InputError
from .io import json_field, read_jsonl, write_jsonl
from .lexicon import SynonymSet
from .matcher import MatchHit
from .realprompt import ClassifierWeights

logger = logging.getLogger(__name__)


@dataclass
class RetrievalSet:
    """Per-concept ranked caption ids with scores. The file stores no K, so
    a shortfall is measured against the K the caller retrieved with."""

    ranked: dict[int, list[tuple[int, float]]]  # concept_id -> [(caption_id, score)]

    def shortfall(self, k: int) -> dict[int, int]:
        """Concepts that could not fill K, with how many rows are missing."""
        return {cid: k - len(rows) for cid, rows in self.ranked.items() if len(rows) < k}

    def to_jsonl(self, path: str) -> None:
        write_jsonl(
            path,
            (
                {"concept_id": cid, "caption_id": caption_id, "score": float(score), "rank": rank}
                for cid in sorted(self.ranked)
                for rank, (caption_id, score) in enumerate(self.ranked[cid])
            ),
        )

    @classmethod
    def from_jsonl(cls, path: str) -> "RetrievalSet":
        ranked: dict[int, list[tuple[int, int, float]]] = {}
        rows = read_jsonl(
            path,
            "retrieval record",
            lambda obj: (
                json_field(obj, "concept_id"),
                (json_field(obj, "rank"), json_field(obj, "caption_id"), json_field(obj, "score", float)),
            ),
            ("(concept_id, caption_id)", lambda row: (row[0], row[1][1])),
        )
        for cid, row in rows:
            ranked.setdefault(cid, []).append(row)
        if not ranked:
            raise InputError(f"{path}: empty retrieval set")
        out: dict[int, list[tuple[int, float]]] = {}
        for cid, rows in ranked.items():
            rows.sort()
            if [r for r, _, _ in rows] != list(range(len(rows))):
                raise InputError(f"{path}: concept {cid}: ranks are not contiguous from 0")
            out[cid] = [(caption_id, score) for _, caption_id, score in rows]
        return cls(out)


def concept_queries(
    sets: list[SynonymSet],
    synonym_embeddings: EmbeddingMatrix,
    *,
    use_synonyms: bool = True,
) -> dict[int, np.ndarray]:
    """Unit-norm query vector per concept.

    use_synonyms=True averages all synonym embeddings (normalized first);
    False uses the bare original-name embedding alone.
    """
    queries = {}
    for synset in sets:
        keys = synset.synonyms if use_synonyms else [synset.original]
        queries[synset.concept_id] = synonym_embeddings.unit_average(keys)
    return queries


def retrieve_balanced(
    hits: list[MatchHit],
    caption_embeddings: EmbeddingMatrix,
    queries: dict[int, np.ndarray],
    k: int = DEFAULT_K,
    *,
    restrict_to: set[tuple[int, int]] | None = None,
) -> RetrievalSet:
    """Top-K captions per concept by cosine to the concept query.

    Candidates are the captions that hit the concept (optionally restricted
    to judged-relevant (caption, concept) pairs via `restrict_to`); a hit for
    a concept without a query is an InputError. Ties
    break by ascending caption_id. Concepts with fewer than K candidates
    keep everything they have — the shortfall is visible on the result, not
    an error, because sparse tail concepts are the expected case, not a
    malfunction.
    """
    if k < 1:
        raise InputError(f"K must be >= 1, got {k}")
    unknown = sorted({h.concept_id for h in hits}.difference(queries))
    if unknown:
        raise InputError(f"hits for concepts without synonym sets: {unknown[:5]}")
    candidates: dict[int, set[int]] = {cid: set() for cid in queries}
    for h in hits:
        if restrict_to is not None and (h.caption_id, h.concept_id) not in restrict_to:
            continue
        candidates[h.concept_id].add(h.caption_id)

    ranked: dict[int, list[tuple[int, float]]] = {}
    for cid, caption_ids in candidates.items():
        if not caption_ids:
            ranked[cid] = []
            continue
        ids = sorted(caption_ids)
        mat = caption_embeddings.rows([str(i) for i in ids]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        if np.any(norms == 0.0):
            bad = ids[int(np.argmin(norms))]
            raise InputError(f"caption {bad}: zero embedding vector")
        scores = (mat @ queries[cid]) / (norms * float(np.linalg.norm(queries[cid])))
        order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
        ranked[cid] = [(ids[i], float(scores[i])) for i in order]
    result = RetrievalSet(ranked)
    for cid, missing in sorted(result.shortfall(k).items()):
        logger.info("concept %d: retrieved %d of K=%d", cid, k - missing, k)
    return result


@dataclass
class TrainConfig:
    """Hyperparameters for the linear probe.

    Defaults are sized for large retrieval pools (hundreds of examples per
    class); small synthetic problems usually want a larger learning rate.
    The cosine schedule anneals the learning rate to 0 over all steps,
    weight decay enters the gradient as an additive L2 term, and shuffling
    draws one permutation per epoch from a Philox4x64-10 counter-based
    generator seeded with `seed`, so a run is reproducible bit-for-bit from
    the config alone.
    """

    learning_rate: float = 1e-4
    weight_decay: float = 1e-2
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    mode: str = "cross_modal"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InputError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise InputError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise InputError(f"epochs must be >= 0, got {self.epochs}")
        if self.mode not in TRAIN_MODES:
            raise InputError(f"unknown train mode {self.mode!r}; expected one of {TRAIN_MODES}")


def softmax_xent_loss_and_grad(
    weights: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy (+ L2 penalty) and its gradient in W.

    weights: (C × d); x: (n × d); y: (n,) int class indices in [0, C).
    The L2 penalty is 0.5 * weight_decay * ||W||², so its gradient is the
    conventional additive weight_decay * W term. Computes in the precision
    of `weights`, at least float32, with every scalar cast to it. The loss
    is a log-softmax, log(row sum) minus the picked shifted logit, so a
    picked probability that underflows is no infinite loss.
    """
    weights = np.asarray(weights)
    dtype = np.result_type(weights.dtype, np.float32)
    weights = weights.astype(dtype, copy=False)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y)
    picked = (np.arange(x.shape[0]), y)
    probs = x @ weights.T  # (n × C) logits, turned into probabilities in place
    probs -= probs.max(axis=1, keepdims=True)
    loss_terms = -probs[picked]
    np.exp(probs, out=probs)
    sums = probs.sum(axis=1, keepdims=True)
    loss_terms += np.log(sums[:, 0])
    loss = float(np.mean(loss_terms))
    probs /= sums
    probs[picked] -= 1.0
    probs *= dtype.type(1.0 / x.shape[0])  # the mean, taken on the (n × C) side, not on W's
    grad = probs.T @ x
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.vdot(weights, weights))
        grad += dtype.type(weight_decay) * weights
    return loss, grad


def build_text_examples(
    sets: list[SynonymSet],
    synonym_embeddings: EmbeddingMatrix,
    zeroshot: ClassifierWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Text-side training examples for cross-modal mode.

    One example per synonym per concept (its normalized embedding) plus one
    per concept's prompt-averaged name row taken from W_zs. Returns
    (features, labels) with labels as row indices into zeroshot.concept_ids.
    """
    if synonym_embeddings.dim != zeroshot.dim:
        raise InputError(f"synonyms embedding dim {synonym_embeddings.dim} != weights dim {zeroshot.dim}")
    row_of = {cid: i for i, cid in enumerate(zeroshot.concept_ids)}
    feats = []
    labels = []
    for synset in sets:
        if synset.concept_id not in row_of:
            raise InputError(f"synonym set for unknown concept {synset.concept_id}")
        row = row_of[synset.concept_id]
        vecs = synonym_embeddings.rows(synset.synonyms).astype(np.float64)
        for s, v in zip(synset.synonyms, vecs):
            norm = np.linalg.norm(v)
            if norm == 0.0:
                raise InputError(f"synonym {s!r} has a zero embedding")
            feats.append(v / norm)
            labels.append(row)
    for row in range(len(zeroshot.concept_ids)):
        feats.append(zeroshot.matrix[row].astype(np.float64))
        labels.append(row)
    return np.stack(feats), np.asarray(labels, dtype=np.int64)


def train_crossmodal(
    image_features: np.ndarray,
    image_labels: np.ndarray,
    text_features: np.ndarray | None,
    text_labels: np.ndarray | None,
    config: TrainConfig,
    init: ClassifierWeights,
) -> ClassifierWeights:
    """Mini-batch SGD on softmax cross-entropy from a zero-shot init.

    Labels are row indices into init.concept_ids. cross_modal pools image
    and text examples; image_only drops the text side and requires every
    class to keep at least one image example (a classifier row with no
    gradient signal would silently stay at init). epochs=0 returns the
    initialization bit-exactly. Trains in float32, the precision of the
    features and of every ClassifierWeights: the pooled copy rounds
    float64 rows (the normalized text examples) once, and float32 image
    rows pass through unwidened. A non-finite loss, or weights that an
    update takes out of float32's range, raise DivergenceError naming that
    step.
    """
    image_features = np.asarray(image_features)
    image_labels = np.asarray(image_labels, dtype=np.int64)
    if image_features.ndim != 2 or image_features.shape[0] != image_labels.shape[0]:
        raise InputError("image features and labels disagree in length")
    if image_features.shape[1] != init.dim:
        raise InputError(
            f"image feature dim {image_features.shape[1]} != weights dim {init.dim}"
        )

    n_classes = len(init.concept_ids)
    if config.mode == "cross_modal":
        if text_features is None or text_labels is None:
            raise InputError("cross_modal mode requires text examples")
        x = np.concatenate([image_features, text_features], dtype=np.float32)
        y = np.concatenate([image_labels, text_labels], dtype=np.int64)
    else:
        x, y = np.asarray(image_features, dtype=np.float32), image_labels
        present = set(int(c) for c in np.unique(y))
        missing = [init.concept_ids[i] for i in range(n_classes) if i not in present]
        if missing:
            raise InputError(
                f"image_only training with no examples for concepts {missing[:5]}"
            )
    del image_features  # x holds the pooled rows; the caller may hold no other reference
    if x.shape[0] == 0:
        raise InputError("no training examples")
    if y.min() < 0 or y.max() >= n_classes:
        raise InputError("a training label is outside the class range")

    w = init.matrix.copy()
    n = x.shape[0]
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    rng = np.random.Generator(np.random.Philox(config.seed))
    step = 0
    # Non-finite values are reported as DivergenceError, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            for b in range(steps_per_epoch):
                batch = order[b * config.batch_size : (b + 1) * config.batch_size]
                loss, grad = softmax_xent_loss_and_grad(
                    w, x[batch], y[batch], weight_decay=config.weight_decay
                )
                if not np.isfinite(loss):
                    raise DivergenceError(step=step, epoch=epoch)
                # Cosine annealing from learning_rate to 0 across total_steps,
                # cast so the update stays in float32.
                grad *= np.float32(
                    config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
                )
                w -= grad
                if not np.isfinite(w).all():
                    raise DivergenceError(step=step, epoch=epoch, what="weights")
                step += 1
    return ClassifierWeights(
        role="W",
        concept_ids=list(init.concept_ids),
        matrix=w,
        provenance={"init": init.role, "config": vars(config).copy(), "steps": step},
    )


def ensemble(trained: ClassifierWeights, zeroshot: ClassifierWeights) -> ClassifierWeights:
    """Elementwise sum of trained and zero-shot matrices — nothing else.

    No renormalization and no mixing coefficient: both matrices live in the
    same embedding space at comparable scale, and the plain sum is the
    whole trick.
    """
    if trained.concept_ids != zeroshot.concept_ids:
        raise InputError("cannot ensemble weights over different concept orders")
    if trained.matrix.shape != zeroshot.matrix.shape:
        raise InputError(
            f"shape mismatch: {trained.matrix.shape} vs {zeroshot.matrix.shape}"
        )
    return ClassifierWeights(
        role="W_ensemble",
        concept_ids=list(trained.concept_ids),
        matrix=trained.matrix + zeroshot.matrix,
        provenance={"parents": [trained.role, zeroshot.role]},
    )


def evaluate(
    weights: ClassifierWeights,
    image_features: np.ndarray,
    gold_concept_ids: list[int],
) -> tuple[float, AccuracyTable]:
    """Mean per-class accuracy of the classifier on labeled image features."""
    from .realprompt import classify_batch  # looked up per call: a later wrapper is seen

    image_features = np.asarray(image_features, dtype=np.float32)
    if image_features.ndim != 2 or image_features.shape[0] != len(gold_concept_ids):
        raise InputError("image features and gold labels disagree in length")
    preds = classify_batch(weights, image_features)
    pairs = list(zip([int(g) for g in gold_concept_ids], [int(p) for p in preds]))
    return mean_per_class_accuracy(pairs, concepts=list(weights.concept_ids))
