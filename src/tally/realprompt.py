"""Frequency-aware zero-shot prompting.

The class name a benchmark ships is often not the string the pretraining
corpus uses ("cash machine" vs "atm"). Given per-synonym caption counts,
pick each concept's most frequent synonym, substitute it into prompt
templates, and average the prompt embeddings into one unit-norm classifier
row per concept. The result is a drop-in zero-shot weight matrix — no
training data, no learned parameters.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix, load_embeddings, row_blocks, save_embeddings
from .errors import InputError
from .io import atomic_write, json_field, read_json, read_lines
from .lexicon import SynonymSet

logger = logging.getLogger(__name__)

ROLES = ("W_zs", "W", "W_ensemble")

BUILTIN_TEMPLATES = {
    "plain": ["{}"],
    "photo_of": ["a photo of {}"],
}


@dataclass
class PromptTemplateSet:
    """Prompt templates, each containing exactly one '{}' placeholder."""

    templates: list[str]
    source: str = "custom"

    def __post_init__(self):
        if not self.templates:
            raise InputError("template set is empty")
        for t in self.templates:
            if t.count("{}") != 1:
                raise InputError(
                    f"template {t!r} must contain exactly one '{{}}' placeholder"
                )

    @classmethod
    def builtin(cls, name: str) -> "PromptTemplateSet":
        if name not in BUILTIN_TEMPLATES:
            raise InputError(
                f"unknown template set {name!r}; built-ins: {sorted(BUILTIN_TEMPLATES)}"
            )
        return cls(list(BUILTIN_TEMPLATES[name]), source=name)

    @classmethod
    def from_file(cls, path: str) -> "PromptTemplateSet":
        """One template per line; blank lines ignored."""
        lines = read_lines(path, "template line")
        return cls([line.rstrip("\r\n") for line in lines if line.strip()], source=str(path))


def build_prompts(synonym: str, templates: PromptTemplateSet) -> list[str]:
    """Substitute the synonym into every template, placeholder verbatim."""
    return [t.replace("{}", synonym) for t in templates.templates]


def most_frequent_synonym(
    synset: SynonymSet, synonym_counts: dict[tuple[int, str], int]
) -> tuple[str, int]:
    """The synonym with the highest caption count; list order breaks ties.

    `synonym_counts` maps (concept_id, synonym) -> count (filtered counts
    when a judge run exists, raw otherwise). When every synonym counts
    zero there is no evidence to prefer anything, so the original name is
    returned with a warning.
    """
    counts = [synonym_counts.get((synset.concept_id, s), 0) for s in synset.synonyms]
    best = max(counts)
    if best == 0:
        logger.warning(
            "concept %d: all synonym counts are zero; keeping original name %r",
            synset.concept_id,
            synset.original,
        )
        return synset.original, 0
    return synset.synonyms[counts.index(best)], best


@dataclass
class ClassifierWeights:
    """A (concepts × dim) float32 weight matrix with a role tag.

    Roles: W_zs (zero-shot, unit-norm rows), W (trained), W_ensemble
    (elementwise sum of the two). Row order follows concept_ids.
    """

    role: str
    concept_ids: list[int]
    matrix: np.ndarray
    provenance: dict = field(default_factory=dict)
    _rows: EmbeddingMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if self.role not in ROLES:
            raise InputError(f"unknown weights role {self.role!r}; expected one of {ROLES}")
        # The one matrix check: shape, duplicate ids, NaN/Inf, unit-norm W_zs rows.
        self._rows = EmbeddingMatrix(
            [str(cid) for cid in self.concept_ids], self.matrix, normalized=(self.role == "W_zs")
        )
        self.matrix = self._rows.data

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def save(self, path: str) -> None:
        """Write the matrix in the embedding binary format + JSON sidecar."""
        save_embeddings(self._rows, path)
        with atomic_write(str(path) + ".json") as f:
            json.dump(
                {"role": self.role, "concept_ids": self.concept_ids, "provenance": self.provenance},
                f,
                sort_keys=True,
                indent=2,
            )
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "ClassifierWeights":
        """The matrix and its sidecar, whose role is a string and each concept_id a JSON integer."""
        mat = load_embeddings(path)

        def parse(sidecar) -> "ClassifierWeights":
            ids = sidecar["concept_ids"]
            if bad := [c for c in ids if type(c) is not int]:
                raise TypeError(f"concept_ids holds {json.dumps(bad[0])}, not an integer")
            if [str(c) for c in ids] != mat.keys:
                raise ValueError("concept_ids disagree with the matrix keys")
            return cls(json_field(sidecar, "role", str), ids, mat.data, sidecar.get("provenance", {}))

        return read_json(str(path) + ".json", "weights sidecar", parse)


def build_zeroshot(
    concept_prompts: list[tuple[int, list[str]]],
    prompt_embeddings: EmbeddingMatrix,
    provenance: dict | None = None,
) -> ClassifierWeights:
    """Average each concept's prompt embeddings into one unit-norm row.

    Convention: L2-normalize each prompt embedding, average, renormalize.
    `concept_prompts` is [(concept_id, [prompt strings...]), ...] in row
    order; prompt embeddings are looked up by exact prompt string.
    """
    rows = []
    for concept_id, prompts in concept_prompts:
        if not prompts:
            raise InputError(f"concept {concept_id}: no prompts to embed")
        rows.append(prompt_embeddings.unit_average(prompts))
    matrix = np.stack(rows).astype(np.float32)
    return ClassifierWeights(
        role="W_zs",
        concept_ids=[cid for cid, _ in concept_prompts],
        matrix=matrix,
        provenance=provenance or {},
    )


def classify_batch(weights: ClassifierWeights, queries: np.ndarray) -> np.ndarray:
    """Argmax of W · x for each of (n × dim) queries -> n predicted concept_ids.

    Exact logit ties resolve to the smallest concept_id: columns are
    scanned in ascending concept_id order and argmax returns the first
    maximum. The queries are scored one row block at a time, so at most
    one block of logits exists at once, never the whole (n × concepts).
    """
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    if queries.ndim != 2 or queries.shape[1] != weights.dim:
        raise InputError(f"queries shape {queries.shape} does not match dim {weights.dim}")
    order = np.argsort(np.asarray(weights.concept_ids))
    columns = weights.matrix[order].T
    ids_sorted = np.asarray(weights.concept_ids)[order]
    preds = np.empty(len(queries), dtype=ids_sorted.dtype)
    for block in row_blocks(len(queries), len(ids_sorted)):
        preds[block] = ids_sorted[np.argmax(queries[block] @ columns, axis=1)]
    return preds


def chosen_synonym_report(
    sets: list[SynonymSet], synonym_counts: dict[tuple[int, str], int]
) -> list[tuple[int, str, str, int]]:
    """Rows (concept_id, name, chosen synonym, count) for the report CSV."""
    rows = []
    for synset in sets:
        chosen, count = most_frequent_synonym(synset, synonym_counts)
        rows.append((synset.concept_id, synset.name, chosen, count))
    return rows
