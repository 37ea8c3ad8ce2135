"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way — per-position
string comparison, textbook statistics formulas, full sorts — and shares no
code with the package internals it checks.
"""

from __future__ import annotations

import numpy as np


# ------------------------------------------------------------- matcher


def brute_force_hits(records, synonym_sets, mode="whole_word"):
    """Quadratic reference matcher.

    For every (caption, pattern) pair, walk candidate start positions with
    str.find and apply the boundary rule by hand. Returns a set of
    (caption_id, concept_id, synonym, start, end) tuples using the first
    occurrence of each (caption, concept, synonym).
    """
    patterns = []
    for synset in synonym_sets:
        for syn in synset.synonyms:
            patterns.append((syn, synset.concept_id))
    hits = set()
    for rec in records:
        text = rec.norm_text
        for pattern, cid in patterns:
            width = len(pattern)
            pos = 0
            while True:
                start = text.find(pattern, pos)
                if start < 0:
                    break
                ok = True
                if mode == "whole_word":
                    if start > 0 and text[start - 1] != " ":
                        ok = False
                    end = start + width
                    if end < len(text) and text[end] != " ":
                        ok = False
                if ok:
                    hits.add((rec.id, cid, pattern, start, start + width))
                    break  # first occurrence only
                pos = start + 1
    return hits


def brute_force_occurrences(text, patterns, mode="whole_word"):
    """Every (pattern, start) occurrence of each pattern in one text, by
    trying each start position and applying the boundary rule by hand."""
    found = []
    for pattern in patterns:
        for start in range(len(text) - len(pattern) + 1):
            if text[start : start + len(pattern)] != pattern:
                continue
            end = start + len(pattern)
            if mode == "whole_word" and (
                (start > 0 and text[start - 1] != " ") or (end < len(text) and text[end] != " ")
            ):
                continue
            found.append((pattern, start))
    return sorted(found)


def brute_force_counts(hit_tuples, concept_ids):
    """Distinct captions per concept from brute-force hit tuples."""
    caps = {cid: set() for cid in concept_ids}
    for caption_id, cid, _, _, _ in hit_tuples:
        caps[cid].add(caption_id)
    return {cid: len(ids) for cid, ids in caps.items()}


def brute_force_synonym_counts(hit_tuples):
    """Distinct captions per (concept, synonym)."""
    caps = {}
    for caption_id, cid, syn, _, _ in hit_tuples:
        caps.setdefault((cid, syn), set()).add(caption_id)
    return {key: len(ids) for key, ids in caps.items()}


# ----------------------------------------------------------- statistics


def pearson_textbook(x, y):
    """r = sum((x-mx)(y-my)) / sqrt(sum((x-mx)^2) * sum((y-my)^2))."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sum(dx * dy) / np.sqrt(np.sum(dx**2) * np.sum(dy**2)))


def average_ranks(values):
    """Ranks 1..n with ties sharing the average of their rank range."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_textbook(x, y):
    """Pearson correlation of average ranks."""
    return pearson_textbook(average_ranks(x), average_ranks(y))


# -------------------------------------------------------------- retrieval


def full_sort_retrieval(candidates, caption_vectors, query, k):
    """Reference top-K: score every candidate in float64, full sort.

    candidates: list of caption ids; caption_vectors: dict id -> vector.
    Ties break by ascending caption id.
    """
    query = np.asarray(query, dtype=np.float64)
    qn = np.linalg.norm(query)
    scored = []
    for caption_id in candidates:
        v = np.asarray(caption_vectors[caption_id], dtype=np.float64)
        score = float(v @ query / (np.linalg.norm(v) * qn))
        scored.append((caption_id, score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


# ------------------------------------------------------------ separability


def perceptron_separable(x, y, margin_required=0.0, max_epochs=10_000):
    """Exact separability check for 2 classes via the perceptron algorithm.

    Returns True iff a homogeneous linear separator exists (the perceptron
    converges on separable data; the epoch cap is a safety net far beyond
    the mistake bound for the fixtures we feed it). y must be ±1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.zeros(x.shape[1])
    for _ in range(max_epochs):
        mistakes = 0
        for xi, yi in zip(x, y):
            if yi * (w @ xi) <= margin_required:
                w = w + yi * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False
