"""Seeded long-tail worlds for the tally benchmark.

A world is everything the `tally` pipeline reads: a caption corpus, concept
metadata, a synonym fixture, a judge blocklist, four embedding files and
test labels, plus `truth.json` with the planted (raw, filtered) caption
count of every concept.

The shape follows the test suite's synthetic world (`zorp<i>` / `glim<i>`
names, "<name> shark" traps the judge must reject, embedding noise that
grows as a concept gets rarer) but is written independently of it, so the
benchmark's inputs only change when this file does. Embedding files are
written in the CEMB v1 layout directly, for the same reason.

Captions are 5-15 tokens drawn from a Zipf vocabulary of consonant-vowel
pseudo-words, which can never collide with a synonym. Concepts are picked
with Zipf frequencies, so concept 0 is the head and the last concept the
tail. Near-miss tokens (`zorp12s`, `glim7ish`, `kel3x`, `kel4 moths`) are
planted in plain captions; whole-word matching must reject all of them.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVAL_SEED = 20240123
VOCAB = 4000  # pseudo-words in the caption vocabulary
# Only the most frequent concepts (this share of them) have traps, as common
# names collide most; the tail's order by filtered count then never depends
# on them.
TRAP_CONCEPTS = 0.3
TRAP_SHARE = 0.1  # a trap concept's "<name> shark" traps per relevant mention
NEAR_MISS_SHARE = 0.03  # share of plain captions carrying a near-miss token


@dataclass(frozen=True)
class Shape:
    """Size and character of one workload's world."""

    captions: int
    concepts: int
    head: int  # concept i gets head * (i+1)^-zipf mentions, plus a floor
    floor: int  # that falls linearly from 2*floor (concept 0) to floor (last)
    dim: int
    tests_per_class: int
    # embedding noise (norm of the noise vector) from head to tail
    caption_sigma: tuple[float, float]
    prompt_sigma: tuple[float, float]
    concept_zipf: float = 1.1


def primary_name(i: int) -> str:
    return f"zorp{i}"


def alt_name(i: int) -> str:
    return f"glim{i}"


def third_name(i: int) -> str:
    """Every fourth concept gets a two-word synonym."""
    return f"kel{i} moth" if i % 4 == 0 else f"kel{i}"


def near_misses(i: int) -> list[str]:
    third = f"kel{i} moths" if i % 4 == 0 else f"kel{i}x"
    return [f"zorp{i}s", f"glim{i}ish", third]


def synonyms_of(i: int) -> list[str]:
    return [primary_name(i), alt_name(i), third_name(i)]


def _vocabulary(n: int) -> list[str]:
    """n distinct consonant-vowel pseudo-words, two or three syllables."""
    consonants = "bdfgklmnprstvz"
    vowels = "aeiou"
    syllables = [c + v for c in consonants for v in vowels]
    words = [a + b for a in syllables for b in syllables]
    words += [a + b + c for a in syllables[:20] for b in syllables for c in syllables[:20]]
    if n > len(words):
        raise ValueError(f"vocabulary of {n} words is larger than {len(words)}")
    return words[:n]


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def write_cemb(path: Path, keys: list[str], data: np.ndarray) -> None:
    """CEMB v1: magic, <IIQI header (version, dim, rows, flags), then per
    row a <I key length, the utf-8 key and dim little-endian float32s."""
    data = np.ascontiguousarray(data, dtype="<f4")
    parts = [b"CEMB", struct.pack("<IIQI", 1, data.shape[1], len(keys), 1)]
    for key, row in zip(keys, data):
        kb = key.encode("utf-8")
        parts += [struct.pack("<I", len(kb)), kb, row.tobytes()]
    path.write_bytes(b"".join(parts))


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_world(root: Path, shape: Shape, seed: int) -> dict:
    """Write one world under `root` and return its ground truth."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    n_c = shape.concepts
    vocab = _vocabulary(VOCAB)
    word_p = _zipf(len(vocab), 1.0)
    concept_p = _zipf(n_c, shape.concept_zipf)

    # ---- which captions mention which concepts --------------------------
    # Each concept gets a planted number of relevant mentions, and each trap
    # concept a planted number of "<name> shark" traps on top. Each mention
    # goes into a caption of its own, so the counts are exact.
    n = shape.captions
    # The floor keeps counts falling strictly with the concept id, so the
    # rarest ids, whose embeddings are noisiest, are the tail.
    planted = [round(shape.head * (i + 1) ** -shape.concept_zipf
                     + shape.floor * (2 - i / max(1, n_c - 1)))
               for i in range(n_c)]
    n_traps = round(TRAP_CONCEPTS * n_c)
    traps = [round(TRAP_SHARE * planted[i]) if i < n_traps else 0 for i in range(n_c)]
    pool = [(c, False) for c in range(n_c) for _ in range(planted[c])]
    pool += [(c, True) for c in range(n_c) for _ in range(traps[c])]
    if len(pool) > n:
        raise ValueError(f"{len(pool)} mentioning captions do not fit in {n} captions")
    mention_at = dict(zip(rng.choice(n, size=len(pool), replace=False).tolist(), pool))

    lengths = rng.integers(5, 16, size=n)
    # caption ids whose text mentions each concept relevantly / as a trap
    relevant_of: list[list[int]] = [[] for _ in range(n_c)]
    trap_ids: list[int] = []
    lines = []
    n_near_miss = 0
    tokens = rng.choice(len(vocab), size=int(lengths.sum()), p=word_p)
    ends = np.cumsum(lengths)
    for cid in range(n):
        words = [vocab[w] for w in tokens[ends[cid] - lengths[cid] : ends[cid]]]
        mention = mention_at.get(cid)
        if mention:
            c, is_trap = mention
            if is_trap:
                phrase = f"{primary_name(c)} shark"
                trap_ids.append(cid)
            else:
                relevant_of[c].append(cid)
                # alternative names dominate for every fifth concept
                alt_first = c % 5 == 2
                u = rng.random()
                if u < 0.9:
                    phrase = alt_name(c) if alt_first else primary_name(c)
                elif u < 0.97:
                    phrase = primary_name(c) if alt_first else alt_name(c)
                else:
                    phrase = third_name(c)
            words.insert(int(rng.integers(0, len(words) + 1)), phrase)
        elif rng.random() < NEAR_MISS_SHARE:
            c = int(rng.choice(n_c, p=concept_p))
            miss = near_misses(c)[int(rng.integers(3))]
            words.insert(int(rng.integers(0, len(words) + 1)), miss)
            n_near_miss += 1
        lines.append(json.dumps({"id": cid, "text": " ".join(words)}) + "\n")
    (root / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")

    _write_jsonl(root / "concepts.jsonl", (
        {"concept_id": i, "name": primary_name(i), "definition": f"the {primary_name(i)} creature"}
        for i in range(n_c)
    ))
    _write_jsonl(root / "fixture.jsonl", (
        {"name": primary_name(i), "synonyms": synonyms_of(i)[1:]} for i in range(n_c)
    ))
    _write_jsonl(root / "blocklist.jsonl", (
        {"name": primary_name(i), "reject_phrases": [f"{primary_name(i)} shark"]}
        for i in range(n_c)
    ))

    # ---- embeddings --------------------------------------------------------
    # Prototypes, synonym and prompt embeddings and the labelled test images
    # are the same for every seed: they play the part of a fixed model and
    # evaluation set, so accuracy moves only with what the pipeline does.
    # Only the vectors of the seeded corpus's hit captions follow the seed.
    dim = shape.dim
    fixed = np.random.default_rng(EVAL_SEED)
    protos = _unit_rows(fixed.standard_normal((n_c, dim)))
    rarity = np.arange(n_c) / max(1, n_c - 1)

    def sigma(bounds: tuple[float, float], concept_ids: np.ndarray) -> np.ndarray:
        lo, hi = bounds
        return lo + (hi - lo) * rarity[concept_ids] ** 2

    def noisy(base: np.ndarray, sig: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Unit vectors whose noise has norm exactly `sig`, so the cosine to
        the unit `base` row is about 1/sqrt(1 + sig^2) in any dimension."""
        g = _unit_rows(gen.standard_normal((len(base), dim)))
        return _unit_rows(base + sig[:, None] * g)

    syn_keys = [s for i in range(n_c) for s in synonyms_of(i)]
    syn_owner = np.repeat(np.arange(n_c), 3)
    write_cemb(root / "synonyms.bin", syn_keys,
               noisy(protos[syn_owner], np.full(len(syn_keys), 0.08), fixed))
    write_cemb(
        root / "prompts.bin",
        [f"a photo of {s}" for s in syn_keys],
        noisy(protos[syn_owner], sigma(shape.prompt_sigma, syn_owner), fixed),
    )
    test_owner = np.repeat(np.arange(n_c), shape.tests_per_class)
    test_keys = [f"test{t}" for t in range(len(test_owner))]
    test_vecs = noisy(protos[test_owner], sigma(shape.caption_sigma, test_owner), fixed)

    # Hit captions get a ranking vector (captions.bin) and an independent
    # training vector (images.bin) near its concept's prototype; traps get
    # junk so a filtering bug hurts.
    owner = {cid: c for c, ids in enumerate(relevant_of) for cid in ids}
    rel_ids = sorted(owner)
    junk_ids = sorted(trap_ids)
    keys = [str(cid) for cid in rel_ids + junk_ids]
    rel_owner = np.array([owner[cid] for cid in rel_ids])
    base, rel_sigma = protos[rel_owner], sigma(shape.caption_sigma, rel_owner)

    def hit_vectors() -> np.ndarray:
        return np.concatenate([
            noisy(base, rel_sigma, rng), _unit_rows(rng.standard_normal((len(junk_ids), dim))),
        ])

    write_cemb(root / "captions.bin", keys, hit_vectors())
    write_cemb(root / "images.bin", keys + test_keys, np.concatenate([hit_vectors(), test_vecs]))
    with open(root / "labels.csv", "w", encoding="utf-8") as f:
        f.write("id,concept_id\n")
        f.writelines(f"{k},{c}\n" for k, c in zip(test_keys, test_owner))

    # a caption mentions one concept, so pairs = mentions
    truth = {
        "records": n,
        "concepts": n_c,
        "freq": [[planted[i] + traps[i], planted[i]] for i in range(n_c)],
        "hit_captions": len(keys),
        "pairs": sum(planted) + sum(traps),
        "traps": len(trap_ids),
        "near_miss_captions": n_near_miss,
    }
    (root / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    # Flush the world now, so its write-back does not overlap the timed stages.
    for path in root.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return truth
