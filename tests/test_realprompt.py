"""Prompt templates, synonym selection, and zero-shot classifier construction."""

import logging
import tracemalloc

import numpy as np
import pytest

from conftest import make_embeddings, unit_rows
from tally.embeddings import BLOCK_ELEMENTS, EmbeddingMatrix, average_normalized
from tally.errors import InputError, MissingEmbeddingError
from tally.lexicon import SynonymSet
from tally.realprompt import (
    ClassifierWeights,
    PromptTemplateSet,
    build_prompts,
    build_zeroshot,
    chosen_synonym_report,
    classify_batch,
    most_frequent_synonym,
)


# -------------------------------------------------------------- templates


def test_template_placeholder_validation():
    PromptTemplateSet(["a photo of {}"])
    with pytest.raises(InputError, match="exactly one"):
        PromptTemplateSet(["no placeholder"])
    with pytest.raises(InputError, match="exactly one"):
        PromptTemplateSet(["{} and {}"])
    with pytest.raises(InputError, match="empty"):
        PromptTemplateSet([])


def test_builtin_templates():
    plain = PromptTemplateSet.builtin("plain")
    assert plain.templates == ["{}"]
    assert plain.source == "plain"
    assert PromptTemplateSet.builtin("photo_of").templates == ["a photo of {}"]
    with pytest.raises(InputError, match="unknown template set"):
        PromptTemplateSet.builtin("nope")


def test_templates_from_file(tmp_path):
    path = tmp_path / "templates.txt"
    path.write_text("a photo of {}\n\nan image of {}\n")
    ts = PromptTemplateSet.from_file(str(path))
    assert ts.templates == ["a photo of {}", "an image of {}"]
    assert ts.source == str(path)


def test_build_prompts_verbatim_substitution():
    ts = PromptTemplateSet(["a photo of {}", "{} in the wild"])
    assert build_prompts("cash machine", ts) == [
        "a photo of cash machine",
        "cash machine in the wild",
    ]


# ------------------------------------------------------ synonym selection


def test_most_frequent_synonym_switches_on_lopsided_counts():
    """A 10:1 margin for an alternative over the original name flips the choice."""
    synset = SynonymSet(0, ["cash machine", "atm"], ["original", "provider"])
    counts = {(0, "cash machine"): 40, (0, "atm"): 400}
    assert most_frequent_synonym(synset, counts) == ("atm", 400)


def test_most_frequent_synonym_tie_prefers_list_order():
    synset = SynonymSet(0, ["cash machine", "atm", "cashpoint"], ["original"] * 3)
    counts = {(0, "cash machine"): 5, (0, "atm"): 7, (0, "cashpoint"): 7}
    assert most_frequent_synonym(synset, counts) == ("atm", 7)


def test_most_frequent_synonym_all_zero_keeps_original(caplog):
    synset = SynonymSet(0, ["okapi", "forest giraffe"], ["original", "provider"])
    with caplog.at_level(logging.WARNING, logger="tally.realprompt"):
        chosen, count = most_frequent_synonym(synset, {})
    assert (chosen, count) == ("okapi", 0)
    assert any("zero" in r.message for r in caplog.records)


def test_most_frequent_synonym_ignores_other_concepts():
    synset = SynonymSet(0, ["tiger", "big cat"], ["original", "provider"])
    counts = {(0, "tiger"): 3, (1, "big cat"): 99, (0, "big cat"): 2}
    assert most_frequent_synonym(synset, counts) == ("tiger", 3)


def test_chosen_synonym_report_rows():
    sets = [
        SynonymSet(0, ["cash machine", "atm"], ["original", "provider"], "Cash Machine"),
        SynonymSet(1, ["tiger"], ["original"]),
    ]
    counts = {(0, "atm"): 10, (0, "cash machine"): 1, (1, "tiger"): 5}
    rows = chosen_synonym_report(sets, counts)
    assert rows == [(0, "Cash Machine", "atm", 10), (1, "tiger", "tiger", 5)]


# ---------------------------------------------------------------- weights


def test_weights_role_and_shape_validation():
    mat = unit_rows(2, 4, np.random.default_rng(0))
    with pytest.raises(InputError, match="role"):
        ClassifierWeights("W_magic", [0, 1], mat)
    with pytest.raises(InputError, match="shape"):
        ClassifierWeights("W", [0, 1, 2], mat)
    with pytest.raises(InputError, match="duplicate"):
        ClassifierWeights("W", [0, 0], mat)
    with pytest.raises(InputError, match="NaN"):
        ClassifierWeights("W", [0, 1], mat * np.array([[1.0], [np.nan]], dtype=np.float32))


def test_zeroshot_rows_must_be_unit_norm():
    mat = np.array([[3.0, 4.0], [0.0, 1.0]], dtype=np.float32)
    with pytest.raises(InputError, match="norm"):
        ClassifierWeights("W_zs", [0, 1], mat)
    ClassifierWeights("W", [0, 1], mat)  # trained weights are unconstrained


@pytest.mark.parametrize("excess", [5e-5, 2e-4])
def test_zeroshot_weights_check_rows_as_a_normalized_matrix_does(excess):
    """W_zs and a normalized EmbeddingMatrix accept and refuse the same rows,
    with the same message: one check, one tolerance."""
    rows = np.array([[1.0, 0.0], [0.0, 1.0 + excess]], dtype=np.float32)
    verdicts = []
    for build in (
        lambda: ClassifierWeights("W_zs", [0, 1], rows),
        lambda: EmbeddingMatrix(["0", "1"], rows, normalized=True),
    ):
        try:
            build()
            verdicts.append("accepted")
        except InputError as e:
            verdicts.append(str(e))
    assert verdicts[0] == verdicts[1]
    assert (verdicts[0] == "accepted") == (excess < 1e-4)


def test_weights_save_load_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    w = ClassifierWeights("W", [3, 1, 2], rng.standard_normal((3, 6)).astype(np.float32),
                          provenance={"note": "fixture"})
    path = tmp_path / "weights.bin"
    w.save(str(path))
    back = ClassifierWeights.load(str(path))
    assert back.role == "W"
    assert back.concept_ids == [3, 1, 2]
    assert back.matrix.tobytes() == w.matrix.tobytes()
    assert back.provenance == {"note": "fixture"}


def test_weights_load_rejects_tampered_sidecar(tmp_path):
    w = ClassifierWeights("W", [0, 1], unit_rows(2, 4, np.random.default_rng(0)))
    path = tmp_path / "weights.bin"
    w.save(str(path))
    sidecar = path.with_name("weights.bin.json")
    sidecar.write_text(sidecar.read_text().replace('"0"', '"9"').replace("[0,", "[9,")
                       .replace("0,\n", "9,\n"))
    with pytest.raises(InputError, match="disagree"):
        ClassifierWeights.load(str(path))


# ---------------------------------------------------------- build_zeroshot


def test_zeroshot_identity_templates_reduce_to_name_embeddings():
    """With the bare '{}' template, each classifier row equals the normalized
    name embedding itself."""
    names = ["tiger", "cat", "car"]
    emb = make_embeddings(names, dim=8, seed=1)
    w = build_zeroshot([(i, [n]) for i, n in enumerate(names)], emb)
    expected = emb.data.astype(np.float64)
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.max(np.abs(w.matrix.astype(np.float64) - expected)) <= 1e-6


def test_zeroshot_matches_manual_average():
    prompts = ["a photo of tiger", "tiger in the wild"]
    emb = EmbeddingMatrix(
        prompts, np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]], dtype=np.float32)
    )
    w = build_zeroshot([(0, prompts)], emb)
    expected = average_normalized(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float64)
    )
    assert np.allclose(w.matrix[0], expected, atol=1e-7)
    assert w.role == "W_zs"
    assert w.concept_ids == [0]


def test_zeroshot_missing_prompt_embedding():
    emb = make_embeddings(["known prompt"], dim=4)
    with pytest.raises(MissingEmbeddingError, match="unknown prompt"):
        build_zeroshot([(0, ["unknown prompt"])], emb)


def test_zeroshot_rejects_empty_prompt_list():
    with pytest.raises(InputError, match="no prompts"):
        build_zeroshot([(0, [])], make_embeddings(["x"]))


def test_zeroshot_rejects_zero_prompt_vector():
    emb = EmbeddingMatrix(["p"], np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(InputError, match="zero vector"):
        build_zeroshot([(0, ["p"])], emb)


# ---------------------------------------------------------------- classify


def test_classify_picks_highest_logit():
    w = ClassifierWeights(
        "W", [10, 20], np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    )
    assert list(classify_batch(w, np.array([[0.1, 0.9]], dtype=np.float32))) == [20]


def test_classify_exact_tie_takes_smallest_id():
    w = ClassifierWeights(
        "W", [20, 10], np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    )
    assert list(classify_batch(w, np.array([[1.0, 0.0]], dtype=np.float32))) == [10]


def test_classify_shape_check():
    w = ClassifierWeights("W", [0], np.ones((1, 3), dtype=np.float32))
    with pytest.raises(InputError, match="shape"):
        classify_batch(w, np.ones(3, dtype=np.float32))  # one query, not a batch


def test_classify_batch_matches_classify_on_scrambled_ids():
    """Each row's prediction follows the one-query rule: argmax of W · x,
    exact logit ties to the smallest concept_id."""

    def classify(weights, x):
        logits = weights.matrix @ x
        return min(cid for cid, v in zip(weights.concept_ids, logits) if v == logits.max())

    rng = np.random.default_rng(9)
    ids = [7, 2, 9, 4, 0]
    w = ClassifierWeights("W", ids, rng.standard_normal((5, 6)).astype(np.float32))
    queries = rng.standard_normal((64, 6)).astype(np.float32)
    # force some exact ties by duplicating a weight row
    w.matrix[3] = w.matrix[1]
    batch = classify_batch(w, queries)
    singles = [classify(w, q) for q in queries]
    assert list(batch) == singles
    for q, expected in zip(queries, singles):
        assert list(classify_batch(w, q[None, :])) == [expected]


def _integer_weights(ids, dim, rng, patterns=8):
    """Weights whose rows repeat a few small-integer patterns, so every query
    ties exactly between many concepts and no BLAS path can round a logit."""
    rows = rng.integers(-3, 4, size=(patterns, dim))[rng.integers(0, patterns, size=len(ids))]
    return ClassifierWeights("W", list(ids), rows.astype(np.float32))


def _one_shot(weights, queries):
    """The whole (n x concepts) logit matrix, argmax over ascending concept_id."""
    order = np.argsort(np.asarray(weights.concept_ids))
    logits = queries @ weights.matrix[order].T
    return np.asarray(weights.concept_ids)[order][np.argmax(logits, axis=1)]


CONCEPTS = 1000
STEP = BLOCK_ELEMENTS // CONCEPTS  # query rows per block


@pytest.mark.parametrize("n", [0, 1, STEP - 1, STEP, 2 * STEP, 3 * STEP + 5])
def test_classify_batch_blocks_match_one_shot_argmax(n):
    rng = np.random.default_rng(n)
    ids = rng.permutation(np.arange(5, 5 + 3 * CONCEPTS, 3)).tolist()  # scrambled, not 0..C-1
    w = _integer_weights(ids, 6, rng)
    queries = rng.integers(-3, 4, size=(n, 6)).astype(np.float32)
    got = classify_batch(w, queries)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == _one_shot(w, queries).tolist()


def test_classify_batch_ties_straddling_a_block_boundary():
    """Duplicate query rows on both sides of a block edge (and in the last,
    overlapping block) get the same prediction: the smallest tied concept_id."""
    rng = np.random.default_rng(3)
    ids = rng.permutation(CONCEPTS).tolist()
    w = _integer_weights(ids, 4, rng, patterns=3)
    n = 2 * STEP + 7
    queries = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
    for row in (STEP - 1, STEP, 2 * STEP - 1, 2 * STEP, n - 1):
        queries[row] = queries[0]
    got = classify_batch(w, queries)
    logits = w.matrix @ queries[0]
    tied = [cid for cid, v in zip(ids, logits) if v == logits.max()]
    assert len(tied) > 1
    assert {int(got[row]) for row in (0, STEP - 1, STEP, 2 * STEP - 1, 2 * STEP, n - 1)} == {min(tied)}
    assert got.tolist() == _one_shot(w, queries).tolist()


def test_classify_batch_never_holds_the_whole_logit_matrix():
    """20,000 queries x 1,000 concepts: the one-shot logits alone are 76 MB;
    scored in row blocks the call peaks near one block (about 1 MB)."""
    rng = np.random.default_rng(0)
    w = ClassifierWeights("W", list(range(CONCEPTS)), unit_rows(CONCEPTS, 64, rng))
    queries = unit_rows(20_000, 64, rng)
    tracemalloc.start()
    try:
        got = classify_batch(w, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"classify_batch peaked at {peak / 1e6:.1f} MB"
    assert got.tolist() == _one_shot(w, queries).tolist()


def test_classify_batch_shape_check():
    w = ClassifierWeights("W", [0], np.ones((1, 3), dtype=np.float32))
    with pytest.raises(InputError, match="shape"):
        classify_batch(w, np.ones((2, 4), dtype=np.float32))
