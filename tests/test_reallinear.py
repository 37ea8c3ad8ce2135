"""Balanced retrieval, the linear probe trainer, and the ensemble rule."""

import json
import math

import numpy as np
import pytest

from conftest import make_embeddings
from oracles import full_sort_retrieval, perceptron_separable
from tally.embeddings import EmbeddingMatrix, average_normalized
from tally.errors import DivergenceError, InputError, MissingEmbeddingError
from tally.lexicon import SynonymSet
from tally.matcher import MatchHit
from tally.realprompt import ClassifierWeights, classify_batch
from tally.reallinear import (
    RetrievalSet,
    TrainConfig,
    build_text_examples,
    concept_queries,
    ensemble,
    evaluate,
    retrieve_balanced,
    softmax_xent_loss_and_grad,
    train_crossmodal,
)


def unit(mat):
    mat = np.asarray(mat, dtype=np.float64)
    return (mat / np.linalg.norm(mat, axis=1, keepdims=True)).astype(np.float32)


# ---------------------------------------------------------------- queries


def test_concept_queries_average_synonyms():
    sets = [SynonymSet(0, ["tiger", "big cat"], ["original", "provider"])]
    emb = EmbeddingMatrix(
        ["tiger", "big cat"],
        np.array([[2.0, 0.0, 0.0], [0.0, 5.0, 0.0]], dtype=np.float32),
    )
    q = concept_queries(sets, emb)[0]
    expected = average_normalized(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float64)
    )
    assert np.allclose(q, expected, atol=1e-12)


def test_concept_queries_name_only_mode():
    sets = [SynonymSet(0, ["tiger", "big cat"], ["original", "provider"])]
    emb = EmbeddingMatrix(
        ["tiger", "big cat"],
        np.array([[0.0, 4.0, 0.0], [1.0, 1.0, 1.0]], dtype=np.float32),
    )
    q = concept_queries(sets, emb, use_synonyms=False)[0]
    assert np.allclose(q, [0.0, 1.0, 0.0], atol=1e-12)


def test_concept_queries_zero_vector():
    sets = [SynonymSet(0, ["tiger"], ["original"])]
    emb = EmbeddingMatrix(["tiger"], np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(InputError, match="zero"):
        concept_queries(sets, emb)


# -------------------------------------------------------------- retrieval


def random_retrieval_fixture(rng, n_captions, n_concepts, dim=6):
    keys = [str(i) for i in range(n_captions)]
    mat = rng.standard_normal((n_captions, dim)).astype(np.float32)
    captions = EmbeddingMatrix(keys, mat)
    hits = []
    for cid in range(n_concepts):
        for cap in rng.choice(n_captions, size=rng.integers(0, n_captions + 1), replace=False):
            hits.append(MatchHit(int(cap), cid, "syn"))
    queries = {
        cid: (lambda v: v / np.linalg.norm(v))(rng.standard_normal(dim)) for cid in range(n_concepts)
    }
    return hits, captions, queries


@pytest.mark.parametrize("k", [1, 3, 10, 100])
def test_retrieval_matches_full_sort_oracle(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(25):
        hits, captions, queries = random_retrieval_fixture(
            rng, n_captions=int(rng.integers(1, 40)), n_concepts=int(rng.integers(1, 5))
        )
        result = retrieve_balanced(hits, captions, queries, k=k)
        vectors = {int(key): row for key, row in zip(captions.keys, captions.data)}
        for cid, query in queries.items():
            candidates = sorted({h.caption_id for h in hits if h.concept_id == cid})
            expected = full_sort_retrieval(candidates, vectors, query, k)
            assert [cap for cap, _ in result.ranked[cid]] == [cap for cap, _ in expected]
            got_scores = [s for _, s in result.ranked[cid]]
            exp_scores = [s for _, s in expected]
            assert got_scores == pytest.approx(exp_scores, abs=1e-12)


def test_retrieval_ties_break_by_caption_id():
    mat = np.array([[1.0, 0.0]] * 4, dtype=np.float32)  # identical scores everywhere
    captions = EmbeddingMatrix(["5", "2", "9", "7"], mat)
    hits = [MatchHit(i, 0, "s") for i in (5, 2, 9, 7)]
    result = retrieve_balanced(hits, captions, {0: np.array([1.0, 0.0])}, k=3)
    assert [cap for cap, _ in result.ranked[0]] == [2, 5, 7]


def test_retrieval_shortfall_reported_not_raised():
    captions = make_embeddings(["0", "1", "2"], dim=4, seed=2)
    hits = [MatchHit(i, 0, "s") for i in range(3)]
    queries = {0: np.eye(4)[0], 1: np.eye(4)[1]}
    result = retrieve_balanced(hits, captions, queries, k=10)
    assert len(result.ranked[0]) == 3
    assert result.ranked[1] == []
    assert result.shortfall(10) == {0: 7, 1: 10}
    assert result.shortfall(3) == {1: 3}


def test_retrieval_restrict_to_relevant_pairs():
    captions = make_embeddings([str(i) for i in range(4)], dim=4, seed=3)
    hits = [MatchHit(i, 0, "s") for i in range(4)]
    keep = {(1, 0), (3, 0)}
    result = retrieve_balanced(hits, captions, {0: np.eye(4)[0]}, k=10, restrict_to=keep)
    assert {cap for cap, _ in result.ranked[0]} == {1, 3}


def test_retrieval_input_errors():
    captions = make_embeddings(["0"], dim=4)
    with pytest.raises(InputError, match="K"):
        retrieve_balanced([], captions, {0: np.eye(4)[0]}, k=0)
    zero = EmbeddingMatrix(["0"], np.zeros((1, 4), dtype=np.float32))
    with pytest.raises(InputError, match="caption 0"):
        retrieve_balanced([MatchHit(0, 0, "s")], zero, {0: np.eye(4)[0]}, k=1)
    with pytest.raises(MissingEmbeddingError, match="7"):
        retrieve_balanced([MatchHit(7, 0, "s")], captions, {0: np.eye(4)[0]}, k=1)


def test_retrieval_refuses_hits_for_concepts_without_a_query():
    """As freq and judge do, retrieval refuses a hit it cannot place, naming up to 5 ids."""
    captions = make_embeddings([str(i) for i in range(8)], dim=4, seed=4)
    hits = [MatchHit(0, 0, "s")] + [MatchHit(i, cid, "s") for i, cid in enumerate(range(9, 2, -1), 1)]
    with pytest.raises(InputError, match=r"without synonym sets: \[3, 4, 5, 6, 7\]"):
        retrieve_balanced(hits, captions, {0: np.eye(4)[0]}, k=1)


def test_retrieval_set_round_trip(tmp_path):
    rs = RetrievalSet({0: [(9, 0.5), (2, 0.25)], 1: []})
    path = tmp_path / "retrieval.jsonl"
    rs.to_jsonl(str(path))
    back = RetrievalSet.from_jsonl(str(path))
    assert back.ranked == {0: [(9, 0.5), (2, 0.25)]}  # empty concepts have no rows
    assert back.shortfall(3) == {0: 1}  # the file stores no K; the caller names it


def test_retrieval_set_validations(tmp_path):
    path = tmp_path / "retrieval.jsonl"
    path.write_text(
        '{"concept_id": 0, "caption_id": 1, "score": 0.5, "rank": 0}\n'
        '{"concept_id": 0, "caption_id": 2, "score": 0.4, "rank": 2}\n'
    )
    with pytest.raises(InputError, match="contiguous"):
        RetrievalSet.from_jsonl(str(path))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(InputError, match="empty"):
        RetrievalSet.from_jsonl(str(empty))


@pytest.mark.parametrize(
    "field, value", [("concept_id", "true"), ("caption_id", "2.5"), ("rank", "false")]
)
def test_retrieval_set_refuses_fields_that_are_not_integers(tmp_path, field, value):
    row = {"concept_id": 0, "caption_id": 1, "score": 0.5, "rank": 0}
    path = tmp_path / "retrieval.jsonl"
    path.write_text(json.dumps({**row, field: "?"}).replace('"?"', value) + "\n")
    with pytest.raises(InputError, match=f":1: bad retrieval record: {field} is {value}, not"):
        RetrievalSet.from_jsonl(str(path))


def test_retrieval_set_refuses_a_repeated_caption_for_a_concept(tmp_path):
    """Contiguous ranks do not catch one caption listed twice: it would be trained on twice."""
    path = tmp_path / "retrieval.jsonl"
    path.write_text(
        '{"concept_id": 0, "caption_id": 1, "score": 0.5, "rank": 0}\n'
        '{"concept_id": 1, "caption_id": 1, "score": 0.5, "rank": 0}\n'
        '{"concept_id": 0, "caption_id": 1, "score": 0.5, "rank": 1}\n'
    )
    with pytest.raises(InputError) as err:
        RetrievalSet.from_jsonl(str(path))
    assert str(err.value) == f"{path}:3: bad retrieval record: duplicate (concept_id, caption_id) (0, 1)"


@pytest.mark.parametrize("value", ['"0.5"', "true", "null"])
def test_retrieval_set_refuses_a_score_that_is_not_a_number(tmp_path, value):
    path = tmp_path / "retrieval.jsonl"
    path.write_text(f'{{"concept_id": 0, "caption_id": 1, "score": {value}, "rank": 0}}\n')
    with pytest.raises(InputError, match=f":1: bad retrieval record: score is {value}, not a number"):
        RetrievalSet.from_jsonl(str(path))
    path.write_text('{"concept_id": 0, "caption_id": 1, "score": 1, "rank": 0}\n')
    ((_, score),) = RetrievalSet.from_jsonl(str(path)).ranked[0]
    assert type(score) is float and score == 1.0


# ------------------------------------------------------------ loss + grad


def test_loss_hand_values():
    w = np.zeros((2, 2))
    x = np.array([[1.0, 0.0]])
    y = np.array([0])
    loss, _ = softmax_xent_loss_and_grad(w, x, y)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)
    w = np.eye(2)
    loss, _ = softmax_xent_loss_and_grad(w, x, y)
    assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)
    loss_wd, _ = softmax_xent_loss_and_grad(w, x, y, weight_decay=0.1)
    assert loss_wd == pytest.approx(loss + 0.5 * 0.1 * 2.0, abs=1e-15)


def finite_difference_grad(w, x, y, wd, eps=1e-5):
    g = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            lp, _ = softmax_xent_loss_and_grad(wp, x, y, wd)
            lm, _ = softmax_xent_loss_and_grad(wm, x, y, wd)
            g[i, j] = (lp - lm) / (2.0 * eps)
    return g


@pytest.mark.parametrize("wd", [0.0, 1e-2])
def test_gradient_matches_finite_differences(wd):
    rng = np.random.default_rng(17)
    for _ in range(3):
        c, d, n = 4, 5, 12
        w = rng.standard_normal((c, d))
        x = rng.standard_normal((n, d))
        y = rng.integers(0, c, size=n)
        _, analytic = softmax_xent_loss_and_grad(w, x, y, wd)
        numeric = finite_difference_grad(w, x, y, wd)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric)
        )
        assert rel < 1e-6


def test_step_leaves_its_arguments_unmodified():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((4, 5))
    x = rng.standard_normal((6, 5))
    y = rng.integers(0, 4, size=6)
    w0, x0, y0 = w.copy(), x.copy(), y.copy()
    softmax_xent_loss_and_grad(w, x, y, weight_decay=1e-2)
    assert w.tobytes() == w0.tobytes()
    assert x.tobytes() == x0.tobytes()
    assert y.tobytes() == y0.tobytes()


# ----------------------------------------------------------------- config


def test_train_config_defaults_and_validation():
    config = TrainConfig()
    assert (config.learning_rate, config.weight_decay) == (1e-4, 1e-2)
    assert (config.batch_size, config.epochs, config.mode) == (32, 10, "cross_modal")
    for bad in (
        dict(learning_rate=0.0),
        dict(weight_decay=-1.0),
        dict(batch_size=0),
        dict(epochs=-1),
        dict(mode="full_batch"),
    ):
        with pytest.raises(InputError):
            TrainConfig(**bad)


# --------------------------------------------------------------- training


def separable_fixture(n_per_class=150, seed=4):
    """2-d, 2-class points around orthogonal unit prototypes with the class
    clouds at least 0.7 apart along the prototype-difference direction."""
    rng = np.random.default_rng(seed)
    mu = np.array([[1.0, 0.0], [0.0, 1.0]])
    u = (mu[0] - mu[1]) / np.linalg.norm(mu[0] - mu[1])
    feats, labels = [], []
    for cls, sign in ((0, 1.0), (1, -1.0)):
        got = 0
        while got < n_per_class:
            p = mu[cls] + 0.15 * rng.standard_normal(2)
            if sign * (p @ u) >= 0.35:
                feats.append(p)
                labels.append(cls)
                got += 1
    return np.array(feats), np.array(labels, dtype=np.int64), mu, u


def text_side(mu, init):
    sets = [SynonymSet(0, ["c0"], ["original"]), SynonymSet(1, ["c1"], ["original"])]
    emb = EmbeddingMatrix(["c0", "c1"], mu.astype(np.float32), normalized=True)
    return build_text_examples(sets, emb, init)


def test_separable_problem_trains_to_high_accuracy():
    feats, labels, mu, u = separable_fixture()
    # exact pre-checks: the construction really is margin-0.5 separable
    margin = float((feats[labels == 0] @ u).min() - (feats[labels == 1] @ u).max())
    assert margin >= 0.5
    assert perceptron_separable(feats, np.where(labels == 0, 1.0, -1.0))
    init = ClassifierWeights("W_zs", [0, 1], unit(mu))
    text_feats, text_labels = text_side(mu, init)
    trained = train_crossmodal(feats, labels, text_feats, text_labels, TrainConfig(), init)
    preds = classify_batch(trained, feats.astype(np.float32))
    assert float(np.mean(preds == labels)) >= 0.99
    # the default-step run really descends on the pooled objective
    x_all = np.concatenate([feats, text_feats])
    y_all = np.concatenate([labels, text_labels])
    before, _ = softmax_xent_loss_and_grad(init.matrix, x_all, y_all, 1e-2)
    after, _ = softmax_xent_loss_and_grad(trained.matrix, x_all, y_all, 1e-2)
    assert after <= before + 1e-9


def test_training_learns_from_uninformative_init():
    """With a workable learning rate the probe recovers the classes from an
    all-zeros start, so the accuracy above is not an artifact of the init."""
    feats, labels, mu, _ = separable_fixture(seed=5)
    init = ClassifierWeights("W", [0, 1], np.zeros((2, 2), dtype=np.float32))
    config = TrainConfig(learning_rate=0.5, weight_decay=0.0)
    trained = train_crossmodal(feats, labels, None, None, _imageonly(config), init)
    preds = classify_batch(trained, feats.astype(np.float32))
    assert float(np.mean(preds == labels)) >= 0.99


def _imageonly(config):
    return TrainConfig(
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
        batch_size=config.batch_size,
        epochs=config.epochs,
        seed=config.seed,
        mode="image_only",
    )


def test_epochs_zero_returns_init_bit_exactly():
    rng = np.random.default_rng(6)
    init = ClassifierWeights("W", [0, 1, 2], rng.standard_normal((3, 4)).astype(np.float32))
    feats = rng.standard_normal((8, 4))
    labels = rng.integers(0, 3, size=8)
    config = TrainConfig(epochs=0, mode="image_only")
    out = train_crossmodal(feats, labels, None, None, config, init)
    assert out.matrix.tobytes() == init.matrix.tobytes()
    assert out.provenance["steps"] == 0


def test_identical_seed_identical_weights():
    feats, labels, mu, _ = separable_fixture(seed=7)
    init = ClassifierWeights("W_zs", [0, 1], unit(mu))
    text_feats, text_labels = text_side(mu, init)

    def run(seed):
        config = TrainConfig(learning_rate=0.05, seed=seed)
        return train_crossmodal(feats, labels, text_feats, text_labels, config, init)

    assert run(3).matrix.tobytes() == run(3).matrix.tobytes()
    assert run(3).matrix.tobytes() != run(4).matrix.tobytes()


def reference_grad(w, xb, yb, weight_decay):
    """The softmax cross-entropy gradient with out-of-place arithmetic: a new
    array for the logits' softmax, the mean and the weight decay term."""
    logits = xb @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(xb.shape[0]), yb] -= 1.0
    grad = (delta.T @ xb) / xb.shape[0]
    if weight_decay:
        grad = grad + weight_decay * w
    return grad


def reference_sgd(image_features, image_labels, text_features, text_labels, config, init):
    """The SGD loop with out-of-place arithmetic throughout."""
    x = np.asarray(image_features, dtype=np.float64)
    y = np.asarray(image_labels, dtype=np.int64)
    if config.mode == "cross_modal":
        x = np.concatenate([x, np.asarray(text_features, dtype=np.float64)], axis=0)
        y = np.concatenate([y, np.asarray(text_labels, dtype=np.int64)], axis=0)
    w = init.matrix.astype(np.float64)
    n = x.shape[0]
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    rng = np.random.Generator(np.random.Philox(config.seed))
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            batch = order[b * config.batch_size : (b + 1) * config.batch_size]
            grad = reference_grad(w, x[batch], y[batch], config.weight_decay)
            lr = config.learning_rate * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
            w -= lr * grad
            step += 1
    return w.astype(np.float32)


@pytest.mark.parametrize("mode", ["cross_modal", "image_only"])
@pytest.mark.parametrize("wd", [0.0, 1e-2])
def test_training_matches_out_of_place_reference_bit_for_bit(mode, wd):
    rng = np.random.default_rng(21)
    c, d, n_image = 5, 16, 43
    init = ClassifierWeights("W_zs", list(range(c)), unit(rng.standard_normal((c, d))))
    image_feats = rng.standard_normal((n_image, d)).astype(np.float32)
    image_labels = np.arange(n_image) % c
    text_feats = rng.standard_normal((2 * c, d))
    text_labels = np.arange(2 * c) % c
    # The float32 result hides last-bit float64 differences, so the step's
    # gradient is compared in float64 too, for a full batch of 7 and the
    # ragged last batch of 43 % 7 = 1 or 53 % 7 = 4 examples.
    w = init.matrix.astype(np.float64)
    for n in (7, 1, 4):
        xb, yb = rng.standard_normal((n, d)), rng.integers(0, c, size=n)
        _, grad = softmax_xent_loss_and_grad(w, xb, yb, weight_decay=wd)
        assert grad.tobytes() == reference_grad(w, xb, yb, wd).tobytes()
    config = TrainConfig(learning_rate=0.5, weight_decay=wd, batch_size=7, epochs=10,
                         seed=9, mode=mode)
    got = train_crossmodal(image_feats, image_labels, text_feats, text_labels, config, init)
    want = reference_sgd(image_feats, image_labels, text_feats, text_labels, config, init)
    assert got.matrix.tobytes() == want.tobytes()
    assert got.matrix.tobytes() != init.matrix.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_location():
    feats = np.array([[1.0, np.inf], [0.5, 0.5]])
    labels = np.array([0, 1])
    init = ClassifierWeights("W", [0, 1], np.ones((2, 2), dtype=np.float32))
    with pytest.raises(DivergenceError) as err:
        train_crossmodal(feats, labels, None, None, TrainConfig(mode="image_only"), init)
    assert err.value.step == 0
    assert err.value.epoch == 0


def test_train_input_errors():
    init = ClassifierWeights("W", [0, 1], np.ones((2, 3), dtype=np.float32))
    good_x = np.ones((2, 3))
    good_y = np.array([0, 1])
    with pytest.raises(InputError, match="text"):
        train_crossmodal(good_x, good_y, None, None, TrainConfig(), init)
    with pytest.raises(InputError, match="dim"):
        train_crossmodal(np.ones((2, 4)), good_y, None, None, TrainConfig(mode="image_only"), init)
    with pytest.raises(InputError, match="label"):
        train_crossmodal(
            np.ones((3, 3)), np.array([0, 1, 5]), None, None, TrainConfig(mode="image_only"), init
        )
    with pytest.raises(InputError, match="no examples for concepts"):
        train_crossmodal(good_x, np.array([0, 0]), None, None, TrainConfig(mode="image_only"), init)


# ----------------------------------------------------------- text examples


def test_build_text_examples_shapes_and_labels():
    sets = [
        SynonymSet(5, ["tiger", "big cat"], ["original", "provider"]),
        SynonymSet(9, ["car"], ["original"]),
    ]
    emb = EmbeddingMatrix(
        ["tiger", "big cat", "car"],
        np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]], dtype=np.float32),
    )
    zs = ClassifierWeights(
        "W_zs", [5, 9], unit(np.array([[1.0, 1.0], [1.0, -1.0]]))
    )
    feats, labels = build_text_examples(sets, emb, zs)
    assert feats.shape == (5, 2)  # 3 synonyms + 2 zero-shot rows
    assert list(labels) == [0, 0, 1, 0, 1]
    assert np.allclose(feats[0], [1.0, 0.0])  # normalized synonym embedding
    assert np.allclose(feats[3], zs.matrix[0], atol=1e-7)


def test_build_text_examples_unknown_concept():
    zs = ClassifierWeights("W_zs", [0], np.array([[1.0, 0.0]], dtype=np.float32))
    with pytest.raises(InputError, match="unknown concept 3"):
        build_text_examples([SynonymSet(3, ["x"], ["original"])], make_embeddings(["x"], dim=2), zs)


def test_build_text_examples_refuses_synonyms_of_another_dim():
    zs = ClassifierWeights("W_zs", [0], np.array([[1.0, 0.0]], dtype=np.float32))
    with pytest.raises(InputError, match="synonyms embedding dim 3 != weights dim 2"):
        build_text_examples([SynonymSet(0, ["x"], ["original"])], make_embeddings(["x"], dim=3), zs)


# ---------------------------------------------------------------- ensemble


def test_ensemble_is_plain_sum():
    rng = np.random.default_rng(8)
    zs = ClassifierWeights("W_zs", [0, 1], unit(rng.standard_normal((2, 4))))
    trained = ClassifierWeights("W", [0, 1], rng.standard_normal((2, 4)).astype(np.float32))
    combo = ensemble(trained, zs)
    assert combo.role == "W_ensemble"
    assert np.array_equal(combo.matrix, trained.matrix + zs.matrix)


def test_ensemble_zero_trained_preserves_zeroshot_decisions():
    rng = np.random.default_rng(9)
    zs = ClassifierWeights("W_zs", [0, 1, 2], unit(rng.standard_normal((3, 4))))
    zeros = ClassifierWeights("W", [0, 1, 2], np.zeros((3, 4), dtype=np.float32))
    combo = ensemble(zeros, zs)
    queries = rng.standard_normal((200, 4)).astype(np.float32)
    assert np.array_equal(classify_batch(combo, queries), classify_batch(zs, queries))


def test_ensemble_mismatch_errors():
    zs = ClassifierWeights("W_zs", [0, 1], unit(np.eye(2)))
    other_order = ClassifierWeights("W", [1, 0], np.eye(2, dtype=np.float32))
    with pytest.raises(InputError, match="concept orders"):
        ensemble(other_order, zs)
    wider = ClassifierWeights("W", [0, 1], np.ones((2, 3), dtype=np.float32))
    with pytest.raises(InputError, match="concept orders|shape"):
        ensemble(wider, zs)


# ---------------------------------------------------------------- evaluate


def test_evaluate_hand_fixture():
    w = ClassifierWeights("W", [10, 20], np.eye(2, dtype=np.float32))
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.1]], dtype=np.float32)
    gold = [10, 10, 20, 20]
    mpca, table = evaluate(w, feats, gold)
    assert mpca == pytest.approx(0.75)  # class 10: 2/2, class 20: 1/2
    assert table.accuracies == {10: 1.0, 20: 0.5}


def test_evaluate_length_mismatch():
    w = ClassifierWeights("W", [0], np.ones((1, 2), dtype=np.float32))
    with pytest.raises(InputError, match="length"):
        evaluate(w, np.ones((3, 2), dtype=np.float32), [0, 0])
