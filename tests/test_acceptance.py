"""Acceptance gate: ten checks, one per shipped guarantee.

Each check prints a single "[acceptance] <name>: PASS|FAIL" line to the
original stdout, bypassing pytest capture, so the gate outcome is always
visible in the test log.
"""

import csv
import json
import time
from contextlib import contextmanager

import numpy as np

import synthworld
from oracles import (
    brute_force_counts,
    brute_force_hits,
    brute_force_synonym_counts,
    full_sort_retrieval,
    pearson_textbook,
    perceptron_separable,
    spearman_textbook,
)
from tally import analytics, lexicon, matcher, reallinear, realprompt
from tally.analytics import AccuracyTable, FrequencyTable
from tally.cli import main as cli_main
from tally.corpus import CaptionRecord, open_corpus, shard_corpus
from tally.embeddings import EmbeddingMatrix, save_embeddings
from tally.judge import RuleStubJudge, ValidationSet, definition_precision, filtered_frequency, judge_hits
from tally.lexicon import Concept, ConceptSet, SynonymSet
from tally.realprompt import ClassifierWeights, classify_batch
from tally.reallinear import TrainConfig, ensemble, softmax_xent_loss_and_grad, train_crossmodal


def _announce(capsys, name: str, status: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {status}", flush=True)


@contextmanager
def criterion(capsys, name: str):
    try:
        yield
    except BaseException:
        _announce(capsys, name, "FAIL")
        raise
    _announce(capsys, name, "PASS")


def records_of(texts):
    return [CaptionRecord(i, t, 0) for i, t in enumerate(texts)]


def unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    return m.astype(np.float32)


def run_cli(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 0, f"`{' '.join(argv[:2])}` exited {code}: {captured.err}"
    return json.loads(captured.out.strip())


# ---------------------------------------------------------------- matcher


TOKENS = ["a", "b", "c", "ab", "ba", "aa", "bc", "abc", "cab", "ca"]


def _random_sets(rng, n_concepts, max_synonyms, max_tokens):
    sets = []
    for cid in range(n_concepts):
        want = int(rng.integers(1, max_synonyms + 1))
        synonyms = []
        while len(synonyms) < want:
            k = int(rng.integers(1, max_tokens + 1))
            phrase = " ".join(rng.choice(TOKENS, size=k))
            if phrase not in synonyms:
                synonyms.append(phrase)
        sets.append(SynonymSet(cid, synonyms, ["original"] + ["provider"] * (len(synonyms) - 1)))
    return sets


def _random_records(rng, n_records, max_tokens):
    texts = [
        " ".join(rng.choice(TOKENS, size=int(rng.integers(1, max_tokens + 1))))
        for _ in range(n_records)
    ]
    return records_of(texts)


def _check_against_brute_force(records, sets, mode):
    automaton = matcher.compile(sets, mode=mode)
    result = matcher.scan(records, automaton)
    got = {(h.caption_id, h.concept_id, h.synonym, h.span[0], h.span[1]) for h in result.hits}
    want = brute_force_hits(records, sets, mode)
    assert got == want
    want_counts = brute_force_counts(want, [s.concept_id for s in sets])
    assert result.table.counts == {cid: (n, n) for cid, n in want_counts.items()}
    want_syn = brute_force_synonym_counts(want)
    synonym_counts = matcher.count_captions(result.hits)[1]
    assert {k: v for k, v in synonym_counts.items() if v} == want_syn


def test_01_matcher_brute_force_equivalence(capsys):
    with criterion(capsys, "1. matcher equals brute force on 200 randomized corpora"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20260814)
        for trial in range(180):
            records = _random_records(rng, int(rng.integers(5, 200)), 8)
            sets = _random_sets(rng, int(rng.integers(1, 9)), 4, 3)
            _check_against_brute_force(records, sets, "whole_word" if trial % 2 else "partial")
        for trial in range(18):
            records = _random_records(rng, int(rng.integers(500, 2001)), 8)
            sets = _random_sets(rng, int(rng.integers(10, 41)), 5, 3)
            _check_against_brute_force(records, sets, "whole_word" if trial % 2 else "partial")
        # two trials at the size bounds: 10^4 records, 10^3 patterns
        for mode in ("whole_word", "partial"):
            records = _random_records(rng, 10_000, 6)
            sets = _random_sets(rng, 250, 4, 2)
            assert sum(len(s.synonyms) for s in sets) <= 1000
            _check_against_brute_force(records, sets, mode)
        assert time.monotonic() - t0 < 60.0


def test_02_shard_determinism(tmp_path, capsys):
    with criterion(capsys, "2. sharded parallel scans equal single-threaded scans"):
        rng = np.random.default_rng(2)
        sets = _random_sets(rng, 6, 4, 2)
        automaton = matcher.compile(sets)
        for trial in range(50):
            path = tmp_path / f"corpus_{trial}.jsonl"
            n = int(rng.integers(20, 401))
            with open(path, "w", encoding="utf-8") as f:
                for i in range(n):
                    if rng.random() < 0.1:
                        f.write("not json at all\n")
                    text = " ".join(rng.choice(TOKENS, size=int(rng.integers(1, 9))))
                    f.write(json.dumps({"id": i, "text": text}) + "\n")
            single = matcher.scan(open_corpus(str(path)), automaton)
            shards = shard_corpus(str(path), int(rng.integers(1, 9)))
            merged = matcher.scan_shards(shards, automaton, threads=int(rng.integers(1, 9)))
            assert merged.table.counts == single.table.counts
            assert merged.hits == single.hits
            assert (
                matcher.count_captions(merged.hits)[1] == matcher.count_captions(single.hits)[1]
            )
            assert (merged.n_records, merged.n_skipped) == (single.n_records, single.n_skipped)


# ------------------------------------------------------------------ judge


def test_03_judge_pipeline(tiger_corpus, tiger_concepts, tiger_sets, capsys):
    with criterion(capsys, "3. blocklist judging yields exact filtered counts and precision"):
        _, captions = tiger_corpus
        records = [CaptionRecord(i, t, 0) for i, t in captions.items()]
        result = matcher.scan(records, matcher.compile(tiger_sets))
        judge = RuleStubJudge({"tiger": ["tiger shark"]})
        outcome = judge_hits(result.hits, tiger_concepts, captions, judge)
        assert not outcome.undecided
        table, _ = filtered_frequency(result.hits, outcome.verdicts, tiger_concepts)

        tiger_captions = {h.caption_id for h in result.hits if h.concept_id == 0}
        blocklisted = sum(1 for cid in tiger_captions if "tiger shark" in captions[cid])
        assert blocklisted == 1
        assert table.counts[0] == (5, 5 - blocklisted)  # filtered = raw - blocklisted, exactly
        assert table.counts[1] == (1, 1)  # "cat" has no blocklist, untouched

        # precision loop: judge agrees with gold everywhere -> exactly 1.0
        agreeing = ValidationSet([(0, 0, True), (1, 0, False), (3, 0, True)])
        concept = tiger_concepts[0]
        p = definition_precision(concept, concept.definition, agreeing, judge, captions)
        assert p == 1.0

        # mixed fixture: judge accepts captions 0, 3, 6; gold marks 6 irrelevant
        mixed = ValidationSet([(0, 0, True), (1, 0, False), (3, 0, True), (6, 0, False)])
        p = definition_precision(concept, concept.definition, mixed, judge, captions)
        assert p == 2 / 3


# -------------------------------------------------------------- analytics


def test_04_longtail_analytics(capsys):
    with criterion(capsys, "4. long-tail analytics on a Zipf frequency table"):
        t0 = time.monotonic()
        rng = np.random.default_rng(4)
        n_concepts = 1000
        counts = np.maximum(
            1, np.round(2000.0 * np.arange(1, n_concepts + 1) ** -1.2)
        ).astype(int)
        a, b = 0.8, -3.5
        acc = 1.0 / (1.0 + np.exp(-(a * np.log1p(counts) + b)))
        acc = np.clip(acc + rng.normal(0.0, 0.02, n_concepts), 0.0, 1.0)

        freq = FrequencyTable({i: (int(counts[i]), int(counts[i])) for i in range(n_concepts)})
        table = AccuracyTable({i: float(acc[i]) for i in range(n_concepts)})

        head, tail = analytics.head_tail_split(freq, tail_fraction=0.2)
        assert (len(head), len(tail)) == (800, 200)

        bins = analytics.log_bins(freq, table, base=10.0)
        means = [bin_.mean_accuracy for bin_ in bins]
        assert all(hi >= lo for lo, hi in zip(means, means[1:]))  # non-decreasing

        r = analytics.correlate(freq, table, method="pearson")
        r_direct = pearson_textbook(np.log1p(counts), acc)
        assert abs(r - r_direct) <= 1e-12
        assert r > 0.9
        assert time.monotonic() - t0 < 5.0


# ----------------------------------------------------------- prompt choice


def test_05_prompt_reduction_and_switch(tmp_path, capsys):
    with criterion(capsys, "5. bare-prompt reduction identity and frequent-synonym switch"):
        rng = np.random.default_rng(5)
        names = ["ember fox", "delta owl", "cobalt crane"]
        emb = EmbeddingMatrix(names, unit_rows(rng, 3, 12), normalized=True)
        weights = realprompt.build_zeroshot([(i, [names[i]]) for i in range(3)], emb)
        assert float(np.max(np.abs(weights.matrix - emb.data))) <= 1e-6

        # a synonym outcounting the original name 10:1 flips the choice
        sets = [SynonymSet(0, ["cash machine", "atm"], ["original", "provider"])]
        synsets_path = str(tmp_path / "synsets.jsonl")
        lexicon.save_synonym_sets(sets, synsets_path)
        counts_path = tmp_path / "syncounts.csv"
        counts_path.write_text(
            "concept_id,synonym,raw,filtered,count_source\n"
            "0,cash machine,40,40,filtered\n"
            "0,atm,400,400,filtered\n"
        )
        prompt_emb_path = str(tmp_path / "prompts.bin")
        save_embeddings(
            EmbeddingMatrix(["cash machine", "atm"], unit_rows(rng, 2, 12), normalized=True),
            prompt_emb_path,
        )
        report_path = tmp_path / "chosen.csv"
        summary = run_cli(capsys, [
            "prompt", "--synonyms", synsets_path, "--syn-counts", str(counts_path),
            "--templates", "plain", "--embeddings", f"prompts={prompt_emb_path}",
            "--out", str(tmp_path / "wzs.bin"), "--report", str(report_path),
        ])
        assert summary["switched"] == 1
        assert "0,cash machine,atm,400" in report_path.read_text()


# --------------------------------------------------------------- filtering


def test_06_filtering_improves_zeroshot(capsys):
    with criterion(capsys, "6. confusable-synonym filtering improves zero-shot accuracy"):
        rng = np.random.default_rng(11)
        dim = 16
        protos, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
        protos = protos.T  # 3 orthonormal prototypes

        def near(c, sigma):
            v = protos[c] + sigma * rng.standard_normal(dim)
            return (v / np.linalg.norm(v)).astype(np.float32)

        names = ["aurora wolf", "basalt heron", "cinder mole"]
        concepts = ConceptSet([Concept(i, names[i], "") for i in range(3)])
        sets = [
            SynonymSet(0, ["aurora wolf", "marsh stalker"], ["original", "provider"]),
            SynonymSet(1, ["basalt heron", "reed wader"], ["original", "provider"]),
            SynonymSet(2, ["cinder mole"], ["original"]),
        ]
        name_emb = EmbeddingMatrix(names, np.stack([near(i, 0.05) for i in range(3)]),
                                   normalized=True)
        # "marsh stalker" is planted next to the *basalt heron* prototype
        syn_emb = EmbeddingMatrix(
            ["aurora wolf", "marsh stalker", "basalt heron", "reed wader", "cinder mole"],
            np.stack([near(0, 0.1), near(1, 0.05), near(1, 0.1), near(1, 0.1), near(2, 0.1)]),
            normalized=True,
        )

        filtered = lexicon.filter_synonyms(sets, concepts, name_emb, syn_emb)
        assert [s.synonyms for s in filtered] == [
            ["aurora wolf"],  # exactly the confusable synonym was dropped
            ["basalt heron", "reed wader"],
            ["cinder mole"],
        ]

        def zeroshot_of(synonym_sets):
            return realprompt.build_zeroshot(
                [(s.concept_id, list(s.synonyms)) for s in synonym_sets], syn_emb
            )

        test_x = np.stack([near(c, 0.45) for c in range(3) for _ in range(120)])
        test_y = np.repeat(np.arange(3), 120)
        acc_unfiltered = float(np.mean(classify_batch(zeroshot_of(sets), test_x) == test_y))
        acc_filtered = float(np.mean(classify_batch(zeroshot_of(filtered), test_x) == test_y))
        assert acc_filtered > acc_unfiltered


# --------------------------------------------------------------- retrieval


def test_07_retrieval_oracle(capsys):
    with criterion(capsys, "7. balanced retrieval equals full-sort brute force"):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(5, 61))
            dim = int(rng.choice([4, 8, 16]))
            k = int(rng.choice([1, 3, 10, 100]))
            ids = sorted(rng.choice(2000, size=n, replace=False).tolist())
            vectors = unit_rows(rng, n, dim)
            emb = EmbeddingMatrix([str(i) for i in ids], vectors, normalized=True)
            by_id = {cid: vectors[j] for j, cid in enumerate(ids)}

            n_concepts = int(rng.integers(1, 5))
            hits, queries, pools = [], {}, {}
            for concept in range(n_concepts):
                take = int(rng.integers(1, n + 1))
                pool = sorted(rng.choice(ids, size=take, replace=False).tolist())
                pools[concept] = pool
                hits += [matcher.MatchHit(c, concept, "s", (0, 1)) for c in pool]
                q = rng.standard_normal(dim)
                queries[concept] = (q / np.linalg.norm(q)).astype(np.float32)

            result = reallinear.retrieve_balanced(hits, emb, queries, k=k)
            for concept in range(n_concepts):
                want = full_sort_retrieval(pools[concept], by_id, queries[concept], k)
                assert [c for c, _ in result.ranked[concept]] == [c for c, _ in want]

        # K beyond the pool: everything is retrieved, shortfall = K - pool size
        k = 100
        result = reallinear.retrieve_balanced(hits, emb, queries, k=k)
        for concept, pool in pools.items():
            assert len(result.ranked[concept]) == len(pool)
        assert result.shortfall(k) == {
            concept: k - len(pool) for concept, pool in pools.items() if len(pool) < k
        }


# ----------------------------------------------------------------- trainer


def separable_fixture(n_per_class=150, seed=4):
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


def test_08_trainer_correctness(capsys):
    with criterion(capsys, "8. probe trainer: gradients, no-op epochs, convergence, determinism"):
        # (a) analytic gradients vs central finite differences, 5 random points
        rng = np.random.default_rng(8)
        eps = 1e-5
        for _ in range(5):
            w = rng.standard_normal((3, 4))
            x = rng.standard_normal((6, 4))
            y = rng.integers(0, 3, size=6)
            wd = float(rng.choice([0.0, 1e-2]))
            _, grad = softmax_xent_loss_and_grad(w, x, y, wd)
            fd = np.zeros_like(w)
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    for sign in (1.0, -1.0):
                        w2 = w.copy()
                        w2[i, j] += sign * eps
                        loss2, _ = softmax_xent_loss_and_grad(w2, x, y, wd)
                        fd[i, j] += sign * loss2
            fd /= 2 * eps
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

        feats, labels, mu, u = separable_fixture()
        margin = float((feats[labels == 0] @ u).min() - (feats[labels == 1] @ u).max())
        assert margin >= 0.5  # the construction really is margin-0.5 separable
        assert perceptron_separable(feats, np.where(labels == 0, 1.0, -1.0))

        mu_unit = (mu / np.linalg.norm(mu, axis=1, keepdims=True)).astype(np.float32)
        init = ClassifierWeights("W_zs", [0, 1], mu_unit)
        text_sets = [SynonymSet(0, ["c0"], ["original"]), SynonymSet(1, ["c1"], ["original"])]
        text_emb = EmbeddingMatrix(["c0", "c1"], mu_unit, normalized=True)
        text_feats, text_labels = reallinear.build_text_examples(text_sets, text_emb, init)

        # (b) epochs=0 returns the initialization bit-exactly
        frozen = train_crossmodal(feats, labels, text_feats, text_labels,
                                  TrainConfig(epochs=0), init)
        assert frozen.matrix.dtype == np.float32
        assert np.array_equal(frozen.matrix, init.matrix)

        # (c) default config reaches >= 99% train accuracy within 10 epochs
        trained = train_crossmodal(feats, labels, text_feats, text_labels, TrainConfig(), init)
        preds = classify_batch(trained, feats.astype(np.float32))
        assert float(np.mean(preds == labels)) >= 0.99

        # (d) identical seed -> bit-identical weights (on a run that moves them)
        cfg = TrainConfig(learning_rate=0.05, seed=3)
        run1 = train_crossmodal(feats, labels, text_feats, text_labels, cfg, init)
        run2 = train_crossmodal(feats, labels, text_feats, text_labels, cfg, init)
        assert not np.array_equal(run1.matrix, init.matrix)
        assert run1.matrix.tobytes() == run2.matrix.tobytes()


# ---------------------------------------------------------------- ensemble


def test_09_ensemble_identities(capsys):
    with criterion(capsys, "9. weight-sum ensembling preserves argmax identities"):
        rng = np.random.default_rng(9)
        n_classes, dim = 20, 32
        ids = list(range(n_classes))
        zeroshot = ClassifierWeights("W_zs", ids, unit_rows(rng, n_classes, dim))
        queries = rng.standard_normal((10_000, dim)).astype(np.float32)
        base_preds = classify_batch(zeroshot, queries)

        zeros = ClassifierWeights("W", ids, np.zeros((n_classes, dim), dtype=np.float32))
        combo = ensemble(zeros, zeroshot)
        assert np.array_equal(combo.matrix, zeroshot.matrix)
        assert np.array_equal(classify_batch(combo, queries), base_preds)

        doubled = ensemble(ClassifierWeights("W", ids, zeroshot.matrix.copy()), zeroshot)
        assert np.array_equal(classify_batch(doubled, queries), base_preds)


# ------------------------------------------------------------- end to end


REHEARSAL_LR = "0.3"


def test_10_end_to_end_rehearsal(tmp_path, capsys):
    with criterion(capsys, "10. end-to-end synthetic pipeline rehearsal"):
        t0 = time.monotonic()
        world = synthworld.make_world(tmp_path)

        def art(name):
            return str(tmp_path / name)

        run_cli(capsys, [
            "synonyms", "--concepts", world.paths["concepts"], "--fixture", world.paths["fixture"],
            "--cache-dir", art("cache"), "--out", art("synsets.jsonl"),
        ])
        scan_summary = run_cli(capsys, [
            "scan", "--corpus", world.paths["corpus"], "--synonyms", art("synsets.jsonl"),
            "--threads", "4", "--concepts", world.paths["concepts"], "--out", art("hits.jsonl"),
        ])
        assert scan_summary["records"] == synthworld.CAPTION_TOTAL
        run_cli(capsys, [
            "judge", "--concepts", world.paths["concepts"], "--corpus", world.paths["corpus"],
            "--hits", art("hits.jsonl"), "--blocklist", world.paths["blocklist"],
            "--cache-dir", art("cache"), "--out", art("verdicts.jsonl"),
        ])
        run_cli(capsys, [
            "freq", "--hits", art("hits.jsonl"), "--verdicts", art("verdicts.jsonl"),
            "--concepts", world.paths["concepts"], "--out", art("freq.csv"),
            "--syn-out", art("syncounts.csv"),
        ])

        freq = FrequencyTable.from_csv(art("freq.csv"))
        n = synthworld.N_CONCEPTS
        assert freq.counts == {
            i: (world.raw_expected[i], world.planted[i]) for i in range(n)
        }  # the matcher + judge recover the planted counts exactly
        rho = spearman_textbook(
            [world.planted[i] for i in range(n)],
            [freq.counts[i][1] for i in range(n)],
        )
        assert rho >= 0.95

        prompt_summary = run_cli(capsys, [
            "prompt", "--synonyms", art("synsets.jsonl"), "--syn-counts", art("syncounts.csv"),
            "--templates", "photo_of", "--embeddings", f"prompts={world.paths['prompts']}",
            "--out", art("wzs.bin"), "--report", art("chosen.csv"),
        ])
        assert prompt_summary["switched"] == len(synthworld.ALT_DOMINANT)

        retrieve_summary = run_cli(capsys, [
            "retrieve", "--hits", art("hits.jsonl"), "--verdicts", art("verdicts.jsonl"),
            "--synonyms", art("synsets.jsonl"),
            "--embeddings", f"captions={world.paths['captions']}",
            "--embeddings", f"synonyms={world.paths['synonyms']}",
            "--k", "100", "--out", art("retrieval.jsonl"),
        ])
        assert retrieve_summary["shortfall_concepts"] == 0
        assert retrieve_summary["rows"] == 100 * n

        run_cli(capsys, [
            "train", "--retrieval", art("retrieval.jsonl"), "--init", art("wzs.bin"),
            "--synonyms", art("synsets.jsonl"),
            "--embeddings", f"images={world.paths['images']}",
            "--embeddings", f"synonyms={world.paths['synonyms']}",
            "--lr", REHEARSAL_LR, "--seed", "0",
            "--out", art("w.bin"), "--ensemble-out", art("wbar.bin"),
        ])

        evals = {}
        for role, weights, out in (
            ("zeroshot", art("wzs.bin"), art("acc_zeroshot.csv")),
            ("ensemble", art("wbar.bin"), art("acc_ensemble.csv")),
        ):
            evals[role] = run_cli(capsys, [
                "eval", "--weights", weights, "--embeddings", f"images={world.paths['images']}",
                "--labels", world.paths["labels"], "--model-id", role, "--out", out,
            ])
            assert evals[role]["examples"] == len(world.test_ids)

        run_cli(capsys, [
            "analyze", "--freq", art("freq.csv"), "--acc", art("acc_zeroshot.csv"),
            "--out-dir", art("run"),
        ])
        with open(art("run") + "/split.csv", newline="", encoding="utf-8") as f:
            split = {int(r["concept_id"]): r["split"] for r in csv.DictReader(f)}

        zs = AccuracyTable.from_csv(art("acc_zeroshot.csv")).accuracies
        ens = AccuracyTable.from_csv(art("acc_ensemble.csv")).accuracies
        deltas = {i: ens[i] - zs[i] for i in range(n)}
        head_delta = float(np.mean([deltas[i] for i in range(n) if split[i] == "head"]))
        tail_delta = float(np.mean([deltas[i] for i in range(n) if split[i] == "tail"]))

        mpca_zs = evals["zeroshot"]["mean_per_class_accuracy"]
        mpca_ens = evals["ensemble"]["mean_per_class_accuracy"]
        assert mpca_ens > mpca_zs  # retrieval-trained ensemble beats zero-shot
        assert head_delta >= 0.0 and tail_delta >= 0.0
        assert tail_delta >= head_delta  # the tail gains at least as much

        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        with capsys.disabled():
            print(
                f"[acceptance]    rehearsal detail: mpca {mpca_zs:.4f} -> {mpca_ens:.4f}, "
                f"head +{head_delta:.4f}, tail +{tail_delta:.4f}, "
                f"spearman {rho:.3f}, {elapsed:.1f}s",
                flush=True,
            )
