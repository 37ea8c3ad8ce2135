"""End-to-end CLI pipeline, exit codes, and byte-stable outputs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_jsonl
from tally.analytics import FrequencyTable
from tally.cli import UsageError, _parse_embeddings, main
from tally.embeddings import EmbeddingMatrix, save_embeddings
from tally.errors import DivergenceError
from tally.realprompt import ClassifierWeights
from tally.reallinear import RetrievalSet


def run_ok(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, f"exit {code}: {captured.err}"
    line = captured.out.strip()
    assert "\n" not in line  # single-line JSON summary
    return json.loads(line)


def run_fail(capsys, argv, expect_code):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expect_code, f"exit {code}, expected {expect_code}: {captured.err}"
    err = json.loads(captured.err.strip())
    assert err["exit_code"] == expect_code
    return err


CORPUS_ROWS = [
    (0, "a tiger walking in the grass", 0),
    (1, "tiger shark swimming in water", 0),
    (2, "portrait of panthera tigris", 0),
    (3, "big cat resting on a rock", 1),
    (4, "a small cat on the sofa", 1),
    (5, "cat chasing a toy", 1),
    (6, "withdrawing cash from the atm", 2),
    (7, "atm outside the bank", 2),
    (8, "broken atm machine", 2),
    (9, "an old cash machine in the wall", 2),
    (10, "a sunny beach with palm trees", None),
    (11, "mountain lake at dawn", None),
]

ALL_SYNONYMS = ["tiger", "panthera tigris", "big cat", "cat", "cash machine", "atm"]
SYNONYM_CONCEPT = {"tiger": 0, "panthera tigris": 0, "big cat": 0, "cat": 1,
                   "cash machine": 2, "atm": 2}


@pytest.fixture
def world(tmp_path):
    """Static inputs for a 3-concept pipeline: corpus, concept metadata,
    provider fixtures, and embedding files around 3 class prototypes."""
    paths = {"dir": tmp_path}
    rng = np.random.default_rng(42)
    dim = 8
    protos = rng.standard_normal((3, dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    def noisy(concept_id, sigma):
        if concept_id is None:
            v = rng.standard_normal(dim)
        else:
            v = protos[concept_id] + sigma * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    def emb_file(name, keys, vectors):
        mat = EmbeddingMatrix(keys, np.stack(vectors).astype(np.float32), normalized=True)
        paths[name] = str(tmp_path / f"{name}.bin")
        save_embeddings(mat, paths[name])

    paths["concepts"] = str(tmp_path / "concepts.jsonl")
    write_jsonl(
        tmp_path / "concepts.jsonl",
        [
            {"concept_id": 0, "name": "tiger", "definition": "a large striped cat"},
            {"concept_id": 1, "name": "cat", "definition": "a small domestic feline"},
            {"concept_id": 2, "name": "cash machine", "definition": "a bank teller machine"},
        ],
    )
    paths["corpus"] = str(tmp_path / "corpus.jsonl")
    write_jsonl(
        tmp_path / "corpus.jsonl", [{"id": i, "text": t} for i, t, _ in CORPUS_ROWS]
    )
    paths["fixture"] = str(tmp_path / "provider_fixture.jsonl")
    write_jsonl(
        tmp_path / "provider_fixture.jsonl",
        [
            {"name": "tiger", "synonyms": ["panthera tigris", "big cat"]},
            {"name": "cat", "synonyms": ["big cat"]},
            {"name": "cash machine", "synonyms": ["atm"]},
        ],
    )
    paths["blocklist"] = str(tmp_path / "blocklist.jsonl")
    write_jsonl(
        tmp_path / "blocklist.jsonl", [{"name": "tiger", "reject_phrases": ["tiger shark"]}]
    )
    paths["acc"] = str(tmp_path / "acc.csv")
    (tmp_path / "acc.csv").write_text(
        "concept_id,accuracy\n0,0.5\n1,0.7\n2,0.9\n"
    )
    paths["labels"] = str(tmp_path / "labels.csv")
    (tmp_path / "labels.csv").write_text(
        "id,concept_id\n" + "".join(f"t{i},{i // 3}\n" for i in range(9))
    )
    paths["validation"] = str(tmp_path / "validation.jsonl")
    write_jsonl(
        tmp_path / "validation.jsonl",
        [
            {"caption_id": 0, "concept_id": 0, "gold_relevant": True},
            {"caption_id": 1, "concept_id": 0, "gold_relevant": False},
            {"caption_id": 2, "concept_id": 0, "gold_relevant": True},
        ],
    )
    paths["definitions"] = str(tmp_path / "definitions.jsonl")
    write_jsonl(
        tmp_path / "definitions.jsonl",
        [{"concept_id": 0, "definitions": ["a large striped cat", "panthera tigris, the animal"]}],
    )

    emb_file("synonyms_emb", ALL_SYNONYMS, [noisy(SYNONYM_CONCEPT[s], 0.1) for s in ALL_SYNONYMS])
    emb_file("names_emb", ["tiger", "cat", "cash machine"], [noisy(c, 0.1) for c in range(3)])
    emb_file(
        "prompts_emb",
        [f"a photo of {s}" for s in ALL_SYNONYMS],
        [noisy(SYNONYM_CONCEPT[s], 0.1) for s in ALL_SYNONYMS],
    )
    emb_file("captions_emb", [str(i) for i, _, _ in CORPUS_ROWS],
             [noisy(cid, 0.25) for _, _, cid in CORPUS_ROWS])
    image_keys = [str(i) for i, _, _ in CORPUS_ROWS] + [f"t{i}" for i in range(9)]
    image_vecs = [noisy(cid, 0.25) for _, _, cid in CORPUS_ROWS] + [
        noisy(i // 3, 0.15) for i in range(9)
    ]
    emb_file("images_emb", image_keys, image_vecs)
    return paths


def art(world, name):
    return str(world["dir"] / name)


def run_pipeline_through_freq(capsys, world):
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "synsets.jsonl"),
    ])
    run_ok(capsys, [
        "scan", "--corpus", world["corpus"], "--synonyms", art(world, "synsets.jsonl"),
        "--out", art(world, "hits.jsonl"), "--freq-out", art(world, "rawfreq.csv"),
        "--concepts", world["concepts"],
    ])
    run_ok(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--hits", art(world, "hits.jsonl"), "--blocklist", world["blocklist"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "verdicts.jsonl"),
    ])
    return run_ok(capsys, [
        "freq", "--hits", art(world, "hits.jsonl"), "--verdicts", art(world, "verdicts.jsonl"),
        "--concepts", world["concepts"], "--out", art(world, "freq.csv"),
        "--syn-out", art(world, "syncounts.csv"),
    ])


def test_full_pipeline(capsys, world):
    summary = run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "synsets.jsonl"),
    ])
    assert summary["concepts"] == 3
    assert summary["synonyms"] == 7  # "big cat" is shared by two concepts

    summary = run_ok(capsys, [
        "scan", "--corpus", world["corpus"], "--synonyms", art(world, "synsets.jsonl"),
        "--out", art(world, "hits.jsonl"), "--freq-out", art(world, "rawfreq.csv"),
        "--concepts", world["concepts"],
    ])
    assert summary["records"] == 12
    assert summary["hits"] == 12
    raw = FrequencyTable.from_csv(art(world, "rawfreq.csv"))
    assert raw.counts == {0: (4, 4), 1: (3, 3), 2: (4, 4)}

    summary = run_ok(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--hits", art(world, "hits.jsonl"), "--blocklist", world["blocklist"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "verdicts.jsonl"),
    ])
    assert summary["pairs"] == 11
    assert summary["relevant"] == 10  # the tiger-shark caption fails the judge
    assert summary["undecided"] == 0

    summary = run_ok(capsys, [
        "freq", "--hits", art(world, "hits.jsonl"), "--verdicts", art(world, "verdicts.jsonl"),
        "--concepts", world["concepts"], "--out", art(world, "freq.csv"),
        "--syn-out", art(world, "syncounts.csv"),
    ])
    assert summary["count_source"] == "filtered"
    freq = FrequencyTable.from_csv(art(world, "freq.csv"))
    assert freq.counts == {0: (4, 3), 1: (3, 3), 2: (4, 4)}

    summary = run_ok(capsys, [
        "analyze", "--freq", art(world, "freq.csv"), "--acc", world["acc"],
        "--out-dir", art(world, "run"),
    ])
    assert summary["tail"] == 1 and summary["head"] == 2
    split_text = (world["dir"] / "run" / "split.csv").read_text()
    assert "0,tail" in split_text  # lowest filtered count, lowest id

    summary = run_ok(capsys, [
        "prompt", "--synonyms", art(world, "synsets.jsonl"),
        "--syn-counts", art(world, "syncounts.csv"), "--templates", "photo_of",
        "--embeddings", f"prompts={world['prompts_emb']}",
        "--out", art(world, "wzs.bin"), "--report", art(world, "chosen.csv"),
    ])
    assert summary["switched"] == 1  # "cash machine" -> "atm"
    chosen = (world["dir"] / "chosen.csv").read_text()
    assert "2,cash machine,atm,3" in chosen
    assert "0,tiger,tiger," in chosen

    summary = run_ok(capsys, [
        "retrieve", "--hits", art(world, "hits.jsonl"), "--verdicts", art(world, "verdicts.jsonl"),
        "--synonyms", art(world, "synsets.jsonl"),
        "--embeddings", f"captions={world['captions_emb']}",
        "--embeddings", f"synonyms={world['synonyms_emb']}",
        "--k", "2", "--out", art(world, "retrieval.jsonl"),
        "--shortfall-out", art(world, "shortfall.csv"),
    ])
    assert summary["rows"] == 6
    assert summary["shortfall_concepts"] == 0
    retrieval = RetrievalSet.from_jsonl(art(world, "retrieval.jsonl"))
    assert 1 not in {cap for cap, _ in retrieval.ranked[0]}  # judged-irrelevant caption excluded
    shortfall = (world["dir"] / "shortfall.csv").read_text().splitlines()
    assert shortfall[0] == "concept_id,requested,retrieved"
    assert shortfall[1:] == ["0,2,2", "1,2,2", "2,2,2"]

    summary = run_ok(capsys, [
        "train", "--retrieval", art(world, "retrieval.jsonl"), "--init", art(world, "wzs.bin"),
        "--synonyms", art(world, "synsets.jsonl"),
        "--embeddings", f"images={world['images_emb']}",
        "--embeddings", f"synonyms={world['synonyms_emb']}",
        "--seed", "1", "--out", art(world, "w.bin"), "--ensemble-out", art(world, "wbar.bin"),
    ])
    assert summary["image_examples"] == 6
    assert summary["text_examples"] == 10  # 7 synonym rows + 3 zero-shot rows
    trained = ClassifierWeights.load(art(world, "w.bin"))
    zs = ClassifierWeights.load(art(world, "wzs.bin"))
    combo = ClassifierWeights.load(art(world, "wbar.bin"))
    assert combo.role == "W_ensemble"
    assert np.array_equal(combo.matrix, trained.matrix + zs.matrix)

    for weights, out_name in ((art(world, "wzs.bin"), "acc_a_zeroshot.csv"),
                              (art(world, "wbar.bin"), "acc_b_ensemble.csv")):
        summary = run_ok(capsys, [
            "eval", "--weights", weights, "--embeddings", f"images={world['images_emb']}",
            "--labels", world["labels"], "--out", str(world["dir"] / "run" / out_name),
        ])
        assert summary["examples"] == 9
        assert summary["mean_per_class_accuracy"] >= 2 / 3

    shutil.copy(art(world, "freq.csv"), str(world["dir"] / "run" / "freq.csv"))
    shutil.copy(art(world, "chosen.csv"), str(world["dir"] / "run" / "chosen.csv"))
    summary = run_ok(capsys, ["report", "--run-dir", art(world, "run"), "--out", art(world, "report.md")])
    assert summary["sections"] == [
        "frequency", "bins", "split", "correlation", "chosen", "accuracy",
    ]
    report = (world["dir"] / "report.md").read_text()
    assert "## Concept frequency" in report
    assert "acc_a_zeroshot" in report and "Deltas vs `acc_a_zeroshot`" in report
    assert "| 2 | cash machine | atm | 3 |" in report

    # the report is deterministic: a second render is byte-identical
    first = (world["dir"] / "report.md").read_bytes()
    run_ok(capsys, ["report", "--run-dir", art(world, "run"), "--out", art(world, "report.md")])
    assert (world["dir"] / "report.md").read_bytes() == first


# ------------------------------------------------------------- determinism


def test_scan_threads_and_reruns_byte_identical(capsys, world):
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "synsets.jsonl"),
    ])

    def scan(threads, out, freq_out):
        run_ok(capsys, [
            "scan", "--corpus", world["corpus"], "--synonyms", art(world, "synsets.jsonl"),
            "--threads", str(threads), "--out", art(world, out),
            "--freq-out", art(world, freq_out),
        ])
        return (world["dir"] / out).read_bytes(), (world["dir"] / freq_out).read_bytes()

    base = scan(1, "hits1.jsonl", "freq1.csv")
    assert scan(1, "hits2.jsonl", "freq2.csv") == base  # re-run
    assert scan(3, "hits3.jsonl", "freq3.csv") == base  # sharded + threaded


def test_prompt_and_train_reruns_byte_identical(capsys, world):
    run_pipeline_through_freq(capsys, world)

    def prompt(out):
        run_ok(capsys, [
            "prompt", "--synonyms", art(world, "synsets.jsonl"),
            "--syn-counts", art(world, "syncounts.csv"), "--templates", "plain",
            "--embeddings", f"prompts={world['synonyms_emb']}",
            "--out", art(world, out),
        ])
        return (world["dir"] / out).read_bytes(), (world["dir"] / (out + ".json")).read_bytes()

    assert prompt("wzs_a.bin") == prompt("wzs_b.bin")

    run_ok(capsys, [
        "retrieve", "--hits", art(world, "hits.jsonl"), "--synonyms", art(world, "synsets.jsonl"),
        "--embeddings", f"captions={world['captions_emb']}",
        "--embeddings", f"synonyms={world['synonyms_emb']}",
        "--k", "2", "--out", art(world, "retrieval.jsonl"),
    ])

    def train(out):
        run_ok(capsys, [
            "train", "--retrieval", art(world, "retrieval.jsonl"), "--init", art(world, "wzs_a.bin"),
            "--synonyms", art(world, "synsets.jsonl"),
            "--embeddings", f"images={world['images_emb']}",
            "--embeddings", f"synonyms={world['synonyms_emb']}",
            "--seed", "7", "--out", art(world, out),
        ])
        return (world["dir"] / out).read_bytes()

    assert train("w_a.bin") == train("w_b.bin")


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys, world):
    run_fail(capsys, ["scan"], 1)  # missing required flags
    run_fail(capsys, ["frobnicate"], 1)  # unknown subcommand
    err = run_fail(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--out", art(world, "x.jsonl"),
    ], 1)  # neither --judge-url nor --blocklist
    assert "judge-url" in err["message"]
    run_fail(capsys, [
        "synonyms", "--concepts", world["concepts"], "--out", art(world, "x.jsonl"),
    ], 1)  # neither --provider-url nor --fixture


def test_parse_embeddings_usage_errors():
    assert _parse_embeddings(["images=/a", "captions=/b"]) == {
        "images": "/a", "captions": "/b",
    }
    with pytest.raises(UsageError, match="role=path"):
        _parse_embeddings(["images"])
    with pytest.raises(UsageError, match="unknown embedding role"):
        _parse_embeddings(["logits=/a"])
    with pytest.raises(UsageError, match="duplicate"):
        _parse_embeddings(["images=/a", "images=/b"])


def test_missing_embedding_role_exits_1(capsys, world):
    run_pipeline_through_freq(capsys, world)
    err = run_fail(capsys, [
        "prompt", "--synonyms", art(world, "synsets.jsonl"),
        "--syn-counts", art(world, "syncounts.csv"), "--templates", "plain",
        "--out", art(world, "w.bin"),
    ], 1)
    assert "prompts=<path>" in err["message"]


def test_input_errors_exit_2(capsys, world):
    run_fail(capsys, [
        "scan", "--corpus", art(world, "missing.jsonl"),
        "--synonyms", art(world, "missing_too.jsonl"), "--out", art(world, "x.jsonl"),
    ], 2)
    bad_hits = world["dir"] / "bad_hits.jsonl"
    bad_hits.write_text("{broken\n")
    run_fail(capsys, [
        "freq", "--hits", str(bad_hits), "--out", art(world, "x.csv"),
    ], 2)
    run_fail(capsys, ["report", "--run-dir", art(world, "no_such_run"), "--out", art(world, "r.md")], 2)


def test_eval_refuses_an_oversized_row_count_as_a_format_error(capsys, tmp_path):
    ClassifierWeights("W", [0], np.ones((1, 2), dtype=np.float32)).save(str(tmp_path / "w.bin"))
    images = tmp_path / "images.bin"
    save_embeddings(EmbeddingMatrix(["a", "b"], np.ones((2, 2), dtype=np.float32)), str(images))
    raw = bytearray(images.read_bytes())
    raw[12:20] = (2**40).to_bytes(8, "little")  # the header's row count
    images.write_bytes(bytes(raw))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,concept_id\na,0\n")
    err = run_fail(capsys, [
        "eval", "--weights", str(tmp_path / "w.bin"), "--embeddings", f"images={images}",
        "--labels", str(labels), "--out", str(tmp_path / "acc.csv"),
    ], 2)
    assert err["error"] == "EmbeddingFormatError"
    assert "more bytes" in err["message"]


def test_retrieve_refuses_verdicts_missing_a_hit_pair(capsys, world):
    """retrieve applies the same verdict-consistency check as freq."""
    run_pipeline_through_freq(capsys, world)
    verdicts = world["dir"] / "verdicts.jsonl"
    cut = world["dir"] / "verdicts_cut.jsonl"
    cut.write_text("".join(verdicts.read_text().splitlines(keepends=True)[:-1]))
    for argv in (
        ["freq", "--hits", art(world, "hits.jsonl"), "--verdicts", str(cut),
         "--out", art(world, "freq_cut.csv")],
        ["retrieve", "--hits", art(world, "hits.jsonl"), "--verdicts", str(cut),
         "--synonyms", art(world, "synsets.jsonl"),
         "--embeddings", f"captions={world['captions_emb']}",
         "--embeddings", f"synonyms={world['synonyms_emb']}",
         "--k", "2", "--out", art(world, "retrieval_cut.jsonl")],
    ):
        err = run_fail(capsys, argv, 2)
        assert err["error"] == "ConsistencyError"
        assert "has no verdict" in err["message"]


def test_bad_definitions_line_names_path_and_line(capsys, world):
    bad = world["dir"] / "definitions_bad.jsonl"
    for body in ('{"concept_id": 0, "definitions": ["x"]}\n{broken\n',
                 '{"concept_id": 0, "definitions": ["x"]}\n{"concept_id": 0}\n',
                 # a bare string, not one definition per letter
                 '{"concept_id": 0, "definitions": ["x"]}\n{"concept_id": 0, "definitions": "big"}\n'):
        bad.write_text(body)
        err = run_fail(capsys, [
            "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
            "--blocklist", world["blocklist"], "--precision",
            "--validation", world["validation"], "--definitions", str(bad),
            "--out", art(world, "precision.csv"),
        ], 2)
        assert err["error"] == "InputError"
        assert f"{bad}:2: bad definitions record" in err["message"]


def test_non_integer_counts_name_path_and_line(capsys, world):
    freq = world["dir"] / "freq_bad.csv"
    freq.write_text("concept_id,name,raw,filtered\n0,tiger,3,2\n1,cat,2,two\n2,atm,1,1\n")
    err = run_fail(capsys, [
        "analyze", "--freq", str(freq), "--acc", world["acc"], "--out-dir", art(world, "an"),
    ], 2)
    assert err["error"] == "InputError"
    assert f"{freq}:3: bad frequency row" in err["message"]

    run_dir = world["dir"] / "bad_run"
    run_dir.mkdir()
    shutil.copy(freq, run_dir / "freq.csv")
    err = run_fail(capsys, ["report", "--run-dir", str(run_dir), "--out", art(world, "r.md")], 2)
    assert err["error"] == "InputError"
    assert f"{run_dir / 'freq.csv'}:3: bad frequency row" in err["message"]

    syn = world["dir"] / "syncounts_bad.csv"
    syn.write_text(
        "concept_id,synonym,raw,filtered,count_source\n0,tiger,3,x,filtered\n"
    )
    synsets = write_jsonl(world["dir"] / "synsets_one.jsonl", [
        {"concept_id": 0, "name": "tiger", "synonyms": ["tiger"], "provenance": ["original"]},
    ])
    err = run_fail(capsys, [
        "prompt", "--synonyms", synsets, "--syn-counts", str(syn),
        "--templates", "photo_of", "--embeddings", f"prompts={world['prompts_emb']}",
        "--out", art(world, "wzs.bin"),
    ], 2)
    assert err["error"] == "InputError"
    assert f"{syn}:2: bad synonym count row" in err["message"]


def test_analyze_refuses_a_repeated_concept_id(capsys, world):
    freq = world["dir"] / "freq_dup.csv"
    freq.write_text("concept_id,name,raw,filtered\n0,tiger,10,9\n1,cat,4,4\n0,tiger,1,0\n2,atm,2,2\n")
    err = run_fail(capsys, [
        "analyze", "--freq", str(freq), "--acc", world["acc"], "--out-dir", art(world, "an"),
    ], 2)
    assert err["error"] == "InputError"
    assert f"{freq}:4: bad frequency row: duplicate concept_id 0" in err["message"]


def test_report_refuses_a_repeated_concept_id(capsys, world):
    run = world["dir"] / "dup_run"
    run.mkdir()
    (run / "freq.csv").write_text("concept_id,name,raw,filtered\n3,tiger,10,9\n3,tiger,1,0\n")
    err = run_fail(capsys, ["report", "--run-dir", str(run), "--out", art(world, "r.md")], 2)
    assert err["error"] == "InputError"
    assert f"{run / 'freq.csv'}:3: bad frequency row: duplicate concept_id 3" in err["message"]
    assert not (world["dir"] / "r.md").exists()


def test_report_names_missing_artifact(capsys, world):
    (world["dir"] / "empty_run").mkdir()
    err = run_fail(capsys, [
        "report", "--run-dir", art(world, "empty_run"), "--out", art(world, "r.md"),
    ], 2)
    assert "freq.csv" in err["message"]


def test_provider_failure_exits_3(capsys, world, http_provider):
    http_provider.route("/synonyms", lambda req: (500, {"error": "down"}))
    err = run_fail(capsys, [
        "synonyms", "--concepts", world["concepts"], "--provider-url", http_provider.url,
        "--cache-dir", art(world, "cache3"), "--out", art(world, "x.jsonl"),
    ], 3)
    assert err["error"] == "ProviderError"


def save_two_concept_init(path):
    zs = ClassifierWeights(
        "W_zs", [0, 1],
        (lambda m: (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(np.float32))(
            np.random.default_rng(0).standard_normal((2, 8))
        ),
    )
    zs.save(str(path))


def test_train_refuses_retrieved_concepts_missing_from_init(capsys, world, tmp_path):
    save_two_concept_init(tmp_path / "init.bin")
    RetrievalSet({0: [(0, 0.9)], 7: [(1, 0.8), (2, 0.7)]}).to_jsonl(str(tmp_path / "retrieval.jsonl"))
    err = run_fail(capsys, [
        "train", "--retrieval", str(tmp_path / "retrieval.jsonl"),
        "--init", str(tmp_path / "init.bin"), "--mode", "image_only",
        "--embeddings", f"images={world['images_emb']}",
        "--out", str(tmp_path / "w.bin"),
    ], 2)
    assert err["error"] == "InputError"
    assert "not in --init: [7]" in err["message"]
    assert not (tmp_path / "w.bin").exists()


def test_train_and_retrieve_refuse_synonym_embeddings_of_another_dim(capsys, world, tmp_path):
    """Each names both roles and both dims instead of failing inside numpy."""
    small = tmp_path / "synonyms3.bin"
    rng = np.random.default_rng(3)
    save_embeddings(EmbeddingMatrix(ALL_SYNONYMS, rng.standard_normal((6, 3)).astype(np.float32)),
                    str(small))
    write_jsonl(tmp_path / "synsets.jsonl", [
        {"concept_id": 0, "synonyms": ["tiger"]}, {"concept_id": 1, "synonyms": ["cat"]},
    ])
    write_jsonl(tmp_path / "hits.jsonl", [
        {"caption_id": 0, "concept_id": 0, "synonym": "tiger", "offset": 0},
    ])
    save_two_concept_init(tmp_path / "init.bin")
    RetrievalSet({0: [(0, 0.9)], 1: [(4, 0.8)]}).to_jsonl(str(tmp_path / "retrieval.jsonl"))
    synonyms = ["--synonyms", str(tmp_path / "synsets.jsonl"), "--embeddings", f"synonyms={small}"]
    err = run_fail(capsys, [
        "train", "--retrieval", str(tmp_path / "retrieval.jsonl"),
        "--init", str(tmp_path / "init.bin"), *synonyms,
        "--embeddings", f"images={world['images_emb']}", "--out", str(tmp_path / "w.bin"),
    ], 2)
    assert err["error"] == "InputError"
    assert "synonyms embedding dim 3 != weights dim 8" in err["message"]
    err = run_fail(capsys, [
        "retrieve", "--hits", str(tmp_path / "hits.jsonl"), *synonyms,
        "--embeddings", f"captions={world['captions_emb']}",
        "--out", str(tmp_path / "retrieval2.jsonl"),
    ], 2)
    assert err["error"] == "InputError"
    assert "captions embedding dim 8 != synonyms embedding dim 3" in err["message"]
    assert not (tmp_path / "w.bin").exists() and not (tmp_path / "retrieval2.jsonl").exists()


def test_retrieve_refuses_hits_for_concepts_outside_synonyms(capsys, world):
    run_pipeline_through_freq(capsys, world)
    write_jsonl(world["dir"] / "one.jsonl", [{"concept_id": 0, "synonyms": ["tiger"]}])
    err = run_fail(capsys, [
        "retrieve", "--hits", art(world, "hits.jsonl"), "--synonyms", art(world, "one.jsonl"),
        "--embeddings", f"captions={world['captions_emb']}",
        "--embeddings", f"synonyms={world['synonyms_emb']}",
        "--k", "2", "--out", art(world, "retrieval.jsonl"),
    ], 2)
    assert err["error"] == "InputError"
    assert "without synonym sets: [1, 2]" in err["message"]
    assert not (world["dir"] / "retrieval.jsonl").exists()


def test_divergence_exits_4(capsys, world, monkeypatch, tmp_path):
    save_two_concept_init(tmp_path / "init.bin")
    RetrievalSet({0: [(0, 0.9)], 1: [(4, 0.8)]}).to_jsonl(str(tmp_path / "retrieval.jsonl"))

    def explode(*args, **kwargs):
        raise DivergenceError(step=3, epoch=1)

    monkeypatch.setattr("tally.reallinear.train_crossmodal", explode)
    err = run_fail(capsys, [
        "train", "--retrieval", str(tmp_path / "retrieval.jsonl"),
        "--init", str(tmp_path / "init.bin"), "--mode", "image_only",
        "--embeddings", f"images={world['images_emb']}",
        "--out", str(tmp_path / "w.bin"),
    ], 4)
    assert err["error"] == "DivergenceError"


def test_benchmark_tracer_finds_every_wrapped_name():
    """perfbench/tracing.py wraps the functions the CLI calls by name, so a
    deleted or renamed one fails here rather than in the slow benchmark."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer('t'))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr


# ------------------------------------------------------------------ caches


def test_cache_dir_environment_and_flag_precedence(capsys, world, monkeypatch):
    env_dir = world["dir"] / "env_cache"
    monkeypatch.setenv("TALLY_CACHE_DIR", str(env_dir))
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--out", art(world, "s1.jsonl"),
    ])
    assert list(env_dir.glob("synonyms_*.jsonl"))  # env var honored

    flag_dir = world["dir"] / "flag_cache"
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--cache-dir", str(flag_dir), "--out", art(world, "s2.jsonl"),
    ])
    assert list(flag_dir.glob("synonyms_*.jsonl"))  # flag beats env

    monkeypatch.delenv("TALLY_CACHE_DIR")
    monkeypatch.chdir(world["dir"])
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--out", art(world, "s3.jsonl"),
    ])
    assert (world["dir"] / ".tally_cache").is_dir()  # default location


def test_judge_reruns_offline_from_cache(capsys, world, http_provider):
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "synsets.jsonl"),
    ])
    run_ok(capsys, [
        "scan", "--corpus", world["corpus"], "--synonyms", art(world, "synsets.jsonl"),
        "--out", art(world, "hits.jsonl"),
    ])
    http_provider.route("/judge", lambda req: (200, {"relevant": "shark" not in req["caption"]}))
    first = run_ok(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--hits", art(world, "hits.jsonl"), "--judge-url", http_provider.url,
        "--cache-dir", art(world, "cache"), "--out", art(world, "verdicts.jsonl"),
    ])
    calls_before = len(http_provider.calls)
    http_provider.route("/judge", lambda req: (500, {}))  # provider now down
    second = run_ok(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--hits", art(world, "hits.jsonl"), "--judge-url", http_provider.url,
        "--cache-dir", art(world, "cache"), "--backoff", "0",
        "--out", art(world, "verdicts2.jsonl"),
    ])
    assert len(http_provider.calls) == calls_before  # all answers came from cache
    assert second["relevant"] == first["relevant"]
    assert (world["dir"] / "verdicts.jsonl").read_bytes() == (
        world["dir"] / "verdicts2.jsonl"
    ).read_bytes()


def test_judge_reruns_after_torn_cache_line(capsys, world):
    run_pipeline_through_freq(capsys, world)
    cache = world["dir"] / "cache" / "verdicts.jsonl"
    body = cache.read_bytes()
    cache.write_bytes(body[: len(body) - 20])  # judge killed mid-append
    run_ok(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--hits", art(world, "hits.jsonl"), "--blocklist", world["blocklist"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "verdicts2.jsonl"),
    ])
    assert cache.read_bytes() == body
    assert (world["dir"] / "verdicts.jsonl").read_bytes() == (
        world["dir"] / "verdicts2.jsonl"
    ).read_bytes()


def test_freq_refuses_hits_for_concepts_outside_concepts(capsys, world):
    write_jsonl(world["dir"] / "hits.jsonl", [
        {"caption_id": 0, "concept_id": 0, "synonym": "tiger", "offset": 0},
        {"caption_id": 1, "concept_id": 5, "synonym": "lion", "offset": 40},
    ])
    write_jsonl(world["dir"] / "one.jsonl", [{"concept_id": 0, "name": "tiger"}])
    err = run_fail(capsys, [
        "freq", "--hits", art(world, "hits.jsonl"), "--concepts", art(world, "one.jsonl"),
        "--out", art(world, "freq.csv"), "--syn-out", art(world, "syncounts.csv"),
    ], 2)
    assert "[5]" in err["message"]
    assert not (world["dir"] / "freq.csv").exists()
    assert not (world["dir"] / "syncounts.csv").exists()


def test_conflicting_provider_flags_exit_1(capsys, world, http_provider):
    http_provider.route("/synonyms", lambda req: (500, {}))
    http_provider.route("/judge", lambda req: (500, {}))
    err = run_fail(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--provider-url", http_provider.url, "--cache-dir", art(world, "cache"),
        "--out", art(world, "x.jsonl"),
    ], 1)
    assert "not allowed with" in err["message"]
    err = run_fail(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--hits", art(world, "hits.jsonl"), "--blocklist", world["blocklist"],
        "--judge-url", http_provider.url, "--cache-dir", art(world, "cache"),
        "--out", art(world, "x.jsonl"),
    ], 1)
    assert "not allowed with" in err["message"]
    assert http_provider.calls == []


def test_edited_fixture_and_blocklist_start_fresh_cache_slots(capsys, world):
    run_pipeline_through_freq(capsys, world)
    write_jsonl(world["dir"] / "provider_fixture.jsonl", [
        {"name": "tiger", "synonyms": ["panthera tigris"]},
        {"name": "cat", "synonyms": []},
        {"name": "cash machine", "synonyms": ["atm"]},
    ])
    write_jsonl(world["dir"] / "blocklist.jsonl", [{"name": "tiger", "reject_phrases": []}])
    run_pipeline_through_freq(capsys, world)
    synsets = [json.loads(line) for line in (world["dir"] / "synsets.jsonl").open()]
    assert [s["synonyms"] for s in synsets] == [
        ["tiger", "panthera tigris"], ["cat"], ["cash machine", "atm"],
    ]
    verdicts = [json.loads(line) for line in (world["dir"] / "verdicts.jsonl").open()]
    assert all(v["relevant"] for v in verdicts)  # "tiger shark" is no longer blocked
    assert len(list((world["dir"] / "cache").glob("synonyms_fixture_*.jsonl"))) == 2


# ------------------------------------------------- judge seeks to offsets


def scan_world(capsys, world, corpus=None, fmt="jsonl", threads=1, out="hits.jsonl"):
    """Synonyms, then a scan of `corpus` (the world's by default) into `out`."""
    run_ok(capsys, [
        "synonyms", "--concepts", world["concepts"], "--fixture", world["fixture"],
        "--cache-dir", art(world, "cache"), "--out", art(world, "synsets.jsonl"),
    ])
    run_ok(capsys, [
        "scan", "--corpus", corpus or world["corpus"], "--format", fmt,
        "--synonyms", art(world, "synsets.jsonl"), "--threads", str(threads),
        "--out", art(world, out),
    ])
    return [json.loads(line) for line in (world["dir"] / out).read_text().splitlines()]


def judge_argv(world, corpus=None, fmt="jsonl", hits="hits.jsonl", out="verdicts.jsonl"):
    return [
        "judge", "--concepts", world["concepts"], "--corpus", corpus or world["corpus"],
        "--format", fmt, "--hits", art(world, hits), "--blocklist", world["blocklist"],
        "--cache-dir", art(world, "cache"), "--out", art(world, out),
    ]


def line_offsets(path) -> dict[int, int]:
    """Byte offset of each line of a file, by line number from 0."""
    offsets, at = {}, 0
    for i, line in enumerate(Path(path).read_bytes().splitlines(keepends=True)):
        offsets[i] = at
        at += len(line)
    return offsets


def test_scan_writes_each_captions_offset_on_any_thread_count(capsys, world):
    one = scan_world(capsys, world, out="hits1.jsonl")
    two = scan_world(capsys, world, threads=2, out="hits2.jsonl")
    assert (world["dir"] / "hits1.jsonl").read_bytes() == (world["dir"] / "hits2.jsonl").read_bytes()
    at = line_offsets(world["corpus"])  # corpus line i holds caption id i
    assert one and all(h["offset"] == at[h["caption_id"]] for h in one)
    assert two == one


def test_judge_refuses_a_corpus_changed_since_scan(capsys, world):
    scan_world(capsys, world)
    lines = Path(world["corpus"]).read_text().splitlines(keepends=True)
    Path(world["corpus"]).write_text("".join([lines[1], lines[0], *lines[2:]]))
    err = run_fail(capsys, judge_argv(world), 2)
    assert err["error"] == "InputError"
    assert f"{world['corpus']}: corpus changed since scan: no caption id 0 at byte 0" in err["message"]
    assert not (world["dir"] / "verdicts.jsonl").exists()


def test_judge_refuses_a_corpus_cut_short_since_scan(capsys, world):
    scan_world(capsys, world)
    lines = Path(world["corpus"]).read_text().splitlines(keepends=True)
    Path(world["corpus"]).write_text("".join(lines[:5]))
    err = run_fail(capsys, judge_argv(world), 2)
    assert "corpus changed since scan: no caption id 5 at byte 242" in err["message"]


def test_judge_refuses_hits_without_offsets(capsys, world):
    hits = scan_world(capsys, world)
    write_jsonl(world["dir"] / "old_hits.jsonl", [
        {k: v for k, v in h.items() if k != "offset"} for h in hits
    ])
    err = run_fail(capsys, judge_argv(world, hits="old_hits.jsonl"), 2)
    assert err["error"] == "InputError"
    assert f"{art(world, 'old_hits.jsonl')}: hit for caption id 0 has no offset" in err["message"]
    assert "rerun tally scan" in err["message"]


def test_judge_refuses_a_caption_with_two_offsets(capsys, world):
    hits = scan_world(capsys, world)
    write_jsonl(world["dir"] / "odd_hits.jsonl", [*hits, {**hits[0], "offset": 1}])
    err = run_fail(capsys, judge_argv(world, hits="odd_hits.jsonl"), 2)
    assert f"caption id {hits[0]['caption_id']} has two offsets" in err["message"]


def test_judge_over_tsv_equals_the_streaming_read(capsys, world):
    """Seeking into a TSV corpus, quoted caption and all, judges exactly
    what the streaming reader reads."""
    from tally.corpus import open_corpus
    from tally.judge import RuleStubJudge, judge_hits, save_verdicts
    from tally.lexicon import ConceptSet
    from tally.matcher import load_hits

    tsv = world["dir"] / "corpus.tsv"
    rows = [f"{i}\t{t}\n" for i, t, _ in CORPUS_ROWS]
    rows[1] = '1\t"tiger shark\tswimming in ""water"""\n'
    tsv.write_text("not a record\n" + "".join(rows))
    hits = scan_world(capsys, world, corpus=str(tsv), fmt="tsv")
    at = line_offsets(tsv)  # line 0 is the malformed one
    assert all(h["offset"] == at[h["caption_id"] + 1] for h in hits)
    run_ok(capsys, judge_argv(world, corpus=str(tsv), fmt="tsv"))

    outcome = judge_hits(
        load_hits(art(world, "hits.jsonl")),
        ConceptSet.from_jsonl(world["concepts"]),
        {r.id: r.norm_text for r in open_corpus(str(tsv), "tsv")},
        RuleStubJudge.from_jsonl(world["blocklist"]),
    )
    save_verdicts(outcome, art(world, "streamed.jsonl"))
    assert (world["dir"] / "verdicts.jsonl").read_bytes() == (
        world["dir"] / "streamed.jsonl"
    ).read_bytes()
    assert any(not v.relevant for v in outcome.verdicts)  # the shark is still vetoed


# --------------------------------------------------------------- precision


def test_judge_precision_mode(capsys, world):
    summary = run_ok(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--blocklist", world["blocklist"], "--precision",
        "--validation", world["validation"], "--definitions", world["definitions"],
        "--out", art(world, "precision.csv"),
    ])
    assert summary["mode"] == "precision"
    assert summary["rows"] == 2
    lines = (world["dir"] / "precision.csv").read_text().splitlines()
    assert lines[0] == "concept_id,definition,precision"
    # blocklist rejects the shark caption, both remaining pairs are gold-relevant
    assert lines[1] == "0,a large striped cat,1.0"
    assert lines[2] == '0,"panthera tigris, the animal",1.0'


def test_judge_precision_mode_streams_the_corpus_not_the_hits(capsys, world):
    """Validation ids are not hits: --precision reads the corpus, not the
    offsets of a --hits file (here one from before offsets existed)."""
    write_jsonl(world["dir"] / "old_hits.jsonl", [{"caption_id": 5, "concept_id": 1, "synonym": "cat"}])
    argv = [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--blocklist", world["blocklist"], "--precision", "--validation", world["validation"],
        "--definitions", world["definitions"],
    ]
    run_ok(capsys, [*argv, "--out", art(world, "p1.csv")])
    run_ok(capsys, [*argv, "--hits", art(world, "old_hits.jsonl"), "--out", art(world, "p2.csv")])
    assert (world["dir"] / "p1.csv").read_text().splitlines()[1] == "0,a large striped cat,1.0"
    assert (world["dir"] / "p2.csv").read_bytes() == (world["dir"] / "p1.csv").read_bytes()


def test_precision_requires_validation(capsys, world):
    err = run_fail(capsys, [
        "judge", "--concepts", world["concepts"], "--corpus", world["corpus"],
        "--blocklist", world["blocklist"], "--precision",
        "--out", art(world, "x.csv"),
    ], 1)
    assert "--validation" in err["message"]
