"""The `tally` command-line pipeline.

Each subcommand reads declared file inputs, writes declared outputs, and
prints a single-line JSON summary to stdout. Failures print a machine-
readable JSON error to stderr and exit nonzero:

    0  success
    1  usage error (bad flags)
    2  bad input (missing/malformed files, inconsistent artifacts)
    3  provider failure (synonym or judge endpoint)
    4  internal error

Runs are idempotent: identical inputs (and seed) produce byte-identical
outputs. Nothing touches the network unless a provider URL flag is given.
The on-disk provider caches live under --cache-dir, the TALLY_CACHE_DIR
environment variable, or ./.tally_cache, in that order of precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# numpy loads only in the stages that compute with embeddings or statistics:
# the modules that need it (embeddings, realprompt, reallinear) are imported
# inside those stages.
from . import analytics, judge as judge_mod, lexicon, matcher
from .analytics import AccuracyTable, FrequencyTable
from .corpus import open_corpus, read_captions_at, shard_corpus
from .defaults import DEFAULT_K, TRAIN_MODES
from .errors import DivergenceError, InputError, ProviderError, TallyError
from .io import atomic_write, json_int, read_csv, read_jsonl, string_list, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PROVIDER = 3
EXIT_INTERNAL = 4

EMBEDDING_ROLES = ("images", "captions", "names", "synonyms", "prompts")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    bad input data, so usage failures are rethrown and mapped to 1."""

    def error(self, message):
        raise UsageError(message)


def _parse_embeddings(pairs: list[str] | None) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs or []:
        role, sep, path = pair.partition("=")
        if not sep or not path:
            raise UsageError(f"--embeddings expects role=path, got {pair!r}")
        if role not in EMBEDDING_ROLES:
            raise UsageError(
                f"unknown embedding role {role!r}; expected one of {EMBEDDING_ROLES}"
            )
        if role in out:
            raise UsageError(f"duplicate embedding role {role!r}")
        out[role] = path
    return out


def load_embeddings(path: str):
    """embeddings.load_embeddings, imported on first use."""
    from .embeddings import load_embeddings

    return load_embeddings(path)


def _require_embedding(embs: dict[str, str], role: str):
    if role not in embs:
        raise UsageError(f"this command requires --embeddings {role}=<path>")
    return load_embeddings(embs[role])


def _cache_dir(args) -> str:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("TALLY_CACHE_DIR", ".tally_cache")


def _load_captions_for(hit_ids: set[int], path: str, fmt: str) -> dict[int, str]:
    """Stream the corpus once, keeping normalized text only for needed ids."""
    captions: dict[int, str] = {}
    for rec in open_corpus(path, fmt):
        if rec.id in hit_ids:
            captions[rec.id] = rec.norm_text
    return captions


def _hit_offsets(hits: list[matcher.MatchHit], path: str) -> dict[int, int]:
    """The corpus byte offset the scan recorded for each hit caption."""
    offsets: dict[int, int] = {}
    for h in hits:
        if h.offset is None:
            raise InputError(
                f"{path}: hit for caption id {h.caption_id} has no offset; rerun tally scan"
            )
        if offsets.setdefault(h.caption_id, h.offset) != h.offset:
            raise InputError(
                f"{path}: caption id {h.caption_id} has two offsets, "
                f"{offsets[h.caption_id]} and {h.offset}"
            )
    return offsets


# ---------------------------------------------------------------- synonyms


def cmd_synonyms(args) -> dict:
    concepts = lexicon.ConceptSet.from_jsonl(args.concepts)
    if args.provider_url:
        provider = lexicon.HttpSynonymProvider(args.provider_url, timeout=args.timeout)
    else:
        provider = lexicon.FixtureSynonymProvider.from_jsonl(args.fixture)
    provider = lexicon.SynonymCache(_cache_dir(args), provider)
    sets = [lexicon.expand_synonyms(c, provider) for c in concepts]

    dropped = 0
    if args.filter:
        embs = _parse_embeddings(args.embeddings)
        names = _require_embedding(embs, "names")
        synonyms = _require_embedding(embs, "synonyms")
        before = sum(len(s.synonyms) for s in sets)
        sets = lexicon.filter_synonyms(sets, concepts, names, synonyms)
        dropped = before - sum(len(s.synonyms) for s in sets)

    lexicon.save_synonym_sets(sets, args.out)
    return {
        "command": "synonyms",
        "concepts": len(concepts),
        "synonyms": sum(len(s.synonyms) for s in sets),
        "filtered_out": dropped,
        "provider": provider.provider_id,
        "out": args.out,
    }


# -------------------------------------------------------------------- scan


def cmd_scan(args) -> dict:
    sets = lexicon.load_synonym_sets(args.synonyms)
    automaton = matcher.compile(sets, mode=args.mode)
    if args.threads > 1:
        shards = shard_corpus(args.corpus, args.threads, args.format)
        result = matcher.scan_shards(shards, automaton, args.format, threads=args.threads)
    else:
        result = matcher.scan(open_corpus(args.corpus, args.format), automaton)
    matcher.save_hits(result.hits, args.out)
    if args.freq_out:
        names = None
        if args.concepts:
            concepts = lexicon.ConceptSet.from_jsonl(args.concepts)
            names = {c.concept_id: c.name for c in concepts}
        result.table.to_csv(args.freq_out, names=names)
    return {
        "command": "scan",
        "records": result.n_records,
        "skipped": result.n_skipped,
        "hits": len(result.hits),
        "patterns": automaton.pattern_count,
        "mode": args.mode,
        "threads": args.threads,
        "out": args.out,
        "freq_out": args.freq_out,
    }


# ------------------------------------------------------------------- judge


def cmd_judge(args) -> dict:
    concepts = lexicon.ConceptSet.from_jsonl(args.concepts)
    if args.judge_url:
        judge = judge_mod.HttpJudge(args.judge_url, timeout=args.timeout)
    else:
        judge = judge_mod.RuleStubJudge.from_jsonl(args.blocklist)

    if args.precision:
        if not args.validation:
            raise UsageError("--precision requires --validation")
        validation = judge_mod.ValidationSet.from_jsonl(args.validation)
        needed = {caption_id for caption_id, _, _ in validation.pairs}
        captions = _load_captions_for(needed, args.corpus, args.format)
        if args.definitions:
            definitions = dict(
                read_jsonl(
                    args.definitions,
                    "definitions record",
                    lambda obj: (json_int(obj, "concept_id"), string_list(obj["definitions"], "definitions")),
                )
            )
        else:
            definitions = {c.concept_id: [c.definition] for c in concepts}
        rows = []
        for cid in sorted(definitions):
            for definition in definitions[cid]:
                precision = judge_mod.definition_precision(
                    concepts[cid], definition, validation, judge, captions
                )
                rows.append([cid, definition, repr(precision)])
        write_csv(args.out, ["concept_id", "definition", "precision"], rows)
        return {
            "command": "judge",
            "mode": "precision",
            "judge_id": judge.judge_id,
            "rows": len(rows),
            "out": args.out,
        }

    if not args.hits:
        raise UsageError("--hits is required unless --precision is given")
    hits = matcher.load_hits(args.hits)
    captions = read_captions_at(args.corpus, args.format, _hit_offsets(hits, args.hits))
    outcome = judge_mod.judge_hits(
        hits,
        concepts,
        captions,
        judge_mod.VerdictCache(_cache_dir(args), judge),
        max_attempts=args.max_attempts,
        backoff_s=args.backoff,
        max_workers=args.workers,
    )
    judge_mod.save_verdicts(outcome, args.out)
    return {
        "command": "judge",
        "judge_id": judge.judge_id,
        "pairs": len(outcome.verdicts) + len(outcome.undecided),
        "relevant": sum(1 for v in outcome.verdicts if v.relevant),
        "undecided": len(outcome.undecided),
        "out": args.out,
    }


# -------------------------------------------------------------------- freq


def cmd_freq(args) -> dict:
    hits = matcher.load_hits(args.hits)
    concepts = lexicon.ConceptSet.from_jsonl(args.concepts) if args.concepts else None
    names = {c.concept_id: c.name for c in concepts} if concepts else None

    table, syn_counts_raw = matcher.count_captions(hits, concepts.ids if concepts else None)
    syn_counts_filt = syn_counts_raw
    count_source = "raw"
    undecided = 0
    if args.verdicts:
        outcome = judge_mod.load_verdicts(args.verdicts)
        table, syn_counts_filt = judge_mod.filtered_frequency(
            hits, outcome.verdicts, concepts, undecided=outcome.undecided
        )
        count_source = "filtered"
        undecided = len(outcome.undecided)

    table.to_csv(args.out, names=names)
    if args.syn_out:
        # Every judged pair is a hit, so the raw counts hold every key.
        write_csv(
            args.syn_out,
            ["concept_id", "synonym", "raw", "filtered", "count_source"],
            (
                [*key, n, syn_counts_filt.get(key, 0), count_source]
                for key, n in sorted(syn_counts_raw.items())
            ),
        )
    return {
        "command": "freq",
        "concepts": len(table.counts),
        "raw_total": sum(table.raw(c) for c in table.counts),
        "filtered_total": sum(table.filtered(c) for c in table.counts),
        "undecided": undecided,
        "count_source": count_source,
        "out": args.out,
        "syn_out": args.syn_out,
    }


# ----------------------------------------------------------------- analyze


def cmd_analyze(args) -> dict:
    freq = FrequencyTable.from_csv(args.freq)
    acc = AccuracyTable.from_csv(args.acc)
    os.makedirs(args.out_dir, exist_ok=True)

    bins = analytics.log_bins(freq, acc, base=args.base)
    write_csv(
        os.path.join(args.out_dir, "bins.csv"),
        ["bin", "mean_acc", "count"],
        ([b.bin, repr(b.mean_accuracy), b.count] for b in bins),
    )

    head, tail = analytics.head_tail_split(freq, tail_fraction=args.tail)
    tail_ids = set(tail)
    write_csv(
        os.path.join(args.out_dir, "split.csv"),
        ["concept_id", "split"],
        ([cid, "tail" if cid in tail_ids else "head"] for cid in sorted(freq.counts)),
    )

    correlations = {m: analytics.correlate(freq, acc, m) for m in ("pearson", "spearman")}
    write_csv(
        os.path.join(args.out_dir, "correlation.csv"),
        ["method", "value", "n"],
        ([method, repr(correlations[method]), len(freq.counts)] for method in sorted(correlations)),
    )

    return {
        "command": "analyze",
        "concepts": len(freq.counts),
        "head": len(head),
        "tail": len(tail),
        "pearson": correlations["pearson"],
        "spearman": correlations["spearman"],
        "out_dir": args.out_dir,
    }


# ------------------------------------------------------------------ prompt


def cmd_prompt(args) -> dict:
    from . import realprompt

    sets = lexicon.load_synonym_sets(args.synonyms)
    syn_counts, count_source = _load_syn_counts(args.syn_counts)
    if args.templates in realprompt.BUILTIN_TEMPLATES:
        templates = realprompt.PromptTemplateSet.builtin(args.templates)
    else:
        templates = realprompt.PromptTemplateSet.from_file(args.templates)
    prompt_embs = _require_embedding(_parse_embeddings(args.embeddings), "prompts")

    chosen_rows = realprompt.chosen_synonym_report(sets, syn_counts)
    concept_prompts = [
        (cid, realprompt.build_prompts(chosen, templates))
        for cid, _, chosen, _ in chosen_rows
    ]
    weights = realprompt.build_zeroshot(
        concept_prompts,
        prompt_embs,
        provenance={
            "templates": templates.source,
            "count_source": count_source,
            "synonyms": args.synonyms,
        },
    )
    weights.save(args.out)
    if args.report:
        write_csv(args.report, ["concept_id", "name", "chosen", "count"], chosen_rows)
    switched = sum(1 for _, name, chosen, _ in chosen_rows if _switched(name, chosen))
    return {
        "command": "prompt",
        "concepts": len(sets),
        "templates": len(templates.templates),
        "switched": switched,
        "count_source": count_source,
        "out": args.out,
        "report": args.report,
    }


def _switched(name: str, chosen: str) -> bool:
    """Whether the prompt names a concept by a synonym instead of its name."""
    return chosen != lexicon.normalize_text(name)


def _load_syn_counts(path: str) -> tuple[dict[tuple[int, str], int], str]:
    """Per-synonym counts from the `freq --syn-out` table, and their source."""

    def parse(row):
        source = row.get("count_source") or "filtered"
        column = "filtered" if source == "filtered" else "raw"
        return source, (int(row["concept_id"]), row["synonym"]), int(row[column])

    rows = read_csv(path, ("concept_id", "synonym", "raw", "filtered"), "synonym count row", parse)
    source = rows[-1][0] if rows else "raw"
    return {key: n for _, key, n in rows}, source


# ---------------------------------------------------------------- retrieve


def cmd_retrieve(args) -> dict:
    from . import reallinear

    sets = lexicon.load_synonym_sets(args.synonyms)
    embs = _parse_embeddings(args.embeddings)
    caption_embs = _require_embedding(embs, "captions")
    synonym_embs = _require_embedding(embs, "synonyms")
    if caption_embs.dim != synonym_embs.dim:
        raise InputError(
            f"captions embedding dim {caption_embs.dim} != synonyms embedding dim {synonym_embs.dim}"
        )
    hits = matcher.load_hits(args.hits)

    restrict = None
    if args.verdicts:
        outcome = judge_mod.load_verdicts(args.verdicts)
        restrict = judge_mod.relevant_pairs(hits, outcome.verdicts, outcome.undecided)
    queries = reallinear.concept_queries(sets, synonym_embs, use_synonyms=(args.query == "synonyms"))
    result = reallinear.retrieve_balanced(hits, caption_embs, queries, k=args.k, restrict_to=restrict)
    result.to_jsonl(args.out)
    if args.shortfall_out:
        write_csv(
            args.shortfall_out,
            ["concept_id", "requested", "retrieved"],
            ([cid, args.k, len(result.ranked[cid])] for cid in sorted(result.ranked)),
        )
    return {
        "command": "retrieve",
        "k": args.k,
        "query": args.query,
        "concepts": len(result.ranked),
        "rows": sum(len(v) for v in result.ranked.values()),
        "shortfall_concepts": len(result.shortfall(args.k)),
        "out": args.out,
        "shortfall_out": args.shortfall_out,
    }


# ------------------------------------------------------------------- train


def cmd_train(args) -> dict:
    from . import reallinear
    from .realprompt import ClassifierWeights

    init = ClassifierWeights.load(args.init)
    retrieval = reallinear.RetrievalSet.from_jsonl(args.retrieval)
    embs = _parse_embeddings(args.embeddings)
    images = _require_embedding(embs, "images")

    unknown = sorted(set(retrieval.ranked) - set(init.concept_ids))
    if unknown:
        raise InputError(f"retrieved rows for concepts not in --init: {unknown[:5]}")
    keys, labels = [], []
    for row, cid in enumerate(init.concept_ids):
        for caption_id, _ in retrieval.ranked.get(cid, []):
            keys.append(str(caption_id))
            labels.append(row)
    image_features = images.rows(keys)  # float32; train_crossmodal widens it once
    del images  # only the gathered rows are needed from here on: free the full matrix

    config = reallinear.TrainConfig(
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        mode=args.mode,
    )
    text_features = text_labels = None
    if config.mode == "cross_modal":
        sets = lexicon.load_synonym_sets(args.synonyms) if args.synonyms else None
        if sets is None:
            raise UsageError("cross_modal training requires --synonyms")
        synonym_embs = _require_embedding(embs, "synonyms")
        text_features, text_labels = reallinear.build_text_examples(sets, synonym_embs, init)

    trained = reallinear.train_crossmodal(
        image_features, labels, text_features, text_labels, config, init
    )
    trained.save(args.out)
    summary = {
        "command": "train",
        "mode": config.mode,
        "seed": config.seed,
        "epochs": config.epochs,
        "image_examples": int(image_features.shape[0]),
        "text_examples": int(text_features.shape[0]) if text_features is not None else 0,
        "steps": trained.provenance.get("steps", 0),
        "out": args.out,
        "ensemble_out": args.ensemble_out,
    }
    if args.ensemble_out:
        reallinear.ensemble(trained, init).save(args.ensemble_out)
    return summary


# -------------------------------------------------------------------- eval


def cmd_eval(args) -> dict:
    from . import reallinear
    from .realprompt import ClassifierWeights

    weights = ClassifierWeights.load(args.weights)
    images = _require_embedding(_parse_embeddings(args.embeddings), "images")
    labels = read_csv(
        args.labels, ("id", "concept_id"), "label row", lambda r: (r["id"], int(r["concept_id"]))
    )
    if not labels:
        raise InputError(f"{args.labels}: no labeled examples")
    ids, gold = zip(*labels)
    rows = images.rows(ids)
    del images  # rows is a copy; scoring the labels needs only it
    mpca, table = reallinear.evaluate(weights, rows, gold)
    table.to_csv(args.out)
    return {
        "command": "eval",
        "model_id": args.model_id or weights.role,
        "examples": len(ids),
        "classes": len(table.accuracies),
        "mean_per_class_accuracy": mpca,
        "out": args.out,
    }


# ------------------------------------------------------------------ report


def _md_table(header: list[str], rows) -> list[str]:
    """Markdown table lines: the header, its rule, then one line per row."""
    lines = ["| " + " | ".join(map(str, cells)) + " |" for cells in [header, *rows]]
    return [lines[0], "|" + "---|" * len(header), *lines[1:]]


def cmd_report(args) -> dict:
    run = args.run_dir
    freq_path = os.path.join(run, "freq.csv")
    if not os.path.exists(freq_path):
        raise InputError(f"run dir {run} is missing required artifacts: ['freq.csv']")

    lines: list[str] = ["# tally run report", ""]
    sections = []

    freq = analytics._read_concept_csv(
        freq_path,
        "frequency",
        ("raw", "filtered"),
        lambda r: (r.get("name", ""), int(r["raw"]), int(r["filtered"])),
    )
    freq_rows = sorted(((cid, *row) for cid, row in freq.items()), key=lambda r: (-r[3], r[0]))
    lines += [
        "## Concept frequency",
        "",
        f"- concepts: {len(freq_rows)}",
        f"- raw matched captions (sum over concepts): {sum(r[2] for r in freq_rows)}",
        f"- filtered matched captions (sum over concepts): {sum(r[3] for r in freq_rows)}",
        "",
    ]
    freq_header = ["rank", "concept_id", "name", "raw", "filtered"]
    ranked = [(rank, *r) for rank, r in enumerate(freq_rows, 1)]
    if len(ranked) > 20:
        lines += _md_table(freq_header, ranked[:10])
        lines += ["", "Least frequent:", "", *_md_table(freq_header, ranked[-10:])]
    else:
        lines += _md_table(freq_header, ranked)
    lines.append("")
    sections.append("frequency")

    bins_path = os.path.join(run, "bins.csv")
    if os.path.exists(bins_path):
        rows = read_csv(
            bins_path,
            ("bin", "mean_acc", "count"),
            "bin row",
            lambda r: (r["bin"], f"{float(r['mean_acc']):.6f}", r["count"]),
        )
        lines += ["## Frequency bins (log scale)", ""]
        lines += _md_table(["bin", "mean accuracy", "concepts"], rows)
        lines.append("")
        sections.append("bins")

    split_of: dict[int, str] = {}
    split_path = os.path.join(run, "split.csv")
    if os.path.exists(split_path):
        split_rows = read_csv(
            split_path,
            ("concept_id", "split"),
            "split row",
            lambda r: (int(r["concept_id"]), r["split"]),
        )
        split_of = dict(split_rows)
        lines += [
            "## Head/tail split",
            "",
            f"- head: {sum(1 for _, split in split_rows if split == 'head')} concepts",
            f"- tail: {sum(1 for _, split in split_rows if split == 'tail')} concepts",
            "",
        ]
        sections.append("split")

    corr_path = os.path.join(run, "correlation.csv")
    if os.path.exists(corr_path):
        rows = read_csv(
            corr_path,
            ("method", "value", "n"),
            "correlation row",
            lambda r: (r["method"], f"{float(r['value']):.6f}", r["n"]),
        )
        lines += ["## Frequency–accuracy correlation", ""]
        lines += _md_table(["method", "value", "n"], rows)
        lines.append("")
        sections.append("correlation")

    chosen_path = os.path.join(run, "chosen.csv")
    if os.path.exists(chosen_path):
        columns = ["concept_id", "name", "chosen", "count"]
        rows = read_csv(chosen_path, columns, "chosen row", lambda r: [r[c] for c in columns])
        switched = [r for r in rows if _switched(r[1], r[2])]
        lines += [
            "## Chosen synonyms",
            "",
            f"- concepts: {len(rows)}",
            f"- switched away from the original name: {len(switched)}",
            "",
        ]
        if switched:
            lines += _md_table(columns, switched)
            lines.append("")
        sections.append("chosen")

    acc_files = sorted(n for n in os.listdir(run) if n.startswith("acc") and n.endswith(".csv"))
    if acc_files:
        header = ["model", "mean per-class acc"] + (["head acc", "tail acc"] if split_of else [])
        stats = []  # (model, [mean, head mean, tail mean]); None when head or tail is empty
        for name in acc_files:
            acc = AccuracyTable.from_csv(os.path.join(run, name))
            values = [acc.mean()]
            if split_of:
                head = [cid for cid in acc.accuracies if split_of.get(cid) == "head"]
                tail = [cid for cid in acc.accuracies if split_of.get(cid) == "tail"]
                values += [acc.mean(head), acc.mean(tail)] if head and tail else [None, None]
            stats.append((name[:-4], values))

        def cells(label: str, values: list[float | None], fmt: str) -> list[str]:
            return [label, *("n/a" if v is None else f"{v:{fmt}}" for v in values)]

        lines += ["## Accuracy", "", *_md_table(header, [cells(m, v, ".6f") for m, v in stats])]
        if len(stats) > 1:
            base_label, base = stats[0]
            deltas = []
            for label, values in stats[1:]:
                diff = [None if v is None or b is None else v - b for v, b in zip(values, base)]
                deltas.append(cells(label, diff, "+.6f"))
            lines += ["", f"Deltas vs `{base_label}`:", "", *_md_table(header, deltas)]
        lines.append("")
        sections.append("accuracy")

    with atomic_write(args.out) as f:
        f.write("\n".join(lines))
    return {"command": "report", "sections": sections, "out": args.out}


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    parser = _Parser(prog="tally", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("synonyms", cmd_synonyms, "expand concept names into synonym sets")
    p.add_argument("--concepts", required=True)
    p.add_argument("--out", required=True)
    provider = p.add_mutually_exclusive_group(required=True)
    provider.add_argument("--provider-url")
    provider.add_argument("--fixture")
    p.add_argument("--cache-dir")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--filter", action="store_true", help="drop synonyms nearer to other concepts")
    p.add_argument("--embeddings", action="append", metavar="ROLE=PATH")

    p = add("scan", cmd_scan, "match synonyms against a caption corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    p.add_argument("--synonyms", required=True)
    p.add_argument("--mode", choices=list(matcher.MODES), default="whole_word")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--freq-out")
    p.add_argument("--concepts")

    p = add("judge", cmd_judge, "judge hit relevance (or definition precision)")
    p.add_argument("--concepts", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    p.add_argument("--hits")
    provider = p.add_mutually_exclusive_group(required=True)
    provider.add_argument("--judge-url")
    provider.add_argument("--blocklist")
    p.add_argument("--cache-dir")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--max-attempts", type=int, default=3)
    p.add_argument("--backoff", type=float, default=0.5)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--precision", action="store_true", help="score definitions instead of hits")
    p.add_argument("--validation")
    p.add_argument("--definitions")

    p = add("freq", cmd_freq, "build the per-concept frequency table")
    p.add_argument("--hits", required=True)
    p.add_argument("--verdicts")
    p.add_argument("--concepts")
    p.add_argument("--out", required=True)
    p.add_argument("--syn-out")

    p = add("analyze", cmd_analyze, "bins, head/tail split, correlations")
    p.add_argument("--freq", required=True)
    p.add_argument("--acc", required=True)
    p.add_argument("--tail", type=float, default=0.2)
    p.add_argument("--base", type=float, default=10.0)
    p.add_argument("--out-dir", required=True)

    p = add("prompt", cmd_prompt, "build the zero-shot classifier from frequent synonyms")
    p.add_argument("--synonyms", required=True)
    p.add_argument("--syn-counts", required=True)
    p.add_argument("--templates", required=True, help="builtin set name or a template file")
    p.add_argument("--embeddings", action="append", metavar="ROLE=PATH")
    p.add_argument("--out", required=True)
    p.add_argument("--report")

    p = add("retrieve", cmd_retrieve, "balanced top-K caption retrieval per concept")
    p.add_argument("--hits", required=True)
    p.add_argument("--verdicts")
    p.add_argument("--synonyms", required=True)
    p.add_argument("--embeddings", action="append", metavar="ROLE=PATH")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--query", choices=["synonyms", "name"], default="synonyms")
    p.add_argument("--out", required=True)
    p.add_argument("--shortfall-out")

    p = add("train", cmd_train, "train the linear probe on retrieved examples")
    p.add_argument("--retrieval", required=True)
    p.add_argument("--init", required=True, help="zero-shot weights file")
    p.add_argument("--synonyms")
    p.add_argument("--embeddings", action="append", metavar="ROLE=PATH")
    p.add_argument("--mode", choices=list(TRAIN_MODES), default="cross_modal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--weight-decay", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--ensemble-out")

    p = add("eval", cmd_eval, "mean per-class accuracy of a weights file")
    p.add_argument("--weights", required=True)
    p.add_argument("--embeddings", action="append", metavar="ROLE=PATH")
    p.add_argument("--labels", required=True)
    p.add_argument("--model-id")
    p.add_argument("--out", required=True)

    p = add("report", cmd_report, "render a Markdown report from run artifacts")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)

    return parser


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "exit_code": code, "message": message}, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        return _fail("UsageError", str(e), EXIT_USAGE)
    try:
        summary = args.handler(args)
    except UsageError as e:
        return _fail("UsageError", str(e), EXIT_USAGE)
    except ProviderError as e:
        return _fail(type(e).__name__, str(e), EXIT_PROVIDER)
    except DivergenceError as e:
        return _fail(type(e).__name__, str(e), EXIT_INTERNAL)
    except (TallyError, OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        return _fail(type(e).__name__, str(e), EXIT_INPUT)
    except Exception as e:  # pragma: no cover - defensive
        return _fail(type(e).__name__, str(e), EXIT_INTERNAL)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
