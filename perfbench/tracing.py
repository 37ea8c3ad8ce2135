"""Span tracing of one `tally` CLI stage, from outside the package.

Run as a script, it stands in for `python -m tally.cli`:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS_OUT RUN_ID STAGE -- <tally args>

It times `import tally.cli`, wraps the public functions the CLI calls,
runs `tally.cli.main` and writes the spans to SPANS_OUT as JSON when the
stage ends. Nothing in `src/` is edited; a later change that moves or
renames a wrapped function shows up here as a missing span.

A span is (id, name, start, end, parent, run id). Calls made once per
caption or per pair (corpus record reads, `PatternAutomaton.find`, judge
provider calls, verdict-cache lookups, SGD steps) are aggregated into a
count and a total per (name, parent) instead, so tracing them stays
cheap. A span's layer is its name up to the first dot: a module of
`tally`, or `startup` for the package import.

`self_times` turns a stage's spans into self time per layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from time import perf_counter


class Tracer:
    """Spans and aggregated hot calls of one process; create it on the
    main thread. Worker threads have no open span of their own, so their
    calls are parented to the main thread's innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.agg: dict[tuple[str, int | None], list] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main: list[int] = []
        self._local.stack = self._main

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._main[-1] if self._main else None

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        self.spans.append({
            "id": next(self._ids), "name": name, "start": start, "end": end,
            "parent": self._parent(self._stack()), "run": self.run_id, "attrs": attrs or {},
        })

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "run": self.run_id, "attrs": attrs or {},
            })

    def add(self, name: str, seconds: float, hit: bool) -> None:
        """Aggregate one hot call: count, total seconds, and how many hit."""
        key = (name, self._parent(self._stack()))
        with self._lock:
            rec = self.agg.setdefault(key, [0, 0.0, 0])
            rec[0] += 1
            rec[1] += seconds
            rec[2] += hit

    def dump(self, path: str) -> None:
        agg = [
            {"name": name, "parent": parent, "count": c, "total": t, "hits": h, "run": self.run_id}
            for (name, parent), (c, t, h) in self.agg.items()
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "agg": agg}, f)


class TimedRecords:
    """A corpus reader whose record reads are aggregated as `corpus.read`
    (hits = records); other attributes pass through to the reader."""

    def __init__(self, reader, tracer: Tracer):
        self._reader = reader
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def __iter__(self):
        it = iter(self._reader)
        while True:
            start = perf_counter()
            try:
                rec = next(it)
            except StopIteration:
                self._tracer.add("corpus.read", perf_counter() - start, False)
                return
            self._tracer.add("corpus.read", perf_counter() - start, True)
            yield rec


def _wrap(tracer: Tracer, owner, attr: str, name: str, attrs=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs(*args, **kwargs) if attrs else None)

    setattr(owner, attr, traced)


def _wrap_classmethod(tracer: Tracer, cls, attr: str, name: str) -> None:
    bound = getattr(cls, attr)

    def traced(_cls, *args, **kwargs):
        return tracer.call(name, bound, args, kwargs)

    setattr(cls, attr, classmethod(traced))


def _wrap_hot(tracer: Tracer, owner, attr: str, name: str, is_hit=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        tracer.add(name, perf_counter() - start, bool(is_hit(out)) if is_hit else False)
        return out

    setattr(owner, attr, traced)


def _wrap_reader(tracer: Tracer, owner, attr: str) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return TimedRecords(fn(*args, **kwargs), tracer)

    setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap the public functions `tally.cli` calls, where it looks them up."""
    from tally import analytics, cli, judge, lexicon, matcher, reallinear, realprompt

    _wrap_reader(tracer, cli, "open_corpus")
    _wrap_reader(tracer, matcher, "iter_shard")
    _wrap(tracer, cli, "shard_corpus", "corpus.shard")

    for fn in ("load_synonym_sets", "save_synonym_sets"):
        _wrap(tracer, lexicon, fn, f"lexicon.{fn}")
    _wrap_classmethod(tracer, lexicon.ConceptSet, "from_jsonl", "lexicon.load_concepts")
    _wrap_classmethod(tracer, lexicon.FixtureSynonymProvider, "from_jsonl", "lexicon.load_fixture")
    _wrap_hot(tracer, lexicon, "expand_synonyms", "lexicon.expand_synonyms")

    for fn in ("compile", "scan", "scan_shards", "save_hits", "load_hits"):
        _wrap(tracer, matcher, fn, f"matcher.{fn}")
    _wrap_hot(tracer, matcher.PatternAutomaton, "find", "matcher.find", is_hit=bool)

    for fn in ("judge_hits", "filtered_frequency", "filtered_synonym_counts",
               "save_verdicts", "load_verdicts"):
        _wrap(tracer, judge, fn, f"judge.{fn}")
    _wrap(tracer, judge.VerdictCache, "__init__", "judge.cache_load")
    _wrap_hot(tracer, judge.VerdictCache, "get", "judge.cache_get", is_hit=lambda v: v is not None)
    _wrap_hot(tracer, judge.VerdictCache, "put", "judge.cache_put")
    _wrap_hot(tracer, judge.RuleStubJudge, "judge", "judge.provider")
    _wrap_classmethod(tracer, judge.RuleStubJudge, "from_jsonl", "judge.load_blocklist")

    def file_attrs(path, *args, **kwargs):
        return {"file": os.path.basename(path), "bytes": os.path.getsize(path)}

    _wrap(tracer, cli, "load_embeddings", "embeddings.load", attrs=file_attrs)

    for fn in ("build_zeroshot", "chosen_synonym_report", "classify_batch"):
        _wrap(tracer, realprompt, fn, f"realprompt.{fn}")
    _wrap_classmethod(tracer, realprompt.ClassifierWeights, "load", "realprompt.weights_load")
    _wrap(tracer, realprompt.ClassifierWeights, "save", "realprompt.weights_save")

    for fn in ("concept_queries", "retrieve_balanced", "build_text_examples",
               "train_crossmodal", "ensemble", "evaluate"):
        _wrap(tracer, reallinear, fn, f"reallinear.{fn}")
    _wrap_hot(tracer, reallinear, "softmax_xent_loss_and_grad", "reallinear.step")
    _wrap_classmethod(tracer, reallinear.RetrievalSet, "from_jsonl", "reallinear.retrieval_load")
    _wrap(tracer, reallinear.RetrievalSet, "to_jsonl", "reallinear.retrieval_save")

    for fn in ("log_bins", "head_tail_split", "correlate"):
        _wrap(tracer, analytics, fn, f"analytics.{fn}")
    for cls, tag in ((analytics.FrequencyTable, "freq"), (analytics.AccuracyTable, "acc")):
        _wrap(tracer, cls, "to_csv", f"analytics.{tag}_save")
        _wrap_classmethod(tracer, cls, "from_csv", f"analytics.{tag}_load")


def self_times(trace: dict) -> dict[str, float]:
    """Self time per layer for one stage's spans.

    A span's self time is its duration minus the time its children cover.
    Children that ran concurrently on worker threads can add up to more
    than their parent's duration; they then share the parent's duration in
    proportion to their totals, so the layers always partition the wall
    time of the root spans.
    """
    kids: dict[int | None, list[tuple[str, float, int | None]]] = {}
    for s in trace["spans"]:
        kids.setdefault(s["parent"], []).append((s["name"], s["end"] - s["start"], s["id"]))
    for a in trace["agg"]:
        kids.setdefault(a["parent"], []).append((a["name"], a["total"], None))
    out: dict[str, float] = {}

    def attribute(name: str, seconds: float, sid: int | None, scale: float) -> None:
        own = seconds * scale
        children = kids.get(sid, []) if sid is not None else []
        covered = sum(d for _, d, _ in children) * scale
        inner = scale * (min(1.0, own / covered) if covered > 0 else 1.0)
        for child_name, d, child_id in children:
            attribute(child_name, d, child_id, inner)
        lay = name.split(".", 1)[0]
        out[lay] = out.get(lay, 0.0) + own - min(own, covered)

    for name, d, sid in kids.get(None, []):
        attribute(name, d, sid, 1.0)
    return out


def main(argv: list[str]) -> int:
    spans_out, run_id, stage, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_OUT RUN_ID STAGE -- <tally args>")
    tracer = Tracer(run_id)
    start = perf_counter()
    import tally.cli

    tracer.record("startup.import", start, perf_counter())
    install(tracer)
    try:
        return tracer.call(f"cli.{stage}", tally.cli.main, (cli_args,), {})
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
