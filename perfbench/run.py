"""The tally benchmark: the full CLI pipeline on a seeded long-tail world.

    python3 perfbench/run.py --workload sparse-web --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout: the program under test is the
`tally` package in `src/`, run as `python3 -m tally.cli`, one subprocess
per stage:

    synonyms, scan, judge, freq, then judge and freq again against the
    now-warm verdict cache (the rerun), then prompt, retrieve, train,
    eval (zero-shot), eval (ensemble), analyze, report, then the rerun
    once more

Each run writes a fresh world from `--seed` (perfbench/world.py), times
`tally synonyms` twice on its own as set-up samples, then makes passes
through the stages until the next stage would end after `--seconds` from
the start. The first pass always completes; the last one may stop part
way, after the stages that fit. Each timing metric is a sum of per-stage
medians over the run, so it covers the whole run rather than one pass.
Every stage and output check counts as an operation; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and the metrics. With `--trace 0` those are the end-to-end
metrics; with `--trace 1` the run first makes one traced pass
(perfbench/tracing.py) and reports the per-layer metrics instead. Lines
above the last one print every metric with its unit, the sample count and
the machine context. All files go under `.perfbench/` in the working
directory. Exit code 0 means the run finished, whether or not a check
failed; 2 means it could not run at all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import self_times  # noqa: E402
from world import Shape, make_world  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
SETUP_REPS = 2  # extra `tally synonyms` runs per benchmark run, for setup_s
STAGE_TIMEOUT_S = 150.0
PROBE_RECORDS = 10_000  # prefix of the corpus the shard-speedup probe scans
TRAIN_LR = 1.0  # `tally train --lr` in every workload
# numpy's BLAS runs on one thread in every stage. At its default of one
# thread per CPU on a 2-vCPU VM, the first `tally train` of a run took ~40%
# longer than the next ones, `tally eval` was slower than on one thread, and
# every import paid ~0.15 s to start the BLAS thread pool.
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Workload:
    shape: Shape
    epochs: int
    k: int


WORKLOADS = {
    # corpus read and the matcher prefilter do the work. Every scan runs on
    # one thread: at two, this one was slower and its wall time swung by a
    # third with the host's load; the shard probe measures threads instead.
    "sparse-web": Workload(
        Shape(captions=70_000, concepts=1000, head=150, floor=3, dim=64,
              tests_per_class=20, caption_sigma=(0.4, 1.0), prompt_sigma=(0.5, 4.0)),
        epochs=5, k=3,
    ),
    # wide embeddings: embedding load, retrieval, training and eval dominate
    "repair-512": Workload(
        Shape(captions=20_000, concepts=150, head=1000, floor=40, dim=512,
              tests_per_class=40, concept_zipf=1.0, caption_sigma=(1.5, 3.0),
              prompt_sigma=(1.0, 15.0)),
        epochs=8, k=100,
    ),
}

# One pass runs these steps in this order, one process each. A step's stage
# is its name up to any ".". The warm rerun of judge and freq is made twice:
# right after the cold ones, so a pass that the run's end cuts short has
# still sampled it, and again at the end of the pass.
PASS = ["synonyms", "scan", "judge", "freq", "rerun_judge", "rerun_freq", "prompt",
        "retrieve", "train", "eval_zeroshot", "eval_ensemble", "analyze", "report",
        "rerun_judge.2", "rerun_freq.2"]
STAGES = [step for step in PASS if "." not in step]
RERUN = ["rerun_judge", "rerun_freq"]
PIPELINE = [label for label in STAGES if label not in RERUN]
COUNT = ["scan", "judge", "freq"]
REPAIR = ["prompt", "retrieve", "train", "eval_zeroshot", "eval_ensemble"]
EMBEDDING_ROLES = ["prompts", "captions", "synonyms", "images"]
LAYERS = ["cli", "corpus", "lexicon", "matcher", "judge", "embeddings",
          "realprompt", "reallinear", "analytics"]

END_TO_END = {  # name -> unit
    "setup_s": "s", "pipeline_s": "s", "count_s": "s", "repair_s": "s",
    "rerun_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB",
    "mpca_ensemble": "ratio", "tail_gain": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    units.update({f"cli.{stage}_s": "s" for stage in STAGES})
    units.update({
        "corpus.read_s": "s", "corpus.records_per_s": "1/s", "corpus.shard_s": "s",
        "lexicon.load_synonym_sets_s": "s",
        "matcher.compile_s": "s", "matcher.find_s": "s", "matcher.scan_s": "s",
        "matcher.hit_caption_ratio": "ratio", "matcher.shard_speedup": "ratio",
        "matcher.save_hits_s": "s", "matcher.load_hits_s": "s",
        "judge.cold_s": "s", "judge.warm_s": "s", "judge.cache_load_s": "s",
        "judge.provider_calls": "count", "judge.provider_call_ms": "ms",
        "judge.cache_hit_ratio": "ratio", "judge.relevant_ratio": "ratio",
        "judge.undecided": "count", "judge.filtered_frequency_s": "s",
    })
    for role in EMBEDDING_ROLES:
        units[f"embeddings.{role}.load_s"] = "s"
        units[f"embeddings.{role}.load_mb_per_s"] = "MB/s"
    units.update({
        "realprompt.build_zeroshot_s": "s", "realprompt.classify_batch_s": "s",
        "reallinear.retrieve_s": "s", "reallinear.shortfall_concepts": "count",
        "reallinear.train_epoch_s": "s", "reallinear.steps": "count",
        "reallinear.evaluate_s": "s", "analytics.analyze_s": "s",
    })
    units.update({f"{lay}.self_s": "s" for lay in LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


# ------------------------------------------------------------------ running


@dataclass
class Stage:
    label: str
    wall: float
    code: int
    rss_mb: float
    summary: dict | None
    stderr: str


class Ledger:
    """Operations attempted and failed: stage runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def run_stage(label: str, cmd: list[str], log_dir: Path, env: dict) -> Stage:
    """Run one stage process; rusage comes from its own wait4 record."""
    out_path, err_path = log_dir / f"{label}.out", log_dir / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # a signal or a bug here: do not leave the stage running
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return Stage(label, wall, proc.returncode, usage.ru_maxrss / 1024.0, summary,
                 err_path.read_text(encoding="utf-8")[-500:])


@dataclass
class Context:
    name: str
    workload: Workload
    seed: int
    world: Path
    truth: dict
    env: dict
    ledger: Ledger = field(default_factory=Ledger)


def stage_of(step: str) -> str:
    return step.partition(".")[0]


def rerun_dir(step: str) -> str:
    """Where a rerun step writes: `rerun`, or `rerun.2` for `rerun_*.2`."""
    return "rerun" + step[len(stage_of(step)):]


def stage_args(ctx: Context, run: Path, rerun: str = "rerun") -> dict[str, list[str]]:
    w, wl = ctx.world, ctx.workload
    judge = ["--blocklist", str(w / "blocklist.jsonl")]
    cache = ["--cache-dir", str(run / "cache")]
    concepts = ["--concepts", str(w / "concepts.jsonl")]
    hits = ["--hits", str(run / "hits.jsonl")]
    syn = ["--synonyms", str(run / "synsets.jsonl")]
    images = ["--embeddings", f"images={w / 'images.bin'}"]
    judge_base = ["judge", *concepts, "--corpus", str(w / "corpus.jsonl"), *hits, *judge, *cache]
    return {
        "synonyms": ["synonyms", *concepts, "--fixture", str(w / "fixture.jsonl"), *cache,
                     "--out", str(run / "synsets.jsonl")],
        "scan": ["scan", "--corpus", str(w / "corpus.jsonl"), *syn, *concepts,
                 "--out", str(run / "hits.jsonl"), "--freq-out", str(run / "rawfreq.csv")],
        "judge": [*judge_base, "--out", str(run / "verdicts.jsonl")],
        "freq": ["freq", *hits, "--verdicts", str(run / "verdicts.jsonl"), *concepts,
                 "--out", str(run / "run" / "freq.csv"), "--syn-out", str(run / "syncounts.csv")],
        "prompt": ["prompt", *syn, "--syn-counts", str(run / "syncounts.csv"),
                   "--templates", "photo_of", "--embeddings", f"prompts={w / 'prompts.bin'}",
                   "--out", str(run / "wzs.bin"), "--report", str(run / "run" / "chosen.csv")],
        "retrieve": ["retrieve", *hits, "--verdicts", str(run / "verdicts.jsonl"), *syn,
                     "--embeddings", f"captions={w / 'captions.bin'}",
                     "--embeddings", f"synonyms={w / 'synonyms.bin'}",
                     "--k", str(wl.k), "--out", str(run / "retrieval.jsonl")],
        "train": ["train", "--retrieval", str(run / "retrieval.jsonl"),
                  "--init", str(run / "wzs.bin"), *syn, *images,
                  "--embeddings", f"synonyms={w / 'synonyms.bin'}",
                  "--lr", str(TRAIN_LR), "--epochs", str(wl.epochs), "--seed", str(ctx.seed),
                  "--out", str(run / "w.bin"), "--ensemble-out", str(run / "wbar.bin")],
        "eval_zeroshot": ["eval", "--weights", str(run / "wzs.bin"), *images,
                          "--labels", str(w / "labels.csv"), "--model-id", "zeroshot",
                          "--out", str(run / "run" / "acc_a_zeroshot.csv")],
        "eval_ensemble": ["eval", "--weights", str(run / "wbar.bin"), *images,
                          "--labels", str(w / "labels.csv"), "--model-id", "ensemble",
                          "--out", str(run / "run" / "acc_b_ensemble.csv")],
        "analyze": ["analyze", "--freq", str(run / "run" / "freq.csv"),
                    "--acc", str(run / "run" / "acc_a_zeroshot.csv"), "--out-dir", str(run / "run")],
        "report": ["report", "--run-dir", str(run / "run"), "--out", str(run / "report.md")],
        "rerun_judge": [*judge_base, "--out", str(run / rerun / "verdicts.jsonl")],
        "rerun_freq": ["freq", *hits, "--verdicts", str(run / rerun / "verdicts.jsonl"),
                       *concepts, "--out", str(run / rerun / "freq.csv"),
                       "--syn-out", str(run / rerun / "syncounts.csv")],
    }


@dataclass
class Pass:
    """The stages one pass ran, by step, in PASS order. A pass that the
    run's end cut short holds the steps before the cut; one with a failed
    step holds those before the failure."""

    run_dir: Path
    stages: dict[str, Stage] = field(default_factory=dict)
    failed: bool = False

    @property
    def complete(self) -> bool:
        return len(self.stages) == len(PASS)


def run_pass(ctx: Context, run: Path, traced: bool, fits: Callable[[str], bool]) -> Pass:
    """Run the steps in order while `fits(step)` says the next one ends in
    time; stop at the first failure (which is counted)."""
    for sub in ("run", "logs", "spans", *{rerun_dir(step) for step in PASS}):
        (run / sub).mkdir(parents=True, exist_ok=True)
    p = Pass(run)
    for step in PASS:
        if not fits(step):
            break
        argv = stage_args(ctx, run, rerun_dir(step))[stage_of(step)]
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(run / "spans" / f"{step}.json"),
                   f"{ctx.name}/{ctx.seed}/{step}", stage_of(step), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "tally.cli", *argv]
        stage = run_stage(step, cmd, run / "logs", ctx.env)
        if not ctx.ledger.check(f"stage {step} exits 0", stage.code == 0,
                                f"exit {stage.code}: {stage.stderr.strip()}"):
            p.failed = True
            break
        p.stages[step] = stage
    return p


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def accuracy(p: Pass) -> dict[str, float]:
    run = p.run_dir / "run"
    tail = {int(r["concept_id"]) for r in read_csv(run / "split.csv") if r["split"] == "tail"}

    def tail_mean(name: str) -> float:
        rows = read_csv(run / name)
        return statistics.fmean(float(r["accuracy"]) for r in rows if int(r["concept_id"]) in tail)

    return {
        "mpca_zeroshot": p.stages["eval_zeroshot"].summary["mean_per_class_accuracy"],
        "mpca_ensemble": p.stages["eval_ensemble"].summary["mean_per_class_accuracy"],
        "tail_gain": tail_mean("acc_b_ensemble.csv") - tail_mean("acc_a_zeroshot.csv"),
    }


def check_pass(ctx: Context, p: Pass) -> None:
    """The output checks of the stages the pass ran; each one is an
    operation in the error rate."""
    led, truth, ran = ctx.ledger, ctx.truth, p.stages
    expected = {cid: tuple(rc) for cid, rc in enumerate(truth["freq"])}
    if "scan" in ran:
        raw = {int(r["concept_id"]): int(r["raw"]) for r in read_csv(p.run_dir / "rawfreq.csv")}
        led.check("scan raw counts equal the planted raw counts",
                  raw == {cid: rc[0] for cid, rc in expected.items()})
        led.check("scan read every record", ran["scan"].summary.get("records") == truth["records"])
    if "judge" in ran:
        summary = ran["judge"].summary
        led.check("judge decided every planted pair",
                  summary["pairs"] == truth["pairs"] and summary["undecided"] == 0,
                  f"{summary['pairs']} pairs, {summary['undecided']} undecided, "
                  f"{truth['pairs']} planted")
    if "freq" in ran:
        got = {int(r["concept_id"]): (int(r["raw"]), int(r["filtered"]))
               for r in read_csv(p.run_dir / "run" / "freq.csv")}
        wrong = sorted(cid for cid in expected if got.get(cid) != expected[cid])
        led.check("freq.csv equals the planted (raw, filtered) counts",
                  not wrong and len(got) == len(expected),
                  f"{len(wrong)} concepts differ, first {wrong[:3]}")
    for step in ran:
        if stage_of(step) != "rerun_freq":
            continue
        for first, again in (("verdicts.jsonl", "verdicts.jsonl"),
                             ("run/freq.csv", "freq.csv"),
                             ("syncounts.csv", "syncounts.csv")):
            rerun = rerun_dir(step)
            led.check(f"warm {rerun}/{again} is byte-identical",
                      sha256(p.run_dir / first) == sha256(p.run_dir / rerun / again))
    if "analyze" in ran:
        acc = accuracy(p)
        led.check("ensemble beats zero-shot", acc["mpca_ensemble"] > acc["mpca_zeroshot"],
                  f"{acc['mpca_ensemble']:.4f} vs {acc['mpca_zeroshot']:.4f}")
        led.check("tail gain is not negative", acc["tail_gain"] >= 0, f"{acc['tail_gain']:.4f}")


# ------------------------------------------------------------------ metrics


def describe(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it (else the
    maximum), and the sample count."""
    n = len(values)
    if n >= 20:
        pct = math.floor(100 * (1 - 10 / n))
        tail = f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    else:
        tail = f"max {max(values):.6g}"
    return f"median {statistics.median(values):.6g}, {tail}, n={n}"


def stage_samples(passes: list[Pass], value: Callable[[Stage], float]) -> dict[str, list[float]]:
    """Each stage's samples over the run's passes and their steps."""
    samples: dict[str, list[float]] = {label: [] for label in STAGES}
    for p in passes:
        for step, stage in p.stages.items():
            samples[stage_of(step)].append(value(stage))
    return samples


def end_to_end(setup: list[float], passes: list[Pass], truth: dict) -> dict[str, tuple[float, str]]:
    """Each metric's value and a note of how it was sampled. A timing over
    several stages is the sum of each stage's median wall time."""
    walls = stage_samples(passes, lambda s: s.wall)
    medians = {label: statistics.median(v) for label, v in walls.items()}

    def stages(labels: list[str]) -> tuple[float, str]:
        counts = sorted({len(walls[label]) for label in labels})
        top = sum(max(walls[label]) for label in labels)
        return (sum(medians[label] for label in labels),
                f"sum of {len(labels)} stage medians, sum of maxima {top:.6g}, "
                f"n={'-'.join(map(str, counts))} per stage")

    m = {"setup_s": (statistics.median(setup), describe(setup))}
    m["pipeline_s"] = stages(PIPELINE)
    m["count_s"] = stages(COUNT)
    m["repair_s"] = stages(REPAIR)
    m["rerun_s"] = stages(RERUN)
    m["records_per_s"] = (truth["records"] / m["pipeline_s"][0], "records / pipeline_s")
    rss = {label: statistics.median(v) for label, v in stage_samples(passes, lambda s: s.rss_mb).items()}
    m["peak_rss_mb"] = (max(rss.values()), "largest per-stage median")
    acc = [accuracy(p) for p in passes if p.complete]
    for name in ("mpca_ensemble", "tail_gain"):
        values = [a[name] for a in acc]
        m[name] = (statistics.median(values), describe(values))
    return m


def load_traces(p: Pass) -> dict[str, dict]:
    return {step: json.loads((p.run_dir / "spans" / f"{step}.json").read_text())
            for step in PASS}


def span_total(trace: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in trace["spans"] if s["name"] == name)


def agg_total(trace: dict, name: str) -> tuple[int, float, int]:
    rows = [a for a in trace["agg"] if a["name"] == name]
    return (sum(a["count"] for a in rows), sum(a["total"] for a in rows),
            sum(a["hits"] for a in rows))


def per_layer(ctx: Context, p: Pass, pipeline_s: float, probe: dict) -> dict[str, float]:
    """The per-layer metrics of the traced pass `p`; `pipeline_s` is the
    untraced one, for the tracing overhead."""
    tr = load_traces(p)
    every = list(tr.values())
    m: dict[str, float] = {}
    m["cli.import_s"] = statistics.median(span_total(t, "startup.import") for t in every)
    for label in STAGES:
        m[f"cli.{label}_s"] = p.stages[label].wall

    _, read_s, records = map(sum, zip(*(agg_total(t, "corpus.read") for t in every)))
    m["corpus.read_s"] = read_s
    m["corpus.records_per_s"] = records / read_s
    m["corpus.shard_s"] = probe["shard_s"]
    m["lexicon.load_synonym_sets_s"] = sum(span_total(t, "lexicon.load_synonym_sets") for t in every)

    scan = tr["scan"]
    m["matcher.compile_s"] = span_total(scan, "matcher.compile")
    calls, find_s, found = agg_total(scan, "matcher.find")
    m["matcher.find_s"] = find_s
    m["matcher.scan_s"] = span_total(scan, "matcher.scan_shards") or span_total(scan, "matcher.scan")
    m["matcher.hit_caption_ratio"] = found / calls
    m["matcher.shard_speedup"] = probe["scan_1_s"] / probe["scan_2_s"]
    m["matcher.save_hits_s"] = span_total(scan, "matcher.save_hits")
    m["matcher.load_hits_s"] = sum(span_total(t, "matcher.load_hits") for t in every)

    cold, warm = tr["judge"], tr["rerun_judge"]
    m["judge.cold_s"] = span_total(cold, "judge.judge_hits")
    m["judge.warm_s"] = span_total(warm, "judge.judge_hits")
    m["judge.cache_load_s"] = span_total(warm, "judge.cache_load")
    calls, provider_s, _ = agg_total(cold, "judge.provider")
    m["judge.provider_calls"] = calls
    m["judge.provider_call_ms"] = 1000.0 * provider_s / calls
    lookups, _, cache_hits = agg_total(warm, "judge.cache_get")
    m["judge.cache_hit_ratio"] = cache_hits / lookups
    summary = p.stages["judge"].summary
    m["judge.relevant_ratio"] = summary["relevant"] / summary["pairs"]
    m["judge.undecided"] = summary["undecided"]
    m["judge.filtered_frequency_s"] = span_total(tr["freq"], "judge.filtered_frequency")

    for role in EMBEDDING_ROLES:
        loads = [s for t in every for s in t["spans"]
                 if s["name"] == "embeddings.load" and s["attrs"]["file"] == f"{role}.bin"]
        seconds = sum(s["end"] - s["start"] for s in loads)
        m[f"embeddings.{role}.load_s"] = seconds
        m[f"embeddings.{role}.load_mb_per_s"] = sum(s["attrs"]["bytes"] for s in loads) / 1e6 / seconds

    m["realprompt.build_zeroshot_s"] = span_total(tr["prompt"], "realprompt.build_zeroshot")
    m["realprompt.classify_batch_s"] = sum(span_total(t, "realprompt.classify_batch") for t in every)
    m["reallinear.retrieve_s"] = span_total(tr["retrieve"], "reallinear.retrieve_balanced")
    m["reallinear.shortfall_concepts"] = p.stages["retrieve"].summary["shortfall_concepts"]
    m["reallinear.train_epoch_s"] = (
        span_total(tr["train"], "reallinear.train_crossmodal") / ctx.workload.epochs)
    m["reallinear.steps"] = agg_total(tr["train"], "reallinear.step")[0]
    m["reallinear.evaluate_s"] = sum(span_total(t, "reallinear.evaluate") for t in every)
    m["analytics.analyze_s"] = span_total(tr["analyze"], "cli.analyze")

    selfs = {lay: 0.0 for lay in LAYERS}
    for t in every:
        for lay, seconds in self_times(t).items():
            if lay in selfs:  # package import is cli.import_s, not a layer's self time
                selfs[lay] += seconds
    for lay in LAYERS:
        m[f"{lay}.self_s"] = selfs[lay]
    m["trace.overhead_ratio"] = sum(p.stages[label].wall for label in PIPELINE) / pipeline_s
    return m


def machine_context() -> dict:
    digest = hashlib.sha256()
    for path in sorted(Path("src/tally").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "unavailable (not a git checkout)"
    if Path(".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = out.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/tally/cli.py").is_file():
        print("perfbench: run from the root of a tally checkout (src/tally is missing)",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    t0 = perf_counter()
    truth = make_world(work / "world", wl.shape, args.seed)
    print(f"world: {truth['records']} captions, {truth['concepts']} concepts, "
          f"{truth['hit_captions']} hit captions, {truth['pairs']} pairs, "
          f"{truth['near_miss_captions']} near misses ({perf_counter() - t0:.1f}s)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    ctx = Context(args.workload, wl, args.seed, work / "world", truth, env)
    setup, passes, traced, probe = measure(ctx, work, args.seconds, bool(args.trace))

    led = ctx.ledger
    for p in passes:
        print("stage wall s: " + ", ".join(f"{s.label} {s.wall:.3f}" for s in p.stages.values()))
    metrics: dict[str, dict] = {}
    e2e: dict[str, tuple[float, str]] = {}
    if passes and passes[0].complete:
        e2e = end_to_end(setup, passes, truth)
        for name, (value, how) in e2e.items():
            print(f"{name}: {value:.6g} {END_TO_END[name]} ({how})")
            if not args.trace:
                metrics[name] = {"value": value, "unit": END_TO_END[name]}
    if args.trace and traced is not None and traced.complete and probe is not None and e2e:
        units = per_layer_units()
        try:
            layers = per_layer(ctx, traced, e2e["pipeline_s"][0], probe)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OSError) as e:
            # a renamed or moved function leaves its span missing
            led.check("per-layer metrics computed", False, f"{type(e).__name__}: {e}")
            layers = {}
        for name, value in layers.items():
            print(f"{name}: {value:.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    for failure in led.failures:
        print(f"FAILED {failure}")
    print(f"operations: {led.attempted} attempted, {len(led.failures)} failed, "
          f"error_rate {len(led.failures) / max(1, led.attempted):.6g}")
    print("context: " + json.dumps(machine_context(), sort_keys=True))
    print(json.dumps({"correct": not led.failures and bool(metrics),
                      "attempted": led.attempted,
                      "failed": len(led.failures),
                      "metrics": metrics}))
    return 0


def measure(ctx: Context, work: Path, seconds: float, trace: bool):
    """Set-up samples, then (traced) one traced pass, then untraced passes
    until the next stage would end after `seconds` from the start, judged
    by that stage's last wall time (the first untraced pass always
    completes), then (traced) the shard probe."""
    deadline = perf_counter() + seconds
    setup = []
    for rep in range(SETUP_REPS):
        run = work / f"setup{rep}"
        run.mkdir(parents=True)
        cmd = [sys.executable, "-m", "tally.cli", *stage_args(ctx, run)["synonyms"]]
        stage = run_stage("synonyms", cmd, run, ctx.env)
        if ctx.ledger.check("set-up synonyms exits 0", stage.code == 0, stage.stderr):
            setup.append(stage.wall)

    traced = None
    if trace:
        traced = run_pass(ctx, work / "traced", traced=True, fits=lambda label: True)
        check_pass(ctx, traced)

    passes: list[Pass] = []
    last: dict[str, float] = {}

    def fits(step: str) -> bool:
        return not passes or perf_counter() + last[step] <= deadline

    while True:
        p = run_pass(ctx, work / f"pass{len(passes)}", traced=False, fits=fits)
        if p.stages:
            check_pass(ctx, p)
            passes.append(p)
            last.update((step, stage.wall) for step, stage in p.stages.items())
            setup.append(p.stages["synonyms"].wall)
        if p.failed or not p.complete:
            break

    probe = None
    if trace and passes:
        prefix = work / "world" / "prefix.jsonl"
        with open(ctx.world / "corpus.jsonl", encoding="utf-8") as src:
            prefix.write_text("".join(line for _, line in zip(range(PROBE_RECORDS), src)))
        cmd = [sys.executable, str(HERE / "shard_probe.py"), str(ctx.world / "corpus.jsonl"),
               str(prefix), str(passes[0].run_dir / "synsets.jsonl")]
        stage = run_stage("shard_probe", cmd, work, ctx.env)
        if ctx.ledger.check("shard probe exits 0", stage.code == 0, stage.stderr):
            probe = stage.summary
            ctx.ledger.check("scan_shards gives identical hits at 1 and 2 threads",
                             probe["identical"])
    return setup, passes, traced, probe


if __name__ == "__main__":
    # a SIGTERM unwinds through run_stage, which kills and reaps the stage
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
