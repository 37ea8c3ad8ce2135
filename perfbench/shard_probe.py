"""Time `shard_corpus` and `scan_shards` at one and two threads.

    PYTHONPATH=src python3 perfbench/shard_probe.py CORPUS PREFIX_CORPUS SYNSETS

Shards the whole corpus into two shards once (the cost `tally scan
--threads 2` pays before scanning), then scans the two shards of the
prefix corpus at threads=1 and threads=2, twice each in alternating order,
and prints one JSON line: the shard time, the median scan time per thread
count, and whether both thread counts gave identical hits.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from tally import lexicon, matcher
from tally.corpus import shard_corpus


def main(corpus: str, prefix: str, synsets: str) -> None:
    start = perf_counter()
    shard_corpus(corpus, 2)
    shard_s = perf_counter() - start

    automaton = matcher.compile(lexicon.load_synonym_sets(synsets))
    shards = shard_corpus(prefix, 2)
    times: dict[int, list[float]] = {1: [], 2: []}
    hits = {}
    for threads in (1, 2, 2, 1):
        start = perf_counter()
        result = matcher.scan_shards(shards, automaton, threads=threads)
        times[threads].append(perf_counter() - start)
        hits[threads] = result.hits
    print(json.dumps({
        "shard_s": shard_s,
        "scan_1_s": statistics.median(times[1]),
        "scan_2_s": statistics.median(times[2]),
        "records": sum(s.record_count for s in shards),
        "identical": hits[1] == hits[2],
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
