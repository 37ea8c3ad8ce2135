"""Frequency tables, accuracy tables, and long-tail statistics.

The analysis vocabulary: sort concepts by how often they occur, bin them on
a log scale, split them into head and tail, and correlate log-frequency
with per-class accuracy. All functions are deterministic, with ties broken
by ascending concept_id so repeated runs produce identical artifacts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import InputError, UndefinedCorrelationError
from .io import read_csv, write_csv

ZERO_BIN = -1  # dedicated bin index for zero-count concepts


@dataclass
class FrequencyTable:
    """Per-concept caption counts: raw (any hit) and filtered (judged relevant)."""

    counts: dict[int, tuple[int, int]]  # concept_id -> (raw, filtered)

    def __post_init__(self):
        for cid, (raw, filtered) in self.counts.items():
            if raw < 0 or filtered < 0:
                raise InputError(f"concept {cid}: negative count")
            if filtered > raw:
                raise InputError(
                    f"concept {cid}: filtered count {filtered} exceeds raw count {raw}"
                )

    def raw(self, concept_id: int) -> int:
        return self.counts[concept_id][0]

    def filtered(self, concept_id: int) -> int:
        return self.counts[concept_id][1]

    def to_csv(self, path: str, names: dict[int, str] | None = None) -> None:
        names = names or {}
        write_csv(
            path,
            ["concept_id", "name", "raw", "filtered"],
            ([cid, names.get(cid, ""), *self.counts[cid]] for cid in sorted(self.counts)),
        )

    @classmethod
    def from_csv(cls, path: str) -> "FrequencyTable":
        return cls(_read_concept_csv(
            path, "frequency", ("raw", "filtered"), lambda r: (int(r["raw"]), int(r["filtered"]))
        ))


@dataclass
class AccuracyTable:
    """Per-concept accuracy in [0, 1] for one model."""

    accuracies: dict[int, float]

    def __post_init__(self):
        for cid, acc in self.accuracies.items():
            if not (0.0 <= acc <= 1.0):
                raise InputError(f"concept {cid}: accuracy {acc} outside [0, 1]")

    def mean(self, concept_ids: list[int] | None = None) -> float:
        """Unweighted mean accuracy over every class, or over a subset (e.g. head or tail)."""
        ids = list(self.accuracies) if concept_ids is None else concept_ids
        if not ids:
            raise InputError("empty concept subset")
        missing = [cid for cid in ids if cid not in self.accuracies]
        if missing:
            raise InputError(f"accuracy table missing concepts: {missing[:5]}")
        return sum(self.accuracies[cid] for cid in ids) / len(ids)

    def to_csv(self, path: str) -> None:
        write_csv(
            path,
            ["concept_id", "accuracy"],
            ([cid, repr(self.accuracies[cid])] for cid in sorted(self.accuracies)),
        )

    @classmethod
    def from_csv(cls, path: str) -> "AccuracyTable":
        return cls(_read_concept_csv(
            path, "accuracy", ("accuracy",), lambda r: float(r["accuracy"])
        ))


def _read_concept_csv(path: str, kind: str, columns: tuple[str, ...], value) -> dict:
    """{concept_id: value(row)} in file order. A repeated concept_id would
    replace the earlier row, so it is an error naming path:lineno."""
    out: dict = {}

    def parse(row):
        cid = int(row["concept_id"])
        if cid in out:
            raise ValueError(f"duplicate concept_id {cid}")
        out[cid] = value(row)

    read_csv(path, ("concept_id", *columns), f"{kind} row", parse)
    if not out:
        raise InputError(f"{path}: empty {kind} table")
    return out


def _bin_index(n: int, base: float) -> int:
    """floor(log_base(n)) for n >= 1, computed safely near powers of base."""
    if n <= 0:
        return ZERO_BIN
    k = math.floor(math.log(n, base))
    # Float log can land one off right at bin edges (e.g. log10(1000)); nudge.
    while base ** (k + 1) <= n:
        k += 1
    while base**k > n:
        k -= 1
    return k


@dataclass
class LogBin:
    bin: int  # floor(log_base(count)); ZERO_BIN for zero-count concepts
    lower_bound: float  # smallest count that falls in this bin
    mean_accuracy: float
    count: int  # number of concepts in the bin


def log_bins(freq: FrequencyTable, acc: AccuracyTable, base: float = 10.0) -> list[LogBin]:
    """Bucket concepts by order of magnitude of filtered count; mean accuracy per bin.

    A concept with count n lands in bin floor(log_base(n)); zero-count
    concepts get a dedicated bin below all others. Returned in ascending
    bin order.
    """
    if base <= 1.0:
        raise InputError(f"log base must exceed 1, got {base}")
    _check_same_ids(freq, acc)
    members: dict[int, list[int]] = {}
    for cid in freq.counts:
        b = _bin_index(freq.filtered(cid), base)
        members.setdefault(b, []).append(cid)
    out = []
    for b in sorted(members):
        lower = 0.0 if b == ZERO_BIN else float(base**b)
        out.append(LogBin(b, lower, acc.mean(members[b]), len(members[b])))
    return out


def head_tail_split(freq: FrequencyTable, tail_fraction: float = 0.2) -> tuple[list[int], list[int]]:
    """Split concepts into (head, tail): tail = ceil(fraction * C) least frequent.

    Least frequent by filtered count, ties by ascending concept_id. Both
    returned lists are sorted by concept_id.
    """
    if not (0.0 < tail_fraction < 1.0):
        raise InputError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    ids = sorted(freq.counts, key=lambda cid: (freq.filtered(cid), cid))
    n_tail = math.ceil(tail_fraction * len(ids))
    tail = sorted(ids[:n_tail])
    head = sorted(ids[n_tail:])
    return head, tail


def correlate(freq: FrequencyTable, acc: AccuracyTable, method: str = "pearson") -> float:
    """Correlation between concept frequency and accuracy.

    pearson: on (log(1 + filtered count), accuracy) — counts span orders of
    magnitude, so the raw scale would let the head dominate.
    spearman: rank correlation on the counts directly.
    """
    import numpy as np

    _check_same_ids(freq, acc)
    ids = sorted(freq.counts)
    if len(ids) < 3:
        raise InputError(f"need at least 3 concepts to correlate, got {len(ids)}")
    counts = np.array([freq.filtered(cid) for cid in ids], dtype=np.float64)
    accs = np.array([acc.accuracies[cid] for cid in ids], dtype=np.float64)
    if method not in ("pearson", "spearman"):
        raise InputError(f"unknown correlation method {method!r}")
    if np.ptp(counts) == 0.0 or np.ptp(accs) == 0.0:
        raise UndefinedCorrelationError(f"{method}: an input has zero variance")
    if method == "pearson":
        r = np.dot(_unit_deviations(np.log1p(counts)), _unit_deviations(accs))
        return float(np.clip(r, -1.0, 1.0))  # rounding can land just past ±1
    return float(np.corrcoef(_average_ranks(counts), _average_ranks(accs))[1, 0])


def _unit_deviations(values: np.ndarray) -> np.ndarray:
    """Deviations from the mean, scaled to unit length. They are divided by
    the largest deviation before the norm is taken, so it cannot overflow."""
    import numpy as np

    dev = values - values.mean()
    top = np.max(np.abs(dev))
    return dev / (top * np.linalg.norm(dev / top, axis=-1))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    import numpy as np

    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _check_same_ids(freq: FrequencyTable, acc: AccuracyTable) -> None:
    if set(freq.counts) != set(acc.accuracies):
        only_f = sorted(set(freq.counts) - set(acc.accuracies))[:5]
        only_a = sorted(set(acc.accuracies) - set(freq.counts))[:5]
        raise InputError(
            f"frequency and accuracy tables cover different concepts "
            f"(only in frequency: {only_f}, only in accuracy: {only_a})"
        )


def mean_per_class_accuracy(
    predictions: list[tuple[int, int]],
    concepts: list[int] | None = None,
) -> tuple[float, AccuracyTable]:
    """Unweighted mean of per-class accuracies from (gold, predicted) pairs.

    Every class counts equally regardless of example count — the quantity
    that makes tail collapse visible. When `concepts` is given, every listed
    class must appear as a gold label at least once; a class with zero
    examples is an error naming it (its accuracy would be 0/0).
    """
    if not predictions:
        raise InputError("no predictions to score")
    totals = Counter(gold for gold, _ in predictions)
    correct = Counter(gold for gold, pred in predictions if pred == gold)
    if concepts is not None:
        missing = [cid for cid in concepts if cid not in totals]
        if missing:
            raise InputError(f"classes with zero examples: {sorted(missing)}")
        concept_set = set(concepts)
        extra = [cid for cid in totals if cid not in concept_set]
        if extra:
            raise InputError(f"gold labels outside the concept set: {sorted(extra)}")
    table = AccuracyTable({cid: correct[cid] / totals[cid] for cid in totals})
    return table.mean(), table
