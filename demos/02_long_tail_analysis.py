"""Concept frequency is long-tailed — and accuracy follows it.

Web corpora mention a few concepts millions of times and most concepts
rarely. This demo fabricates a Zipf-shaped frequency table, gives each
concept an accuracy that (noisily) tracks log-frequency, and then runs
the analysis toolkit over it: log-scale binning, a head/tail split at
the 20% least-frequent mark, and frequency-accuracy correlations.
"""

import numpy as np

from tally.analytics import (
    AccuracyTable,
    FrequencyTable,
    correlate,
    head_tail_split,
    log_bins,
)

N_CONCEPTS = 400


def main() -> None:
    rng = np.random.default_rng(0)

    # Zipf-ish counts: concept ranked r appears ~ r^-1.2 as often as rank 1.
    counts = np.maximum(1, np.round(3000.0 * np.arange(1, N_CONCEPTS + 1) ** -1.2)).astype(int)
    # Accuracy rises with log-frequency, plus measurement noise.
    acc = 1.0 / (1.0 + np.exp(-(0.8 * np.log1p(counts) - 3.5)))
    acc = np.clip(acc + rng.normal(0.0, 0.03, N_CONCEPTS), 0.0, 1.0)

    freq = FrequencyTable({i: (int(counts[i]), int(counts[i])) for i in range(N_CONCEPTS)})
    table = AccuracyTable({i: float(acc[i]) for i in range(N_CONCEPTS)})

    print(f"{N_CONCEPTS} concepts, counts from {counts.min()} to {counts.max()}\n")

    print("accuracy by frequency decade:")
    print("  bin   count range      concepts  mean accuracy")
    for b in log_bins(freq, table, base=10.0):
        lo = int(b.lower_bound)
        hi = int(10 * max(lo, 1)) - 1
        print(f"  {b.bin:3d}   [{lo:5d}, {hi:5d}]   {b.count:8d}  {b.mean_accuracy:12.3f}")

    head, tail = head_tail_split(freq, tail_fraction=0.2)
    head_acc = table.mean(head)
    tail_acc = table.mean(tail)
    print(f"\nhead: {len(head)} concepts, mean accuracy {head_acc:.3f}")
    print(f"tail: {len(tail)} concepts, mean accuracy {tail_acc:.3f}")
    print(f"the {len(tail)} rarest concepts lag by {head_acc - tail_acc:.3f}")

    print(f"\npearson(log1p(count), accuracy)  = {correlate(freq, table, 'pearson'):.3f}")
    print(f"spearman(count, accuracy)        = {correlate(freq, table, 'spearman'):.3f}")


if __name__ == "__main__":
    main()
