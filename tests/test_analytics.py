"""Frequency/accuracy tables, log binning, head/tail splits, correlations."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import average_ranks, pearson_textbook, spearman_textbook
from tally.analytics import (
    ZERO_BIN,
    AccuracyTable,
    FrequencyTable,
    correlate,
    head_tail_split,
    log_bins,
    mean_per_class_accuracy,
)
from tally.errors import InputError, UndefinedCorrelationError


def freq_of(counts):
    """FrequencyTable from {cid: filtered} with raw = filtered."""
    return FrequencyTable({cid: (n, n) for cid, n in counts.items()})


# ----------------------------------------------------------------- tables


def test_frequency_table_validation():
    with pytest.raises(InputError, match="negative"):
        FrequencyTable({0: (-1, 0)})
    with pytest.raises(InputError, match="exceeds"):
        FrequencyTable({0: (2, 3)})


def test_frequency_csv_round_trip(tmp_path):
    table = FrequencyTable({2: (10, 7), 0: (3, 3), 1: (0, 0)})
    path = tmp_path / "freq.csv"
    table.to_csv(str(path), names={0: "tiger", 1: "cat", 2: "atm"})
    text = path.read_text()
    assert text.splitlines()[0] == "concept_id,name,raw,filtered"
    assert text.splitlines()[1] == "0,tiger,3,3"  # rows sorted by concept id
    back = FrequencyTable.from_csv(str(path))
    assert back.counts == {0: (3, 3), 1: (0, 0), 2: (10, 7)}


def test_frequency_csv_missing_columns(tmp_path):
    path = tmp_path / "freq.csv"
    path.write_text("concept_id,raw\n0,1\n")
    with pytest.raises(InputError, match="columns"):
        FrequencyTable.from_csv(str(path))


def test_accuracy_table_validation_and_round_trip(tmp_path):
    with pytest.raises(InputError, match="outside"):
        AccuracyTable({0: 1.5})
    table = AccuracyTable({0: 0.123456789012345, 1: 1.0})
    path = tmp_path / "acc.csv"
    table.to_csv(str(path))
    back = AccuracyTable.from_csv(str(path))
    assert back.accuracies == table.accuracies  # repr() round-trips floats exactly


def test_repeated_concept_id_is_refused(tmp_path):
    """A second row for a concept must not silently replace the first."""
    freq = tmp_path / "freq.csv"
    freq.write_text("concept_id,name,raw,filtered\n3,tiger,10,9\n3,tiger,1,0\n")
    with pytest.raises(InputError, match=re.escape(f"{freq}:3: ") + ".*duplicate concept_id 3"):
        FrequencyTable.from_csv(str(freq))
    acc = tmp_path / "acc.csv"
    acc.write_text("concept_id,accuracy\n3,0.5\n4,0.2\n3,0.1\n")
    with pytest.raises(InputError, match=re.escape(f"{acc}:4: ") + ".*duplicate concept_id 3"):
        AccuracyTable.from_csv(str(acc))


# ------------------------------------------------------------------- bins


def test_log_bins_decade_edges():
    """Counts 1 and 9 share bin 0; 10 and 99 share bin 1."""
    freq = freq_of({0: 1, 1: 9, 2: 10, 3: 99})
    acc = AccuracyTable({0: 0.1, 1: 0.3, 2: 0.5, 3: 0.7})
    bins = log_bins(freq, acc)
    assert [(b.bin, b.lower_bound, b.count) for b in bins] == [(0, 1.0, 2), (1, 10.0, 2)]
    assert bins[0].mean_accuracy == pytest.approx(0.2)
    assert bins[1].mean_accuracy == pytest.approx(0.6)


def test_log_bins_zero_bin_sorts_first():
    freq = freq_of({0: 0, 1: 5, 2: 0})
    acc = AccuracyTable({0: 0.0, 1: 0.9, 2: 0.4})
    bins = log_bins(freq, acc)
    assert bins[0].bin == ZERO_BIN
    assert bins[0].lower_bound == 0.0
    assert bins[0].count == 2
    assert bins[0].mean_accuracy == pytest.approx(0.2)
    assert bins[1].bin == 0


@pytest.mark.parametrize("base", [2.0, 10.0])
def test_log_bins_exact_powers_of_base(base):
    """Counts exactly at base**k must land in bin k despite float log error."""
    powers = [int(base**k) for k in range(1, 10)]
    freq = freq_of({i: n for i, n in enumerate(powers)})
    acc = AccuracyTable({i: 0.5 for i in range(len(powers))})
    bins = log_bins(freq, acc, base=base)
    assert [b.bin for b in bins] == list(range(1, 10))
    assert all(b.count == 1 for b in bins)


def test_log_bins_one_below_power():
    freq = freq_of({0: 999, 1: 1000, 2: 1001})
    acc = AccuracyTable({0: 0.1, 1: 0.2, 2: 0.3})
    bins = log_bins(freq, acc)
    assert [(b.bin, b.count) for b in bins] == [(2, 1), (3, 2)]


def test_log_bins_base_must_exceed_one():
    freq = freq_of({0: 1, 1: 2})
    acc = AccuracyTable({0: 0.5, 1: 0.5})
    with pytest.raises(InputError, match="base"):
        log_bins(freq, acc, base=1.0)


def test_log_bins_id_mismatch():
    with pytest.raises(InputError, match="different concepts"):
        log_bins(freq_of({0: 1}), AccuracyTable({1: 0.5}))


@given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2.0, 10.0]))
def test_bin_index_property(n, base):
    """base**bin <= n < base**(bin+1) exactly, via integer comparison."""
    from tally.analytics import _bin_index

    b = _bin_index(n, base)
    assert int(base) ** b <= n < int(base) ** (b + 1)


# ------------------------------------------------------------- head/tail


def test_head_tail_split_basic():
    freq = freq_of({i: (i + 1) * 10 for i in range(10)})
    head, tail = head_tail_split(freq, 0.2)
    assert tail == [0, 1]
    assert head == list(range(2, 10))


def test_head_tail_split_ceil():
    freq = freq_of({i: i for i in range(5)})  # ceil(0.2 * 5) = 1
    head, tail = head_tail_split(freq, 0.2)
    assert tail == [0]
    freq = freq_of({i: i for i in range(6)})  # ceil(0.2 * 6) = 2
    head, tail = head_tail_split(freq, 0.2)
    assert tail == [0, 1]


def test_head_tail_split_ties_by_id():
    freq = freq_of({0: 5, 1: 1, 2: 1, 3: 1, 4: 9})
    head, tail = head_tail_split(freq, 0.4)  # ceil(2) = 2 tail slots
    assert tail == [1, 2]  # tied at 1, lowest ids enter the tail
    assert head == [0, 3, 4]


def test_head_tail_split_fraction_bounds():
    freq = freq_of({0: 1, 1: 2})
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InputError):
            head_tail_split(freq, bad)


def test_head_tail_partition_property():
    rng = np.random.default_rng(3)
    counts = {i: int(n) for i, n in enumerate(rng.integers(0, 1000, size=37))}
    freq = freq_of(counts)
    head, tail = head_tail_split(freq, 0.2)
    assert sorted(head + tail) == sorted(counts)
    assert len(tail) == math.ceil(0.2 * 37)
    assert max(counts[c] for c in tail) <= min(counts[c] for c in head)


# ------------------------------------------------------------ correlation


def test_pearson_matches_textbook_formula():
    rng = np.random.default_rng(0)
    counts = {i: int(n) for i, n in enumerate(rng.integers(0, 5000, size=50))}
    accs = {i: float(a) for i, a in enumerate(rng.uniform(0, 1, size=50))}
    got = correlate(freq_of(counts), AccuracyTable(accs), "pearson")
    ids = sorted(counts)
    expected = pearson_textbook(
        np.log1p([counts[i] for i in ids]), [accs[i] for i in ids]
    )
    assert got == pytest.approx(expected, abs=1e-12)


def test_pearson_exact_on_linear_relation():
    counts = {i: int(math.expm1(0.1 * i)) + i for i in range(3, 30)}
    accs = {i: min(1.0, 0.02 * math.log1p(counts[i]) + 0.1) for i in counts}
    got = correlate(freq_of(counts), AccuracyTable(accs), "pearson")
    assert got == pytest.approx(1.0, abs=1e-9)


def test_spearman_matches_average_rank_oracle():
    rng = np.random.default_rng(1)
    counts = {i: int(n) for i, n in enumerate(rng.integers(0, 30, size=40))}  # many ties
    accs = {i: float(a) for i, a in enumerate(rng.uniform(0, 1, size=40))}
    got = correlate(freq_of(counts), AccuracyTable(accs), "spearman")
    ids = sorted(counts)
    expected = spearman_textbook([counts[i] for i in ids], [accs[i] for i in ids])
    assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=30, unique=True))
def test_spearman_invariant_under_monotone_transform(counts):
    rng = np.random.default_rng(len(counts))
    accs = {i: float(a) for i, a in enumerate(rng.uniform(0.01, 0.99, size=len(counts)))}
    if len(set(accs.values())) < 2:
        return
    base = correlate(freq_of(dict(enumerate(counts))), AccuracyTable(accs), "spearman")
    squashed = correlate(
        freq_of({i: n * 7 + 3 for i, n in enumerate(counts)}), AccuracyTable(accs), "spearman"
    )
    assert squashed == pytest.approx(base, abs=1e-12)


def test_correlate_errors():
    acc2 = AccuracyTable({0: 0.1, 1: 0.2})
    with pytest.raises(InputError, match="at least 3"):
        correlate(freq_of({0: 1, 1: 2}), acc2)
    acc3 = AccuracyTable({0: 0.1, 1: 0.2, 2: 0.3})
    with pytest.raises(UndefinedCorrelationError):
        correlate(freq_of({0: 5, 1: 5, 2: 5}), acc3)
    flat = AccuracyTable({0: 0.5, 1: 0.5, 2: 0.5})
    with pytest.raises(UndefinedCorrelationError):
        correlate(freq_of({0: 1, 1: 2, 2: 3}), flat)
    with pytest.raises(InputError, match="method"):
        correlate(freq_of({0: 1, 1: 2, 2: 3}), acc3, "kendall")
    with pytest.raises(InputError, match="different concepts"):
        correlate(freq_of({0: 1, 1: 2, 2: 3}), AccuracyTable({0: 0.1, 1: 0.2, 9: 0.3}))


def test_correlate_equals_scipy_exactly():
    """Both statistics are bit-identical to scipy's on inputs with heavy ties."""
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(3, 400))
        counts = rng.integers(0, int(rng.choice([3, 20, 10**6])), size=n)
        accs = np.round(rng.uniform(0, 1, size=n), int(rng.choice([1, 2, 17])))
        if np.ptp(counts) == 0 or np.ptp(accs) == 0:
            continue
        freq = freq_of(dict(enumerate(counts.tolist())))
        table = AccuracyTable(dict(enumerate(accs.tolist())))
        x = counts.astype(np.float64)
        assert correlate(freq, table, "pearson") == float(stats.pearsonr(np.log1p(x), accs).statistic)
        assert correlate(freq, table, "spearman") == float(stats.spearmanr(x, accs).statistic)


def test_average_ranks_oracle_self_check():
    assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]


# --------------------------------------------------------------- accuracy


def test_mean_per_class_unweighted():
    """99 right on class 0, 1 wrong on class 1 -> mpca 0.5, not 0.99."""
    predictions = [(0, 0)] * 99 + [(1, 0)]
    mpca, table = mean_per_class_accuracy(predictions)
    assert mpca == pytest.approx(0.5)
    assert table.accuracies == {0: 1.0, 1: 0.0}


def test_mean_per_class_invariant_to_duplication():
    predictions = [(0, 0), (0, 1), (1, 1)]
    base, _ = mean_per_class_accuracy(predictions)
    doubled, _ = mean_per_class_accuracy(predictions * 2)
    assert doubled == pytest.approx(base)


def test_mean_per_class_zero_example_class_named():
    with pytest.raises(InputError, match=r"\[2\]"):
        mean_per_class_accuracy([(0, 0), (1, 1)], concepts=[0, 1, 2])


def test_mean_per_class_extra_gold_label():
    with pytest.raises(InputError, match="outside"):
        mean_per_class_accuracy([(0, 0), (5, 5)], concepts=[0])


def test_mean_per_class_empty():
    with pytest.raises(InputError):
        mean_per_class_accuracy([])


def test_accuracy_table_mean():
    table = AccuracyTable({2: 0.9, 0: 0.2, 1: 0.4})
    assert table.mean([0, 1]) == pytest.approx(0.3)
    # every class, summed in table order, so the float is the one a plain sum gives
    assert table.mean() == (0.9 + 0.2 + 0.4) / 3
    with pytest.raises(InputError, match="missing"):
        table.mean([7])
    with pytest.raises(InputError, match="empty"):
        table.mean([])
    with pytest.raises(InputError, match="empty"):
        AccuracyTable({}).mean()
