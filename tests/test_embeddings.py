"""Embedding matrix semantics and the binary file format."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_embeddings
from tally.embeddings import (
    BLOCK_ELEMENTS,
    EmbeddingMatrix,
    average_normalized,
    cosine,
    load_embeddings,
    row_blocks,
    save_embeddings,
)
from tally.errors import (
    DegenerateAverageError,
    EmbeddingFormatError,
    InputError,
    MissingEmbeddingError,
    ZeroVectorError,
)


# ------------------------------------------------------------ round trips


def test_save_load_bit_exact(tmp_path):
    mat = make_embeddings(["alpha", "beta", "gamma", "öüñ"], dim=5, seed=3)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    loaded = load_embeddings(str(path))
    assert loaded.keys == mat.keys
    assert loaded.normalized == mat.normalized
    assert loaded.data.dtype == np.float32
    assert loaded.data.tobytes() == mat.data.tobytes()


def test_save_is_byte_stable(tmp_path):
    mat = make_embeddings(["a", "b"], dim=3, seed=1)
    p1, p2 = tmp_path / "one.cemb", tmp_path / "two.cemb"
    save_embeddings(mat, str(p1))
    save_embeddings(mat, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_binary_layout_matches_manual_packing(tmp_path):
    """Freeze the format: header and records packed by hand with struct."""
    rows = np.array([[1.0, -2.0], [0.5, 0.25]], dtype=np.float32)
    mat = EmbeddingMatrix(["k1", "key2"], rows, normalized=False)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))

    expected = b"CEMB" + struct.pack("<IIQI", 1, 2, 2, 0)
    for key, row in [("k1", rows[0]), ("key2", rows[1])]:
        kb = key.encode()
        expected += struct.pack("<I", len(kb)) + kb + row.tobytes()
    assert path.read_bytes() == expected


def test_round_trip_multibyte_keys_and_zero_rows(tmp_path):
    mat = make_embeddings(["猫", "naïve café", "🐯 tiger", ""], dim=6, seed=4)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    loaded = load_embeddings(str(path))
    assert loaded.keys == mat.keys
    assert loaded.data.tobytes() == mat.data.tobytes()

    empty = EmbeddingMatrix([], np.empty((0, 3), dtype=np.float32))
    save_embeddings(empty, str(path))
    assert path.stat().st_size == 4 + struct.calcsize("<IIQI")
    loaded = load_embeddings(str(path))
    assert loaded.keys == [] and loaded.data.shape == (0, 3)
    assert loaded.data.dtype == np.float32


def test_normalized_flag_round_trips(tmp_path):
    mat = make_embeddings(["a", "b"], dim=4, seed=2, normalized=True)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    raw = path.read_bytes()
    flags = struct.unpack_from("<I", raw, 4 + 4 + 4 + 8)[0]
    assert flags & 1
    assert load_embeddings(str(path)).normalized


# ---------------------------------------------------------------- errors


def test_bad_magic(tmp_path):
    path = tmp_path / "m.cemb"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(EmbeddingFormatError, match="magic"):
        load_embeddings(str(path))


def test_unsupported_version(tmp_path):
    path = tmp_path / "m.cemb"
    path.write_bytes(b"CEMB" + struct.pack("<IIQI", 9, 2, 0, 0))
    with pytest.raises(EmbeddingFormatError, match="version"):
        load_embeddings(str(path))


@pytest.mark.parametrize("cut", [2, 10, 21, 25, 30])
def test_truncated_file_names_byte_counts(tmp_path, cut):
    mat = make_embeddings(["ab", "cd"], dim=3, seed=0)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    clipped = tmp_path / "clipped.cemb"
    clipped.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(EmbeddingFormatError, match=r"expected \d+ more bytes") as err:
        load_embeddings(str(clipped))
    assert "remain" in str(err.value)


def test_every_cut_point_raises_format_error_only(tmp_path):
    mat = make_embeddings(["ab", "é"], dim=3, seed=0)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.cemb"
    for cut in range(len(raw)):
        clipped.write_bytes(raw[:cut])
        with pytest.raises(EmbeddingFormatError, match=r"expected \d+ more bytes"):
            load_embeddings(str(clipped))


def test_oversized_row_count_refused_before_allocating(tmp_path):
    """A count whose rows cannot fit in the file is a format error, not an
    attempt to allocate them (2**40 rows of dim 3 would be 12 TiB)."""
    mat = make_embeddings(["ab", "cd"], dim=3, seed=0)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, 4 + 4 + 4, 2**40)
    path.write_bytes(bytes(raw))
    with pytest.raises(EmbeddingFormatError, match=r"expected \d+ more bytes") as err:
        load_embeddings(str(path))
    assert "remain" in str(err.value)


def test_trailing_garbage_rejected(tmp_path):
    mat = make_embeddings(["a"], dim=2, seed=0)
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(EmbeddingFormatError, match="trailing"):
        load_embeddings(str(path))


def test_nan_rejected(tmp_path):
    rows = np.array([[1.0, float("nan")]], dtype=np.float32)
    with pytest.raises(EmbeddingFormatError, match="NaN"):
        EmbeddingMatrix(["a"], rows)


def test_inf_rejected_on_load(tmp_path):
    mat = EmbeddingMatrix(["a"], np.array([[1.0, 2.0]], dtype=np.float32))
    path = tmp_path / "m.cemb"
    save_embeddings(mat, str(path))
    raw = bytearray(path.read_bytes())
    raw[-8:-4] = struct.pack("<f", float("inf"))
    path.write_bytes(bytes(raw))
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(str(path))


def test_duplicate_keys_rejected():
    rows = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(InputError, match="duplicate"):
        EmbeddingMatrix(["same", "same"], rows)


def test_normalized_flag_validated():
    rows = np.array([[3.0, 4.0]], dtype=np.float32)
    with pytest.raises(InputError, match="norm"):
        EmbeddingMatrix(["a"], rows, normalized=True)
    # within tolerance is fine
    EmbeddingMatrix(["a"], np.array([[1.0 + 5e-5, 0.0]], dtype=np.float32), normalized=True)


# Validation runs over row blocks: at dim 512 a block holds STEP rows.
DIM = 512
STEP = BLOCK_ELEMENTS // DIM


@pytest.mark.parametrize("rows, width", [(0, 4), (1, 4), (STEP, DIM), (STEP + 1, DIM), (3 * STEP + 5, DIM), (7, 0)])
def test_row_blocks_cover_every_row_in_full_size_blocks(rows, width):
    blocks = row_blocks(rows, width)
    covered = np.zeros(rows, dtype=bool)
    for block in blocks:
        covered[block] = True
    assert covered.all()
    assert len({block.stop - block.start for block in blocks}) == (1 if rows else 0)  # no short remnant


def _unit_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, DIM))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


def test_nan_in_a_late_block_is_reported_before_an_earlier_norm_deviation():
    rows = _unit_matrix(3 * STEP + 5)
    rows[3] *= 1.01  # block 0: a norm deviation
    rows[-1, 7] = np.nan  # the last block: a NaN
    with pytest.raises(EmbeddingFormatError, match="NaN or Inf"):
        EmbeddingMatrix([str(i) for i in range(len(rows))], rows, normalized=True)


@pytest.mark.parametrize("worst_row", [2, STEP + 3, 3 * STEP + 4])
def test_norm_deviation_reported_is_the_worst_of_all_blocks(worst_row):
    rows = _unit_matrix(3 * STEP + 5, seed=worst_row)
    for row, scale in ((1, 1.001), (STEP + 1, 1.002), (2 * STEP + 1, 0.997), (worst_row, 1.05)):
        rows[row] *= scale
    one_shot = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)))
    with pytest.raises(InputError, match=f"deviates by {one_shot:.2e}$") as err:
        EmbeddingMatrix([str(i) for i in range(len(rows))], rows, normalized=True)
    assert "5.00e-02" in str(err.value)


def test_validation_never_holds_a_whole_matrix_temporary():
    """A 20,000 x 512 normalized matrix (41 MB): the one-shot checks built a
    41 MB squared copy and a 10 MB mask; over row blocks the peak is ~1-2 MB."""
    rows = _unit_matrix(20_000)
    keys = [str(i) for i in range(len(rows))]
    tracemalloc.start()
    try:
        EmbeddingMatrix(keys, rows, normalized=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"validation peaked at {peak / 1e6:.1f} MB"


def test_missing_key_named():
    mat = make_embeddings(["present"], dim=3)
    with pytest.raises(MissingEmbeddingError, match="absent"):
        mat.rows(["absent"])


def test_rows_gather_in_key_order():
    mat = make_embeddings(["a", "b", "c"], dim=4, seed=1)
    got = mat.rows(["c", "a", "c"])
    assert got.dtype == np.float32
    assert got.tobytes() == np.stack([mat.data[2], mat.data[0], mat.data[2]]).tobytes()
    assert mat.rows([]).shape == (0, 4)
    with pytest.raises(MissingEmbeddingError, match="'x'") as err:
        mat.rows(["a", "x", "y"])
    assert err.value.key == "x"  # the first missing key


def test_unit_average_normalizes_each_row_first():
    mat = EmbeddingMatrix(["a", "b", "z"], np.array([[3.0, 0.0], [0.0, 0.5], [0.0, 0.0]]))
    expected = average_normalized(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert mat.unit_average(["a", "b"]).tobytes() == expected.tobytes()
    with pytest.raises(InputError, match="'z' is the zero vector"):
        mat.unit_average(["a", "z"])


def test_key_row_count_mismatch():
    with pytest.raises(InputError):
        EmbeddingMatrix(["a", "b"], np.zeros((1, 2), dtype=np.float32))


# ---------------------------------------------------------------- cosine


def test_cosine_analytic_cases():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_cosine_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_rejects_dim_mismatch():
    with pytest.raises(InputError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_cosine_symmetry_and_scale_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
    assert cosine(u * scale, v) == pytest.approx(cosine(u, v), abs=1e-9)
    assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12


# ---------------------------------------------------- average_normalized


def test_average_normalized_oracle():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = average_normalized(vecs)
    expected = np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5])
    np.testing.assert_allclose(out, expected, atol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_average_normalized_single_vector():
    out = average_normalized(np.array([[3.0, 4.0]]))
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)


def test_average_normalized_degenerate():
    with pytest.raises(DegenerateAverageError):
        average_normalized(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_average_normalized_permutation_invariant():
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((6, 4))
    a = average_normalized(vecs)
    b = average_normalized(vecs[::-1].copy())
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_average_normalized_empty():
    with pytest.raises(InputError):
        average_normalized(np.empty((0, 3)))
