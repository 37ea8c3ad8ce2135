"""Keyed float32 embedding matrices and their on-disk binary format.

File layout (all integers little-endian):

    magic   4 bytes  b"CEMB"
    version u32      1
    dim     u32
    count   u64
    flags   u32      bit 0: rows are L2-normalized
    then count records of:
        key_len u32
        key     key_len bytes, UTF-8
        vector  dim * f32

The format is deliberately dumb: fixed header, dense rows, no compression,
so a saved file round-trips bit-exactly and a truncated download is caught
by byte arithmetic rather than a deserializer crash.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAverageError,
    EmbeddingFormatError,
    InputError,
    MissingEmbeddingError,
)
from .io import atomic_write, named

MAGIC = b"CEMB"
VERSION = 1
FLAG_NORMALIZED = 1
NORM_TOL = 1e-4
# float32 elements in one row block of scratch (1 MiB): the unit of work for
# validating a matrix and for scoring queries against a classifier.
BLOCK_ELEMENTS = 1 << 18


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each of the same max(1, BLOCK_ELEMENTS // width)
    rows, or one slice of every row when they fit in one block (none for no rows).

    The last block is moved back to end at `rows`, so it may overlap the one
    before it but is never a short remnant: BLAS takes another path for a
    product of one or a few rows (gemv, a small-matrix kernel), whose rounding
    differs from that of the full-size blocks.
    """
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    if rows <= step:
        return [slice(0, rows)] if rows else []
    return [slice(min(start, rows - step), min(start + step, rows)) for start in range(0, rows, step)]


@dataclass
class EmbeddingMatrix:
    """An ordered set of unique string keys with one float32 row each."""

    keys: list[str]
    data: np.ndarray  # shape (len(keys), dim), float32
    normalized: bool = False
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise InputError(f"embedding data must be 2-d, got shape {self.data.shape}")
        if len(self.keys) != self.data.shape[0]:
            raise InputError(
                f"{len(self.keys)} keys but embedding data of shape {self.data.shape}"
            )
        self._index = {}
        for i, key in enumerate(self.keys):
            if key in self._index:
                raise InputError(f"duplicate embedding key {key!r}")
            self._index[key] = i
        # Block by block, so the check's temporaries stay small; the worst norm
        # deviation is reported only after every block was found finite.
        worst = 0.0
        for block in row_blocks(len(self.keys), self.dim):
            rows = self.data[block]
            if not np.isfinite(rows).all():
                raise EmbeddingFormatError("embedding data contains NaN or Inf")
            if self.normalized:
                worst = max(worst, float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0))))
        if worst > NORM_TOL:
            raise InputError(f"matrix flagged normalized but a row norm deviates by {worst:.2e}")

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def rows(self, keys) -> np.ndarray:
        """The float32 rows for `keys`, in order, as one (len(keys), dim)
        array; raises MissingEmbeddingError naming the first missing key."""
        try:
            index = [self._index[key] for key in keys]
        except KeyError as e:
            raise MissingEmbeddingError(e.args[0]) from None
        return self.data[np.asarray(index, dtype=np.intp)]

    def unit_average(self, keys) -> np.ndarray:
        """average_normalized of the rows for `keys`, each L2-normalized first."""
        vecs = self.rows(keys).astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            zero = keys[int(np.argmin(norms))]
            raise InputError(f"embedding for key {zero!r} is the zero vector")
        return average_normalized(vecs / norms)


def save_embeddings(matrix: EmbeddingMatrix, path: str) -> None:
    flags = FLAG_NORMALIZED if matrix.normalized else 0
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIQI", VERSION, matrix.dim, len(matrix), flags))
        for i, key in enumerate(matrix.keys):
            kb = key.encode("utf-8")
            f.write(struct.pack("<I", len(kb)))
            f.write(kb)
            f.write(matrix.data[i].astype("<f4", copy=False).tobytes())


def load_embeddings(path: str) -> EmbeddingMatrix:
    """Load an embedding file, reading each vector straight into its row.

    load_embeddings(save_embeddings(M)) reproduces M bit-exactly; every InputError names the path.
    """
    with open(path, "rb", buffering=1 << 20) as f:
        size = os.fstat(f.fileno()).st_size
        pos = 0

        def claim(n: int, what: str, record: int | None = None) -> int:
            nonlocal pos
            if pos + n > size:
                if record is not None:
                    what = f"{what} of record {record}"
                raise EmbeddingFormatError(
                    f"{path}: truncated file: expected {n} more bytes for {what} "
                    f"at offset {pos}, only {size - pos} remain"
                )
            pos += n
            return n

        magic = f.read(claim(4, "magic"))
        if magic != MAGIC:
            raise EmbeddingFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, dim, count, flags = struct.unpack("<IIQI", f.read(claim(20, "header")))
        if version != VERSION:
            raise EmbeddingFormatError(f"{path}: unsupported version {version}")
        vec_bytes = 4 * dim
        if count * (4 + vec_bytes) > size - pos:  # rows that cannot fit: refuse, not allocate
            claim(count * (4 + vec_bytes), f"{count} records of dim {dim}")
        keys: list[str] = []
        rows = np.empty((count, dim), dtype="<f4")
        for i in range(count):
            key_len = int.from_bytes(f.read(claim(4, "key length", i)), "little")
            try:
                keys.append(f.read(claim(key_len, "key", i)).decode("utf-8"))
            except UnicodeDecodeError as e:
                raise EmbeddingFormatError(f"{path}: key of record {i} is not UTF-8: {e}") from None
            claim(vec_bytes, "vector", i)
            f.readinto(rows[i])  # writers replace files whole, so no read comes up short
        if pos != size:
            raise EmbeddingFormatError(f"{path}: trailing garbage: file has {size} bytes, records end at {pos}")
    with named(path):
        return EmbeddingMatrix(keys, rows, normalized=bool(flags & FLAG_NORMALIZED))


def average_normalized(vectors: np.ndarray) -> np.ndarray:
    """L2-normalized mean of a stack of vectors (rows).

    The inputs are averaged as given (callers wanting the unit-sphere mean
    normalize rows first); a zero mean — e.g. two antipodal vectors — has
    no direction and raises DegenerateAverageError.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if vectors.shape[0] == 0:
        raise InputError("cannot average zero vectors")
    mean = vectors.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise DegenerateAverageError(
            f"mean vector norm {norm:.3e} is too small to normalize"
        )
    return mean / norm
