"""Hamming-space primitives: code packing and distance computation.

Hash codes live in {-1, +1}^k (paper §3.1).  Two distance paths are provided:

- :func:`hamming_distance_matrix` — BLAS path using the identity
  ``Hd(b_i, b_j) = (k - b_i·b_j) / 2`` (paper §3.4); fastest in numpy.
- :class:`PackedCodes` + :func:`packed_hamming_distance` — bit-packed uint8
  storage with hardware popcount (``np.bitwise_count`` over the widest of
  uint64, uint32 and uint16 words that divides a row on numpy >= 2,
  byte-LUT fallback otherwise), the representation a production system
  would ship (64x smaller than float codes).  Tested to agree exactly with
  the BLAS path.

The packed kernel and the evaluation (``repro.retrieval.metrics``) walk
their queries in tiles of :func:`query_tile_rows` rows, sized so that a
tile's scratch stays near :data:`TILE_BYTES` however many queries there
are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.utils.validation import check_binary_codes

#: Popcount lookup table for all byte values.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint16)

#: numpy >= 2.0 ships a hardware popcount ufunc; the LUT gather above stays
#: as the fallback so older numpys keep working.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Scratch bytes one tile of query rows may hold.
TILE_BYTES = 8 << 20


def query_tile_rows(n_db: int, bytes_per_pair: int) -> int:
    """Query rows per tile when each (query, database) pair needs
    ``bytes_per_pair`` bytes of scratch against ``n_db`` database rows
    (at least one row, however wide the database)."""
    return max(1, TILE_BYTES // max(1, n_db * bytes_per_pair))


def hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between ±1 code matrices.

    Uses ``Hd = (k - a·b) / 2``; the result is an integer-valued float
    matrix of shape ``(len(a), len(b))``.
    """
    a = check_binary_codes(a, "a")
    b = check_binary_codes(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"code lengths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    k = a.shape[1]
    distances = a @ b.T
    np.subtract(k, distances, out=distances)  # in place: one (n, m) buffer
    distances /= 2.0
    return distances


@dataclass(frozen=True)
class PackedCodes:
    """Bit-packed ±1 hash codes: +1 -> bit 1, -1 -> bit 0.

    Attributes
    ----------
    bits:
        uint8 array of shape ``(n, ceil(k/8))``.
    n_bits:
        Original code length ``k`` (needed because packing pads to bytes).
    """

    bits: np.ndarray
    n_bits: int

    def __post_init__(self) -> None:
        if self.bits.dtype != np.uint8 or self.bits.ndim != 2:
            raise ShapeError("bits must be a 2-D uint8 array")
        expected = (self.n_bits + 7) // 8
        if self.bits.shape[1] != expected:
            raise ShapeError(
                f"bits has {self.bits.shape[1]} bytes per code, expected {expected} "
                f"for {self.n_bits}-bit codes"
            )

    def __len__(self) -> int:
        return self.bits.shape[0]

    @property
    def nbytes(self) -> int:
        return int(self.bits.nbytes)


def pack_codes(codes: np.ndarray) -> PackedCodes:
    """Pack a ±1 code matrix into bits (padding bits are zero)."""
    codes = check_binary_codes(codes)
    bools = codes > 0
    return PackedCodes(bits=np.packbits(bools, axis=1), n_bits=codes.shape[1])


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Inverse of :func:`pack_codes`, recovering the ±1 matrix."""
    bools = np.unpackbits(packed.bits, axis=1)[:, : packed.n_bits]
    return np.where(bools.astype(bool), 1.0, -1.0)


def _words(bits: np.ndarray) -> np.ndarray:
    """Packed rows viewed as the widest unsigned words that divide them."""
    for word in (np.uint64, np.uint32, np.uint16):
        if bits.shape[1] % np.dtype(word).itemsize == 0:
            return np.ascontiguousarray(bits).view(word)
    return bits


def packed_hamming_distance(a: PackedCodes, b: PackedCodes) -> np.ndarray:
    """Pairwise Hamming distances between packed code sets (uint16 matrix).

    Queries are processed in tiles of :func:`query_tile_rows` rows to bound
    the XOR and popcount buffers.
    """
    if a.n_bits != b.n_bits:
        raise ShapeError(f"code lengths differ: {a.n_bits} vs {b.n_bits}")
    if _HAS_BITWISE_COUNT:
        # Reinterpret both operands as words *before* the pairwise XOR:
        # the broadcast buffer shrinks by the word size in element count,
        # and each word resolves with one hardware popcount (uint8 out).
        a_bits, b_bits = _words(a.bits), _words(b.bits)
        popcount, count_bytes = np.bitwise_count, 1
    else:
        a_bits, b_bits = a.bits, b.bits
        popcount, count_bytes = _POPCOUNT.__getitem__, _POPCOUNT.itemsize
    n_words = a_bits.shape[1]
    rows = query_tile_rows(len(b), n_words * (a_bits.itemsize + count_bytes))
    out = np.empty((len(a), len(b)), dtype=np.uint16)
    for start in range(0, len(a), rows):
        counts = popcount(a_bits[start : start + rows, None, :]
                          ^ b_bits[None, :, :])
        if n_words == 1:  # one word per row: nothing to sum
            out[start : start + rows] = counts[:, :, 0]
        else:
            counts.sum(axis=2, dtype=np.uint16, out=out[start : start + rows])
    return out
