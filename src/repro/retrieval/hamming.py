"""Hamming-space primitives: code packing and distance computation.

Hash codes live in {-1, +1}^k (paper §3.1).  Two distance paths are provided:

- :func:`hamming_distance_matrix` — BLAS path using the identity
  ``Hd(b_i, b_j) = (k - b_i·b_j) / 2`` (paper §3.4); fastest in numpy.
- :class:`PackedCodes` + :func:`packed_hamming_distance` — bit-packed uint8
  storage with hardware popcount (``np.bitwise_count`` over uint64 words on
  numpy >= 2, byte-LUT fallback otherwise), the representation a production
  system would ship (64x smaller than float codes).  Tested to agree
  exactly with the BLAS path.
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

_QUERY_CHUNK = 256


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


def packed_hamming_distance(a: PackedCodes, b: PackedCodes) -> np.ndarray:
    """Pairwise Hamming distances between packed code sets (uint16 matrix).

    Queries are processed in chunks to bound the XOR buffer size.
    """
    if a.n_bits != b.n_bits:
        raise ShapeError(f"code lengths differ: {a.n_bits} vs {b.n_bits}")
    a_bits, b_bits = a.bits, b.bits
    if (_HAS_BITWISE_COUNT and a_bits.shape[1] % 8 == 0
            and a_bits.shape[1] > 0):
        # Reinterpret both operands as uint64 words *before* the pairwise
        # XOR: the broadcast buffer shrinks 8x in element count, and each
        # word resolves with one hardware popcount.
        a_bits = np.ascontiguousarray(a_bits).view(np.uint64)
        b_bits = np.ascontiguousarray(b_bits).view(np.uint64)
        popcount = np.bitwise_count
    elif _HAS_BITWISE_COUNT:
        popcount = np.bitwise_count
    else:
        popcount = _POPCOUNT.__getitem__
    out = np.empty((len(a), len(b)), dtype=np.uint16)
    for start in range(0, len(a), _QUERY_CHUNK):
        chunk = a_bits[start : start + _QUERY_CHUNK]
        xor = chunk[:, None, :] ^ b_bits[None, :, :]
        counts = popcount(xor)
        if counts.shape[2] == 1:  # 64-bit codes: one word, nothing to sum
            out[start : start + _QUERY_CHUNK] = counts[:, :, 0]
        else:
            out[start : start + _QUERY_CHUNK] = counts.sum(
                axis=2, dtype=np.uint16
            )
    return out
