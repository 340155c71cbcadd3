"""A plain-numpy Bloom filter with vectorized add/contains.

Double hashing (Kirsch–Mitzenmacher): from one pre-mixed 64-bit key we
derive ``h1`` and ``h2`` and probe positions ``(h1 + i*h2) mod n_bits``
for ``i in 0..k-1``. No false negatives by construction; the false
positive rate is set by ``optimal_params``, which also sizes the Spark
filters of ``spark_bloom``; the rest serves the numpy micro-benchmark.
"""
from __future__ import annotations

import math

import numpy as np

from repro.bloom.hashing import mix64

_H2SEED = np.uint64(0x6A09E667F3BCC909)


def optimal_params(expected_items: int, fpp: float = 0.01) -> tuple[int, int]:
    """Standard Bloom sizing: (n_bits, n_hashes) for ``expected_items``
    at false-positive rate ``fpp``. Floors keep degenerate inputs sane;
    the only cap on a Spark filter's size is Spark's own
    ``spark.sql.optimizer.runtime.bloomFilter.maxNumBits``."""
    n = max(1, int(expected_items))
    n_bits = int(math.ceil(-n * math.log(fpp) / (math.log(2) ** 2)))
    # 1024-bit floor: a tiny (e.g. 64-bit) filter saturates after a
    # handful of keys and produces *deterministic* false positives.
    n_bits = max(1024, n_bits)
    n_hashes = max(1, round(n_bits / n * math.log(2)))
    return n_bits, min(16, n_hashes)


class BloomFilter:
    """Fixed-size Bloom filter over pre-hashed uint64 keys.

    Inserts stage into a dense boolean array (vectorized fancy indexing
    — ``np.bitwise_or.at`` scatter is ~100× slower at millions of keys)
    and are packed into the uint64 word array lazily on first read.
    """

    __slots__ = ("n_bits", "n_hashes", "words", "_dense")

    def __init__(self, n_bits: int, n_hashes: int):
        if n_bits < 1 or n_hashes < 1:
            raise ValueError("n_bits and n_hashes must be positive")
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        self.words = np.zeros((self.n_bits + 63) // 64, dtype=np.uint64)
        self._dense: np.ndarray | None = None

    def _positions(self, hashed: np.ndarray, i: int) -> np.ndarray:
        h1 = hashed % np.uint64(self.n_bits)
        h2 = (mix64(hashed ^ _H2SEED) | np.uint64(1)) % np.uint64(self.n_bits)
        return (h1 + np.uint64(i) * h2) % np.uint64(self.n_bits)

    def add_hashed(self, hashed: np.ndarray) -> None:
        """Insert pre-mixed uint64 keys (vectorized)."""
        hashed = np.ascontiguousarray(hashed, dtype=np.uint64)
        if self._dense is None:
            self._dense = np.zeros(self.n_bits, dtype=bool)
        for i in range(self.n_hashes):
            self._dense[self._positions(hashed, i)] = True

    def _flush(self) -> None:
        """Fold staged dense bits into the packed word array.

        ``packbits(bitorder='little')`` puts bit j of a byte at value
        1<<j, which matches ``(pos & 63)`` indexing of little-endian
        uint64 words — verified by the build/probe roundtrip tests.
        """
        if self._dense is None:
            return
        packed = np.packbits(self._dense, bitorder="little")
        full = np.zeros(len(self.words) * 8, dtype=np.uint8)
        full[: len(packed)] = packed
        self.words |= full.view(np.uint64)
        self._dense = None

    def contains_hashed(self, hashed: np.ndarray) -> np.ndarray:
        """Membership test for pre-mixed keys → bool array (no false negatives)."""
        self._flush()
        hashed = np.ascontiguousarray(hashed, dtype=np.uint64)
        out = np.ones(len(hashed), dtype=bool)
        for i in range(self.n_hashes):
            pos = self._positions(hashed, i)
            bit = (self.words[pos >> np.uint64(6)] >> (pos & np.uint64(63))) & np.uint64(1)
            out &= bit.astype(bool)
        return out

    def to_bytes(self) -> bytes:
        self._flush()
        return self.words.tobytes()
