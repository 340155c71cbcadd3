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

#: Hard cap on filter size (bits): 2^26 bits = 8 MiB of words. At the
#: reproduction's scale factors (<= 600k keys per table) this is never
#: binding; it bounds driver collect size if someone runs SF >= 1.
MAX_BITS = 1 << 26

_H2SEED = np.uint64(0x6A09E667F3BCC909)


def optimal_params(expected_items: int, fpp: float = 0.01) -> tuple[int, int]:
    """Standard Bloom sizing: (n_bits, n_hashes) for ``expected_items``
    at false-positive rate ``fpp``. Floors keep degenerate inputs sane."""
    n = max(1, int(expected_items))
    n_bits = int(math.ceil(-n * math.log(fpp) / (math.log(2) ** 2)))
    # 1024-bit floor: a tiny (e.g. 64-bit) filter saturates after a
    # handful of keys and produces *deterministic* false positives.
    n_bits = min(MAX_BITS, max(1024, n_bits))
    n_hashes = max(1, round(n_bits / n * math.log(2)))
    return n_bits, min(16, n_hashes)


class BloomFilter:
    """Fixed-size Bloom filter over pre-hashed uint64 keys.

    Inserts stage into a dense boolean array (vectorized fancy indexing
    — ``np.bitwise_or.at`` scatter is ~100× slower at millions of keys)
    and are packed into the uint64 word array lazily on first read.
    """

    __slots__ = ("n_bits", "n_hashes", "words", "_dense")

    def __init__(self, n_bits: int, n_hashes: int, words: np.ndarray | None = None):
        if n_bits < 1 or n_hashes < 1:
            raise ValueError("n_bits and n_hashes must be positive")
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        n_words = (self.n_bits + 63) // 64
        if words is None:
            words = np.zeros(n_words, dtype=np.uint64)
        if words.dtype != np.uint64 or len(words) != n_words:
            raise ValueError("words array does not match n_bits")
        self.words = words
        self._dense: np.ndarray | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def for_capacity(cls, expected_items: int, fpp: float = 0.01) -> "BloomFilter":
        return cls(*optimal_params(expected_items, fpp))

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

    # -- merging / transport ------------------------------------------

    def merge_(self, other: "BloomFilter") -> "BloomFilter":
        """In-place union with a filter of identical parameters."""
        if (other.n_bits, other.n_hashes) != (self.n_bits, self.n_hashes):
            raise ValueError("cannot merge Bloom filters with different parameters")
        self._flush()
        other._flush()
        self.words |= other.words
        return self

    def merge_words(self, raw: bytes) -> "BloomFilter":
        """Union with a serialized word array (executor-side partial)."""
        self._flush()
        self.words |= np.frombuffer(raw, dtype=np.uint64)
        return self

    def to_bytes(self) -> bytes:
        self._flush()
        return self.words.tobytes()

    @property
    def bit_count(self) -> int:
        """Number of set bits (diagnostics / saturation checks)."""
        self._flush()
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BloomFilter(n_bits={self.n_bits}, k={self.n_hashes}, set={self.bit_count})"
