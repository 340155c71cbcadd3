"""Unit tests for the numpy Bloom filter substrate (no Spark needed)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom.filter import BloomFilter, optimal_params
from repro.bloom.hashing import mix64


def _h(values) -> np.ndarray:
    """Mix raw ints the same way the Spark path does."""
    return mix64(np.asarray(values, dtype=np.int64).view(np.uint64))


def _set_bits(f: BloomFilter) -> int:
    return int(np.unpackbits(np.frombuffer(f.to_bytes(), dtype=np.uint8)).sum())


class TestOptimalParams:
    def test_returns_positive(self):
        n_bits, k = optimal_params(1000, 0.01)
        assert n_bits > 0 and k > 0

    @pytest.mark.parametrize("n", [1, 10, 100, 10_000, 1_000_000])
    def test_bits_grow_with_items(self, n):
        assert optimal_params(n * 2, 0.01)[0] >= optimal_params(n, 0.01)[0]

    def test_lower_fpp_needs_more_bits(self):
        assert optimal_params(1000, 0.001)[0] > optimal_params(1000, 0.1)[0]

    def test_floor_on_degenerate_input(self):
        n_bits, k = optimal_params(0, 0.01)
        assert n_bits >= 64 and k >= 1

    def test_one_percent_sizing_is_about_ten_bits_per_item(self):
        n_bits, k = optimal_params(10_000, 0.01)
        assert 9 * 10_000 <= n_bits <= 11 * 10_000
        assert 5 <= k <= 9

    def test_hash_count_capped(self):
        assert optimal_params(10, 1e-12)[1] <= 16


class TestBloomFilter:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_empty_filter_contains_nothing(self):
        f = BloomFilter(*optimal_params(100))
        assert not f.contains_hashed(_h(range(1000))).any()

    @pytest.mark.parametrize("n", [1, 2, 100, 10_000])
    def test_no_false_negatives(self, n):
        f = BloomFilter(*optimal_params(n))
        keys = np.arange(n) * 7 - 3
        f.add_hashed(_h(keys))
        assert f.contains_hashed(_h(keys)).all()

    def test_false_positive_rate_close_to_configured(self):
        n, fpp = 20_000, 0.01
        f = BloomFilter(*optimal_params(n, fpp))
        f.add_hashed(_h(np.arange(n)))
        probes = np.arange(n, 5 * n)  # disjoint from inserted keys
        rate = f.contains_hashed(_h(probes)).mean()
        assert rate < 5 * fpp, f"observed fp rate {rate}"

    def test_add_is_idempotent(self):
        f = BloomFilter(*optimal_params(100))
        f.add_hashed(_h([1, 2, 3]))
        before = f.to_bytes()
        f.add_hashed(_h([1, 2, 3]))
        assert f.to_bytes() == before

    def test_bit_count_grows_then_saturates_below_nbits(self):
        f = BloomFilter(*optimal_params(100, 0.01))
        f.add_hashed(_h([1]))
        one = _set_bits(f)
        assert 1 <= one <= f.n_hashes
        f.add_hashed(_h(np.arange(2, 100)))
        assert one <= _set_bits(f) <= f.n_bits

    def test_bytes_roundtrip(self):
        # Each probed position reads back as a set bit of the packed bytes,
        # bit ``pos & 7`` of byte ``pos >> 3`` (little-endian words).
        f = BloomFilter(512, 3)
        hashed = _h(range(50))
        f.add_hashed(hashed)
        bits = np.unpackbits(np.frombuffer(f.to_bytes(), dtype=np.uint8), bitorder="little")
        for i in range(f.n_hashes):
            assert bits[f._positions(hashed, i)].all()

    def test_empty_probe_array(self):
        f = BloomFilter(*optimal_params(10))
        assert f.contains_hashed(np.array([], dtype=np.uint64)).shape == (0,)

    def test_non_multiple_of_64_bits(self):
        f = BloomFilter(100, 3)  # 2 words, 28 slack bits
        f.add_hashed(_h(range(30)))
        assert f.contains_hashed(_h(range(30))).all()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=300))
    def test_no_false_negatives_hypothesis(self, keys):
        f = BloomFilter(*optimal_params(len(keys)))
        if keys:
            f.add_hashed(_h(keys))
            assert f.contains_hashed(_h(keys)).all()
