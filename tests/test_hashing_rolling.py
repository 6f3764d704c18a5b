"""Tests for the streaming Rabin reference and the vectorised batch scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChunkingError
from repro.hashing.rabin import POLY64, RabinFingerprinter
from repro.hashing.rolling import window_fingerprints, window_tables
from tests.oracles import RollingRabin


def block_fp(data: bytes) -> int:
    """The block Rabin fingerprint of ``data``, as an integer."""
    return int.from_bytes(RabinFingerprinter().hash(data), "big")


class TestRollingRabin:
    def test_partial_window_equals_block_hash(self):
        r = RollingRabin(window=16)
        for b in b"hello":
            r.push(b)
        assert r.value == block_fp(b"hello")

    def test_full_window_equals_block_hash_of_window(self):
        data = bytes(range(100))
        r = RollingRabin(window=48)
        for b in data:
            r.push(b)
        assert r.value == block_fp(data[-48:])

    def test_of_classmethod(self):
        data = b"the quick brown fox jumps over the lazy dog" * 3
        assert RollingRabin.of(data, window=48) == block_fp(data[-48:])

    def test_reset(self):
        r = RollingRabin(window=4)
        for b in b"abcd":
            r.push(b)
        r.reset()
        assert r.value == 0
        r.push(ord("x"))
        assert r.value == block_fp(b"x")

    def test_window_must_be_positive(self):
        with pytest.raises(ChunkingError):
            RollingRabin(window=0)

    @given(st.binary(min_size=48, max_size=300))
    @settings(max_examples=40)
    def test_rolling_is_position_independent(self, data):
        # The fingerprint depends only on the last `window` bytes.
        window = 48
        tail = data[-window:]
        direct = RollingRabin(window=window)
        for b in tail:
            direct.push(b)
        streamed = RollingRabin(window=window)
        for b in data:
            streamed.push(b)
        assert streamed.value == direct.value


class TestWindowFingerprints:
    def test_matches_rolling_oracle(self, random_bytes):
        data = random_bytes[:4096]
        window = 48
        batch = window_fingerprints(data, window=window)
        roller = RollingRabin(window=window)
        stream = [roller.push(b) for b in data]
        for i in range(len(batch)):
            assert int(batch[i]) == stream[i + window - 1]

    def test_short_input_empty(self):
        assert window_fingerprints(b"abc", window=48).shape == (0,)

    def test_exact_window_length(self):
        data = bytes(range(48))
        out = window_fingerprints(data, window=48)
        assert out.shape == (1,)
        assert int(out[0]) == block_fp(data)

    def test_accepts_numpy_input(self, random_bytes):
        arr = np.frombuffer(random_bytes[:1000], dtype=np.uint8)
        a = window_fingerprints(arr, window=16)
        b = window_fingerprints(random_bytes[:1000], window=16)
        assert np.array_equal(a, b)

    @given(st.binary(min_size=8, max_size=200),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_property_matches_rolling(self, data, window):
        batch = window_fingerprints(data, window=window)
        roller = RollingRabin(window=window)
        stream = [roller.push(b) for b in data]
        assert len(batch) == max(0, len(data) - window + 1)
        for i in range(len(batch)):
            assert int(batch[i]) == stream[i + window - 1]

    def test_tables_shape(self):
        tables = window_tables(window=4, poly=POLY64)
        assert tables.shape == (4, 256)
        assert tables.dtype == np.uint64
        # Last position contributes the raw byte value.
        assert int(tables[3, 200]) == 200
