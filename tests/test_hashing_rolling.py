"""Tests for the streaming Rabin reference and the scan's tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChunkingError
from repro.hashing.rabin import POLY64, RabinFingerprinter
from repro.hashing.rolling import window_tables
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


class TestWindowTables:
    def test_tables_shape(self):
        tables = window_tables(window=4, poly=POLY64)
        assert tables.shape == (4, 256)
        assert tables.dtype == np.uint64
        # Last position contributes the raw byte value.
        assert int(tables[3, 200]) == 200
