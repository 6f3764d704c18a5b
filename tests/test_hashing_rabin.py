"""Unit + property tests for Rabin fingerprinting (repro.hashing.rabin)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashError
from repro.hashing import rabin
from repro.hashing.base import (available_hashes, get_hash,
                                 hash_for_digest_len)
from repro.hashing.rabin import (
    POLY32,
    POLY64,
    ExtendedRabinFingerprinter,
    RabinFingerprinter,
    _RabinCore,
    make_shift_table,
    poly_mod,
    shift_rows,
)
from tests.oracles import is_irreducible, poly_mulmod


class TestPolynomialArithmetic:
    def test_poly_mod_identity_below_degree(self):
        assert poly_mod(0b101, POLY64) == 0b101

    def test_poly_mod_reduces(self):
        # x^64 mod P64 == P64 - x^64 == the low pentanomial bits.
        assert poly_mod(1 << 64, POLY64) == 0b11011

    def test_poly_mulmod_by_one(self):
        assert poly_mulmod(0xDEADBEEF, 1, POLY64) == 0xDEADBEEF

    def test_poly_mulmod_commutative(self):
        a, b = 0x1234567, 0xFEDCBA9
        assert poly_mulmod(a, b, POLY64) == poly_mulmod(b, a, POLY64)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=30)
    def test_mulmod_distributes_over_xor(self, a, b, c):
        # GF(2) linearity: a*(b ^ c) == a*b ^ a*c (mod P).
        left = poly_mulmod(a, b ^ c, POLY64)
        right = poly_mulmod(a, b, POLY64) ^ poly_mulmod(a, c, POLY64)
        assert left == right


class TestIrreducibility:
    def test_poly64_irreducible(self):
        assert is_irreducible(POLY64)

    def test_poly32_irreducible(self):
        assert is_irreducible(POLY32)

    def test_reducible_rejected(self):
        # x^2 is reducible (x * x).
        assert not is_irreducible(0b100)

    def test_product_rejected(self):
        # (x+1)^2 = x^2 + 1.
        assert not is_irreducible(0b101)

    def test_known_small_irreducible(self):
        # x^3 + x + 1 is irreducible over GF(2).
        assert is_irreducible(0b1011)


class TestShiftTable:
    def test_zero_byte_maps_to_zero(self):
        assert make_shift_table(POLY64, 100)[0] == 0

    def test_matches_mulmod(self):
        table = make_shift_table(POLY64, 24)
        for b in (1, 7, 255):
            assert table[b] == poly_mod(b << 24, POLY64)

    @pytest.mark.parametrize("poly", [POLY64, POLY32], ids=["64", "32"])
    def test_shift_rows_grow_from_cold_cache(self, poly, monkeypatch):
        # The one builder behind the CDC window tables and the block
        # digest: a short request, then a longer one that extends it.
        monkeypatch.setattr(rabin, "_SHIFT_ROWS", {})
        short = shift_rows(poly, 48)
        rows = shift_rows(poly, 520)
        assert rabin._SHIFT_ROWS[poly].shape == (520, 256)
        assert np.array_equal(rows[:48], short)
        assert not rows.flags.writeable
        for m in (0, 1, 8, 47, 48, 511, 519):
            assert tuple(rows[m].tolist()) == make_shift_table(poly, 8 * m)
        data = bytes(range(256)) * 20
        core = _RabinCore(poly)
        slow = 0
        for b in data:
            slow = core.append_byte(slow, b)
        assert core.digest_bytes_fast(data) == slow


class TestRabinFingerprinter:
    def test_digest_size(self):
        assert RabinFingerprinter().digest_size == 8

    def test_deterministic(self):
        f = RabinFingerprinter()
        assert f.hash(b"abc") == f.hash(b"abc")

    def test_distinct_inputs_distinct_digests(self):
        f = RabinFingerprinter()
        assert f.hash(b"abc") != f.hash(b"abd")

    def test_empty_input(self):
        assert RabinFingerprinter().hash(b"") == b"\0" * 8

    def test_matches_polynomial_definition(self):
        # fp("ab") = ('a' * x^8 + 'b') mod P.
        f = RabinFingerprinter()
        expected = poly_mod((ord("a") << 8) | ord("b"), POLY64)
        assert int.from_bytes(f.hash(b"ab"), "big") == expected

    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=1,
                                                         max_size=8))
    @settings(max_examples=50)
    def test_append_consistency(self, prefix, suffix):
        # Streaming from the prefix state equals hashing the concatenation.
        f = RabinFingerprinter()
        state = f._core.digest_bytes(prefix)
        assert f._core.digest_bytes(suffix, state) == f._core.digest_bytes(
            prefix + suffix)

    def test_degree_must_be_multiple_of_8(self):
        with pytest.raises(HashError):
            RabinFingerprinter(poly=(1 << 9) | 0b11, name="bad")


class TestVectorisedDigest:
    """The NumPy block digest must be bit-identical to the byte loop."""

    @given(st.binary(min_size=0, max_size=3000))
    @settings(max_examples=40, deadline=None)
    def test_property_fast_equals_slow(self, data):
        core = RabinFingerprinter()._core
        slow = 0
        for b in data:
            slow = core.append_byte(slow, b)
        assert core.digest_bytes_fast(data) == slow

    @pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1024, 4095,
                                   4096, 4097, 10_000])
    def test_block_boundaries(self, n):
        data = bytes(range(256)) * (n // 256 + 1)
        data = data[:n]
        core = RabinFingerprinter()._core
        slow = 0
        for b in data:
            slow = core.append_byte(slow, b)
        assert core.digest_bytes(data) == slow

    def test_large_input_uses_fast_path_and_matches(self):
        import numpy as np
        data = np.random.default_rng(9).integers(
            0, 256, 100_000, dtype=np.uint8).tobytes()
        f = RabinFingerprinter()
        by_loop = 0
        for b in data:
            by_loop = f._core.append_byte(by_loop, b)
        assert int.from_bytes(f.hash(data), "big") == by_loop

    def test_initial_state_respected(self):
        core = RabinFingerprinter()._core
        prefix, body = b"prefix!", bytes(2048)
        state = core.digest_bytes(prefix)
        assert core.digest_bytes_fast(body, state) == core.digest_bytes(
            prefix + body)


class TestExtendedRabin:
    def test_digest_is_12_bytes(self):
        assert len(ExtendedRabinFingerprinter().hash(b"payload")) == 12

    def test_halves_are_independent_fingerprints(self):
        ext = ExtendedRabinFingerprinter()
        digest = ext.hash(b"payload")
        hi = RabinFingerprinter(POLY64).hash(b"payload")
        assert digest[:8] == hi

    def test_rejects_wrong_total_width(self):
        with pytest.raises(HashError):
            ExtendedRabinFingerprinter(poly_hi=POLY64, poly_lo=POLY64)


class TestRegistry:
    def test_expected_names_present(self):
        names = available_hashes()
        for expected in ("rabin12", "rabin64", "md5", "sha1"):
            assert expected in names

    def test_get_hash_caches_instances(self):
        assert get_hash("md5") is get_hash("md5")

    def test_unknown_hash_raises(self):
        with pytest.raises(HashError):
            get_hash("sha0")

    def test_digest_sizes_match_paper(self):
        # 12 B Rabin / 16 B MD5 / 20 B SHA-1 (paper Sec. III-D).
        assert get_hash("rabin12").digest_size == 12
        assert get_hash("md5").digest_size == 16
        assert get_hash("sha1").digest_size == 20


class TestHashForDigestLen:
    def test_registry_resolution(self):
        assert hash_for_digest_len(12).name == "rabin12"
        assert hash_for_digest_len(16).name == "md5"
        assert hash_for_digest_len(20).name == "sha1"
        assert hash_for_digest_len(57) is None

    def test_matches_restore_and_scrub_usage(self):
        for n in (12, 16, 20):
            hasher = hash_for_digest_len(n)
            assert hasher.digest_size == n
