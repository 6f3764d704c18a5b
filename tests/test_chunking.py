"""Tests for the chunking substrate: WFC, SC, the CDC family and shared
invariants, including the differential checks of every vectorised scan
against the per-byte references in ``tests/oracles.py``."""

import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import (
    CDC_FAMILY,
    Chunk,
    ContentDefinedChunker,
    FastCDC,
    GearCDC,
    RabinCDC,
    SeqCDC,
    StaticChunker,
    WholeFileChunker,
)
from repro.chunking.cdc import default_mask_bits
from repro.chunking.gear import GEAR_WINDOW, gear_table, gear_window_hashes
from repro.classify.policy import make_chunker
from repro.errors import ChunkingError, ConfigError
from repro.hashing import rabin, rolling
from repro.hashing.rabin import POLY64
from repro.hashing.rolling import SLAB, lane_tables, window_candidates
from repro.util.units import KIB
from tests.oracles import (
    RollingRabin,
    reference_candidates,
    reference_cut_points,
)


def assert_partition(chunker, data: bytes) -> list:
    """Assert the chunker invariants and return the chunks."""
    chunks = chunker.chunk(data)
    if not data:
        assert chunks == []
        return chunks
    assert chunks[0].offset == 0
    for a, b in zip(chunks, chunks[1:]):
        assert a.end == b.offset
    assert chunks[-1].end == len(data)
    assert b"".join(c.data for c in chunks) == data
    return chunks


class TestChunkRecord:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ChunkingError):
            Chunk(offset=0, length=5, data=b"abc")

    def test_end(self):
        assert Chunk(offset=10, length=3, data=b"abc").end == 13


class TestWholeFileChunker:
    def test_single_chunk(self):
        chunks = assert_partition(WholeFileChunker(), b"some file content")
        assert len(chunks) == 1

    def test_empty_file(self):
        assert_partition(WholeFileChunker(), b"")


class TestStaticChunker:
    def test_exact_multiple(self):
        chunks = assert_partition(StaticChunker(chunk_size=4), b"abcdefgh")
        assert [c.length for c in chunks] == [4, 4]

    def test_tail_chunk(self):
        chunks = assert_partition(StaticChunker(chunk_size=4), b"abcdefghi")
        assert [c.length for c in chunks] == [4, 4, 1]

    def test_file_smaller_than_chunk(self):
        chunks = assert_partition(StaticChunker(chunk_size=1024), b"tiny")
        assert len(chunks) == 1

    def test_default_is_8kib(self):
        assert StaticChunker().chunk_size == 8 * KIB

    def test_invalid_size(self):
        with pytest.raises(ChunkingError):
            StaticChunker(chunk_size=0)

    def test_boundary_shift_on_insert(self, random_bytes):
        # The SC weakness the paper exploits CDC for: one inserted byte
        # invalidates every later chunk.
        data = random_bytes[:64 * 1024]
        mutated = data[:100] + b"!" + data[100:]
        sc = StaticChunker(chunk_size=4 * KIB)
        before = {c.data for c in sc.chunk(data)}
        after = {c.data for c in sc.chunk(mutated)}
        assert len(before & after) <= 1

    @given(st.binary(max_size=5000), st.integers(1, 900))
    @settings(max_examples=40)
    def test_property_partition(self, data, size):
        assert_partition(StaticChunker(chunk_size=size), data)


class TestRabinCDC:
    def test_parameter_validation(self):
        with pytest.raises(ChunkingError):
            RabinCDC(min_size=0)
        with pytest.raises(ChunkingError):
            RabinCDC(min_size=100, avg_size=50, max_size=200)
        with pytest.raises(ChunkingError):
            RabinCDC(avg_size=300, min_size=200, max_size=250)

    def test_default_mask_bits(self):
        # 8 KiB avg / 2 KiB min -> round(log2(6144)) = 13.
        assert default_mask_bits(8 * KIB, 2 * KIB) == 13

    def test_partition_invariants(self, random_bytes):
        assert_partition(RabinCDC(), random_bytes)

    def test_chunk_size_bounds(self, random_bytes):
        cdc = RabinCDC()
        chunks = cdc.chunk(random_bytes)
        for c in chunks[:-1]:
            assert cdc.min_size <= c.length <= cdc.max_size
        assert chunks[-1].length <= cdc.max_size

    def test_mean_chunk_size_near_expected(self, rng):
        data = rng.integers(0, 256, size=2 * 1024 * 1024,
                            dtype=np.uint8).tobytes()
        cdc = RabinCDC()
        chunks = cdc.chunk(data)
        mean = len(data) / len(chunks)
        expected = cdc.min_size + (1 << cdc.mask_bits)   # pre-clamp
        assert 0.5 * expected < mean < 1.6 * expected

    def test_numpy_matches_python_oracle(self, random_bytes):
        data = random_bytes[:96 * 1024]
        cdc = RabinCDC()
        assert cdc.cut_points(data) == reference_cut_points(cdc, data)

    def test_content_defined_boundaries_survive_insert(self, random_bytes):
        data = random_bytes[:128 * 1024]
        mutated = data[: 40 * 1024] + b"INSERTED" * 4 + data[40 * 1024:]
        cdc = RabinCDC()
        before = {c.data for c in cdc.chunk(data)}
        after = {c.data for c in cdc.chunk(mutated)}
        # Most chunks survive (only those straddling the edit change).
        assert len(before & after) >= 0.6 * len(before)

    def test_zero_runs_forced_cuts(self):
        # All-zero data never matches the magic (fp == 0), so CDC emits
        # forced max-size cuts — Observation 3's failure mode.
        data = bytes(200 * 1024)
        cdc = RabinCDC()
        chunks = cdc.chunk(data)
        assert all(c.length == cdc.max_size for c in chunks[:-1])

    def test_small_file_single_chunk(self):
        chunks = RabinCDC().chunk(b"below minimum size")
        assert len(chunks) == 1

    def test_empty(self):
        assert RabinCDC().chunk(b"") == []

    def test_boundaries_deterministic(self, random_bytes):
        cdc = RabinCDC()
        assert cdc.cut_points(random_bytes) == cdc.cut_points(random_bytes)

    @given(st.binary(max_size=30_000))
    @settings(max_examples=25, deadline=None)
    def test_property_partition(self, data):
        cdc = RabinCDC(avg_size=1024, min_size=256, max_size=4096, window=16)
        assert_partition(cdc, data)
        for c in cdc.chunk(data)[:-1]:
            assert 256 <= c.length <= 4096


class TestRegistry:
    """Policy names resolve through ``make_chunker``, the one
    name → chunker table."""

    def test_names(self):
        assert CDC_FAMILY == ("cdc", "gear", "fastcdc", "seqcdc")
        for name in ("wfc", "sc") + CDC_FAMILY:
            assert make_chunker(name, {}).name == name

    def test_get_chunker_defaults(self):
        assert isinstance(make_chunker("cdc", {}), RabinCDC)
        assert make_chunker("sc", {}).chunk_size == 8 * KIB
        assert isinstance(make_chunker("gear", {}), GearCDC)
        assert isinstance(make_chunker("fastcdc", {}), FastCDC)
        assert isinstance(make_chunker("seqcdc", {}), SeqCDC)

    def test_cdc_family_members_share_geometry(self):
        for name in CDC_FAMILY:
            chunker = make_chunker(name, {})
            assert isinstance(chunker, ContentDefinedChunker)
            assert (chunker.min_size, chunker.max_size) == (2048, 16384)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_chunker("rolling-stones", {})


# ---------------------------------------------------------------------------
# The fast-chunker family: Gear, FastCDC, SeqCDC.

def _fast_classes():
    return [GearCDC, FastCDC, SeqCDC]


def _adversarial_cases(rng):
    """The differential-oracle input set from the issue: random buffers
    plus the inputs most likely to expose scan/warm-up disagreements."""
    return {
        "random": rng.integers(0, 256, 120_000,
                               dtype=np.uint8).tobytes(),
        "all-zero": bytes(80_000),
        "repeated-byte": b"\xc7" * 80_000,
        "ascending-cycle": bytes(range(256)) * 300,
        "shorter-than-window": rng.integers(0, 256, 5,
                                            dtype=np.uint8).tobytes(),
        "window-minus-one": rng.integers(0, 256, GEAR_WINDOW - 1,
                                         dtype=np.uint8).tobytes(),
        "exactly-min": rng.integers(0, 256, 2048,
                                    dtype=np.uint8).tobytes(),
        "exactly-max": rng.integers(0, 256, 16384,
                                    dtype=np.uint8).tobytes(),
        "empty": b"",
    }


#: Non-default Rabin geometries for the differential oracle.
_RABIN_GEOMETRIES = [
    {"window": 47}, {"window": 1}, {"window": 2},
    {"mask_bits": 17}, {"mask_bits": 31}, {"mask_bits": 40},
    {"magic": 0x0A5A},
]

#: Geometries at the lane-scan boundaries: windows around the four-lane
#: group, masks on each side of the 16- and 32-bit lane widths (four,
#: two and one positions per ``uint64``).  Their cases draw data from
#: :func:`_lane_rng`, not the session ``rng``, so adding them left every
#: later test's data as it was.
_LANE_GEOMETRIES = [
    {"window": 3}, {"window": 4}, {"window": 5},
    {"mask_bits": 16}, {"mask_bits": 32}, {"mask_bits": 33},
    {"mask_bits": 63},
]


def _lane_rng() -> np.random.Generator:
    return np.random.default_rng(0x1A4E)


@pytest.fixture
def fresh_lane_cache(monkeypatch):
    """A cold lane-table cache for one test; the tables it builds are
    dropped afterwards."""
    monkeypatch.setattr(rolling, "_LANE_CACHE", {})


def _planted_magic(data: bytes, window: int) -> int:
    """The fingerprint of one window inside ``data`` (0 when too short),
    so a chunker with this magic has at least one candidate."""
    if len(data) < window:
        return 0
    at = min(len(data) - window, 100)
    return RollingRabin.of(data[at:at + window], window=window)


class TestGearHash:
    def test_gear_table_deterministic(self):
        table = gear_table()
        assert table.shape == (256,) and table.dtype == np.uint32
        assert np.array_equal(table, gear_table())

    def test_window_hashes_match_streaming_recurrence(self, rng):
        data = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        gear = [int(v) for v in gear_table()]
        h, expected = 0, []
        for pos, byte in enumerate(data):
            h = ((h << 1) + gear[byte]) & 0xFFFFFFFF
            if pos + 1 >= GEAR_WINDOW:
                expected.append(h)
        assert gear_window_hashes(data).tolist() == expected

    def test_window_hashes_short_input(self):
        assert gear_window_hashes(b"x" * (GEAR_WINDOW - 1)).size == 0


class TestGearCDC:
    def test_parameter_validation(self):
        with pytest.raises(ChunkingError):
            GearCDC(min_size=0)
        with pytest.raises(ChunkingError):
            GearCDC(min_size=100, avg_size=50, max_size=200)
        with pytest.raises(ChunkingError):
            GearCDC(mask_bits=0)
        with pytest.raises(ChunkingError):
            GearCDC(mask_bits=32)

    def test_mask_selects_high_bits(self):
        gear = GearCDC(mask_bits=13)
        assert gear.mask == 0x1FFF << 19
        assert gear.magic == gear.mask

    def test_mean_chunk_size_near_expected(self, rng):
        data = rng.integers(0, 256, size=2 * 1024 * 1024,
                            dtype=np.uint8).tobytes()
        gear = GearCDC()
        chunks = gear.chunk(data)
        mean = len(data) / len(chunks)
        expected = gear.min_size + (1 << gear.mask_bits)   # pre-clamp
        assert 0.5 * expected < mean < 1.6 * expected

    def test_low_entropy_forced_cuts(self):
        # No gear candidate fires on constant data (magic is all-ones
        # under the mask), so the family degrades to forced max-size
        # cuts exactly like Rabin — Observation 3's failure mode.
        gear = GearCDC()
        for data in (bytes(100_000), b"\x5a" * 100_000):
            chunks = gear.chunk(data)
            assert all(c.length == gear.max_size for c in chunks[:-1])

    def test_boundaries_survive_insert(self, random_bytes):
        data = random_bytes[:128 * 1024]
        mutated = data[: 40 * 1024] + b"INSERTED" * 4 + data[40 * 1024:]
        gear = GearCDC()
        before = {c.data for c in gear.chunk(data)}
        after = {c.data for c in gear.chunk(mutated)}
        assert len(before & after) >= 0.6 * len(before)


class TestFastCDC:
    def test_parameter_validation(self):
        with pytest.raises(ChunkingError):
            FastCDC(normal_size=1024)          # below min
        with pytest.raises(ChunkingError):
            FastCDC(normal_size=32 * KIB)      # above max
        with pytest.raises(ChunkingError):
            FastCDC(norm_level=-1)

    def test_masks_nest(self, random_bytes):
        fast = FastCDC()
        assert fast.small_bits > fast.large_bits
        assert fast.mask_small & fast.mask_large == fast.mask_large
        small, large = fast._candidate_pair(random_bytes)
        assert set(small.tolist()) <= set(large.tolist())

    def test_level0_full_normal_cuts_like_gear(self, random_bytes):
        # With no normalization and the normal point at the maximum, the
        # two-mask walk degenerates to the plain gear walk.
        fast = FastCDC(norm_level=0, normal_size=16 * KIB)
        for data in (random_bytes, bytes(40_000),
                     bytes(range(256)) * 100):
            assert fast.cut_points(data) == GearCDC().cut_points(data)

    def test_normalization_tightens_distribution(self, rng):
        """The two-mask walk trades tail chunks for centre chunks: far
        fewer forced maximum-size cuts than the single-mask gear scan,
        and a mean still near the 8 KiB target."""
        data = rng.integers(0, 256, size=4 * 1024 * 1024,
                            dtype=np.uint8).tobytes()
        gear_sizes = np.diff([0] + GearCDC().cut_points(data))
        fast = FastCDC()
        fast_sizes = np.diff([0] + fast.cut_points(data))
        forced_gear = np.mean(gear_sizes == 16384)
        forced_fast = np.mean(fast_sizes == 16384)
        assert forced_fast < 0.5 * forced_gear
        assert 0.6 * fast.avg_size < fast_sizes.mean() < 1.6 * fast.avg_size

    def test_low_entropy_forced_cuts(self):
        fast = FastCDC()
        chunks = fast.chunk(bytes(100_000))
        assert all(c.length == fast.max_size for c in chunks[:-1])

    def test_boundaries_survive_insert(self, random_bytes):
        data = random_bytes[:128 * 1024]
        mutated = data[: 40 * 1024] + b"INSERTED" * 4 + data[40 * 1024:]
        fast = FastCDC()
        before = {c.data for c in fast.chunk(data)}
        after = {c.data for c in fast.chunk(mutated)}
        assert len(before & after) >= 0.6 * len(before)


class TestSeqCDC:
    def test_parameter_validation(self):
        with pytest.raises(ChunkingError):
            SeqCDC(seq_length=1)
        with pytest.raises(ChunkingError):
            SeqCDC(seq_length=300)
        with pytest.raises(ChunkingError):
            SeqCDC(min_size=0)

    def test_cuts_after_ascending_runs(self):
        # One long ascending ramp placed past min_size must attract the
        # first cut to its end (run end = earliest candidate).
        seq = SeqCDC(avg_size=512, min_size=128, max_size=4096,
                     seq_length=5)
        ramp_at = 200
        data = bytearray(b"\x80\x00" * 3000)   # no ascents anywhere else
        data[ramp_at: ramp_at + 5] = bytes(range(10, 15))
        data[ramp_at - 1] = 0xFF               # pin the run start
        cuts = seq.cut_points(bytes(data))
        assert cuts[0] == ramp_at + 5

    def test_low_entropy_forced_cuts(self):
        seq = SeqCDC()
        chunks = seq.chunk(b"\x11" * 100_000)
        assert all(c.length == seq.max_size for c in chunks[:-1])

    def test_mean_chunk_size_near_expected(self, rng):
        data = rng.integers(0, 256, size=2 * 1024 * 1024,
                            dtype=np.uint8).tobytes()
        seq = SeqCDC()
        mean = len(data) / len(seq.chunk(data))
        assert 0.5 * seq.avg_size < mean < 1.6 * seq.avg_size


def _scan(chunker, data: bytes):
    """The production candidate scan, shaped like
    :func:`tests.oracles.reference_candidates`."""
    if isinstance(chunker, FastCDC):
        return chunker._candidate_pair(data)
    return chunker._candidates(data)


def _same_candidates(got, want) -> bool:
    if isinstance(want, tuple):
        return all(np.array_equal(g, w) for g, w in zip(got, want))
    return np.array_equal(got, want)


class TestDifferentialOracles:
    """Vectorized slab scans and the ``searchsorted`` walk must be
    byte-identical to the per-byte references in ``tests/oracles.py`` —
    on random buffers and on every adversarial input class."""

    @pytest.mark.parametrize("cls", _fast_classes(),
                             ids=lambda c: c.name)
    def test_cut_points_identical(self, cls, rng):
        for label, data in _adversarial_cases(rng).items():
            chunker = cls()
            assert chunker.cut_points(data) == reference_cut_points(
                chunker, data), label

    @pytest.mark.parametrize("cls", _fast_classes(),
                             ids=lambda c: c.name)
    def test_candidates_identical(self, cls, rng):
        for label, data in _adversarial_cases(rng).items():
            chunker = cls()
            assert _same_candidates(_scan(chunker, data),
                                    reference_candidates(chunker, data)), label

    def test_fastcdc_candidate_pair_identical(self, rng):
        fast = FastCDC()
        for label, data in _adversarial_cases(rng).items():
            ns, nl = fast._candidate_pair(data)
            ps, pl = reference_candidates(fast, data)
            assert np.array_equal(ns, ps) and np.array_equal(nl, pl), label

    @pytest.mark.parametrize("params", _RABIN_GEOMETRIES + _LANE_GEOMETRIES,
                             ids=lambda p: ",".join(f"{k}={v}"
                                                    for k, v in p.items()))
    def test_rabin_geometries_identical(self, params, rng,
                                        fresh_lane_cache):
        if params in _LANE_GEOMETRIES:
            rng = _lane_rng()
        # Windows shorter than the four-lane group leave lane tables with
        # zero rows; masks over 16 and 32 bits take the two- and one-lane
        # scans.
        chunker = RabinCDC(**params)
        for label, data in _adversarial_cases(rng).items():
            assert np.array_equal(chunker._candidates(data),
                                  reference_candidates(chunker, data)), label
            # A magic planted from the data itself guarantees hits even
            # under masks too wide for random data to match.
            planted = RabinCDC(**{**params, "magic": _planted_magic(
                data, chunker.window)})
            assert np.array_equal(planted._candidates(data),
                                  reference_candidates(planted, data)), label

    @pytest.mark.parametrize("window", [48, 47])
    def test_rabin_slab_edges(self, window, rng, fresh_lane_cache):
        chunker = RabinCDC(window=window)
        # With the lengths drawn from _lane_rng, positions n - window + 1
        # cover every remainder mod the four lanes, in a lone slab and in
        # a last slab after a full one.
        cases = [(n, rng) for n in (SLAB - 1, SLAB, SLAB + window - 1,
                                    SLAB + window, 2 * SLAB + window - 1)]
        cases += [(n, _lane_rng()) for n in (window + 1, window + 2,
                                             SLAB + window + 1,
                                             SLAB + window + 2)]
        for n, gen in cases:
            data = gen.integers(0, 256, n, dtype=np.uint8).tobytes()
            planted = RabinCDC(window=window, mask_bits=20,
                               magic=_planted_magic(data, window))
            for c in (chunker, planted):
                assert np.array_equal(c._candidates(data),
                                      reference_candidates(c, data)), n

    @given(window=st.integers(min_value=1, max_value=64),
           mask_bits=st.integers(min_value=1, max_value=63),
           magic=st.integers(min_value=0, max_value=(1 << 63) - 1),
           data=st.binary(max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_rabin_property_any_geometry(self, window, mask_bits, magic,
                                         data):
        chunker = RabinCDC(window=window, mask_bits=mask_bits, magic=magic)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rolling, "_LANE_CACHE", {})
            assert np.array_equal(chunker._candidates(data),
                                  reference_candidates(chunker, data))

    def test_rabin_cold_cache_threads_agree(self, rng, monkeypatch):
        """Prepare threads racing on cold lane-table and shift-row
        caches all cut identically and end up sharing the one published
        lane table."""
        data = rng.integers(0, 256, 3 * SLAB, dtype=np.uint8).tobytes()
        expected = reference_cut_points(RabinCDC(), data)
        chunker = RabinCDC()
        key = (chunker.window, chunker.poly, chunker.mask)
        threads = 4  # more than the staged engine's two, and the cores

        def worker(barrier, results, i):
            barrier.wait(timeout=30)
            # Staggered so later threads look the key up while the first
            # is still building its tables (about 2 ms).
            time.sleep(0.0005 * i)
            results[i] = RabinCDC().cut_points(data)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(rolling, "_LANE_CACHE", {})
                monkeypatch.setattr(rabin, "_SHIFT_ROWS", {})
                barrier = threading.Barrier(threads)
                results: dict = {}
                pool = [threading.Thread(target=worker,
                                         args=(barrier, results, i))
                        for i in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert [results[i] for i in range(threads)] == \
                    [expected] * threads
                assert list(rolling._LANE_CACHE) == [key]
                assert list(rabin._SHIFT_ROWS) == [chunker.poly]
                assert lane_tables(*key) is rolling._LANE_CACHE[key]
        finally:
            sys.setswitchinterval(old)

    def test_paper_geometry_lane_table_is_cache_sized(self):
        # Four 16-bit lanes: window + 3 rows of 256 uint64, not the
        # 24 x 128 KiB byte-pair tables this scan replaced.
        tables = lane_tables(48, POLY64, RabinCDC().mask)
        assert tables.shape == (51, 256) and tables.dtype == np.uint64
        assert tables.nbytes <= 128 * KIB

    @pytest.mark.parametrize("mask,magic", [
        (0x1FFF, 0x11FFF), (0xFFFF, 0x10000),
        ((1 << 32) - 1, 1 << 32), ((1 << 40) - 1, 1 << 40),
        ((1 << 63) - 1, 1 << 63)],
        ids=["13bit", "16bit", "32bit", "40bit", "63bit"])
    def test_magic_outside_mask_rejected(self, mask, magic):
        # Every lane width refuses it up front, instead of overflowing a
        # narrow dtype or silently matching nothing in a wide one.
        data = bytes(range(256)) * 4
        with pytest.raises(ValueError, match="outside mask"):
            window_candidates(data, 48, POLY64, mask, magic)


def _versioned_documents(docs=4, sessions=4, doc_kib=64, seed=2011):
    """Flat list of document versions under light editing: a few small
    in-place edits plus one insertion per version."""
    r = np.random.default_rng(seed)

    def edit(data):
        arr = bytearray(data)
        for _ in range(int(r.integers(2, 7))):
            pos = int(r.integers(0, max(1, len(arr) - 40)))
            arr[pos:pos + 24] = r.integers(0, 256, 24,
                                           dtype=np.uint8).tobytes()
        pos = int(r.integers(0, len(arr) + 1))
        patch = r.integers(0, 256, int(r.integers(16, 80)),
                           dtype=np.uint8).tobytes()
        return bytes(arr[:pos]) + patch + bytes(arr[pos:])

    current = [r.integers(0, 256, doc_kib * 1024, dtype=np.uint8).tobytes()
               for _ in range(docs)]
    versions = []
    for _ in range(sessions):
        versions.extend(current)
        current = [edit(doc) for doc in current]
    return versions


def _dedup_ratio(chunker, buffers) -> float:
    seen = set()
    total = unique = 0
    for data in buffers:
        for chunk in chunker.chunk(data):
            total += chunk.length
            digest = hashlib.sha1(chunk.data).digest()
            if digest not in seen:
                seen.add(digest)
                unique += chunk.length
    return total / unique


class TestDedupRatioParity:
    """The speed family must not silently wreck the metric the paper
    optimizes: on the versioned-document workload each fast engine's
    dedup ratio stays within 5% of the Rabin baseline."""

    def test_fast_family_within_5pct_of_rabin(self):
        versions = _versioned_documents()
        rabin = _dedup_ratio(RabinCDC(), versions)
        for cls in (FastCDC, GearCDC):
            ratio = _dedup_ratio(cls(), versions)
            assert ratio >= 0.95 * rabin, (cls.name, ratio, rabin)
