"""Unit tests for repro.util.io and repro.util.timer."""

import os

import pytest

from repro.util.io import atomic_write_bytes, walk_files
from repro.util.timer import Stopwatch, WallClock


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "a" / "b.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_overwrite(self, tmp_path):
        target = tmp_path / "x.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"

    def test_no_temp_residue(self, tmp_path):
        atomic_write_bytes(tmp_path / "f", b"data")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["f"]


class TestWalkFiles:
    def test_walk_sorted_and_relative(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.txt").write_bytes(b"22")
        (tmp_path / "a.txt").write_bytes(b"1")
        (tmp_path / "sub" / "c.txt").write_bytes(b"333")
        stats = list(walk_files(tmp_path))
        assert [s.relpath for s in stats] == ["a.txt", "b.txt", "sub/c.txt"]
        assert [s.size for s in stats] == [1, 2, 3]

    def test_skips_symlinks(self, tmp_path):
        (tmp_path / "real.txt").write_bytes(b"x")
        os.symlink(tmp_path / "real.txt", tmp_path / "link.txt")
        stats = list(walk_files(tmp_path))
        assert [s.relpath for s in stats] == ["real.txt"]

    def test_empty_dir(self, tmp_path):
        assert list(walk_files(tmp_path)) == []


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        first = sw.elapsed
        with sw:
            pass
        assert sw.elapsed >= first >= 0.0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset(self):
        sw = Stopwatch().start()
        sw.stop()
        sw.reset()
        assert sw.elapsed == 0.0 and not sw.running

    def test_custom_clock(self):
        class Fake:
            t = 0.0

            def now(self):
                self.t += 2.0
                return self.t

        sw = Stopwatch(clock=Fake())
        sw.start()
        assert sw.stop() == 2.0

    def test_wallclock_monotonic(self):
        clock = WallClock()
        assert clock.now() <= clock.now()
