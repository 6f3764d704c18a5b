"""Unit tests for repro.util.units."""

import pytest

from repro.util.units import (
    GB,
    GIB,
    KIB,
    MIB,
    format_bytes,
    format_seconds,
    parse_size,
)


class TestParseSize:
    def test_plain_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_float_rounds(self):
        assert parse_size(10.6) == 11

    def test_kb_is_binary(self):
        assert parse_size("8KB") == 8 * KIB

    def test_mib(self):
        assert parse_size("1MiB") == MIB

    def test_fractional(self):
        assert parse_size("1.5k") == 1536

    def test_bare_number_string(self):
        assert parse_size("123") == 123

    def test_whitespace_tolerated(self):
        assert parse_size("  2 MB ") == 2 * MIB

    def test_bad_suffix_raises(self):
        with pytest.raises(ValueError):
            parse_size("5 parsecs")

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_size("not a size")


class TestFormatting:
    def test_format_bytes_small(self):
        assert format_bytes(512) == "512B"

    def test_format_bytes_binary(self):
        assert format_bytes(8 * KIB) == "8.0KiB"

    def test_format_bytes_decimal(self):
        assert format_bytes(GB, decimal=True) == "1.0GB"

    def test_format_bytes_large(self):
        assert format_bytes(3 * GIB) == "3.0GiB"

    def test_format_seconds_ms(self):
        assert format_seconds(0.0123) == "12.3ms"

    def test_format_seconds_s(self):
        assert format_seconds(5.25) == "5.2s"

    def test_format_seconds_minutes(self):
        assert format_seconds(90) == "1m30s"

    def test_format_seconds_hours(self):
        assert format_seconds(7265) == "2h1m"

    def test_format_seconds_negative(self):
        assert format_seconds(-90) == "-1m30s"
