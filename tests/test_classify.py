"""Tests for application classification and the Fig. 6 policy table."""

import pytest

from repro.classify import (
    AA_POLICY_TABLE,
    AppType,
    Category,
    UNKNOWN,
    classify_name,
    classify_path,
    known_app_types,
    register_app_type,
)
from repro.baselines import backuppc_config
from repro.chunking import (FastCDC, GearCDC, RabinCDC, SeqCDC,
                            StaticChunker, WholeFileChunker)
from repro.classify.policy import make_chunker
from repro.core.options import SchemeConfig, aa_dedupe_config
from repro.errors import ConfigError


class TestClassifyByExtension:
    @pytest.mark.parametrize("name,label,category", [
        ("song.mp3", "mp3", Category.COMPRESSED),
        ("movie.AVI", "avi", Category.COMPRESSED),
        ("archive.rar", "rar", Category.COMPRESSED),
        ("photo.jpeg", "jpg", Category.COMPRESSED),
        ("disk.iso", "iso", Category.COMPRESSED),
        ("image.dmg", "dmg", Category.COMPRESSED),
        ("paper.pdf", "pdf", Category.STATIC),
        ("setup.exe", "exe", Category.STATIC),
        ("vm.vmdk", "vmdk", Category.STATIC),
        ("letter.doc", "doc", Category.DYNAMIC),
        ("notes.txt", "txt", Category.DYNAMIC),
        ("slides.ppt", "ppt", Category.DYNAMIC),
    ])
    def test_paper_twelve_apps(self, name, label, category):
        app = classify_name(name)
        assert app.label == label
        assert app.category == category

    def test_unknown_extension(self):
        assert classify_name("file.xyzzy") is UNKNOWN

    def test_no_extension(self):
        assert classify_name("Makefile") is UNKNOWN

    def test_path_variant(self):
        assert classify_path("/home/u/docs/a.b.PDF").label == "pdf"

    def test_unknown_is_dynamic(self):
        # Conservative fallback: strongest hash, finest chunking.
        assert UNKNOWN.category == Category.DYNAMIC

    def test_registry_collision_detected(self):
        with pytest.raises(ValueError):
            register_app_type(AppType("dupe", Category.COMPRESSED, ("mp3",)))

    def test_known_app_types_sorted(self):
        labels = [a.label for a in known_app_types()]
        assert labels == sorted(labels)
        assert "vmdk" in labels


class TestPolicyTable:
    def test_compressed_policy(self):
        p = AA_POLICY_TABLE[Category.COMPRESSED]
        assert p.chunker == "wfc" and p.hash_name == "rabin12"
        assert isinstance(p.make_chunker(), WholeFileChunker)

    def test_static_policy(self):
        p = AA_POLICY_TABLE[Category.STATIC]
        assert p.chunker == "sc" and p.hash_name == "md5"
        chunker = p.make_chunker()
        assert isinstance(chunker, StaticChunker)
        assert chunker.chunk_size == 8192

    def test_dynamic_policy(self):
        p = AA_POLICY_TABLE[Category.DYNAMIC]
        assert p.chunker == "cdc" and p.hash_name == "sha1"
        chunker = p.make_chunker()
        assert isinstance(chunker, RabinCDC)
        assert (chunker.min_size, chunker.max_size) == (2048, 16384)
        assert chunker.window == 48

    def test_policy_for_path(self):
        app = classify_path("backup/report.doc")
        assert app.label == "doc"
        assert aa_dedupe_config().policy_for_app(app).chunker == "cdc"

    def test_policy_for_category_custom_table(self):
        # A scheme's table must cover every category: a gap is refused
        # at construction, never discovered mid-backup.
        cdc = AA_POLICY_TABLE[Category.DYNAMIC]
        table = dict.fromkeys(Category, cdc)
        assert SchemeConfig("x", policy_table=table).policy_table[
            Category.COMPRESSED] is cdc
        with pytest.raises(ConfigError, match="static"):
            SchemeConfig("x", policy_table={Category.COMPRESSED: cdc,
                                            Category.DYNAMIC: cdc})

    def test_fingerprinter_resolution(self):
        for policy in AA_POLICY_TABLE.values():
            fp = policy.fingerprinter()
            assert fp.digest_size in (12, 16, 20)

    def test_fast_chunker_policies_resolve(self):
        for name, cls in [("gear", GearCDC), ("fastcdc", FastCDC),
                          ("seqcdc", SeqCDC)]:
            chunker = make_chunker(name, {"avg_size": 4096,
                                          "min_size": 1024,
                                          "max_size": 8192})
            assert isinstance(chunker, cls)
            assert (chunker.min_size, chunker.max_size) == (1024, 8192)

    def test_make_chunker_unknown_name_lists_valid_names(self):
        with pytest.raises(ConfigError) as excinfo:
            make_chunker("bogus", {})
        message = str(excinfo.value)
        assert "'bogus'" in message
        for name in ("wfc", "sc", "cdc", "gear", "fastcdc", "seqcdc"):
            assert name in message


class TestCDCPolicyVariant:
    """``SchemeConfig.with_chunker`` re-targets the CDC rows of a
    policy table at another engine of the family."""

    def test_retarget_keeps_geometry_drops_engine_params(self):
        base = AA_POLICY_TABLE[Category.DYNAMIC]
        variant = aa_dedupe_config().with_chunker("fastcdc").policy_table[
            Category.DYNAMIC]
        assert variant.chunker == "fastcdc"
        assert variant.hash_name == base.hash_name
        assert "window" not in variant.chunker_params
        chunker = variant.make_chunker()
        assert isinstance(chunker, FastCDC)
        assert (chunker.min_size, chunker.max_size) == (2048, 16384)

    def test_same_engine_is_identity(self):
        table = aa_dedupe_config().with_chunker("cdc").policy_table
        assert all(table[c] is AA_POLICY_TABLE[c] for c in Category)

    def test_non_cdc_policy_rejected(self):
        # WFC and SC rows keep their engine; a scheme with no CDC row
        # has nothing to swap.
        table = aa_dedupe_config().with_chunker("seqcdc").policy_table
        for category in (Category.COMPRESSED, Category.STATIC):
            assert table[category] is AA_POLICY_TABLE[category]
        with pytest.raises(ConfigError, match="no content-defined"):
            backuppc_config().with_chunker("seqcdc")

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError,
                           match="cdc, gear, fastcdc, seqcdc"):
            aa_dedupe_config().with_chunker("bogus")
