"""The legal-config matrix: which :class:`SchemeConfig` combinations the
constructor accepts, pinned against a rule written here independently,
plus one restore property over every legal configuration."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classify import AA_POLICY_TABLE, Category
from repro.cloud import InMemoryBackend
from repro.core import BackupClient, MemorySource, RestoreClient
from repro.core.options import SchemeConfig
from repro.errors import ConfigError
from repro.util.units import KIB
from tests.strategies import legal_scheme_configs

#: Every cross-field feature, with the values the matrix takes.
AXES = {
    "incremental_only": (False, True),
    "encrypt_chunks": (False, True),
    "stat_cache": (False, True),
    "parallel_workers": (1, 2),
    "pipeline_uploads": (False, True),
    "use_containers": (False, True),
    "index_layout": ("app", "global", "tier"),
}

MASTER = b"matrix master key".ljust(32, b"\0")


def legal(combo: dict) -> bool:
    """The legality rule, from what each feature needs to run."""
    # Each of these works on chunks and fingerprints, which an
    # incremental-only scheme never produces.
    needs_dedup = (combo["encrypt_chunks"] or combo["stat_cache"]
                   or combo["parallel_workers"] > 1)
    return not (combo["incremental_only"] and needs_dedup)


def test_constructor_raises_exactly_on_illegal_combinations():
    combos = [dict(zip(AXES, values))
              for values in itertools.product(*AXES.values())]
    assert len(combos) == 192
    wrong = []
    for combo in combos:
        try:
            SchemeConfig("matrix", **combo)
            accepted = True
        except ConfigError:
            accepted = False
        if accepted != legal(combo):
            wrong.append(combo)
    assert wrong == []
    assert sum(map(legal, combos)) == 108


@pytest.mark.parametrize("changes", [
    {"index_layout": "nope"},
    {"parallel_workers": 0},
    {"tiny_file_threshold": -1},
    {"container_size": 1024},
    {"policy_table": {Category.DYNAMIC: AA_POLICY_TABLE[Category.DYNAMIC]}},
], ids=["layout", "workers", "tiny", "container", "table"])
def test_single_field_guards(changes):
    with pytest.raises(ConfigError):
        SchemeConfig("guard", **changes)


def test_container_size_only_checked_with_containers():
    assert SchemeConfig("x", use_containers=False, container_size=1024)


def _sessions(seed: int):
    """A tiny, a WFC, an SC and a CDC file (plus a duplicate), then a
    week with the CDC file edited mid-file and one file added."""
    rng = np.random.default_rng(seed)

    def blob(n):
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()

    doc = blob(40 * KIB)
    week1 = {"t/note.txt": blob(2 * KIB), "m/song.mp3": blob(24 * KIB),
             "v/disk.vmdk": blob(40 * KIB), "d/report.doc": doc,
             "d/copy.doc": doc}
    week2 = dict(week1)
    week2["d/report.doc"] = doc[:20 * KIB] + b"EDIT" + doc[20 * KIB:]
    week2["d/new.doc"] = blob(12 * KIB)
    mtimes2 = {path: 2 if path in ("d/report.doc", "d/new.doc") else 1
               for path in week2}
    return [(week1, dict.fromkeys(week1, 1)), (week2, mtimes2)]


@given(config=legal_scheme_configs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_legal_configs_restore_both_sessions(config, seed):
    key = MASTER if config.encrypt_chunks else None
    cloud = InMemoryBackend()
    client = BackupClient(cloud, config, master_key=key)
    sessions = _sessions(seed)
    for files, mtimes in sessions:
        client.backup(MemorySource(files, mtimes))
    client.close()
    for session_id, (files, _mtimes) in enumerate(sessions):
        restored, _ = RestoreClient(
            cloud, master_key=key).restore_to_memory(session_id)
        assert restored == files
