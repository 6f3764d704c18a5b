"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def source_tree(tmp_path, rng):
    src = tmp_path / "src"
    (src / "docs").mkdir(parents=True)
    (src / "docs" / "report.doc").write_bytes(
        rng.integers(0, 256, 40_000, dtype=np.uint8).tobytes())
    (src / "song.mp3").write_bytes(
        rng.integers(0, 256, 30_000, dtype=np.uint8).tobytes())
    (src / "note.txt").write_bytes(b"a tiny note")
    return src


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestBackupRestoreCycle:
    def test_full_cycle(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store) == 0
        out = capsys.readouterr().out
        assert "session 0" in out

        # Second invocation = fresh process; must dedup via resume.
        assert run("backup", source_tree, "--store", store) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "0 new chunks" in out

        assert run("ls", "--store", store) == 0
        out = capsys.readouterr().out
        assert "AA-Dedupe" in out and "0" in out and "1" in out

        dest = tmp_path / "out"
        assert run("restore", "1", dest, "--store", store) == 0
        assert (dest / "docs" / "report.doc").read_bytes() == \
            (source_tree / "docs" / "report.doc").read_bytes()
        assert (dest / "note.txt").read_bytes() == b"a tiny note"

    def test_selective_restore(self, source_tree, tmp_path):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store)
        dest = tmp_path / "partial"
        assert run("restore", "0", dest, "--store", store,
                   "--path", "note.txt") == 0
        assert (dest / "note.txt").exists()
        assert not (dest / "docs").exists()

    def test_alternative_scheme(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store,
                   "--scheme", "Avamar") == 0
        out = capsys.readouterr().out
        assert "[Avamar]" in out
        dest = tmp_path / "out"
        assert run("restore", "0", dest, "--store", store) == 0
        assert (dest / "song.mp3").read_bytes() == \
            (source_tree / "song.mp3").read_bytes()

    def test_unknown_scheme_exits(self, source_tree, tmp_path):
        with pytest.raises(SystemExit):
            run("backup", source_tree, "--store", tmp_path / "c",
                "--scheme", "tarball")

    def test_container_size_override(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store,
                   "--container-size", "64KB") == 0

    @pytest.mark.parametrize("chunker", ["gear", "fastcdc", "seqcdc"])
    def test_chunker_override_full_cycle(self, source_tree, tmp_path,
                                         capsys, chunker):
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store,
                   "--chunker", chunker) == 0
        out = capsys.readouterr().out
        assert "session 0" in out
        dest = tmp_path / "out"
        assert run("restore", "0", dest, "--store", store) == 0
        assert (dest / "docs" / "report.doc").read_bytes() == \
            (source_tree / "docs" / "report.doc").read_bytes()

    def test_unknown_chunker_error_lists_valid_names(self, source_tree,
                                                     tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("backup", source_tree, "--store", tmp_path / "c",
                "--chunker", "bogus")
        message = str(excinfo.value)
        assert "--chunker" in message and "'bogus'" in message
        for name in ("cdc", "gear", "fastcdc", "seqcdc"):
            assert name in message


class TestMaintenanceCommands:
    def test_scrub_clean(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store)
        capsys.readouterr()
        assert run("scrub", "--store", store) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_scrub_detects_corruption(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store)
        containers = sorted((store / "containers").iterdir())
        blob = bytearray(containers[0].read_bytes())
        blob[200] ^= 0xFF
        containers[0].write_bytes(bytes(blob))
        assert run("scrub", "--store", store) == 1
        assert "PROBLEM" in capsys.readouterr().err

    def test_gc_keep_last(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store)
        run("backup", source_tree, "--store", store)
        capsys.readouterr()
        assert run("gc", "--store", store, "--keep-last", "1") == 0
        out = capsys.readouterr().out
        assert "retained sessions: [1]" in out
        # Remaining session still restores.
        assert run("restore", "1", tmp_path / "out", "--store", store) == 0

    def test_gc_explicit_retain(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store)
        run("backup", source_tree, "--store", store)
        capsys.readouterr()
        assert run("gc", "--store", store, "--retain", "0") == 0
        assert "retained sessions: [0]" in capsys.readouterr().out

    def test_gc_exits_nonzero_on_unreadable_retained_manifest(
            self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store)
        run("backup", source_tree, "--store", store)
        manifests = sorted((store / "manifests").iterdir())
        containers = len(list((store / "containers").iterdir()))
        manifests[-1].write_bytes(b"{corrupt json")
        capsys.readouterr()
        assert run("gc", "--store", store, "--keep-last", "2") == 1
        err = capsys.readouterr().err
        assert "PROBLEM" in err and "nothing deleted" in err
        # Refusing to sweep means all containers survive.
        assert len(list((store / "containers").iterdir())) == containers

    def test_estimate(self, source_tree, capsys):
        assert run("estimate", source_tree) == 0
        out = capsys.readouterr().out
        assert "dedup ratio" in out
        assert "compressed" in out

    def test_estimate_delta(self, source_tree, capsys):
        assert run("estimate", source_tree, "--delta") == 0
        assert "delta stage" in capsys.readouterr().out

    def test_schemes_listing(self, capsys):
        assert run("schemes") == 0
        out = capsys.readouterr().out
        for name in ("JungleDisk", "BackupPC", "Avamar", "SAM",
                     "AA-Dedupe"):
            assert name in out


class TestDeltaFlag:
    def test_backup_with_delta_and_restore(self, source_tree, tmp_path,
                                           capsys, rng):
        import re

        # A near-duplicate of the document in the same tree: the delta
        # stage should store its changed chunks as deltas within one
        # invocation (the similarity index is per-process).
        doc = source_tree / "docs" / "report.doc"
        data = bytearray(doc.read_bytes())
        data[1000:1016] = rng.integers(0, 256, 16,
                                       dtype=np.uint8).tobytes()
        (source_tree / "docs" / "report_v2.doc").write_bytes(bytes(data))

        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store,
                   "--delta") == 0
        out = capsys.readouterr().out
        match = re.search(r"delta: (\d+) chunks", out)
        assert match is not None and int(match.group(1)) > 0

        dest = tmp_path / "out"
        assert run("restore", "0", dest, "--store", store) == 0
        assert (dest / "docs" / "report_v2.doc").read_bytes() == \
            bytes(data)
        assert (dest / "docs" / "report.doc").read_bytes() == \
            doc.read_bytes()
        assert run("scrub", "--store", store) == 0

    def test_no_delta_overrides(self, source_tree, tmp_path, capsys):
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store,
                   "--no-delta") == 0
        assert "delta:" not in capsys.readouterr().out

    def test_stat_cache_replays_unchanged_tree(self, source_tree,
                                               tmp_path, capsys):
        # Directory sources carry real mtimes, so a second backup of
        # the untouched tree replays every file from the stat cache.
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store) == 0
        capsys.readouterr()
        assert run("backup", source_tree, "--store", store) == 0
        out = capsys.readouterr().out
        assert "stat cache: 3 unchanged files replayed" in out

    def test_no_stat_cache_overrides(self, source_tree, tmp_path,
                                     capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store, "--no-stat-cache")
        run("backup", source_tree, "--store", store, "--no-stat-cache")
        assert "stat cache:" not in capsys.readouterr().out


class TestDurabilityCommands:
    def replicated_store(self, source_tree, tmp_path):
        store = tmp_path / "cloud"
        assert run("backup", source_tree, "--store", store,
                   "--replication", "2",
                   "--fault-domains", "d0,d1,d2") == 0
        return store

    def test_backup_with_replication_writes_replicas(
            self, source_tree, tmp_path, capsys):
        store = self.replicated_store(source_tree, tmp_path)
        out = capsys.readouterr().out
        assert "replicas written" in out
        assert (store / "durability" / "plan.json").exists()
        replicas = list((store / "replicas").rglob("*"))
        assert any(p.is_file() for p in replicas)
        assert run("scrub", "--store", store) == 0

    def test_scrub_exits_nonzero_on_degraded_findings(
            self, source_tree, tmp_path, capsys):
        store = self.replicated_store(source_tree, tmp_path)
        victim = next(p for p in (store / "replicas").rglob("*")
                      if p.is_file())
        victim.unlink()
        capsys.readouterr()
        assert run("scrub", "--store", store) == 1
        captured = capsys.readouterr()
        # One-line findings summary on stdout, detail on stderr.
        assert "findings" in captured.out
        assert "repairable" in captured.out
        assert "DEGRADED" in captured.err
        assert "PROBLEM" not in captured.err
        assert "repro repair" in captured.err

    def test_repair_restores_replication(self, source_tree, tmp_path,
                                         capsys):
        store = self.replicated_store(source_tree, tmp_path)
        victim = next(p for p in (store / "replicas").rglob("*")
                      if p.is_file())
        victim.unlink()
        capsys.readouterr()
        assert run("repair", "--store", store) == 0
        assert "replicas rebuilt" in capsys.readouterr().out
        assert run("scrub", "--store", store) == 0

    def test_repair_promotes_lost_primary(self, source_tree, tmp_path,
                                          capsys):
        store = self.replicated_store(source_tree, tmp_path)
        containers = sorted((store / "containers").iterdir())
        containers[0].unlink()
        capsys.readouterr()
        assert run("repair", "--store", store) == 0
        assert "1 primaries promoted" in capsys.readouterr().out
        assert run("scrub", "--store", store) == 0
        assert run("restore", "0", tmp_path / "out", "--store",
                   store) == 0

    def test_repair_reports_unrepairable(self, source_tree, tmp_path,
                                         capsys):
        store = self.replicated_store(source_tree, tmp_path)
        containers = sorted((store / "containers").iterdir())
        containers[0].unlink()
        for p in list((store / "replicas").rglob("*")):
            if p.is_file():
                p.unlink()
        capsys.readouterr()
        assert run("repair", "--store", store) == 1
        assert "UNREPAIRABLE" in capsys.readouterr().err


class TestJobsCommand:
    """The declarative service CLI: exit-code contract 0/1/2."""

    CONFIG = (
        "jobs:\n"
        "  - name: docs\n"
        "    source: {kind: synthetic, files: 3, file_kib: 16}\n"
        "    schedule: {interval: 3600}\n"
        "    retention: {policy: retain-last, count: 2}\n"
        "  - name: media\n"
        "    scheme: Avamar\n"
        "    chunker: fastcdc\n"
        "    source: {kind: synthetic, files: 2, file_kib: 24}\n"
        "    schedule: {interval: 7200, offset: 600}\n"
        "    retention: {policy: max-age, seconds: 7200}\n"
        "  - name: vm\n"
        "    app_chunkers: {vmdk: seqcdc}\n"
        "    source: {kind: synthetic, files: 2, file_kib: 48}\n"
        "    schedule: {interval: 3600, offset: 1800}\n"
    )

    def config_file(self, tmp_path, text=None):
        path = tmp_path / "jobs.yaml"
        path.write_text(text if text is not None else self.CONFIG)
        return path

    def test_run_executes_heterogeneous_jobs(self, tmp_path, capsys):
        config = self.config_file(tmp_path)
        store = tmp_path / "store"
        assert run("jobs", "run", "--config", config, "--store", store,
                   "--until", "14400", "--report",
                   tmp_path / "report.json") == 0
        out = capsys.readouterr().out
        for job in ("docs", "media", "vm"):
            assert job in out
        assert "dropped" in out            # retention fired through GC
        import json
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["exit_code"] == 0
        assert {r["job"] for r in report["runs"]} == \
            {"docs", "media", "vm"}
        assert all(r["state"] == "SUCCEEDED" for r in report["runs"])

    def test_run_is_deterministic_across_invocations(self, tmp_path,
                                                     capsys):
        config = self.config_file(tmp_path)
        outputs = []
        for name in ("s1", "s2"):
            assert run("jobs", "run", "--config", config, "--store",
                       tmp_path / name, "--until", "7200") == 0
            outputs.append(capsys.readouterr().out)
            stores = sorted(
                p.relative_to(tmp_path / name)
                for p in (tmp_path / name).rglob("*") if p.is_file())
            outputs.append(stores)
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]

    def test_list_jobs_needs_no_store(self, tmp_path, capsys):
        config = self.config_file(tmp_path)
        assert run("jobs", "run", "--config", config,
                   "--list-jobs") == 0
        out = capsys.readouterr().out
        assert "docs" in out and "Avamar" in out and "manual" not in out

    def test_job_subset_selection(self, tmp_path, capsys):
        config = self.config_file(tmp_path)
        store = tmp_path / "store"
        assert run("jobs", "run", "--config", config, "--store", store,
                   "--job", "media") == 0
        out = capsys.readouterr().out
        assert "media" in out and "docs" not in out

    def test_failing_job_exits_one_with_report(self, tmp_path, capsys):
        config = self.config_file(
            tmp_path,
            "jobs:\n"
            "  - name: doomed\n"
            "    source: {kind: synthetic, files: 2}\n"
            "    hooks:\n"
            "      pre: [{builtin: fail}]\n"
            "  - name: fine\n"
            "    source: {kind: synthetic, files: 2}\n")
        store = tmp_path / "store"
        assert run("jobs", "run", "--config", config,
                   "--store", store) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out        # report still printed
        assert "doomed" in captured.err

    def test_config_error_exits_two(self, tmp_path, capsys):
        config = self.config_file(
            tmp_path, "jobs:\n  - name: j\n    source: /x\n"
                      "    retention: {policy: hourly}\n")
        assert run("jobs", "run", "--config", config,
                   "--store", tmp_path / "s") == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert run("jobs", "run", "--config", tmp_path / "none.yaml",
                   "--store", tmp_path / "s") == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_job_selection_exits_two(self, tmp_path, capsys):
        config = self.config_file(tmp_path)
        assert run("jobs", "run", "--config", config,
                   "--store", tmp_path / "s", "--job", "nope") == 2
        assert "no job named" in capsys.readouterr().err

    def test_missing_store_exits_two(self, tmp_path, capsys):
        config = self.config_file(tmp_path)
        assert run("jobs", "run", "--config", config) == 2
        assert "--store" in capsys.readouterr().err


class TestGcRetainLast:
    def test_retain_last_by_manifest_age(self, source_tree, tmp_path,
                                         capsys):
        store = tmp_path / "cloud"
        for i in range(3):
            (source_tree / "note.txt").write_text(f"rev {i}")
            run("backup", source_tree, "--store", store, "--quiet")
        capsys.readouterr()
        assert run("gc", "--store", store, "--retain-last", "2") == 0
        out = capsys.readouterr().out
        assert "retained sessions: [1, 2]" in out
        assert run("ls", "--store", store) == 0
        out = capsys.readouterr().out
        rows = [line.split("|")[0].strip()
                for line in out.splitlines()[2:] if "|" in line]
        assert rows == ["1", "2"]  # session 0 swept, newest two remain

    def test_retain_last_invalid_count_exits_two(self, source_tree,
                                                 tmp_path, capsys):
        store = tmp_path / "cloud"
        run("backup", source_tree, "--store", store, "--quiet")
        capsys.readouterr()
        assert run("gc", "--store", store, "--retain-last", "0") == 2
        assert "--retain-last" in capsys.readouterr().err


class TestFleetCommand:
    def test_fleet_runs_with_every_shard_tier(self, capsys):
        assert run("fleet", "--clients", 3, "--sessions", 1, "--workers", 2,
                   "--shards", 1, "--shard-cache", 8, "--shard-filter", 64,
                   "--shard-split", 50, "--sparse-shards") == 0
        out = capsys.readouterr().out
        assert "fleet summary" in out and "directory shards" in out
        assert "cross-client savings" in out

    def test_locality_cache_flag_is_gone(self, capsys):
        # One cache front, one flag: --shard-cache builds it.
        with pytest.raises(SystemExit) as exc:
            run("fleet", "--clients", 2, "--locality-cache", 4)
        assert exc.value.code == 2
        assert "--locality-cache" in capsys.readouterr().err
