"""Self-checks of the perf ledger.  Not part of tier-1 (they take a few
minutes); run them explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from compare import COUNTS, SAME_CORPUS_COUNT_BOUND, verdict  # noqa: E402
from corpus import WORKLOADS, build_corpus, workload_named  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _ledger(tmp_path: Path, tag: str, seed: int) -> dict:
    out = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
         "--scale", "0.1", "--runs", "1", "--seconds", "1",
         "--workdir", str(tmp_path / "work"), "--out", str(out)],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return _ledger(tmp, "a", 7), _ledger(tmp, "b", 7)


def test_names_match_benchmark_json(ledgers):
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == [w.name for w in WORKLOADS]
    assert list(ledgers[0]["workloads"]) == declared
    for section in ("end_to_end", "per_layer"):
        names = {m["name"] for m in SPEC[section]}
        assert all(NAME.match(n) for n in names)
        for run in ledgers[0]["workloads"].values():
            assert set(run[section]) == names
    assert all(NAME.match(n) for n in declared)


def test_counts_repeat_and_nothing_fails(ledgers):
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for name, a_run in ledgers[0]["workloads"].items():
        b_run = ledgers[1]["workloads"][name]
        assert a_run["failed"] == b_run["failed"] == 0
        for metric in COUNTS:
            word, _ = verdict(a_run["end_to_end"][metric],
                              b_run["end_to_end"][metric],
                              better[metric], SAME_CORPUS_COUNT_BOUND)
            assert word == "within bound", (name, metric)


def test_staged_counts_equal_serial(ledgers):
    runs = ledgers[0]["workloads"]
    for metric in COUNTS:
        assert (runs["pc_mix_staged"]["end_to_end"][metric]["median"]
                == runs["pc_mix"]["end_to_end"][metric]["median"])


def test_layers_and_glue_sum_to_the_full_window(ledgers):
    layers = ("classify.self_s", "chunking.self_s", "hashing.self_s",
              "index.self_s", "container.self_s", "core.recipe.self_s",
              "core.backup.full_read_s", "core.backup.full_put_s",
              "core.backup.full_glue_s")
    for name, run in ledgers[0]["workloads"].items():
        value = {k: v["value"] for k, v in run["per_layer"].items()}
        assert sum(value[k] for k in layers) == pytest.approx(
            value["core.backup.full_wall_s"])
        # The staged engine overlaps its layers, so its residual may be
        # negative; a serial engine's may not, beyond the drift of the
        # machine between the window and the drivers that explain it.
        low = (-1.0 if "parallel_workers" in workload_named(name).config
               else -0.15)
        assert low <= value["core.backup.full_glue_share"] <= 1.0, name


def test_corpus_is_a_function_of_the_seed(tmp_path):
    workload = workload_named("docs_edit")
    first = build_corpus(workload, 7, 0.1, tmp_path / "a")
    again = build_corpus(workload, 7, 0.1, tmp_path / "b")
    other = build_corpus(workload, 8, 0.1, tmp_path / "c")
    assert first.tree_hash == again.tree_hash
    assert first.logical_bytes == other.logical_bytes
    assert first.tree_hash != other.tree_hash
