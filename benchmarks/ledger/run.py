#!/usr/bin/env python3
"""Perf ledger: drive the real engine through backup → restore → GC.

One run (what ``BENCHMARK.json``'s command starts)::

    python3 benchmarks/ledger/run.py --workload pc_mix --seed 7 \\
        --seconds 16 --trace 0

builds the workload's corpus, warms the process up, repeats the cycle
for ``--seconds``, checks every restore bit-exactly and prints, as the
last line of stdout, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  Scratch files
go under ``--workdir`` (default: the system temp dir; ``BENCHMARK.json``
passes a directory inside the checkout).

The whole ledger (every workload, ``--runs`` untraced runs plus one
traced run each, one child process per run)::

    python3 benchmarks/ledger/run.py --seed 2011 --out ledger.json

See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _units(spec: dict, section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[section]}


def _warm_up(workload, seed: int, work: Path) -> None:
    """A 10 MB all-profile cycle under the workload's configuration, so
    imports, hash and chunker tables and numpy are paid before timing."""
    from corpus import Workload, build_corpus
    from cycle import SpanLog, run_cycle
    from repro.util.units import MB
    warm = Workload("warmup", None, 10 * MB, 2, 40, config=workload.config)
    corpus = build_corpus(warm, seed, 1.0, work / "warmup")
    run_cycle(warm, corpus, work / "warmup", SpanLog("warmup"))
    shutil.rmtree(work / "warmup")


def _untraced(workload, corpus, work: Path, seconds: float):
    """Repeat the cycle until ``seconds`` have passed; every metric is
    pooled over all the cycles run."""
    from cycle import SpanLog, end_to_end, run_cycle
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        cycles.append(run_cycle(workload, corpus, work,
                                SpanLog(f"{workload.name}-{len(cycles)}")))
    return end_to_end(cycles, corpus.logical_bytes), cycles


def _traced(workload, corpus, work: Path, trace_path: Path):
    """One untraced cycle, one under the program's own tracer, one
    under the ledger's wrappers, then the layer drivers."""
    from cycle import SpanLog, run_cycle
    from layers import (TimedBackend, TimedSource, compare_engines,
                        drive_layers, in_situ)
    from repro.obs.tracer import Tracer

    name = workload.name
    plain = run_cycle(workload, corpus, work, SpanLog(f"{name}-untraced"))
    tracer_spans = SpanLog(f"{name}-tracer")
    traced = run_cycle(workload, corpus, work, tracer_spans,
                       tracer=Tracer())
    # The wrapped cycle runs last, next to the drivers that explain its
    # ``full`` window: the machine's speed drifts between the two.
    spans = SpanLog(f"{name}-wrapped")
    wrapped = run_cycle(
        workload, corpus, work, spans,
        wrap_store=lambda backend: TimedBackend(backend, spans),
        wrap_source=lambda source: TimedSource(source, spans))
    driver_spans = SpanLog(f"{name}-drivers")
    metrics = drive_layers(workload, corpus, driver_spans)
    metrics.update(compare_engines(workload, corpus, driver_spans))
    metrics.update(in_situ(spans, wrapped, metrics))
    # CPU seconds, not wall: the overheads are a few percent, below the
    # run-to-run wall noise of one cycle in a shared sandbox.
    metrics["ledger.wrapper_overhead_share"] = wrapped.cpu / plain.cpu - 1
    metrics["obs.tracer_overhead_share"] = traced.cpu / plain.cpu - 1
    spans.rows += tracer_spans.rows + driver_spans.rows
    spans.write_jsonl(trace_path)
    return metrics, [plain, wrapped, traced]


def run_one(args, spec: dict) -> int:
    from corpus import build_corpus, workload_named
    workload = workload_named(args.workload)
    args.workdir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                 dir=args.workdir))
    try:
        start = time.perf_counter()
        corpus = build_corpus(workload, args.seed, args.scale,
                              work / "corpus")
        _warm_up(workload, args.seed, work)
        setup_s = time.perf_counter() - start
        if args.trace:
            section = "per_layer"
            metrics, cycles = _traced(
                workload, corpus, work,
                args.workdir / f"trace_{workload.name}.jsonl")
        else:
            section = "end_to_end"
            metrics, cycles = _untraced(workload, corpus, work,
                                        args.seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = _units(spec, section)
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics emitted and declared in BENCHMARK.json differ: "
            f"{sorted(set(metrics) ^ set(units))}")
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    for cycle in cycles:
        for problem in cycle.problems:
            print(f"PROBLEM {problem}")
    print(f"# {workload.name} seed={args.seed} cycles={len(cycles)} "
          f"corpus={corpus.tree_hash[:16]}")
    for phase in cycles[0].walls:
        print(f"# {phase + ' wall, s':24s}"
              + " ".join(f"{c.walls[phase]:7.3f}" for c in cycles))
    for name in units:
        print(f"{name:40s} {metrics[name]:16.6f} {units[name]}")
    # Always 0 on a correct program, so the contract carries it as
    # ``failed``/``attempted`` and not as a metric with a relative bound.
    print(f"{'failed_share':40s} {failed / attempted:16.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


# -- the whole ledger ---------------------------------------------------

def _filesystem_of(path: Path) -> str:
    best = ("", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, fstype = line.split()[:3]
                if (str(path.resolve()) + "/").startswith(
                        mount.rstrip("/") + "/") and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return best[1]


def _environment(workdir: Path) -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "workdir_filesystem": _filesystem_of(workdir), "git_sha": sha}


def _child(args, workload: str, trace: int) -> dict:
    """One run in its own process; the parent only waits."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", str(args.scale),
           "--workdir", str(args.workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} run failed ({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list, unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "unit": unit, "values": values}


def run_ledger(args, spec: dict) -> int:
    args.workdir.mkdir(parents=True, exist_ok=True)
    ledger = {"env": _environment(args.workdir), "seed": args.seed,
              "scale": args.scale, "seconds": args.seconds,
              "runs": args.runs, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [_child(args, name, 0) for _ in range(args.runs)]
        traced = _child(args, name, 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        entry = ledger["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": {
                metric: _summary([r["metrics"][metric]["value"]
                                  for r in runs], unit)
                for metric, unit in _units(spec, "end_to_end").items()},
            "per_layer": {
                metric: {"value": cell["value"], "unit": cell["unit"]}
                for metric, cell in traced["metrics"].items()},
        }
        print(f"== {name}")
        print(f"{'failed_share':34s} {entry['failed_share']:14.6f} ratio  "
              f"({failed}/{attempted})")
        for metric, cell in entry["end_to_end"].items():
            print(f"{metric:34s} {cell['median']:14.6f} {cell['unit']:6s}"
                  f" [{cell['min']:.6f} … {cell['max']:.6f}]")
        for metric, cell in entry["per_layer"].items():
            print(f"{metric:34s} {cell['value']:14.6f} {cell['unit']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
    return 1 if any(w["failed"] for w in ledger["workloads"].values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size multiplier (10 MB floor)")
    parser.add_argument("--workdir", type=Path,
                        default=Path(tempfile.gettempdir()),
                        help="scratch directory (default: system temp dir)")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload (ledger mode)")
    parser.add_argument("--out", type=Path,
                        help="write the ledger JSON here (ledger mode)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: src/repro not found; the ledger measures the "
              "program in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.workdir = args.workdir.resolve()
    if args.workload:
        return run_one(args, spec)
    return run_ledger(args, spec)


if __name__ == "__main__":
    sys.exit(main())
