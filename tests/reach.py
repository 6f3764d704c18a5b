#!/usr/bin/env python3
"""Which ``src/`` functions does no product path or bench ever call?

Runs every program that justifies code in ``src/repro`` under a call
recorder and prints the functions that never ran, by module, with
their body lines:

* every CLI command on a small generated tree, passing every flag at
  least once and each flag's default branch once;
* the seven examples and ``repro jobs run --config examples/jobs.yaml``;
* the ledger smoke, ``benchmarks/ledger/run.py --seed 7 --scale 0.1
  --runs 1 --seconds 1``, unmodified, as a subprocess;
* every ``benchmarks/test_bench_*.py`` at ``BENCH_SMOKE=1``, one
  process per file.

The tier-1 tests are deliberately not among them: a function that only
a test calls is not product code.

The recorder is a ``sitecustomize.py`` put first on ``PYTHONPATH``, so
every Python process the runs start (the ledger's workload children
included) installs ``sys.setprofile``/``threading.setprofile`` before
any other code and dumps the code objects it saw when it exits, one
file per process named by pid plus a random suffix (pids are reused).

A function counts by its body lines (first body statement to last
line, docstring included).  ``@abstractmethod``s are left out, and a
def nested in an unreached def counts only as part of its parent.

Usage::

    PYTHONPATH=src python tests/reach.py            # report
    PYTHONPATH=src python tests/reach.py --check    # exit 1 over budget

``--check`` compares the total with ``tests/reach_budget.txt``.  That
number only ever falls: lower it when a change deletes unreached code.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
BUDGET = Path(__file__).resolve().parent / "reach_budget.txt"

#: Installed in every recorded process.  ``{dump_dir}`` and ``{prefix}``
#: are filled in per run.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_codes = {{}}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _codes:
            _codes[id(code)] = code


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    name = "%d-%s.reach" % (os.getpid(), os.urandom(8).hex())
    with open(os.path.join({dump_dir!r}, name), "w") as fh:
        for code in _codes.values():
            if code.co_filename.startswith({prefix!r}):
                fh.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


atexit.register(_dump)
threading.setprofile(_record)
sys.setprofile(_record)
'''


class Function(NamedTuple):
    path: Path
    qualname: str
    first_line: int     # first decorator line, as ``co_firstlineno``
    body_lines: int
    parent: Tuple[str, int]  # (path, first_line) of the enclosing def


# -- what exists ---------------------------------------------------------

def _is_abstract(node) -> bool:
    for deco in node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(
            deco, "id", None)
        if name == "abstractmethod":
            return True
    return False


def src_functions() -> List[Function]:
    """Every def under ``src/repro`` that is not abstract."""
    found: List[Function] = []

    def visit(node, path: Path, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                qualname = prefix + child.name
                if not _is_abstract(child):
                    found.append(Function(
                        path, qualname, first,
                        child.end_lineno - child.body[0].lineno + 1,
                        parent))
                visit(child, path, qualname + ".<locals>.",
                      (str(path), first))
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".", parent)
            else:
                visit(child, path, prefix, parent)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "", None)
    return found


# -- the runs ------------------------------------------------------------

def _write_tree(root: Path, seed: int = 43) -> None:
    """A small mixed tree: every category, tiny files, a nested dir."""
    import random

    rng = random.Random(seed)
    text = b"".join(b"line %d of a document that changes a little\n" % i
                    for i in range(3000))
    files = {
        "docs/report.doc": text,
        "docs/notes.txt": text[:40000] + rng.randbytes(2000),
        "docs/slides.ppt": rng.randbytes(60000),
        "docs/paper.pdf": rng.randbytes(50000),
        "media/song.mp3": rng.randbytes(90000),
        "media/photo.jpg": rng.randbytes(30000),
        "archive/bundle.zip": rng.randbytes(70000),
        "vm/disk.vmdk": rng.randbytes(16384) * 4 + rng.randbytes(40000),
        "bin/tool.exe": rng.randbytes(45000),
        "src/main.c": text[:20000],
        "tiny/a.cfg": b"x=1\n",
        "tiny/b.ini": rng.randbytes(500),
    }
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def _edit_tree(root: Path) -> None:
    """The next week's tree: one edit, one add, one delete."""
    doc = root / "docs/report.doc"
    data = doc.read_bytes()
    doc.write_bytes(data[:30000] + b"an insertion\n" + data[30000:])
    (root / "docs/new.txt").write_bytes(b"a new file\n" * 900)
    (root / "media/photo.jpg").unlink()


def _cli_runs(work: Path) -> List[List[str]]:
    """Every subcommand, every flag at least once, each default once."""
    from repro.baselines import all_scheme_configs

    tree, edited, store = work / "tree", work / "edited", work / "store"
    _write_tree(tree)
    _write_tree(edited)
    _edit_tree(edited)
    repro = [sys.executable, "-m", "repro"]
    trace = str(work / "backup.trace.jsonl")
    runs = [
        # defaults first: a fresh store, then a resumed one that
        # replays every file from the stat cache
        repro + ["backup", str(tree), "--store", str(store)],
        repro + ["backup", str(tree), "--store", str(store), "--quiet"],
        repro + ["backup", str(edited), "--store", str(store),
                 "--container-size", "64KiB", "--chunker", "seqcdc",
                 "--no-stat-cache", "--parallel", "2",
                 "--pipeline", "--profile", "--trace-out", trace],
        repro + ["backup", str(edited), "--store", str(store),
                 "--stat-cache", "--no-pipeline",
                 "--replication", "2", "--fault-domains", "d0,d1,d2"],
        repro + ["backup", str(tree), "--store", str(work / "store-d"),
                 "--replication", "1"],
        repro + ["trace-profile", trace],
        repro + ["ls", "--store", str(store)],
        repro + ["restore", "1", str(work / "out1"), "--store", str(store)],
        repro + ["restore", "2", str(work / "out2"), "--store", str(store),
                 "--path", "docs/report.doc", "--no-verify"],
        repro + ["scrub", "--store", str(store)],
        repro + ["scrub", "--store", str(store), "--fast"],
        repro + ["repair", "--store", str(store)],
        repro + ["estimate", str(tree)],
        repro + ["gc", "--store", str(store), "--keep-last", "3"],
        repro + ["gc", "--store", str(store), "--retain", "2,3"],
        repro + ["gc", "--store", str(store)],
        repro + ["schemes"],
        repro + ["fleet", "--clients", "3", "--sessions", "2"],
        repro + ["fleet", "--clients", "2", "--sessions", "1",
                 "--workers", "2", "--waves", "1", "--shards", "2",
                 "--shard-cache", "64", "--shard-filter", "256",
                 "--scheme", "AA-Dedupe", "--container-size", "256KiB",
                 "--seed", "7", "--bytes-per-client", "26MiB",
                 "--profile"],
    ]
    for config in all_scheme_configs():
        scheme_store = str(work / f"store-{config.name}")
        runs.append(repro + ["backup", str(tree), "--store", scheme_store,
                             "--scheme", config.name, "--quiet"])
        runs.append(repro + ["scrub", "--store", scheme_store])
    jobs = work / "jobs.yaml"
    jobs.write_text(
        "until: 7200\n"
        "jobs:\n"
        f"  - name: home\n    source: {{path: {tree}}}\n"
        "    schedule: {interval: 3600}\n"
        "    retention: {policy: retain-last, count: 1}\n"
        "  - name: other\n"
        "    source: {kind: synthetic, files: 3, file_kib: 16}\n",
        encoding="utf-8")
    runs += [
        repro + ["jobs", "--config", str(jobs), "--list-jobs"],
        repro + ["jobs", "run", "--config", str(jobs),
                 "--store", str(work / "jobs-store")],
        repro + ["jobs", "run", "--config", str(jobs),
                 "--store", str(work / "jobs-store2"), "--job", "home",
                 "--until", "3600", "--report", str(work / "report.json"),
                 "--profile"],
    ]
    return runs


def _example_runs(work: Path) -> List[List[str]]:
    examples = ROOT / "examples"
    runs = [[sys.executable, str(examples / f"{name}.py")]
            for name in ("cost_planner", "quickstart", "compare_schemes",
                         "secure_backup", "disaster_recovery",
                         "paper_evaluation")]
    runs.append([sys.executable, str(examples / "reproduce_paper.py"),
                 str(work / "paper")])
    runs.append([sys.executable, "-m", "repro", "jobs", "run",
                 "--config", str(examples / "jobs.yaml"),
                 "--store", str(work / "example-jobs")])
    return runs


def _ledger_run(work: Path) -> List[str]:
    return [sys.executable, str(ROOT / "benchmarks/ledger/run.py"),
            "--seed", "7", "--scale", "0.1", "--runs", "1",
            "--seconds", "1", "--workdir", str(work / "ledger")]


def _bench_runs() -> List[List[str]]:
    # ``--benchmark-disable`` runs each benchmarked function once, plain:
    # a timed pytest-benchmark round pauses ``sys.setprofile``, so the
    # recorder would miss everything the bench measures.
    return [[sys.executable, "-m", "pytest", str(path), "-q", "-x",
             "-p", "no:cacheprovider", "--benchmark-disable"]
            for path in sorted((ROOT / "benchmarks").glob("test_bench_*.py"))]


def record(work: Path) -> Set[Tuple[str, int]]:
    """Run everything under the recorder; the code objects that ran."""
    dumps, site = work / "dumps", work / "site"
    dumps.mkdir()
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        dump_dir=str(dumps), prefix=str(PACKAGE) + os.sep), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC)])
    env["BENCH_SMOKE"] = "1"
    # Examples and benches make temp dirs of their own: keep them in
    # ``work``, which is removed afterwards.
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir()
    (work / "cwd").mkdir()

    commands = _cli_runs(work / "cli")
    commands += _example_runs(work)
    commands.append(_ledger_run(work))
    commands += _bench_runs()
    for command in commands:
        start = time.perf_counter()
        done = subprocess.run(command, cwd=work / "cwd", env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        label = " ".join(Path(part).name if os.sep in part else part
                         for part in command[1:])
        print(f"[{time.perf_counter() - start:6.1f}s] "
              f"exit {done.returncode}: {label}", file=sys.stderr)
        if done.returncode != 0:
            # A failing run is a broken run, not a reach result: say so
            # instead of reporting short coverage.
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"run failed ({done.returncode}): {label}")

    seen: Set[Tuple[str, int]] = set()
    for dump in dumps.iterdir():
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, first = line.split("\t")
            seen.add((filename, int(first)))
    return seen


# -- the report ----------------------------------------------------------

def unreached(ran: Set[Tuple[str, int]]) -> List[Function]:
    """The defs whose code never ran, outermost only."""
    missing = [fn for fn in src_functions()
               if (str(fn.path), fn.first_line) not in ran]
    missing_keys = {(str(fn.path), fn.first_line) for fn in missing}
    return [fn for fn in missing if fn.parent not in missing_keys]


def report(missing: List[Function]) -> int:
    by_module: Dict[str, List[Function]] = defaultdict(list)
    for fn in missing:
        by_module[str(fn.path.relative_to(SRC))].append(fn)
    for module in sorted(by_module):
        functions = by_module[module]
        print(f"{module}  ({sum(f.body_lines for f in functions)})")
        for fn in functions:
            print(f"  {fn.first_line:5d}  {fn.body_lines:4d}  {fn.qualname}")
    total = sum(fn.body_lines for fn in missing)
    print(f"unreached: {len(missing)} functions, {total} body lines")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if the total exceeds "
                             f"{BUDGET.relative_to(ROOT)}")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="repro-reach-"))
    try:
        total = report(unreached(record(work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.check:
        return 0
    budget = int(BUDGET.read_text(encoding="utf-8").split()[0])
    if total > budget:
        print(f"FAIL: {total} unreached body lines > budget {budget}; "
              f"delete the new unreached code (or call it from a product "
              f"path)", file=sys.stderr)
        return 1
    if total < budget:
        print(f"below budget {budget}: lower {BUDGET.relative_to(ROOT)} "
              f"to {total}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
