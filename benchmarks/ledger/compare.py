#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

One row per end-to-end metric × workload: both medians with their
min…max, B's change as a share of A's median (the base of every ratio
printed), and a verdict against the metric's bound:

``improved``      B's median is better than A's by more than the bound
``within bound``  the medians differ by no more than the bound
``regressed``     B's median is worse than A's by more than the bound
``unresolved``    either side's min…max spread exceeds the bound and
                  the two sides' runs interleave, so the medians decide
                  nothing

The bound is the one ``BENCHMARK.json`` fixes, which has to cover the
spread across seeds.  When both ledgers were run on the same corpus
(same seed and scale) the count metrics repeat exactly, so they are held
to ``SAME_CORPUS_COUNT_BOUND`` instead.  ``failed_share`` is compared
absolutely, with bound 0: any increase is ``regressed``.

Exits 1 on any ``regressed`` row or a workload missing from a ledger.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: End-to-end metrics computed from counts alone (no clock involved).
COUNTS = ("uploaded_bytes_per_user_byte", "stored_bytes_per_user_byte",
          "put_requests_per_GB", "restore_gets_per_GB",
          "gc_reclaimed_share")
#: Allowed worsening of a count metric between two ledgers of one corpus.
SAME_CORPUS_COUNT_BOUND = 0.005


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(verdict, change)``; change is B's median minus A's as a share
    of A's median."""
    sign = 1.0 if better == "lower" else -1.0
    change = (b["median"] - a["median"]) / abs(a["median"])
    worsening = sign * change
    spread = max((side["max"] - side["min"]) / abs(side["median"])
                 for side in (a, b))
    apart = b["min"] > a["max"] or b["max"] < a["min"]
    if spread > bound and not apart:
        return "unresolved", change
    if worsening > bound:
        return "regressed", change
    if worsening < -bound:
        return "improved", change
    return "within bound", change


def _cell(side: dict) -> str:
    return f"{side['median']:.6g} [{side['min']:.6g}…{side['max']:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(argv[0], encoding="utf-8") as fh:
        ledger_a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        ledger_b = json.load(fh)
    same_corpus = all(ledger_a[key] == ledger_b[key]
                      for key in ("seed", "scale"))
    bad = 0
    print(f"A = {argv[0]} ({ledger_a['env']['git_sha'][:12]}, seed "
          f"{ledger_a['seed']})   B = {argv[1]} "
          f"({ledger_b['env']['git_sha'][:12]}, seed {ledger_b['seed']})")
    for name in (w["name"] for w in spec["workloads"]):
        a_run = ledger_a["workloads"].get(name)
        b_run = ledger_b["workloads"].get(name)
        if a_run is None or b_run is None:
            print(f"== {name}: missing from {'A' if a_run is None else 'B'}")
            bad += 1
            continue
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            a = a_run["end_to_end"][metric["name"]]
            b = b_run["end_to_end"][metric["name"]]
            bound = (SAME_CORPUS_COUNT_BOUND
                     if same_corpus and metric["name"] in COUNTS
                     else metric["bound"])
            word, change = verdict(a, b, metric["better"], bound)
            bad += word == "regressed"
            print(f"{metric['name']:30s} {metric['unit']:6s} "
                  f"A {_cell(a):38s} B {_cell(b):38s} "
                  f"{change:+8.2%} of A ({metric['better']} is better, "
                  f"bound {bound:.1%})  {word}")
        a_fail, b_fail = a_run["failed_share"], b_run["failed_share"]
        worse = b_fail > a_fail
        bad += worse
        print(f"{'failed_share':30s} {'ratio':6s} A {a_fail:<38.6g} "
              f"B {b_fail:<38.6g} {b_fail - a_fail:+8.6f} absolute "
              f"(lower is better, bound 0)  "
              f"{'regressed' if worse else 'within bound'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
