#!/usr/bin/env python3
"""Cloud-backup cost planner built on the paper's models.

Given a dataset size, an expected dedup ratio and a WAN uplink, prints
what each design decision is worth: the backup window (paper Eq. BWS),
the monthly S3 bill (paper Eq. CC) and the effect of container size on
request cost and goodput — the quantified version of Sections III-F and
IV-E.

Usage::

    python examples/cost_planner.py [DATASET_GB] [DEDUP_RATIO] [UP_KBPS]
"""

from __future__ import annotations

import sys

from repro.cloud.pricing import S3_APRIL_2011
from repro.cloud.wan import WANLink
from repro.metrics import Table
from repro.simulate.pipeline import backup_window
from repro.util.units import GB, KB, KIB, MIB, format_bytes, format_seconds


def main() -> None:
    dataset_gb = float(sys.argv[1]) if len(sys.argv) > 1 else 35.0
    dedup_ratio = float(sys.argv[2]) if len(sys.argv) > 2 else 25.0
    up_kbps = float(sys.argv[3]) if len(sys.argv) > 3 else 500.0
    dataset = dataset_gb * GB
    uplink = up_kbps * KB

    print(f"dataset {dataset_gb:.0f} GB, dedup ratio {dedup_ratio:.0f}, "
          f"uplink {format_bytes(uplink, decimal=True)}/s\n")

    # --- backup window vs dedup throughput ------------------------------
    table = Table(["dedup throughput", "backup window", "bound by"],
                  title="Backup window: BWS = DS x max(1/DT, 1/(DR*NT))")
    for dt_mb in (1, 5, 20, 50, 200):
        transfer = dataset / (dedup_ratio * uplink)
        window = backup_window(dataset / (dt_mb * 1e6), transfer)
        bound = "transfer (WAN)" if window == transfer else "dedup (CPU/IO)"
        table.add_row([f"{dt_mb} MB/s", format_seconds(window), bound])
    print(table.render(), "\n")

    # --- monthly bill vs container size ----------------------------------
    stored = dataset / dedup_ratio
    table = Table(["object size", "PUT requests", "goodput", "monthly $"],
                  title="Container size vs request cost "
                        "(April-2011 S3 prices)")
    wan = WANLink(up_bandwidth=uplink, concurrent_requests=1)
    for size in (10 * KIB, 100 * KIB, 1 * MIB, 4 * MIB):
        puts = int(stored / size)
        bill = S3_APRIL_2011.breakdown(stored, stored, puts)
        table.add_row([format_bytes(size), f"{puts:,}",
                       format_bytes(wan.effective_upload_rate(size),
                                    decimal=True) + "/s",
                       bill.total])
    print(table.render())
    print("\n(the paper's 1 MB containers sit where goodput saturates and"
          " request cost vanishes)")


if __name__ == "__main__":
    main()
