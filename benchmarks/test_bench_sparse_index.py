"""Related-work comparison — application-aware exact indexing vs
Sparse Indexing (FAST'09, the paper's reference [20]).

Both attack the same disk-index bottleneck; the trade-offs differ:

* **AA-Dedupe** keeps exact, per-application indices whose *policy*
  makes them small (WFC collapses compressed media to one entry per
  file);
* **Sparse Indexing** keeps a sampled index (tiny RAM regardless of
  policy) but misses duplicates outside its champion segments
  (approximate dedup).

This bench runs both over the same weekly chunk streams and reports RAM
entries vs dedup effectiveness.
"""

from conftest import emit

from repro.classify.filetype import classify_name
from repro.core import aa_dedupe_config
from repro.index import IndexEntry, SparseShardIndex
from repro.metrics import Table
from repro.trace.simchunk import BoundaryModel, sim_chunks
from repro.util.units import format_bytes


def _chunk_stream(snapshot, boundaries):
    """The AA chunk stream of one snapshot: (namespace, chunk_id, len)."""
    config = aa_dedupe_config()
    for path in sorted(snapshot.files):
        comp = snapshot.files[path]
        if comp.size < config.tiny_file_threshold:
            continue
        app = classify_name(path)
        policy = config.policy_table[app.category]
        for chunk_id, length in sim_chunks(comp, policy.chunker,
                                           boundaries):
            yield app.label, chunk_id, length


SEGMENT_CHUNKS = 512


def test_exact_vs_sparse_indexing(benchmark, workload_snapshots):
    def run():
        boundaries = BoundaryModel()
        snapshots = workload_snapshots[:4]
        # Exact per-app indexing (AA's structure).
        exact_index = {}
        exact_unique = 0
        exact_total = 0
        # Sparse Indexing over the same stream: each incoming segment
        # is announced (champion election + manifest loads), then
        # deduplicated chunk by chunk against what that loaded.
        sparse = SparseShardIndex(segment_chunks=SEGMENT_CHUNKS,
                                  sample_bits=6, max_champions=4)
        sparse_unique = 0
        segments = 0
        stream = []
        for snapshot in snapshots:
            for app, chunk_id, length in _chunk_stream(snapshot,
                                                       boundaries):
                exact_total += length
                seen = exact_index.setdefault(app, set())
                if chunk_id not in seen:
                    seen.add(chunk_id)
                    exact_unique += length
                # The trace chunk id *is* the fingerprint's sampled
                # prefix, so hooks are ids with six trailing zero bits.
                stream.append((chunk_id.to_bytes(8, "big"), length))
        for base in range(0, len(stream), SEGMENT_CHUNKS):
            segment = stream[base:base + SEGMENT_CHUNKS]
            sparse.begin_batch([fp for fp, _length in segment])
            segments += 1
            for fp, length in segment:
                if sparse.lookup(fp) is None:
                    sparse_unique += length
                    sparse.insert(IndexEntry(fp, 0, 0, length))
        return (exact_index, exact_unique, exact_total, sparse,
                sparse_unique, segments)

    exact_index, exact_unique, exact_total, sparse, sparse_unique, \
        segments = benchmark.pedantic(run, rounds=1, iterations=1)

    exact_entries = sum(len(s) for s in exact_index.values())
    table = Table(["approach", "RAM entries", "unique stored",
                   "dedup ratio", "IO per segment"],
                  title="Exact app-aware indexing vs Sparse Indexing")
    table.add_row(["AA-Dedupe (exact)", f"{exact_entries:,}",
                   format_bytes(exact_unique, decimal=True),
                   exact_total / exact_unique, "per-chunk RAM probe"])
    table.add_row(["Sparse Indexing", f"{sparse.ram_entries():,}",
                   format_bytes(sparse_unique, decimal=True),
                   exact_total / sparse_unique,
                   f"{sparse.champions_loaded / segments:.1f}"
                   " manifest loads"])
    emit(table.render())

    # Sparse RAM is an order of magnitude smaller...
    assert sparse.ram_entries() < exact_entries / 8
    # ...but it stores more than exact dedup (approximation loss),
    assert sparse_unique >= exact_unique
    # within a bounded factor on a weekly-full workload (champions catch
    # the dominant cross-session duplicates).
    assert sparse_unique < 1.6 * exact_unique
    # Champion budget held.
    assert sparse.champions_loaded <= 4 * segments

