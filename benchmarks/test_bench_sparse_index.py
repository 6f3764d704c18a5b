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
        policy = config.policy_for(app.category)
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


def test_sparse_shard_backing_in_fleet_directory(benchmark):
    """The fleet directory's long-tail tier: sampling-based shards.

    Wires :class:`~repro.index.sparse.SparseShardIndex` in as the shard
    backing of a :class:`~repro.fleet.GlobalDedupDirectory` and replays
    a two-session backup (session 2 = session 1 with light churn)
    against it and against the exact memory backing.  Epoch commits
    seal one segment per 512-chunk slice, so a later probe batch's
    hooks elect exactly the manifests its stream locality predicts —
    the FAST'09 trade: a ~1/2^sample_bits RAM index and a few
    sequential manifest loads per batch, for a bounded dedup loss.
    """
    import hashlib

    from repro.fleet import GlobalDedupDirectory

    chunks, slice_len, batch = 4096, 512, 64

    def fp(tag):
        return hashlib.sha1(tag.encode()).digest()

    session1 = [fp(f"chunk/{i}") for i in range(chunks)]
    session2 = [fp(f"churn/{i}") if i % 50 == 0 else session1[i]
                for i in range(chunks)]

    def replay(directory):
        # Session 1 uploads: publish slice by slice, committing per
        # slice (the wave/epoch protocol) so manifests mirror stream
        # segments.
        for base in range(0, chunks, slice_len):
            directory.publish_batch(
                "doc",
                [IndexEntry(fingerprint=f, container_id=0, offset=i,
                            length=128)
                 for i, f in enumerate(session1[base:base + slice_len])],
                rank=0)
            directory.commit_epoch()
        # Session 2 probes in stream order, batched.
        hits = 0
        for base in range(0, chunks, batch):
            found = directory.lookup_batch("doc",
                                           session2[base:base + batch])
            hits += sum(e is not None for e in found)
        return hits

    def run():
        sparse_dir = GlobalDedupDirectory(
            shards_per_app=1,
            index_factory=lambda app, bucket: SparseShardIndex(
                segment_chunks=slice_len, sample_bits=4, max_champions=4))
        exact_dir = GlobalDedupDirectory(shards_per_app=1)
        sparse_hits = replay(sparse_dir)
        exact_hits = replay(exact_dir)
        return sparse_dir, exact_dir, sparse_hits, exact_hits

    sparse_dir, exact_dir, sparse_hits, exact_hits = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    (sparse_shard,) = sparse_dir.shards()
    sparse_ram = sparse_shard.index.ram_entries()
    exact_ram = len(exact_dir)
    stats = sparse_shard.index.stack_stats()

    table = Table(["backing", "RAM entries", "probe hits", "disk loads"],
                  title="Fleet shard backing: exact vs sparse long tail")
    table.add_row(["MemoryIndex (exact)", f"{exact_ram:,}",
                   exact_hits, 0])
    table.add_row(["SparseShardIndex", f"{sparse_ram:,}", sparse_hits,
                   stats.disk_probes])
    emit(table.render())

    # Sampling shrinks shard RAM by far more than it costs in hits.
    assert sparse_ram < exact_ram / 4
    assert sparse_hits <= exact_hits          # approximate, never magic
    assert sparse_hits >= 0.8 * exact_hits    # bounded loss
    # Manifest IO is charged and bounded by the champion budget.
    assert stats.disk_probes > 0
    assert stats.disk_probes <= 4 * (chunks // batch)
    assert stats.disk_bytes > 0
