"""The restore invariant, hunted by a machine.

A hypothesis ``RuleBasedStateMachine`` drives one store through the
system's public verbs — back up an edited source, back up with a fresh
client (it reads the store at its first session open), drop the oldest
session and collect
garbage, cut a GC short at its k-th mutation and back up through the
client that was open across it, keep the last n sessions through
``apply_retention``, move the
clock and keep the sessions no older than a drawn age, run a
session whose k-th PUT fails, kill the process at a session's k-th
PUT and re-run the session from a new one, run a session that cannot
read the GC epoch, switch the content-defined chunker between two
processes, flip the stat cache between two processes, restore a
session into a directory while its k-th data GET fails and then again
into the same directory, back up a source one of whose
files vanishes between the walk and its read, back up a source that
has no mtimes (and so must replay nothing from the stat cache),
replicate at a drawn factor (so a later draw may lower it), replicate
then lose a fault domain and repair — under one legal
:class:`~repro.core.options.SchemeConfig` drawn per run.  After every
step, every retained session must restore bit-exactly to the reference
model (``tests/model.py``), loading each container its manifest
references exactly once, the store must hold a manifest for exactly
the sessions the model retains, and a scrub must find nothing at all
(no problem, no degraded copy).  After every sweep (a GC, or a
retention that dropped a session), the store must hold no garbage:
every container and every chunk and file object is referenced
by a retained manifest.  After a fresh client's first session, its
index must equal a recount from the retained manifests, app by app,
and its previous manifest (the one source of unchanged-file replays)
must be the newest retained manifest when this scheme wrote it, else
``None``.

The budget comes from a hypothesis profile registered in
``tests/conftest.py``: a small derandomised one by default, the large
``state-machine`` one when ``STATE_MACHINE_PROFILE=state-machine``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.baselines import all_scheme_configs, jungle_disk_config
from repro.chunking import CDC_FAMILY
from repro.classify.filetype import classify_name
from repro.cloud import InMemoryBackend
from repro.core import (BackupClient, Manifest, MemorySource,
                        RestoreClient, aa_dedupe_config, collect_garbage,
                        naming)
from repro.core import journal
from repro.core.retention import RetainLastN, RetainMaxAge, apply_retention
from repro.core.scrub import scrub_cloud
from repro.core.stats import SessionStats
from repro.durability import (DurabilityPolicy, ReplicationPlan,
                              kill_domain, primary_domain, repair_cloud,
                              replicate_cloud)
from repro.errors import BackupError, CloudError, TransientCloudError
from repro.index import AppAwareIndex, IndexEntry
from repro.simulate.clock import VirtualClock
from repro.util.units import KIB
from tests.model import StoreModel
from tests.strategies import legal_scheme_configs

MASTER_KEY = b"state-machine-master-key-32byte!"

#: Paths over every category plus tiny files (sizes are drawn).
PATHS = ("docs/report.doc", "docs/notes.txt", "docs/deck.ppt",
         "docs/paper.pdf", "vm/disk.vmdk", "bin/tool.exe",
         "media/song.mp3", "media/photo.jpg")

#: The fault domains the durability rules replicate over.
DOMAINS = ("d0", "d1", "d2")

#: Shared blocks, so files and sessions have content in common.
_BLOCKS = [random.Random(seed).randbytes(4096) for seed in range(4)]


def _content(seed: int, size: int) -> bytes:
    """Deterministic file bytes: odd seeds are unique noise, even seeds
    repeat the shared blocks from a seed-dependent start."""
    if seed % 2:
        return random.Random(seed).randbytes(size)
    blocks = (_BLOCKS[(seed // 2 + i) % len(_BLOCKS)]
              for i in range(size // 4096 + 1))
    return b"".join(blocks)[:size]


#: One source change: (kind, path, size, seed).  ``put`` writes a whole
#: new file, ``splice`` rewrites the middle of an existing one (so
#: content-defined chunking keeps its ends), ``delete`` removes it.
_changes = st.lists(st.tuples(
    st.sampled_from(("put", "splice", "delete")), st.sampled_from(PATHS),
    st.integers(0, 40_000), st.integers(0, 63)), max_size=5)


#: The mutation (a PUT or DELETE) at which a GC is cut short.
_gc_cuts = st.integers(1, 12)


class _FaultyStore(InMemoryBackend):
    """An in-memory store whose ``fail_at``-th PUT, ``cut_at``-th PUT or
    DELETE and ``get_fail_at``-th GET of a non-manifest key (1-based,
    counted from arming) fail once,
    whose GC epoch GETs fail while ``epoch_down`` is set, and which
    persists no PUT or DELETE from its ``kill_at``-th PUT on until
    ``dead`` is cleared (the writing process was killed).  Its clock
    moves only in ``retain_max_age``, so sessions between two moves
    share a ``created`` stamp and retention breaks the tie by session
    id."""

    def __init__(self) -> None:
        super().__init__()
        self.fail_at = 0
        self.cut_at = 0
        self.get_fail_at = 0
        #: GETs of non-manifest keys so far (a restore's data GETs).
        self.data_gets = 0
        self.epoch_down = False
        self.kill_at = 0
        self.dead = False
        self.clock = VirtualClock()

    def _get(self, key):
        if self.epoch_down and key == naming.STATCACHE_EPOCH_KEY:
            raise TransientCloudError(f"injected failure: get {key}")
        if not key.startswith(naming.MANIFEST_PREFIX):
            self.data_gets += 1
            if self.get_fail_at:
                self.get_fail_at -= 1
                if not self.get_fail_at:
                    raise TransientCloudError(
                        f"injected failure: get {key}")
        return super()._get(key)

    def _put(self, key, data):
        if self.kill_at:
            self.kill_at -= 1
            self.dead = not self.kill_at
        if self.dead:
            raise TransientCloudError(f"process killed: put {key}")
        self._mutate("put", key)
        if self.fail_at:
            self.fail_at -= 1
            if not self.fail_at:
                raise TransientCloudError(f"injected failure: put {key}")
        super()._put(key, data)

    def _delete(self, key):
        if self.dead:
            raise TransientCloudError(f"process killed: delete {key}")
        self._mutate("delete", key)
        return super()._delete(key)

    def _mutate(self, op: str, key: str) -> None:
        if self.cut_at:
            self.cut_at -= 1
            if not self.cut_at:
                raise TransientCloudError(f"injected failure: {op} {key}")


class _VanishingSource(MemorySource):
    """A source whose ``gone`` path is listed but raises
    ``FileNotFoundError`` when read (deleted after the walk)."""

    def __init__(self, files, mtimes, gone: str) -> None:
        super().__init__(files, mtimes)
        self.gone = gone

    def _vanished(self) -> bytes:
        raise FileNotFoundError(self.gone)

    def __iter__(self):
        for sf in super().__iter__():
            if sf.path == self.gone:
                sf = dataclasses.replace(sf, reader=self._vanished)
            yield sf


def _tree(root: Path) -> dict:
    """``{relative path: bytes}`` of every file under ``root``."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def _by_app(index: AppAwareIndex) -> dict:
    """``{app: set of entries}`` over the non-empty subindices."""
    by_app: dict = {}
    for app, entry in index.entries():
        by_app.setdefault(app, set()).add(entry)
    return by_app


class StoreMachine(RuleBasedStateMachine):
    """One store, one scheme, any interleaving of the public verbs."""

    @initialize(config=legal_scheme_configs())
    def start(self, config) -> None:
        self.config = config
        self.store = _FaultyStore()
        self.model = StoreModel()
        #: The live source: path -> (bytes, mtime_ns).
        self.source: dict = {}
        self.mtime = 0
        self.next_session = 0
        #: Session id -> its manifest's ``created`` stamp.
        self.created: dict = {}
        self.client = self._client()

    def _client(self) -> BackupClient:
        key = MASTER_KEY if self.config.encrypt_chunks else None
        return BackupClient(self.store, self.config, master_key=key)

    def _edit(self, changes) -> None:
        """Apply ``changes``; edited files get a fresh mtime, the rest
        keep theirs (so the stat cache replays them)."""
        for kind, path, size, seed in changes:
            old = self.source.get(path)
            if kind == "delete":
                self.source.pop(path, None)
                continue
            data = _content(seed, size)
            if kind == "splice" and old is not None:
                cut = len(old[0]) // 3
                data = old[0][:cut] + data[:size // 4] + old[0][2 * cut:]
            self.mtime += 1
            self.source[path] = (data, self.mtime)

    def _backup(self, gone: str | None = None,
                mtimeless: bool = False) -> SessionStats:
        """Back up the live source; ``gone`` vanishes before its read,
        so the model commits the session without it.  A ``mtimeless``
        source reports every ``mtime_ns`` as 0, "unknown"."""
        files = {path: data for path, (data, _) in self.source.items()}
        mtimes = {} if mtimeless else {
            path: mtime for path, (_, mtime) in self.source.items()}
        source = (MemorySource(files, mtimes) if gone is None
                  else _VanishingSource(files, mtimes, gone))
        stats = self.client.backup(source, session_id=self.next_session)
        files.pop(gone, None)
        self.model.commit(self.next_session, files)
        self.created[self.next_session] = self.store.clock.now()
        self.next_session += 1
        return stats

    def _check_resumed(self) -> None:
        """After its first session a fresh client holds exactly what
        the retained manifests say: its index is a recount of their
        non-tiny refs (the newest session wins), app by app, and its
        previous manifest is the newest one if this scheme wrote it."""
        manifests = [Manifest.from_json(self.store.get(
            naming.manifest_key(sid))) for sid in self.model.retained()]
        recount: dict = {}
        for entry in (e for manifest in manifests for e in manifest):
            plan = self.config.plan_file(classify_name(entry.path),
                                         entry.size)
            if entry.tiny or plan.policy is None:
                continue
            for ref in entry.refs:
                recount.setdefault(plan.namespace, {})[
                    ref.fingerprint] = IndexEntry(
                        ref.fingerprint, max(ref.container_id, 0),
                        ref.offset, ref.length)
        assert _by_app(self.client.index) == {
            app: set(entries.values()) for app, entries in recount.items()}
        newest = manifests[-1] if manifests else None
        if newest is None or newest.scheme != self.config.name:
            assert self.client._prev_manifest is None
        else:
            assert self.client._prev_manifest.to_json() == newest.to_json()

    def _check_no_garbage(self) -> None:
        """After a sweep the store holds only what the retained
        manifests reference: the union is read from the manifests
        themselves, not from the collector's mark."""
        containers: set = set()
        objects: set = set()
        for session_id in self.model.retained():
            manifest = Manifest.from_json(self.store.get(
                naming.manifest_key(session_id)))
            containers |= manifest.referenced_containers()
            objects |= manifest.referenced_objects()
        stored = {naming.container_id_of(key)
                  for key in self.store.list(naming.CONTAINER_PREFIX)}
        assert stored <= containers, sorted(stored - containers)
        stored_objects = {key for prefix in (naming.CHUNK_PREFIX,
                                             naming.FILE_PREFIX)
                          for key in self.store.list(prefix)}
        assert stored_objects <= objects, sorted(stored_objects - objects)

    # -- rules ----------------------------------------------------------
    @rule(changes=_changes)
    def backup(self, changes) -> None:
        self._edit(changes)
        self._backup()

    @rule(changes=_changes)
    def backup_mtimeless(self, changes) -> None:
        """A source without mtimes: no file can be proven unchanged, so
        the session replays nothing and reads every file."""
        self._edit(changes)
        stats = self._backup(mtimeless=True)
        assert stats.files_unchanged == 0

    @rule(changes=_changes)
    def backup_fresh_client(self, changes) -> None:
        """A new process: a fresh client, whose first session open
        rebuilds its state from the cloud."""
        self.client.close()
        self.client = self._client()
        self.backup(changes)
        self._check_resumed()

    @precondition(lambda self: not self.config.incremental_only and any(
        policy.chunker in CDC_FAMILY
        for policy in self.config.policy_table.values()))
    @rule(changes=_changes, step=st.integers(1, len(CDC_FAMILY) - 1))
    def backup_rechunked(self, changes, step) -> None:
        """A new process under another content-defined engine on the
        same store: the fresh client still holds exactly what the
        retained manifests say, read under the new config."""
        current = next(policy.chunker
                       for policy in self.config.policy_table.values()
                       if policy.chunker in CDC_FAMILY)
        other = CDC_FAMILY[(CDC_FAMILY.index(current) + step)
                           % len(CDC_FAMILY)]
        self.client.close()
        self.config = self.config.with_chunker(other)
        self.client = self._client()
        self.backup(changes)
        self._check_resumed()

    @precondition(lambda self: not self.config.incremental_only)
    @rule(changes=_changes)
    def backup_reconfigured(self, changes) -> None:
        """A new process with the stat cache flipped, on the same store:
        the fresh client still holds exactly what the retained
        manifests say, read under the new config."""
        self.client.close()
        self.config = self.config.with_(stat_cache=not self.config.stat_cache)
        self.client = self._client()
        self.backup(changes)
        self._check_resumed()

    @rule()
    def drop_oldest_and_collect(self) -> None:
        """Drop the oldest session (if any), then collect garbage — which
        also sweeps whatever failed sessions left behind."""
        if self.model.sessions:
            self.model.drop(self.model.retained()[0])
        report = collect_garbage(self.store, self.model.retained())
        assert not report.problems, report.problems
        self._check_no_garbage()

    @rule(changes=_changes, k=_gc_cuts)
    def gc_cut_at(self, changes, k) -> None:
        """Drop the oldest session; GC fails at its k-th mutation (a
        DELETE or the epoch PUT).  The client that was open across the
        cut runs the next backup, and the next GC completes the sweep."""
        if self.model.sessions:
            self.model.drop(self.model.retained()[0])
        self.store.cut_at = k
        try:
            collect_garbage(self.store, self.model.retained())
        except CloudError:
            pass
        finally:
            self.store.cut_at = 0
        self.backup(changes)
        report = collect_garbage(self.store, self.model.retained())
        assert not report.problems, report.problems
        self._check_no_garbage()

    @rule(n=st.integers(1, 3))
    def retain_last_n(self, n) -> None:
        """Retention through the service layer's entry point: keep the
        n newest sessions and sweep what only the dropped ones held."""
        outcome = apply_retention(self.store, self.store, RetainLastN(n),
                                  now=0.0)
        for session_id in self.model.retained()[:-n]:
            self.model.drop(session_id)
        assert outcome is None or not outcome.problems, outcome.problems
        if outcome is not None and outcome.dropped:
            # No drop, no sweep: a failed session's leftovers may stay.
            self._check_no_garbage()

    @rule(wait=st.integers(0, 3), age=st.integers(1, 3))
    def retain_max_age(self, wait, age) -> None:
        """Let ``wait`` seconds pass, then keep the sessions no older
        than ``age``; the newest by ``(created, id)`` stays whatever
        its age."""
        now = self.store.clock.advance(wait)
        outcome = apply_retention(self.store, self.store,
                                  RetainMaxAge(age), now=now)
        retained = self.model.retained()
        if retained:
            newest = max(retained,
                         key=lambda sid: (self.created[sid], sid))
            for session_id in retained:
                if session_id != newest \
                        and now - self.created[session_id] > age:
                    self.model.drop(session_id)
        assert outcome is None or not outcome.problems, outcome.problems
        if outcome is not None and outcome.dropped:
            self._check_no_garbage()

    @rule(changes=_changes, k=st.integers(1, 10))
    def backup_with_failing_put(self, changes, k) -> None:
        """The session's k-th PUT fails; if that fails the session, it
        leaves no manifest and the next backup re-runs its id."""
        self._edit(changes)
        self.store.fail_at = k
        try:
            self._backup()
        except (BackupError, CloudError):
            pass
        finally:
            self.store.fail_at = 0

    @rule(changes=_changes, k=st.integers(1, 10))
    def crash_mid_session(self, changes, k) -> None:
        """The process dies at the session's k-th PUT: nothing from it
        on persists, so neither the failure path's journal flush nor
        any ``finally`` lands.  A new process resumes from the cloud
        and re-runs the session, which commits and leaves no journal.
        Segments of two records make the journal's segment path run
        at this budget."""
        self._edit(changes)
        with mock.patch.object(journal, "SEGMENT_RECORDS", 2):
            self.store.kill_at = k
            try:
                self._backup()
            except (BackupError, CloudError):
                pass
            finally:
                self.client.close()
                self.store.kill_at = 0
                self.store.dead = False
            self.client = self._client()
            self.crash_skipped = self._backup().resume_skipped_objects
            self._check_resumed()
        assert self.store.list(naming.JOURNAL_PREFIX) == []

    @rule(changes=_changes)
    def backup_epoch_unreadable(self, changes) -> None:
        """A session that cannot read the GC epoch: it cannot rule out
        a sweep since the last one, so it must not trust what the
        client holds."""
        self.store.epoch_down = True
        try:
            self.backup(changes)
        finally:
            self.store.epoch_down = False

    @rule(path=st.sampled_from(PATHS), size=st.integers(1, 40_000),
          seed=st.integers(0, 63))
    def backup_file_vanished(self, path, size, seed) -> None:
        """A file written since the last session (fresh mtime, so
        nothing can replay it) vanishes between the walk and its read:
        the session succeeds without it, with one warning naming it,
        and the live source drops it."""
        self._edit([("put", path, size, seed)])
        stats = self._backup(gone=path)
        assert len([w for w in stats.warnings if path in w]) == 1, \
            stats.warnings
        del self.source[path]

    @precondition(lambda self: self.model.sessions)
    @rule(data=st.data(), k=st.integers(1, 8))
    def restore_interrupted(self, data, k) -> None:
        """A directory restore whose k-th GET after the manifest fails:
        the error propagates (exactly when the session needs at least k
        data GETs), every file it leaves is bit-exact, and a second
        restore into the same directory yields exactly the session."""
        session_id = data.draw(st.sampled_from(self.model.retained()))
        files = self.model.sessions[session_id]
        key = MASTER_KEY if self.config.encrypt_chunks else None
        with tempfile.TemporaryDirectory() as tmp:
            dest = Path(tmp)
            self.store.get_fail_at = k
            try:
                RestoreClient(self.store, master_key=key
                              ).restore_to_directory(session_id, dest)
                interrupted = False
            except TransientCloudError:
                interrupted = True
            finally:
                self.store.get_fail_at = 0
            left = _tree(dest)
            assert all(files[path] == blob for path, blob in left.items())
            before = self.store.data_gets
            RestoreClient(self.store, master_key=key).restore_to_directory(
                session_id, dest)
            assert interrupted == (k <= self.store.data_gets - before)
            assert _tree(dest) == files

    @rule(base=st.integers(1, 2))
    def replicate(self, base) -> None:
        """Give every live container ``base`` copies; two draws in a row
        may lower replication, and then the replicas the new plan no
        longer names must go: the store holds exactly the planned
        replicas."""
        report = replicate_cloud(
            self.store, policy=DurabilityPolicy(base_replicas=base,
                                                max_replicas=base),
            domains=DOMAINS)
        assert report.ok, report.problems
        plan = ReplicationPlan.load(self.store) or ReplicationPlan()
        assert set(self.store.list(naming.REPLICA_PREFIX)) == {
            key for cid in plan.targets for key in plan.replica_keys(cid)}

    @rule(domain=st.sampled_from(DOMAINS))
    def replicate_kill_repair(self, domain) -> None:
        """Replicate every live container twice, lose a whole fault
        domain, repair: every copy is rebuilt from the survivors."""
        replicate_cloud(self.store, policy=DurabilityPolicy(base_replicas=2),
                        domains=DOMAINS)
        kill_domain(self.store, domain, DOMAINS)
        report = repair_cloud(self.store)
        assert report.ok, report.problems

    # -- the invariant --------------------------------------------------
    @invariant()
    def every_retained_session_restores(self) -> None:
        assert naming.session_ids(self.store) == self.model.retained()
        key = MASTER_KEY if self.config.encrypt_chunks else None
        for session_id, files in self.model.sessions.items():
            restore = RestoreClient(self.store, master_key=key)
            restored, report = restore.restore_to_memory(session_id)
            assert restored == files, session_id
            # A planned restore loads each container it needs once.
            manifest = restore.load_manifest(session_id)
            assert report.containers_fetched == len(
                manifest.referenced_containers()), session_id

    @invariant()
    def scrub_is_clean(self) -> None:
        report = scrub_cloud(self.store)
        assert report.clean, report.findings

    def teardown(self) -> None:
        self.client.close()


StoreMachine.TestCase.settings = settings.get_profile(
    os.environ.get("STATE_MACHINE_PROFILE", "state-machine-tier1"))
TestStoreMachine = StoreMachine.TestCase


# -- explicit examples through the same rules ---------------------------
_DROPPED = "docs/report.doc"

_SCHEMES = {config.name: config for config in all_scheme_configs()}


@pytest.mark.parametrize("arm", ["same_client", "resumed_client",
                                 "epoch_unreadable"])
@pytest.mark.parametrize("scheme", sorted(_SCHEMES))
def test_drop_file_collect_bring_back(scheme, arm):
    """Back a file up, drop it, collect garbage, bring it back: the
    sweep took its extents, so the client must not dedup against them
    (at one point this raised ``ObjectNotFound`` on restore), also when
    the comeback session cannot read the epoch the sweep bumped."""
    machine = StoreMachine()
    machine.start(_SCHEMES[scheme])
    machine.backup([("put", _DROPPED, 20_000, 1),
                    ("put", "docs/paper.pdf", 20_000, 3)])
    machine.backup([("delete", _DROPPED, 0, 0)])
    machine.drop_oldest_and_collect()
    machine.every_retained_session_restores()
    comeback = [("put", _DROPPED, 20_000, 1)]
    verb = {"same_client": machine.backup,
            "resumed_client": machine.backup_fresh_client,
            "epoch_unreadable": machine.backup_epoch_unreadable}[arm]
    verb(comeback)
    machine.every_retained_session_restores()
    machine.teardown()


#: A session that fails after some of its uploads went up, per scheme:
#: (config, source changes, the k-th PUT that fails).  A session under
#: 64 uploads PUTs its data, then the manifest; its failure path then
#: PUTs the journal's one segment.
_INTERRUPTED = {
    # The third container fails.
    "AA-Dedupe": (aa_dedupe_config(container_size=4096),
                  [("put", path, 20_000, seed)
                   for seed, path in enumerate(PATHS[:4], start=3)], 3),
    # The file object went up and the manifest failed (found by the
    # machine at the large budget).
    "JungleDisk": (jungle_disk_config(),
                   [("put", "docs/report.doc", 1, 0)], 2),
}


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["same_client", "resumed_client"])
@pytest.mark.parametrize("scheme", sorted(_INTERRUPTED))
def test_interrupted_session_collect_rerun(scheme, resumed):
    """GC sweeps what an interrupted session uploaded (no manifest
    references it) and its journal; the re-run must upload it again
    rather than trust the journal's record of it (which raised
    ``ObjectNotFound`` on restore)."""
    config, changes, k = _INTERRUPTED[scheme]
    machine = StoreMachine()
    machine.start(config)
    machine.backup([("put", "docs/notes.txt", 12_000, 1)])
    machine.backup_with_failing_put(changes, k=k)
    assert machine.model.retained() == [0]
    assert machine.store.list(naming.JOURNAL_PREFIX)
    machine.drop_oldest_and_collect()
    assert machine.store.list(naming.JOURNAL_PREFIX) == []
    machine.every_retained_session_restores()
    if resumed:
        machine.backup_fresh_client([])
    else:
        machine.backup([])
    machine.every_retained_session_restores()
    machine.teardown()


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["same_client", "resumed_client"])
def test_interrupted_session_domain_kill_rerun(resumed):
    """A fault domain dies with a container an interrupted session
    uploaded (no manifest references it, so no replica saves it); the
    re-run must upload it again rather than trust the journal's record
    of it (which raised ``ObjectNotFound`` on restore)."""
    config, changes, k = _INTERRUPTED["AA-Dedupe"]
    machine = StoreMachine()
    machine.start(config)
    machine.backup([("put", "docs/notes.txt", 12_000, 1)])
    before = set(machine.store.list(naming.CONTAINER_PREFIX))
    machine.backup_with_failing_put(changes, k=k)
    assert machine.store.list(naming.JOURNAL_PREFIX)
    left = sorted(set(machine.store.list(naming.CONTAINER_PREFIX)) - before)
    domain = primary_domain(naming.container_id_of(left[0]), DOMAINS)
    machine.replicate_kill_repair(domain)
    assert left[0] not in machine.store.list(naming.CONTAINER_PREFIX)
    if resumed:
        machine.backup_fresh_client([])
    else:
        machine.backup([])
    machine.every_retained_session_restores()
    machine.scrub_is_clean()
    machine.teardown()


def test_crash_mid_session_resumes_flushed_segments():
    """The process dies at the 7th PUT: data, data, segment, data, data,
    segment, then the fifth upload.  The re-run skips the four uploads
    the two segments record, and nothing else."""
    config, changes, _ = _INTERRUPTED["AA-Dedupe"]
    machine = StoreMachine()
    machine.start(config)
    machine.backup([("put", "docs/notes.txt", 12_000, 1)])
    machine.crash_mid_session(changes, k=7)
    assert machine.crash_skipped == 4
    machine.every_retained_session_restores()
    machine.scrub_is_clean()
    machine.teardown()


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("scheme", ["AA-Dedupe", "Avamar"])
def test_gc_cut_short_then_open_client(scheme, k):
    """A GC cut at its k-th mutation, then the client that was open
    across it brings the dropped file back.  While GC moved the epoch
    only after its last delete, that client never learned of a sweep
    cut short and deduplicated against the extents it had deleted
    (``ObjectNotFound`` on restore)."""
    machine = StoreMachine()
    machine.start(_SCHEMES[scheme].with_(container_size=4 * KIB))
    machine.backup([("put", _DROPPED, 20_000, 1),
                    ("put", "docs/paper.pdf", 20_000, 3)])
    machine.backup([("delete", _DROPPED, 0, 0)])
    machine.gc_cut_at([("put", _DROPPED, 20_000, 1)], k)
    machine.every_retained_session_restores()
    machine.scrub_is_clean()
    machine.teardown()
