"""The durable storage backends: WAL framing, torn tails, sqlite, trait.

The torn-write contract under test (docs/PROTOCOL.md section 10): appends
are write-through, so a power cut can only damage the record in flight —
the final one.  Replay must salvage every earlier record bit-for-bit, no
matter where in the final record the damage lands.  The exhaustive loops
below literally try **every byte offset** of the final record, truncating
and bit-flipping; the hypothesis layer varies the record sequence that
precedes the damage.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError, TupleError
from repro.sim import Simulator
from repro.tuples import LocalTupleSpace, Pattern, Tuple
from repro.tuples.serialization import encode_tuple_binary
from repro.tuples.storage import (
    MemoryBackend,
    MemoryFS,
    SqliteBackend,
    WALBackend,
    attach_backend,
    inspect_wal,
)
from repro.tuples.storage.wal import _HEADER


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def space(sim):
    return LocalTupleSpace(sim, name="dev")


def wal(fs=None, compact_every=0):
    return WALBackend("dev", fs=fs or MemoryFS(), compact_every=compact_every)


def contents(state):
    """RecoveredState -> {durable_id: (tuple, expires_at)} for comparison."""
    return {eid: (tup, exp) for eid, tup, exp in state.entries}


# ---------------------------------------------------------------------------
# The trait: listener plumbing shared by every backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    MemoryBackend,
    lambda: wal(),
    lambda: wal(compact_every=2),       # compacts mid-lifecycle
    lambda: SqliteBackend(":memory:"),
])
def test_backend_mirrors_space_lifecycle(space, make):
    backend = attach_backend(space, make())
    space.out(Tuple("keep", 1))
    space.out(Tuple("take", 2))
    space.out(Tuple("mortal"), expires_at=50.0)
    assert space.inp(Pattern("take", int)) == Tuple("take", 2)
    space.sim.run(until=60.0)          # the mortal tuple expires

    state = backend.recover()
    live = contents(state)
    assert [t for t, _ in live.values()] == [Tuple("keep", 1)]
    assert state.high_water >= max(live)
    assert backend.records_out == 3 and backend.records_remove == 2


def test_backend_skips_infrastructure_and_transient_entries(sim, space):
    backend = attach_backend(space, MemoryBackend())
    space.out(Tuple("__space_info__", "dev"))   # skip-tagged
    waiter = space.in_(Pattern("flash"))
    space.out(Tuple("flash"))                   # consumed at deposit
    assert waiter.satisfied
    space.out(Tuple("real"))
    assert len(backend) == 1
    assert backend.records_out == 1


def test_detach_stops_logging_dead_incarnation(sim, space):
    backend = attach_backend(space, MemoryBackend())
    space.out(Tuple("old"), expires_at=10.0)
    backend.detach()
    fresh = LocalTupleSpace(sim, name="dev")
    backend.rebind(fresh)
    fresh.out(Tuple("new"))
    # The dead space's expiry timer fires after the rebind: it must not
    # reach the log, which now belongs to the fresh incarnation.
    sim.run(until=20.0)
    live = contents(backend.recover())
    assert [t for t, _ in live.values()] == [Tuple("new")]


def test_rebind_does_not_double_log(sim, space):
    backend = attach_backend(space, MemoryBackend())
    space.out(Tuple("a"))
    before = backend.records_out
    backend.rebind(space)               # re-anchor to the same space
    space.out(Tuple("b"))
    assert backend.records_out == before + 1
    assert len(backend) == 2


# ---------------------------------------------------------------------------
# WAL: framing, compaction, recovery
# ---------------------------------------------------------------------------
def test_wal_roundtrip_survives_reopen(space):
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    space.out(Tuple("a", 1, 2.5, b"\x00\xff"))
    space.out(Tuple("b", "text"), expires_at=99.0)
    space.inp(Pattern("a", int, float, bytes))

    reopened = wal(fs)                  # a fresh process over the files
    live = contents(reopened.recover())
    assert live == {2: (Tuple("b", "text"), 99.0)}
    assert reopened.recoveries == 1


def test_wal_rejects_bad_config():
    with pytest.raises(StorageError):
        WALBackend("dev", fs=MemoryFS(), compact_every=-1)


def test_wal_auto_compaction_resets_log(space):
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs, compact_every=4))
    for i in range(10):
        space.out(Tuple("row", i))
    assert backend.compactions >= 2
    assert fs.size(backend.snap_path) > 0
    # Everything survives a reopen regardless of where compaction cut.
    assert len(contents(wal(fs).recover())) == 10


def test_wal_mid_compaction_kill_is_idempotent(space):
    """Snapshot landed, WAL never reset: replay must not double-apply."""
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    space.out(Tuple("a"))
    space.out(Tuple("b"))
    space.inp(Pattern("b"))
    backend.compact(space.sim.now, _crash_after_snapshot=True)
    assert fs.size(backend.wal_path) > 0    # the stale pre-snapshot log

    live = contents(wal(fs).recover())
    assert [t for t, _ in live.values()] == [Tuple("a")]


def test_stale_wal_torn_rm_cannot_resurrect(space):
    """The snapshot-authority gate: kill mid-compaction, then tear the
    consumed entry's `rm` off the stale WAL tail.  Its pre-snapshot `out`
    is still in the log, but the snapshot (which excludes the entry)
    owns every id at or below its high-water mark — no ghost."""
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    space.out(Tuple("a"))
    space.out(Tuple("ghost"))
    space.inp(Pattern("ghost"))                       # rm is the tail
    backend.compact(space.sim.now, _crash_after_snapshot=True)
    torn = backend.tear_tail(8)
    assert torn["op"] == "rm"

    live = contents(wal(fs).recover())
    assert [t for t, _ in live.values()] == [Tuple("a")]


def test_wal_corrupt_snapshot_salvages_wal(space):
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    space.out(Tuple("a"))
    backend.compact(space.sim.now)
    space.out(Tuple("b"))
    fs.flip_bit(backend.snap_path, fs.size(backend.snap_path) // 2)

    reopened = wal(fs)
    live = contents(reopened.recover())
    # The snapshot is gone (external corruption, counted), but the boot
    # still salvages what the post-compaction WAL holds.
    assert reopened.snapshot_corrupt == 1
    assert [t for t, _ in live.values()] == [Tuple("b")]


def _non_record_frame():
    """A frame whose CRC checks but whose payload is not a JSON record: a
    5.x binary-record log, or deep rot — never a torn write."""
    payload = encode_tuple_binary(Tuple("not", "json"))
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def test_wal_refuses_a_crc_valid_frame_that_is_not_a_record(space):
    fs = MemoryFS()
    attach_backend(space, wal(fs))
    space.out(Tuple("a"))
    good = fs.size("dev.wal")
    fs.append("dev.wal", _non_record_frame())
    space.out(Tuple("b"))
    before = fs.read("dev.wal")

    with pytest.raises(StorageError, match=rf"dev\.wal: the frame at byte {good} "):
        wal(fs).recover()
    assert fs.read("dev.wal") == before             # nothing truncated
    assert f"dev.wal: the frame at byte {good} " in inspect_wal("dev", fs=fs)["refused"]

    # The same frame as the snapshot: refused, not salvaged as corrupt.
    fs.replace("dev.snap", _non_record_frame())
    fs.truncate("dev.wal", good)
    reopened = wal(fs)
    with pytest.raises(StorageError, match=r"dev\.snap: the frame at byte 0 "):
        reopened.recover()
    assert reopened.snapshot_corrupt == 0
    assert fs.read("dev.snap") == _non_record_frame()
    assert fs.size("dev.wal") == good
    assert "dev.snap: the frame at byte 0 " in inspect_wal("dev", fs=fs)["refused"]

    # A JSON record that is not a snapshot, in the snapshot file: refused.
    fs.replace("dev.snap", fs.read("dev.wal"))
    with pytest.raises(StorageError, match=r"dev\.snap: the frame at byte 0 "):
        wal(fs).recover()


def test_tear_tail_clamps_to_final_record(space):
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    space.out(Tuple("first"))
    space.out(Tuple("last"))
    torn = backend.tear_tail(10_000)    # way past the final record
    assert torn["op"] == "out" and torn["id"] == 2
    live = contents(wal(fs).recover())
    assert [t for t, _ in live.values()] == [Tuple("first")]


def test_tear_tail_on_empty_wal_returns_none():
    backend = wal()
    assert backend.tear_tail(5) is None


# ---------------------------------------------------------------------------
# Torn-tail tolerance: every byte offset of the final record
# ---------------------------------------------------------------------------
def _build_wal(fs, rows):
    sim = Simulator()
    space = LocalTupleSpace(sim, name="dev")
    backend = attach_backend(space, wal(fs))
    for i in range(rows):
        space.out(Tuple("row", i, "x" * (i % 5)))
    return backend


def test_truncation_at_every_byte_offset_of_final_record():
    pristine = MemoryFS()
    backend = _build_wal(pristine, rows=4)
    total = pristine.size(backend.wal_path)
    # Find where the final record starts: rebuild with one fewer row.
    shorter = MemoryFS()
    _build_wal(shorter, rows=3)
    final_start = shorter.size("dev.wal")

    for cut in range(1, total - final_start + 1):
        fs = MemoryFS()
        fs.files["dev.wal"] = bytearray(pristine.read("dev.wal"))
        fs.chop("dev.wal", cut)
        reopened = wal(fs)
        live = contents(reopened.recover())
        # Rows 0..2 were durable before the final append began: intact.
        assert {t for t, _ in live.values()} == {
            Tuple("row", i, "x" * (i % 5)) for i in range(3)}
        if cut < total - final_start:
            # A partial frame remains: counted and truncated away.
            assert reopened.torn_truncations == 1
            assert reopened.torn_bytes == total - final_start - cut
        else:
            # The cut landed exactly on the frame boundary: clean file.
            assert reopened.torn_truncations == 0
        # The truncation repaired the file: a second boot is clean.
        again = wal(fs)
        assert contents(again.recover()) == live
        assert again.torn_truncations == 0


def test_bitflip_at_every_byte_offset_of_final_record():
    pristine = MemoryFS()
    _build_wal(pristine, rows=4)
    shorter = MemoryFS()
    _build_wal(shorter, rows=3)
    final_start = shorter.size("dev.wal")
    total = pristine.size("dev.wal")
    survivors = {Tuple("row", i, "x" * (i % 5)) for i in range(3)}

    for offset in range(final_start, total):
        fs = MemoryFS()
        fs.files["dev.wal"] = bytearray(pristine.read("dev.wal"))
        assert fs.flip_bit("dev.wal", offset, bit=offset % 8)
        live = contents(wal(fs).recover())
        # The damaged final record is dropped (CRC or framing catches
        # it); everything before it is untouched.  A flip in the length
        # field may make the frame claim fewer bytes than written — if
        # the shrunken payload happens to CRC-check it would be caught
        # by the CRC covering different bytes, so the final record can
        # never decode to a *wrong* value, only vanish.
        assert survivors.issubset({t for t, _ in live.values()})
        assert len(live) <= 4


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 7)),
                    min_size=1, max_size=12),
       chop=st.integers(1, 64))
def test_torn_tail_property_random_histories(ops, chop):
    """Whatever the history, a tear loses at most the final record."""
    sim = Simulator()
    space = LocalTupleSpace(sim, name="dev")
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    deposited = []
    for is_out, val in ops:
        if is_out or not deposited:
            space.out(Tuple("v", val))
            deposited.append(val)
        else:
            taken = space.inp(Pattern("v", deposited.pop(0)))
            assert taken is not None
    before = contents(backend.recover())
    torn = backend.tear_tail(chop)
    # The read-only diagnosis replays by the same rule as recovery.
    predicted = inspect_wal("dev", fs=fs)["live_entries"]
    live = contents(wal(fs).recover())
    assert predicted == len(live)
    if torn is None:
        assert live == before
    else:
        expected = dict(before)
        if torn["op"] == "out":
            expected.pop(torn["id"], None)      # unacknowledged: may vanish
        elif torn["op"] == "rm":
            assert torn["id"] not in before     # it was removed pre-tear
            expected = None                     # resurrection is legal here:
        if expected is not None:                # the *rejoin* purges it
            assert live == expected
        else:
            assert set(before).issubset(set(live))


# ---------------------------------------------------------------------------
# inspect_wal (the `repro wal inspect` engine)
# ---------------------------------------------------------------------------
def test_inspect_wal_reports_records_and_tears(space):
    fs = MemoryFS()
    backend = attach_backend(space, wal(fs))
    space.out(Tuple("a"))
    space.out(Tuple("b"))
    space.inp(Pattern("a"))
    info = inspect_wal("dev", fs=fs)
    assert info["wal_records"] == 3 and not info["torn"]
    assert info["live_entries"] == 1
    assert [r["op"] for r in info["records"]] == ["out", "out", "rm"]

    backend.compact(space.sim.now, _crash_after_snapshot=True)
    fs.chop(backend.wal_path, 3)     # the whole final record is now torn
    info = inspect_wal("dev", fs=fs)
    assert info["torn"] and info["torn_bytes"] > 0
    assert info["snapshot_entries"] == 1
    assert info["live_entries"] == 1    # snapshot authority over stale outs


# ---------------------------------------------------------------------------
# Sqlite backend
# ---------------------------------------------------------------------------
def test_sqlite_roundtrip_on_disk(tmp_path, sim):
    path = str(tmp_path / "space.db")
    space = LocalTupleSpace(sim, name="dev")
    backend = attach_backend(space, SqliteBackend(path))
    space.out(Tuple("keep", 1, b"\x00"))
    space.out(Tuple("take", 2))
    space.inp(Pattern("take", int))
    backend.close()

    reopened = SqliteBackend(path)
    state = reopened.recover()
    assert contents(state) == {1: (Tuple("keep", 1, b"\x00"), None)}
    assert state.high_water == 2        # the removed id still gates the floor
    reopened.close()


def test_sqlite_rebind_rewrites(sim):
    backend = SqliteBackend(":memory:")
    space = LocalTupleSpace(sim, name="dev")
    attach_backend(space, backend)
    space.out(Tuple("a"))
    fresh = LocalTupleSpace(sim, name="dev")
    fresh.out(Tuple("b"))
    backend.detach()
    backend.rebind(fresh)
    live = contents(backend.recover())
    assert [t for t, _ in live.values()] == [Tuple("b")]
    backend.close()


# ---------------------------------------------------------------------------
# Store/space recovery primitives the backends lean on
# ---------------------------------------------------------------------------
def test_store_add_pinned_id_and_collision(space):
    space.store.bump_ids(10)
    entry = space.store.add(Tuple("pinned"), entry_id=7)
    assert entry.entry_id == 7
    with pytest.raises(TupleError):
        space.store.add(Tuple("dup"), entry_id=7)
    # The bumped counter keeps fresh ids clear of everything durable.
    space.out(Tuple("fresh"))
    ids = [e.entry_id for e in space.store]
    assert 7 in ids and max(ids) > 10


def test_restore_entry_quarantine_and_release(space):
    space.restore_entry(Tuple("verified"), entry_id=3)
    space.restore_entry(Tuple("suspect"), quarantine=True, entry_id=4)
    assert space.count(Pattern("verified")) == 1
    assert space.count(Pattern("suspect")) == 0     # held: invisible
    space.release(4)
    assert space.count(Pattern("suspect")) == 1


# ---------------------------------------------------------------------------
# The abstract contract and the real filesystem
# ---------------------------------------------------------------------------
def test_storage_backend_contract_is_abstract(sim):
    from repro.tuples.storage import StorageBackend
    backend = StorageBackend()
    with pytest.raises(NotImplementedError):
        backend.record_out(1, Tuple("x"), None, 0.0)
    with pytest.raises(NotImplementedError):
        backend.record_remove(1, "consumed", 0.0)
    with pytest.raises(NotImplementedError):
        backend.recover()
    with pytest.raises(NotImplementedError):
        backend._rewrite({}, 0.0)
    backend.compact(0.0)                # optional: no-op, must not raise
    backend.close()


def test_wal_over_real_files(tmp_path, space):
    from repro.tuples.storage import OsFS
    base = str(tmp_path / "dev")
    backend = attach_backend(space, WALBackend(base, fs=OsFS()))
    space.out(Tuple("keep", 1))
    space.out(Tuple("gone", 2))
    space.inp(Pattern("gone", int))
    space.out(Tuple("torn"))

    # Write-through means the torn deposit is the final frame on disk.
    torn = backend.tear_tail(5)
    assert torn["op"] == "out"
    backend.close()

    reopened = WALBackend(base, fs=OsFS())
    live = contents(reopened.recover())
    assert [t for t, _ in live.values()] == [Tuple("keep", 1)]
    assert reopened.torn_truncations == 1

    # Compaction folds the log into the snapshot and empties the WAL.
    reopened.compact(0.0)
    assert (tmp_path / "dev.snap").exists()
    assert (tmp_path / "dev.wal").stat().st_size == 0
    again = WALBackend(base, fs=OsFS())
    assert contents(again.recover()) == live


def test_os_fs_replace_failure_leaves_no_litter(tmp_path, monkeypatch):
    from repro.tuples.storage import OsFS
    fs = OsFS()
    path = str(tmp_path / "dev.snap")
    fs.replace(path, b"old")
    assert fs.exists(path) and fs.size(path) == 3

    import repro.tuples.storage.fs as fsmod
    monkeypatch.setattr(fsmod.os, "replace",
                        lambda *a: (_ for _ in ()).throw(OSError("disk")))
    with pytest.raises(OSError):
        fs.replace(path, b"new")
    monkeypatch.undo()
    # The old snapshot survived, and the failed temp file was cleaned up.
    assert fs.read(path) == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["dev.snap"]
    fs.delete(path)
    fs.delete(path)                     # idempotent on a missing file
    assert fs.read(path) is None and fs.size(path) == 0
