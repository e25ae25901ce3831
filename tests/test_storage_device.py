"""Unit tests for the simulated block device."""

import io
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lipp import LippIndex
from repro.datasets import make_dataset
from repro.storage import (HDD, NULL_DEVICE, SSD, BlockDevice, ChecksumError,
                           DeviceFaultModel, DiskProfile, Pager, load_device,
                           save_device)
from repro.storage import device as device_module
from repro.storage.device import StorageStats

from tests.util import items_of


def test_block_size_must_be_positive():
    with pytest.raises(ValueError):
        BlockDevice(block_size=0)


def test_create_file_rejects_duplicates(device):
    device.create_file("a")
    with pytest.raises(ValueError):
        device.create_file("a")


def test_allocate_returns_contiguous_extents(device):
    f = device.create_file("f")
    assert f.allocate(3) == 0
    assert f.allocate(2) == 3
    assert f.num_blocks == 5
    assert f.live_blocks == 5


def test_allocate_rejects_nonpositive_count(device):
    f = device.create_file("f")
    with pytest.raises(ValueError):
        f.allocate(0)


def test_write_read_roundtrip(device):
    f = device.create_file("f")
    f.allocate(2)
    payload = bytes(range(256)) * 16  # exactly 4096 bytes
    device.write_block(f, 1, payload)
    assert device.read_block(f, 1) == payload


def test_write_rejects_wrong_length(device):
    f = device.create_file("f")
    f.allocate(1)
    with pytest.raises(ValueError):
        device.write_block(f, 0, b"short")


def test_out_of_range_access_raises(device):
    f = device.create_file("f")
    f.allocate(1)
    with pytest.raises(IndexError):
        device.read_block(f, 1)
    with pytest.raises(IndexError):
        device.read_block(f, -1)


def test_read_write_counters(device):
    f = device.create_file("f")
    f.allocate(2)
    blank = bytes(device.block_size)
    device.write_block(f, 0, blank)
    device.read_block(f, 0)
    device.read_block(f, 1)
    assert device.stats.writes == 1
    assert device.stats.reads == 2
    assert f.reads == 2
    assert f.writes == 1


def test_memory_resident_files_are_free(device):
    f = device.create_file("f")
    f.allocate(1)
    f.memory_resident = True
    device.write_block(f, 0, bytes(device.block_size))
    device.read_block(f, 0)
    assert device.stats.reads == 0
    assert device.stats.writes == 0
    assert device.stats.elapsed_us == 0.0


def test_sequential_access_is_cheaper_on_hdd(device):
    f = device.create_file("f")
    f.allocate(3)
    device.read_block(f, 0)
    random_cost = device.stats.elapsed_us
    device.read_block(f, 1)  # sequential after block 0
    sequential_cost = device.stats.elapsed_us - random_cost
    assert sequential_cost < random_cost


def test_free_tracks_but_does_not_reclaim(device):
    f = device.create_file("f")
    f.allocate(4)
    f.free(1, 2)
    assert f.num_blocks == 4          # space is not reclaimed (paper 6.3)
    assert f.live_blocks == 2
    assert device.stats.freed_blocks == 2
    # Freed blocks remain readable (the index must never do so, but the
    # device does not enforce it).
    device.read_block(f, 1)


def test_delete_file_reclaims_space(device):
    f = device.create_file("f")
    f.allocate(5)
    assert device.allocated_bytes == 5 * 4096
    device.delete_file("f")
    assert "f" not in device.files
    assert device.allocated_bytes == 0
    assert device.stats.freed_blocks == 5


def test_phase_attribution(device):
    f = device.create_file("f")
    f.allocate(1)
    device.set_phase("smo")
    device.read_block(f, 0)
    device.write_block(f, 0, bytes(device.block_size))
    assert device.stats.reads_by_phase["smo"] == 1
    assert device.stats.writes_by_phase["smo"] == 1
    assert device.stats.time_by_phase["smo"] > 0


def test_stats_snapshot_and_diff(device):
    f = device.create_file("f")
    f.allocate(1)
    device.read_block(f, 0)
    snap = device.stats.snapshot()
    device.read_block(f, 0)
    device.read_block(f, 0)
    delta = device.stats.diff(snap)
    assert delta.reads == 2
    assert snap.reads == 1  # snapshot unaffected


def test_ssd_profile_cheaper_than_hdd():
    hdd = BlockDevice(4096, HDD)
    ssd = BlockDevice(4096, SSD)
    for dev in (hdd, ssd):
        f = dev.create_file("f")
        f.allocate(1)
        dev.read_block(f, 0)
    assert ssd.stats.elapsed_us < hdd.stats.elapsed_us


def test_null_profile_is_free():
    dev = BlockDevice(4096, NULL_DEVICE)
    f = dev.create_file("f")
    f.allocate(1)
    dev.read_block(f, 0)
    assert dev.stats.elapsed_us == 0.0
    assert dev.stats.reads == 1  # still counted


def test_transfer_cost_scales_with_block_size():
    profile = DiskProfile("t", 100.0, 100.0, 100.0, 100.0, transfer_us_per_kib=10.0)
    small = profile.read_cost_us(4096, sequential=False)
    large = profile.read_cost_us(16384, sequential=False)
    assert large == small + 10.0 * 12  # 12 extra KiB


# -- StorageStats snapshot/diff round-trip ----------------------------------

_phase_dicts = st.dictionaries(
    st.sampled_from(["default", "search", "insert", "smo", "maintenance",
                     "scan", "bulkload", "log", "exotic"]),
    st.integers(0, 10**6), max_size=6)


def _stats_from(reads_by_phase, writes_by_phase, time_by_phase):
    return StorageStats(
        reads=sum(reads_by_phase.values()),
        writes=sum(writes_by_phase.values()),
        elapsed_us=float(sum(time_by_phase.values())),
        reads_by_phase=dict(reads_by_phase),
        writes_by_phase=dict(writes_by_phase),
        time_by_phase={p: float(v) for p, v in time_by_phase.items()},
    )


@settings(max_examples=120, deadline=None)
@given(_phase_dicts, _phase_dicts, _phase_dicts, _phase_dicts)
def test_snapshot_diff_round_trips_arbitrary_phase_dicts(
        early_reads, early_writes, late_reads, late_writes):
    """diff(snapshot) must recover exactly what accumulated in between —
    including phases that first appear *after* the snapshot and phases
    the snapshot saw but the delta period never touched."""
    earlier = _stats_from(early_reads, early_writes, early_reads)
    later = _stats_from(
        {p: early_reads.get(p, 0) + late_reads.get(p, 0)
         for p in set(early_reads) | set(late_reads)},
        {p: early_writes.get(p, 0) + late_writes.get(p, 0)
         for p in set(early_writes) | set(late_writes)},
        {p: early_reads.get(p, 0) + late_reads.get(p, 0)
         for p in set(early_reads) | set(late_reads)},
    )
    delta = later.diff(earlier.snapshot())
    for phase in set(late_reads) | set(early_reads):
        assert delta.reads_by_phase[phase] == late_reads.get(phase, 0)
        assert delta.time_by_phase[phase] == float(late_reads.get(phase, 0))
    for phase in set(late_writes) | set(early_writes):
        assert delta.writes_by_phase[phase] == late_writes.get(phase, 0)
    assert delta.reads == sum(late_reads.values())
    assert delta.writes == sum(late_writes.values())
    # No phantom phases: everything reported came from one of the sides.
    assert set(delta.reads_by_phase) <= (
        set(early_reads) | set(late_reads) | set(early_writes)
        | set(late_writes))


def test_diff_reports_phase_only_seen_before_snapshot(device):
    """A phase present in the snapshot but untouched afterwards shows up
    as an explicit zero, not a KeyError or a silent omission."""
    f = device.create_file("f")
    f.allocate(1)
    device.set_phase("smo")
    device.read_block(f, 0)
    snap = device.stats.snapshot()
    device.set_phase("scan")
    device.read_block(f, 0)
    delta = device.stats.diff(snap)
    assert delta.reads_by_phase["smo"] == 0
    assert delta.reads_by_phase["scan"] == 1
    assert delta.time_by_phase["smo"] == 0.0


def test_diff_reports_phase_first_seen_after_snapshot(device):
    f = device.create_file("f")
    f.allocate(1)
    snap = device.stats.snapshot()
    device.set_phase("maintenance")
    device.write_block(f, 0, bytes(device.block_size))
    delta = device.stats.diff(snap)
    assert delta.writes_by_phase["maintenance"] == 1
    assert delta.time_by_phase["maintenance"] > 0


_counters = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                      st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(_counters, _counters)
def test_snapshot_diff_round_trips_fault_counters(early, late):
    """The self-healing counters (io_retries / checksum_failures /
    repaired_blocks) obey the same rule as every other stat: the delta
    recovers exactly what accumulated between snapshot and diff, and the
    snapshot itself is a faithful, unaliased copy."""
    earlier = StorageStats(io_retries=early[0], checksum_failures=early[1],
                           repaired_blocks=early[2])
    later = StorageStats(io_retries=early[0] + late[0],
                         checksum_failures=early[1] + late[1],
                         repaired_blocks=early[2] + late[2])
    snap = earlier.snapshot()
    delta = later.diff(snap)
    assert delta.io_retries == late[0]
    assert delta.checksum_failures == late[1]
    assert delta.repaired_blocks == late[2]
    assert (snap.io_retries, snap.checksum_failures, snap.repaired_blocks) == early
    later.io_retries += 1  # mutating the live stats must not touch the snapshot
    assert snap.io_retries == early[0]


# -- the sparse block store against full images --------------------------------

SECTOR = 256


class _FullImageDevice:
    """The device as it was before the sparse store: every block a full
    ``bytearray`` image, every charge spelled out one access at a time."""

    def __init__(self, block_size, profile):
        self.bs = block_size
        self.profile = profile
        self.images = {}
        self.crcs = {}
        self.stats = StorageStats()
        self.last = None
        self.phase = "default"

    def allocate(self, name, count):
        self.images.setdefault(name, []).extend(
            bytearray(self.bs) for _ in range(count))
        self.crcs.setdefault(name, []).extend(
            zlib.crc32(bytes(self.bs)) for _ in range(count))
        self.stats.allocated_blocks += count

    def _charge(self, kind, name, n):
        sequential = self.last == (name, n - 1)
        s = self.stats
        if kind == "r":
            cost = self.profile.read_cost_us(self.bs, sequential)
            s.reads += 1
            s.read_positionings += not sequential
            by_phase = s.reads_by_phase
        else:
            cost = self.profile.write_cost_us(self.bs, sequential)
            s.writes += 1
            s.write_positionings += not sequential
            by_phase = s.writes_by_phase
        by_phase[self.phase] = by_phase.get(self.phase, 0) + 1
        s.elapsed_us += cost
        s.time_by_phase[self.phase] = s.time_by_phase.get(self.phase, 0.0) + cost
        self.last = (name, n)
        return sequential

    def _verified(self, name, n):
        image = bytes(self.images[name][n])
        if zlib.crc32(image) != self.crcs[name][n]:
            self.stats.checksum_failures += 1
            raise ChecksumError(name, n, "stale envelope")
        return image

    def _span(self, kind, name, nos, step):
        run = 0
        out = []
        for n in nos:
            run = run + 1 if self._charge(kind, name, n) else 1
            if run == 2:
                self.stats.coalesced_runs += 1
                self.stats.coalesced_blocks += 1
            if run >= 2:
                self.stats.coalesced_blocks += 1
            out.append(step(n))
        return out

    def read(self, name, n):
        self._charge("r", name, n)
        return self._verified(name, n)

    def read_blocks(self, name, nos):
        return self._span("r", name, nos, lambda n: self._verified(name, n))

    def _store(self, name, n, data):
        self.images[name][n] = bytearray(data)
        self.crcs[name][n] = zlib.crc32(bytes(data))

    def write(self, name, n, data):
        self._charge("w", name, n)
        self._store(name, n, data)

    def write_blocks(self, name, pairs, torn):
        payloads = dict(pairs)
        torn_no = pairs[-1][0] if torn else None

        def step(n):
            if n == torn_no:
                half = self.bs // 2
                self.images[name][n][:half] = payloads[n][:half]
            else:
                self._store(name, n, payloads[n])

        self._span("w", name, [n for n, _ in pairs], step)

    def write_bytes(self, name, offset, data):
        pos = offset
        while data:
            n, in_block = divmod(pos, self.bs)
            take = min(self.bs - in_block, len(data))
            if take == self.bs:
                self.write(name, n, data[:take])
            else:
                image = bytearray(self.read(name, n))
                image[in_block:in_block + take] = data[:take]
                self.write(name, n, bytes(image))
            data = data[take:]
            pos += take

    def rot(self, name, n, seed):
        """A read under DeviceFaultModel(seed, bit_rot_rate=1.0): its
        first draw decides to rot, its second picks the bit."""
        self._charge("r", name, n)
        rng = random.Random(seed)
        rng.random()
        bit = rng.randrange(self.bs * 8)
        self.images[name][n][bit // 8] ^= 1 << (bit % 8)
        return self._verified(name, n)

    def reload(self):
        for name, images in self.images.items():
            self.crcs[name] = [zlib.crc32(bytes(image)) for image in images]
        self.stats = StorageStats(allocated_blocks=sum(
            len(images) for images in self.images.values()))
        self.last = None
        self.phase = "default"

    def stored_bytes(self):
        """Each block up to its last sector holding a non-zero byte."""
        total = 0
        for images in self.images.values():
            for image in images:
                used = len(bytes(image).rstrip(b"\0"))
                total += min(self.bs, -(-used // SECTOR) * SECTOR)
        return total


def _payload(data, bs):
    """A full-block payload: random, all zero, zero past a random length,
    or zero but for one byte on either side of a sector edge."""
    rnd = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    kind = data.draw(st.sampled_from(["random", "zero", "zero_tailed", "sector_edge"]),
                     label="payload")
    if kind == "random":
        return rnd.randbytes(bs)
    if kind == "zero":
        return bytes(bs)
    if kind == "zero_tailed":
        keep = data.draw(st.integers(1, bs), label="keep")
        return rnd.randbytes(keep - 1) + bytes([rnd.randrange(1, 256)]) + bytes(bs - keep)
    edges = sorted({p for s in range(1, -(-bs // SECTOR) + 1)
                    for p in (s * SECTOR - 1, s * SECTOR, s * SECTOR + 1) if p < bs})
    at = data.draw(st.sampled_from(edges), label="edge")
    image = bytearray(bs)
    image[at] = rnd.randrange(1, 256)
    return bytes(image)


def _check_against(device, model):
    assert sorted(device.files) == sorted(model.images)
    for name, images in model.images.items():
        handle = device.files[name]
        want = [bytes(image) for image in images]
        assert handle.num_blocks == len(handle.blocks) == len(want)
        assert list(handle.blocks) == want
        assert [handle.blocks[n] for n in range(len(want))] == want
        assert handle.blocks[:] == want
        assert handle.checksums == model.crcs[name]
    assert device.stats == model.stats
    assert device.stored_bytes == model.stored_bytes()
    assert device.allocated_bytes == device.block_size * sum(
        len(images) for images in model.images.values())


def _expect(device_call, model_call):
    """Both sides return the same bytes or both refuse a stale block."""
    try:
        want = model_call()
    except ChecksumError:
        with pytest.raises(ChecksumError):
            device_call()
        return
    assert device_call() == want


@pytest.mark.parametrize("block_size", [4096, 512, 256, 1000])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_store_matches_full_images(block_size, data):
    """Every read, every ``blocks[n]``, every checksum and every
    ``StorageStats`` field of the sparse store equal those of a device
    that keeps full images, whatever is written and however.

    The reference verifies every read from scratch; the store memoizes
    a verified block version.  So each corruption route — bit rot
    through ``blocks[n] = image`` or a faulted read, an edited envelope
    entry, a torn write, ``del blocks[-k:]`` then ``allocate``, a
    save/load round trip — first reads its target blocks clean (when
    they are) through ``read_block`` and ``read_blocks``, and reads
    them through both again after the corruption: a memo that outlived
    what it proved would serve bytes the reference refuses."""
    profile = HDD
    device = BlockDevice(block_size, profile)
    pager = Pager(device)
    model = _FullImageDevice(block_size, profile)
    for name in ("a", "b"):
        device.create_file(name).allocate(3)
        model.allocate(name, 3)

    def read_both(name, nos):
        for n in nos:
            _expect(lambda: device.read_block(device.files[name], n),
                    lambda: model.read(name, n))
            _expect(lambda: device.read_blocks(device.files[name], [n]),
                    lambda: model.read_blocks(name, [n]))

    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        name = data.draw(st.sampled_from(["a", "b"]), label="file")
        handle = device.files[name]
        blocks = handle.num_blocks
        op = data.draw(st.sampled_from(
            ["write", "write_bytes", "write_blocks", "read", "read_blocks",
             "rot", "assign", "edit_crc", "truncate", "allocate", "phase",
             "reload"]), label="op")
        if op == "write":
            n = data.draw(st.integers(0, blocks - 1), label="block")
            payload = _payload(data, block_size)
            device.write_block(handle, n, payload)
            model.write(name, n, payload)
        elif op == "write_bytes":
            offset = data.draw(st.integers(0, blocks * block_size - 1), label="offset")
            length = data.draw(st.integers(
                1, min(3 * block_size, blocks * block_size - offset)), label="length")
            chunk = _payload(data, 3 * block_size)[:length]
            # The model charges every read of a read-modify-write: empty
            # the pager's one-block reuse cache so the device does too.
            pager.drop_last_block()
            _expect(lambda: pager.write_bytes(handle, offset, chunk),
                    lambda: model.write_bytes(name, offset, chunk))
        elif op == "write_blocks":
            nos = sorted(data.draw(st.sets(st.integers(0, blocks - 1), min_size=1),
                                   label="blocks"))
            pairs = [(n, _payload(data, block_size)) for n in nos]
            torn = len(pairs) >= 2 and data.draw(st.booleans(), label="torn")
            if torn:
                read_both(name, [nos[-1]])
                device.fault_model = DeviceFaultModel(torn_write_rate=1.0)
            device.write_blocks(handle, pairs)
            device.fault_model = None
            model.write_blocks(name, pairs, torn)
            if torn:
                read_both(name, [nos[-1]])
        elif op == "read":
            n = data.draw(st.integers(0, blocks - 1), label="block")
            _expect(lambda: device.read_block(handle, n), lambda: model.read(name, n))
        elif op == "read_blocks":
            nos = sorted(data.draw(st.sets(st.integers(0, blocks - 1), min_size=1),
                                   label="blocks"))
            _expect(lambda: device.read_blocks(handle, nos),
                    lambda: model.read_blocks(name, nos))
        elif op == "rot":
            n = data.draw(st.integers(0, blocks - 1), label="block")
            seed = data.draw(st.integers(0, 2**16), label="rot_seed")
            read_both(name, [n])
            device.fault_model = DeviceFaultModel(seed=seed, bit_rot_rate=1.0)
            _expect(lambda: device.read_block(handle, n), lambda: model.rot(name, n, seed))
            device.fault_model = None
            read_both(name, [n])
        elif op == "assign":
            n = data.draw(st.integers(0, blocks - 1), label="block")
            bit = data.draw(st.integers(0, block_size * 8 - 1), label="bit")
            read_both(name, [n])
            image = bytearray(handle.blocks[n])
            image[bit // 8] ^= 1 << (bit % 8)
            handle.blocks[n] = image
            model.images[name][n][bit // 8] ^= 1 << (bit % 8)
            read_both(name, [n])
        elif op == "edit_crc":
            n = data.draw(st.integers(0, blocks - 1), label="block")
            bit = data.draw(st.integers(0, 31), label="crc_bit")
            read_both(name, [n])
            handle.checksums[n] ^= 1 << bit
            model.crcs[name][n] ^= 1 << bit
            read_both(name, [n])
        elif op == "truncate":
            # The envelope keeps its entries past the cut, so the blocks
            # allocated in their place inherit stale ones.
            count = data.draw(st.integers(1, blocks), label="count")
            tail = list(range(blocks - count, blocks))
            read_both(name, tail)
            del handle.blocks[-count:]
            del model.images[name][-count:]
            handle.allocate(count)
            model.allocate(name, count)
            read_both(name, tail)
        elif op == "allocate":
            count = data.draw(st.integers(1, 3), label="count")
            handle.allocate(count)
            model.allocate(name, count)
        elif op == "phase":
            model.phase = data.draw(st.sampled_from(["default", "scan", "smo"]),
                                    label="phase")
            device.set_phase(model.phase)
        else:
            warm = list(range(blocks))
            read_both(name, warm)
            image = io.BytesIO()
            save_device(device, image)
            image.seek(0)
            device = load_device(image, profile=profile)
            pager = Pager(device)
            model.reload()
            read_both(name, warm)
        _check_against(device, model)


def test_blocks_view_assignment_replaces_bytes_behind_the_device():
    """Assigning to ``blocks[n]`` stores the image, charges nothing and
    leaves the envelope stale; a wrong-sized image is refused."""
    device = BlockDevice(512, HDD)
    f = device.create_file("f")
    f.allocate(2)
    device.write_block(f, 1, b"\x07" * 512)
    before = device.stats.snapshot()
    f.blocks[1] = b"\x07" * 100 + bytes(412)
    assert f.blocks[1] == b"\x07" * 100 + bytes(412)
    assert device.stats == before
    with pytest.raises(ChecksumError):
        device.read_block(f, 1)
    with pytest.raises(ValueError):
        f.blocks[0] = b"short"
    del f.blocks[-1:]
    assert f.num_blocks == 1 and device.stored_bytes == 0


def test_a_verified_block_version_is_not_verified_again(monkeypatch):
    """The CRC memo (DESIGN.md Section 22): a write's CRC is the only
    one its block costs until the block changes, and allocation or an
    image load proves a block the same way; a block first proven by a
    read is proven once, on either read path; and nothing charged can
    tell a memo hit from a recomputation."""
    calls = []
    real_crc = device_module.block_crc

    def counting_crc(data):
        calls.append(len(data))
        return real_crc(data)

    monkeypatch.setattr(device_module, "block_crc", counting_crc)
    device = BlockDevice(512, HDD)
    f = device.create_file("f")
    f.allocate(4)
    payloads = [bytes([n + 1]) * 100 + bytes(412) for n in range(4)]

    del calls[:]
    device.write_block(f, 0, payloads[0])
    assert len(calls) == 1
    assert device.read_block(f, 0) == payloads[0]
    assert device.read_blocks(f, [0]) == [payloads[0]]
    assert len(calls) == 1
    device.write_blocks(f, [(1, payloads[1]), (2, payloads[2])])
    assert len(calls) == 3
    assert device.read_blocks(f, [0, 1, 2]) == payloads[:3]
    assert device.read_block(f, 2) == payloads[2]
    assert len(calls) == 3

    # Allocation and a device-image load stamp each entry from the bytes
    # they store, so those blocks are proven too.  A block whose bytes
    # were replaced behind the device (here by its own image) is proven
    # by its first read, through either path, and not again.
    del calls[:]
    assert device.read_block(f, 3) == bytes(512)
    image = io.BytesIO()
    save_device(device, image)
    image.seek(0)
    loaded = load_device(image, profile=HDD)
    g = loaded.files["f"]
    del calls[:]
    assert loaded.read_blocks(g, [0, 1, 2, 3]) == payloads[:3] + [bytes(512)]
    assert calls == []
    for n in range(4):
        g.blocks[n] = g.blocks[n]
    first = loaded.stats.snapshot()
    assert loaded.read_block(g, 1) == payloads[1]
    second = loaded.stats.snapshot()
    assert loaded.read_block(g, 1) == payloads[1]
    assert len(calls) == 1
    assert second.diff(first) == loaded.stats.diff(second)
    del calls[:]
    assert loaded.read_blocks(g, [0, 2]) == [payloads[0], payloads[2]]
    assert loaded.read_blocks(g, [0, 1, 2]) == payloads[:3]
    assert len(calls) == 2

    # The same reads with and without the proofs in hand: forgetting
    # them (re-assigning each block's own image) charges nothing, the
    # reads recompute, and every counter and every byte stay the same.
    warm, cold = (load_device(io.BytesIO(image.getvalue()), profile=HDD)
                  for _ in range(2))
    for n in range(4):
        warm.read_block(warm.files["f"], n)
        cold.read_block(cold.files["f"], n)
        cold.files["f"].blocks[n] = cold.files["f"].blocks[n]
    assert warm.stats == cold.stats
    del calls[:]
    for call in (lambda d: d.read_blocks(d.files["f"], [0, 1, 2, 3]),
                 lambda d: d.read_block(d.files["f"], 2)):
        assert call(warm) == call(cold)
        assert warm.stats == cold.stats
    assert len(calls) == 4

    # Verification off: reads compute no CRC at all.
    plain = BlockDevice(512, HDD, checksums=False)
    q = plain.create_file("q")
    q.allocate(2)
    plain.write_block(q, 0, payloads[0])
    q.blocks[1] = payloads[1]
    del calls[:]
    assert plain.read_block(q, 0) == payloads[0]
    assert plain.read_blocks(q, [0, 1]) == payloads[:2]
    assert plain.read_block(q, 1) == payloads[1]
    assert calls == []


def test_lipp_on_wise_stores_under_two_fifths_of_what_it_allocates():
    """LIPP gives every conflict child its own block extent (paper O11,
    Fig. 10); most of those blocks hold a two- or three-key node, so the
    store keeps far fewer bytes than the index allocates."""
    device = BlockDevice(4096, NULL_DEVICE)
    index = LippIndex(Pager(device))
    index.bulk_load(items_of(make_dataset("wise", 20_000, seed=42).tolist()))
    assert device.stored_bytes < 0.4 * device.allocated_bytes
