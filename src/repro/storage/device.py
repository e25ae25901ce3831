"""Simulated block device.

The device stores *real serialized bytes* in fixed-size blocks grouped
into named files (the paper's ALEX "Layout#2" keeps inner and data nodes
in separate files; dynamic PGM keeps one file per LSM level).  Every read
or write is charged against a :class:`~repro.storage.profile.DiskProfile`
and recorded in :class:`StorageStats`, broken down by the operation phase
(search / insert / smo / maintenance) so that the paper's Figure 6 insert
breakdown can be measured rather than estimated.

Files can be flagged *memory resident* (Section 6.2 of the paper caches
inner nodes in RAM): accesses to such files are served for free and are
not counted as fetched blocks.

Every block additionally carries an out-of-band checksum envelope
(:mod:`repro.storage.integrity`): charged reads verify the stored
payload against it and raise :class:`ChecksumError` instead of ever
serving rotten or torn bytes, and a :class:`DeviceFaultModel`
(:mod:`repro.storage.faults`) can be attached to inject seeded media
faults.  Memory-resident accesses model trusted RAM and are neither
verified nor faulted.  A stored version proven against an unchanged
envelope entry is not proven again: each file memoizes, per block, the
stored object and the entry it last matched, and a read whose block
still holds both skips the CRC (DESIGN.md Section 22).

The store is sparse (DESIGN.md Section 22): a block is kept as an
immutable ``bytes`` without its all-zero trailing 256-byte sectors, so a
two-key LIPP node in a 4 KiB block holds 512 bytes of memory, not 4096.
Reads hand out the full block image and the checksum envelope covers
it, so nothing above this module can tell — except
:attr:`BlockDevice.stored_bytes`, which reports the footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from .integrity import (ChecksumError, PersistentIOError, TransientIOError,
                        block_crc)
from .profile import DiskProfile, HDD

__all__ = ["BlockDevice", "BlockFile", "StorageStats", "PHASES"]

#: Phases an index can attribute I/O to; ``default`` catches unattributed I/O.
#: ``log`` is the write-ahead-log traffic of :mod:`repro.durability`;
#: ``flush`` is dirty-page write-back traffic (eviction and explicit
#: :meth:`repro.storage.Pager.flush`); ``scrub`` is the checksum-verify
#: walk of :meth:`repro.storage.Pager.scrub` and ``repair`` the
#: block-rebuild writes of :mod:`repro.durability.repair`.
#: ``latch`` is simulated latch-wait time charged by the concurrent
#: serving engine (:mod:`repro.serving`) when sessions conflict on a
#: frame — pure latency, no block transferred, like retry backoff.
PHASES = ("default", "search", "insert", "smo", "maintenance", "scan",
          "bulkload", "log", "flush", "scrub", "repair", "latch")

#: Granularity of the sparse store: a stored block drops its trailing
#: all-zero sectors of this many bytes.
SECTOR = 256


@dataclass
class StorageStats:
    """Cumulative I/O counters for one device.

    ``reads``/``writes`` count *block* accesses that actually hit the
    simulated disk (memory-resident and cache-served accesses excluded).
    ``elapsed_us`` is the simulated wall clock. ``allocated_blocks`` only
    grows, matching the paper's note that on-disk space is not reclaimed
    (Section 6.3), except when a whole file is deleted (PGM LSM merges).

    ``read_positionings``/``write_positionings`` count the accesses that
    paid the profile's *positioning* (random) cost rather than the
    sequential follow-on cost — the quantity the paper's Table 2 cost
    model separates out.  ``coalesced_runs``/``coalesced_blocks`` count
    multi-block contiguous runs served by :meth:`BlockDevice.read_blocks`
    (one positioning charge amortized over the whole run).

    ``checksum_failures`` counts reads that raised ``ChecksumError``
    instead of serving corrupt bytes; ``io_retries`` counts transient
    read errors absorbed by the pager's retry/backoff loop; and
    ``repaired_blocks`` counts blocks rewritten from checkpoint + WAL by
    the repair path.

    ``latch_waits``/``latch_wait_us`` count conflicting frame accesses
    that the concurrent serving engine stalled on another session's
    latch, and the simulated time those stalls charged (under the
    ``"latch"`` phase) — the contention analogue of the positioning
    counters.
    """

    reads: int = 0
    writes: int = 0
    elapsed_us: float = 0.0
    allocated_blocks: int = 0
    freed_blocks: int = 0
    read_positionings: int = 0
    write_positionings: int = 0
    coalesced_runs: int = 0
    coalesced_blocks: int = 0
    checksum_failures: int = 0
    io_retries: int = 0
    repaired_blocks: int = 0
    latch_waits: int = 0
    latch_wait_us: float = 0.0
    reads_by_phase: Dict[str, int] = field(default_factory=dict)
    writes_by_phase: Dict[str, int] = field(default_factory=dict)
    time_by_phase: Dict[str, float] = field(default_factory=dict)

    @property
    def positionings(self) -> int:
        """Total accesses charged the random-positioning cost."""
        return self.read_positionings + self.write_positionings

    def snapshot(self) -> "StorageStats":
        """Return an independent copy, e.g. to diff around an operation."""
        return StorageStats(
            reads=self.reads,
            writes=self.writes,
            elapsed_us=self.elapsed_us,
            allocated_blocks=self.allocated_blocks,
            freed_blocks=self.freed_blocks,
            read_positionings=self.read_positionings,
            write_positionings=self.write_positionings,
            coalesced_runs=self.coalesced_runs,
            coalesced_blocks=self.coalesced_blocks,
            checksum_failures=self.checksum_failures,
            io_retries=self.io_retries,
            repaired_blocks=self.repaired_blocks,
            latch_waits=self.latch_waits,
            latch_wait_us=self.latch_wait_us,
            reads_by_phase=dict(self.reads_by_phase),
            writes_by_phase=dict(self.writes_by_phase),
            time_by_phase=dict(self.time_by_phase),
        )

    def diff(self, earlier: "StorageStats") -> "StorageStats":
        """Counters accumulated since ``earlier`` was snapshotted.

        The phase dicts cover the union of both sides' phases, so a phase
        that first appears *after* the snapshot (or one that only the
        snapshot saw) still shows up in the delta instead of being
        silently dropped.
        """
        phases = (set(self.reads_by_phase) | set(self.writes_by_phase)
                  | set(self.time_by_phase) | set(earlier.reads_by_phase)
                  | set(earlier.writes_by_phase) | set(earlier.time_by_phase))
        return StorageStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            elapsed_us=self.elapsed_us - earlier.elapsed_us,
            allocated_blocks=self.allocated_blocks - earlier.allocated_blocks,
            freed_blocks=self.freed_blocks - earlier.freed_blocks,
            read_positionings=self.read_positionings - earlier.read_positionings,
            write_positionings=self.write_positionings - earlier.write_positionings,
            coalesced_runs=self.coalesced_runs - earlier.coalesced_runs,
            coalesced_blocks=self.coalesced_blocks - earlier.coalesced_blocks,
            checksum_failures=self.checksum_failures - earlier.checksum_failures,
            io_retries=self.io_retries - earlier.io_retries,
            repaired_blocks=self.repaired_blocks - earlier.repaired_blocks,
            latch_waits=self.latch_waits - earlier.latch_waits,
            latch_wait_us=self.latch_wait_us - earlier.latch_wait_us,
            reads_by_phase={
                p: self.reads_by_phase.get(p, 0) - earlier.reads_by_phase.get(p, 0)
                for p in phases
            },
            writes_by_phase={
                p: self.writes_by_phase.get(p, 0) - earlier.writes_by_phase.get(p, 0)
                for p in phases
            },
            time_by_phase={
                p: self.time_by_phase.get(p, 0.0) - earlier.time_by_phase.get(p, 0.0)
                for p in phases
            },
        )


class BlockFile:
    """Handle for one named file on a :class:`BlockDevice`.

    A file is an append-allocated sequence of blocks.  ``allocate``
    always returns a contiguous extent, matching the paper's constraint
    that "the data in one node must be stored in an adjacent space".
    """

    def __init__(self, device: "BlockDevice", name: str) -> None:
        self.device = device
        self.name = name
        #: the stored blocks, as :meth:`BlockDevice._compact` leaves them
        #: (``b""`` for a block never written).  Only this module reads
        #: it; everyone else sees full images through :attr:`blocks`.
        self._stored: List[bytes] = []
        #: the verification memo, aligned with ``_stored``: the stored
        #: object each block was last proven consistent with its envelope
        #: entry (None: not proven) and that entry's value.  A charged
        #: read skips the CRC only while the block still *is* that object
        #: and the entry still equals that value.  Every path that stamps
        #: an entry from a block's bytes records the pair; every other
        #: path that replaces a stored block clears the object.  Only
        #: this module reads either list.
        self._verified: List[Optional[bytes]] = []
        self._verified_crc: List[int] = []
        self._images = _BlockImages(self)
        #: out-of-band checksum envelope, one CRC per block — maintained
        #: by every device write, verified by every charged read.  Bytes
        #: replaced behind the device's back (bit rot, torn writes, tests
        #: assigning to ``blocks``) leave the entry stale, which is
        #: exactly how the corruption is detected.
        self.checksums: List[int] = []
        self.memory_resident = False
        self.live_blocks = 0
        self.reads = 0
        self.writes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockFile({self.name!r}, {len(self._stored)} blocks)"

    @property
    def blocks(self) -> "_BlockImages":
        """The file's blocks as full ``block_size`` images (a live view).

        Assigning to an element, or the whole list (a device-image load),
        stores bytes without charging I/O or touching the envelope.
        """
        return self._images

    @blocks.setter
    def blocks(self, images: Iterable[bytes]) -> None:
        store = self.device._store
        self._stored = [store(image) for image in images]
        self._verified = [None] * len(self._stored)
        self._verified_crc = [0] * len(self._stored)

    @property
    def num_blocks(self) -> int:
        """Total blocks ever allocated in this file (freed ones included)."""
        return len(self._stored)

    def allocate(self, count: int) -> int:
        """Allocate ``count`` contiguous blocks at the end; return the first index."""
        if count <= 0:
            raise ValueError(f"allocation count must be positive, got {count}")
        start = len(self._stored)
        zero_crc = self.device._zero_crc
        # A new block and its envelope entry are stamped together here,
        # so the pair is proven by construction, as a device write's is.
        self._stored.extend([b""] * count)
        self._verified.extend([b""] * count)
        self._verified_crc.extend([zero_crc] * count)
        self.checksums.extend([zero_crc] * count)
        self.live_blocks += count
        self.device.stats.allocated_blocks += count
        return start

    def free(self, start: int, count: int) -> None:
        """Mark an extent invalid.

        The bytes stay allocated on disk — the paper's Section 6.3 notes
        that reclaiming learned-index space requires bookkeeping the
        authors (and we) do not perform — but the live-block counter
        drops so storage reports can show both figures.
        """
        self._check_range(start, count)
        self.live_blocks -= count
        self.device.stats.freed_blocks += count

    def recompute_checksums(self) -> None:
        """Rebuild the envelope from the stored bytes (device-image load);
        each block is proven against the entry just computed from it."""
        self.checksums = [block_crc(image) for image in self._images]
        self._verified = list(self._stored)
        self._verified_crc = list(self.checksums)

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > len(self._stored):
            raise IndexError(
                f"block range [{start}, {start + count}) out of bounds for "
                f"file {self.name!r} with {len(self._stored)} blocks"
            )


class _BlockImages:
    """``BlockFile.blocks``: the stored blocks, seen as full images.

    Indexing and iteration pad each stored block back to ``block_size``
    bytes; assigning a full image stores it compacted and forgets the
    block's verification; ``len`` and ``del`` (e.g. of a slice) act on
    the stored list and its memo.  The stored bytes
    are immutable, so there is no way to write into a block in place:
    corrupting one means copying its image, editing the copy and
    assigning it back.
    """

    __slots__ = ("_file",)

    def __init__(self, file: BlockFile) -> None:
        self._file = file

    def __len__(self) -> int:
        return len(self._file._stored)

    def __getitem__(self, index):
        image = self._file.device._image
        if isinstance(index, slice):
            return [image(stored) for stored in self._file._stored[index]]
        return image(self._file._stored[index])

    def __setitem__(self, index: int, data) -> None:
        file = self._file
        file._stored[index] = file.device._store(data)
        file._verified[index] = None

    def __delitem__(self, index) -> None:
        file = self._file
        del file._stored[index]
        del file._verified[index]
        del file._verified_crc[index]

    def __iter__(self) -> Iterator[bytes]:
        image = self._file.device._image
        return (image(stored) for stored in self._file._stored)


class BlockDevice:
    """An in-memory simulated disk with per-access latency accounting.

    Args:
        block_size: bytes per block (the paper defaults to 4 KiB and
            sweeps 4/8/16 KiB in Section 6.4).
        profile: latency model; defaults to the HDD profile.
        checksums: verify the per-block checksum envelope on every
            charged read (the default) — by recomputing the CRC, or by
            the memo when the block still holds the version already
            proven against the same entry.  The envelope itself is always
            *maintained* by writes, so flipping verification on or off
            never changes block contents or access counts — only whether
            corruption surfaces as ``ChecksumError`` or as silent bytes.
    """

    def __init__(self, block_size: int = 4096, profile: DiskProfile = HDD,
                 checksums: bool = True) -> None:
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.block_size = block_size
        self.profile = profile
        self.checksums = checksums
        # The profile and block size are fixed for the device's lifetime,
        # so the four per-access cost figures are constants — computed
        # once here instead of once per charged block.
        self._read_cost_seq = profile.read_cost_us(block_size, True)
        self._read_cost_rand = profile.read_cost_us(block_size, False)
        self._write_cost_seq = profile.write_cost_us(block_size, True)
        self._write_cost_rand = profile.write_cost_us(block_size, False)
        self.stats = StorageStats()
        self.files: Dict[str, BlockFile] = {}
        self._phase = "default"
        # Last-touched (file name, block no), kept as two scalars so the
        # per-read sequentiality test allocates no tuples.
        self._last_file: Optional[str] = None
        self._last_block = -1
        self._zero_crc = block_crc(bytes(block_size))
        # Sparse store: the lengths a stored block may have (every whole
        # sector, then the full block) and the zero tail each one drops.
        self._cuts = list(range(0, block_size, SECTOR)) + [block_size]
        self._zero_tails = [bytes(block_size - cut) for cut in self._cuts]
        #: optional per-access hook ``(kind, file_name, block_no, phase,
        #: cost_us)`` with kind "r"/"w", fired for every *charged* access
        #: (memory-resident files excluded) — set by
        #: :meth:`repro.obs.Tracer.bind`.  None keeps the hot path free.
        self.on_access = None
        #: optional hook ``(file_name, run_length)`` fired once per
        #: multi-block contiguous run completed by :meth:`read_blocks`.
        self.on_run = None
        #: optional :class:`repro.storage.faults.DeviceFaultModel`
        #: injecting seeded media faults into charged accesses.
        self.fault_model = None
        #: optional hook ``(kind, file_name, block_no)`` with kind
        #: "checksum" / "transient" / "persistent", fired when a charged
        #: read surfaces a fault — set by :meth:`repro.obs.Tracer.bind`.
        self.on_fault = None

    # -- file management ---------------------------------------------------

    def create_file(self, name: str) -> BlockFile:
        """Create and return a new empty file; names must be unique."""
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        handle = BlockFile(self, name)
        self.files[name] = handle
        return handle

    def get_file(self, name: str) -> BlockFile:
        return self.files[name]

    def get_or_create_file(self, name: str) -> BlockFile:
        """Return an existing file or create it — the attach path used
        when an index object is reconstructed over a loaded device image."""
        if name in self.files:
            return self.files[name]
        return self.create_file(name)

    def delete_file(self, name: str) -> None:
        """Delete a file outright, reclaiming its space.

        The paper allows this only for whole files — dynamic PGM deletes a
        merged level's file from disk (Section 6.3).
        """
        handle = self.files.pop(name)
        self.stats.freed_blocks += handle.live_blocks
        handle._stored = []
        handle._verified = []
        handle._verified_crc = []
        handle.checksums = []
        handle.live_blocks = 0

    # -- the sparse store ----------------------------------------------------

    def _compact(self, data) -> bytes:
        """One full block as the store keeps it: immutable, without its
        all-zero trailing sectors.

        The zero tails are nested — a block ending in k zero sectors ends
        in every shorter run of them — so bisecting over the cut points
        finds the shortest prefix in about log2(sectors + 1) ``endswith``
        calls, each one C comparison; ``rstrip(b"\\0")`` walks the zero
        run instead and costs about nine times as much on a sparse 4 KiB
        block (DESIGN.md Section 22).
        A block that already is an exact ``bytes`` and ends in a non-zero
        byte is stored as it is, without a copy.
        """
        if type(data) is not bytes:
            data = bytes(data)
        if data[-1]:
            return data
        cuts, tails = self._cuts, self._zero_tails
        lo, hi = 0, len(cuts) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if data.endswith(tails[mid]):
                hi = mid
            else:
                lo = mid + 1
        return data[:cuts[lo]]

    def _store(self, data) -> bytes:
        """:meth:`_compact` for bytes arriving outside the write path."""
        if len(data) != self.block_size:
            raise ValueError(
                f"block image of {len(data)} bytes does not match block "
                f"size {self.block_size}")
        return self._compact(data)

    def _image(self, stored: bytes) -> bytes:
        """A stored block padded back to its full ``block_size`` image."""
        if len(stored) == self.block_size:
            return stored
        return stored.ljust(self.block_size, b"\0")

    # -- phase attribution ---------------------------------------------------

    @property
    def elapsed_us(self) -> float:
        """The simulated clock: ``stats.elapsed_us`` (a tier's fan-out
        device answers the same question without building its stats)."""
        return self.stats.elapsed_us

    @property
    def phase(self) -> str:
        return self._phase

    def set_phase(self, phase: str) -> str:
        """Set the I/O attribution phase; returns the previous phase."""
        previous = self._phase
        self._phase = phase
        return previous

    # -- block I/O ---------------------------------------------------------

    def charge_latency(self, cost_us: float) -> None:
        """Charge simulated time that is not a block access (retry backoff)."""
        self.stats.elapsed_us += cost_us
        phase = self._phase
        self.stats.time_by_phase[phase] = self.stats.time_by_phase.get(phase, 0.0) + cost_us

    def charge_latch_wait(self, cost_us: float) -> None:
        """Charge one simulated latch stall (serving-engine contention).

        The wait is pure latency under the ``"latch"`` phase — no block
        moves — exactly like retry backoff, and it counts into the
        ``latch_waits``/``latch_wait_us`` stats the way a random access
        counts into the positioning counters.
        """
        self.stats.latch_waits += 1
        self.stats.latch_wait_us += cost_us
        previous = self._phase
        self._phase = "latch"
        try:
            self.charge_latency(cost_us)
        finally:
            self._phase = previous

    def _maybe_fault_read(self, file: BlockFile, block_no: int) -> None:
        """Give the fault model its shot at a charged read (cost already paid)."""
        if self.fault_model is None:
            return
        try:
            self.fault_model.on_read(file, block_no)
        except TransientIOError:
            if self.on_fault is not None:
                self.on_fault("transient", file.name, block_no)
            raise
        except PersistentIOError:
            if self.on_fault is not None:
                self.on_fault("persistent", file.name, block_no)
            raise

    def _verify(self, file: BlockFile, block_no: int) -> bytes:
        """A charged read's memo miss: recompute the block's CRC and return
        its full image, refusing to serve corrupt data; a match is
        memoized so the next read of this version skips the CRC."""
        stored = file._stored[block_no]
        crc = file.checksums[block_no]
        data = self._image(stored)
        if block_crc(data) != crc:
            self.stats.checksum_failures += 1
            if self.on_fault is not None:
                self.on_fault("checksum", file.name, block_no)
            raise ChecksumError(file.name, block_no,
                                "stored payload does not match envelope")
        file._verified[block_no] = stored
        file._verified_crc[block_no] = crc
        return data

    def _put(self, file: BlockFile, block_no: int, data) -> None:
        """Store one full block written through the device and stamp its
        envelope entry.  Both come from ``data``, so the pair is proven
        by construction and recorded in the memo."""
        stored = file._stored[block_no] = self._compact(data)
        crc = file.checksums[block_no] = block_crc(data)
        file._verified[block_no] = stored
        file._verified_crc[block_no] = crc

    def read_block(self, file: BlockFile, block_no: int) -> bytes:
        """Read one block, charging latency unless the file is memory resident."""
        if not 0 <= block_no < len(file._stored):
            file._check_range(block_no, 1)
        if file.memory_resident:
            return self._image(file._stored[block_no])
        stats = self.stats
        if self._last_file == file.name and self._last_block == block_no - 1:
            cost = self._read_cost_seq
        else:
            cost = self._read_cost_rand
            stats.read_positionings += 1
        stats.reads += 1
        file.reads += 1
        stats.elapsed_us += cost
        phase = self._phase
        stats.reads_by_phase[phase] = stats.reads_by_phase.get(phase, 0) + 1
        stats.time_by_phase[phase] = stats.time_by_phase.get(phase, 0.0) + cost
        self._last_file = file.name
        self._last_block = block_no
        if self.on_access is not None:
            self.on_access("r", file.name, block_no, phase, cost)
        if self.fault_model is not None:
            self._maybe_fault_read(file, block_no)
        data = file._stored[block_no]
        if self.checksums and (file._verified[block_no] is not data
                               or file._verified_crc[block_no] != file.checksums[block_no]):
            return self._verify(file, block_no)
        if len(data) != self.block_size:
            data = data.ljust(self.block_size, b"\0")
        return data

    def read_blocks(self, file: BlockFile, block_nos: List[int]) -> List[bytes]:
        """Read several blocks, coalescing contiguous runs (paper Table 2).

        ``block_nos`` must be sorted ascending with no duplicates — the
        pager's :meth:`~repro.storage.pager.Pager.read_span` guarantees
        this.  Each maximal contiguous run is charged one positioning
        cost for its first block (unless the head of the run extends the
        device's last access, in which case even that block rides the
        sequential rate) plus the sequential/transfer cost for every
        block after it, exactly mirroring the paper's sequential-read
        analysis.  Returns the block payloads in input order.
        """
        if not block_nos:
            return []
        previous = None
        bound = len(file._stored)
        for block_no in block_nos:
            if not 0 <= block_no < bound:
                file._check_range(block_no, 1)
            if previous is not None and block_no <= previous:
                raise ValueError(
                    f"read_blocks requires sorted unique block numbers, got "
                    f"{block_no} after {previous}"
                )
            previous = block_no
        out: List[bytes] = []
        if file.memory_resident:
            for block_no in block_nos:
                out.append(self._image(file._stored[block_no]))
            return out
        phase = self._phase
        run_length = 0
        stats = self.stats
        name = file.name
        stored = file._stored
        verified = file._verified
        verified_crc = file._verified_crc
        bs = self.block_size
        checksums = file.checksums if self.checksums else None
        fault_model = self.fault_model
        on_access = self.on_access
        read_phase = stats.reads_by_phase.get(phase, 0)
        time_phase = stats.time_by_phase.get(phase, 0.0)
        for block_no in block_nos:
            if self._last_file == name and self._last_block == block_no - 1:
                run_length += 1
                cost = self._read_cost_seq
            else:
                if run_length >= 2 and self.on_run is not None:
                    self.on_run(name, run_length)
                run_length = 1
                cost = self._read_cost_rand
                stats.read_positionings += 1
            stats.reads += 1
            file.reads += 1
            stats.elapsed_us += cost
            read_phase += 1
            time_phase += cost
            self._last_file = name
            self._last_block = block_no
            if on_access is not None:
                on_access("r", name, block_no, phase, cost)
            if run_length == 2:
                # A run became multi-block: count it once, plus its head.
                stats.coalesced_runs += 1
                stats.coalesced_blocks += 1
            if run_length >= 2:
                stats.coalesced_blocks += 1
            if fault_model is not None:
                # Flush deferred phase attribution first: an injected
                # fault propagates out of the loop, and the blocks read
                # so far were already charged.
                stats.reads_by_phase[phase] = read_phase
                stats.time_by_phase[phase] = time_phase
                self._maybe_fault_read(file, block_no)
            data = stored[block_no]
            if checksums is not None and (verified[block_no] is not data
                                          or verified_crc[block_no] != checksums[block_no]):
                # Settle the deferred phase counters first: a failed
                # check raises out of the loop.
                stats.reads_by_phase[phase] = read_phase
                stats.time_by_phase[phase] = time_phase
                data = self._verify(file, block_no)
            elif len(data) != bs:
                data = data.ljust(bs, b"\0")
            out.append(data)
        stats.reads_by_phase[phase] = read_phase
        stats.time_by_phase[phase] = time_phase
        if run_length >= 2 and self.on_run is not None:
            self.on_run(name, run_length)
        return out

    def write_block(self, file: BlockFile, block_no: int, data: bytes) -> None:
        """Write one full block, charging latency unless memory resident."""
        file._check_range(block_no, 1)
        if len(data) != self.block_size:
            raise ValueError(
                f"write of {len(data)} bytes does not match block size {self.block_size}"
            )
        if not file.memory_resident:
            if self._last_file == file.name and self._last_block == block_no - 1:
                cost = self._write_cost_seq
            else:
                cost = self._write_cost_rand
                self.stats.write_positionings += 1
            self.stats.writes += 1
            file.writes += 1
            self.stats.elapsed_us += cost
            phase = self._phase
            self.stats.writes_by_phase[phase] = self.stats.writes_by_phase.get(phase, 0) + 1
            self.stats.time_by_phase[phase] = self.stats.time_by_phase.get(phase, 0.0) + cost
            self._last_file = file.name
            self._last_block = block_no
            if self.on_access is not None:
                self.on_access("w", file.name, block_no, phase, cost)
        self._put(file, block_no, data)
        if self.fault_model is not None:
            self.fault_model.on_write(file.name, block_no)

    def write_blocks(self, file: BlockFile, writes: List[tuple]) -> None:
        """Write several blocks, coalescing contiguous runs — the write-side
        twin of :meth:`read_blocks` (paper Table 2's t_s/t_t split applied
        to writes).

        ``writes`` is a list of ``(block_no, data)`` pairs sorted ascending
        by block number with no duplicates; every payload must be a full
        block.  Each maximal contiguous run is charged one positioning cost
        for its head (unless the head extends the device's last access, in
        which case even that block rides the sequential rate) plus the
        sequential/transfer cost for every block after it, extending
        ``write_positionings``/``coalesced_runs``/``coalesced_blocks`` and
        the ``on_run`` hook symmetrically with the read path.
        """
        if not writes:
            return
        previous = None
        for block_no, data in writes:
            file._check_range(block_no, 1)
            if len(data) != self.block_size:
                raise ValueError(
                    f"write of {len(data)} bytes does not match block size "
                    f"{self.block_size}")
            if previous is not None and block_no <= previous:
                raise ValueError(
                    f"write_blocks requires sorted unique block numbers, got "
                    f"{block_no} after {previous}")
            previous = block_no
        if file.memory_resident:
            for block_no, data in writes:
                self._put(file, block_no, data)
            return
        torn_at = None
        if self.fault_model is not None:
            torn_at = self.fault_model.torn_index(file, writes)
        phase = self._phase
        run_length = 0
        for index, (block_no, data) in enumerate(writes):
            sequential = (self._last_file == file.name
                          and self._last_block == block_no - 1)
            if sequential:
                run_length += 1
                cost = self._write_cost_seq
            else:
                if run_length >= 2 and self.on_run is not None:
                    self.on_run(file.name, run_length)
                run_length = 1
                cost = self._write_cost_rand
                self.stats.write_positionings += 1
            self.stats.writes += 1
            file.writes += 1
            self.stats.elapsed_us += cost
            self.stats.writes_by_phase[phase] = self.stats.writes_by_phase.get(phase, 0) + 1
            self.stats.time_by_phase[phase] = self.stats.time_by_phase.get(phase, 0.0) + cost
            self._last_file = file.name
            self._last_block = block_no
            if self.on_access is not None:
                self.on_access("w", file.name, block_no, phase, cost)
            if run_length == 2:
                # A run became multi-block: count it once, plus its head.
                self.stats.coalesced_runs += 1
                self.stats.coalesced_blocks += 1
            if run_length >= 2:
                self.stats.coalesced_blocks += 1
            if index == torn_at:
                # Torn write: the drive acked from volatile cache but the
                # final block only made it halfway to the medium.  The
                # envelope entry keeps the *old* payload's CRC, so the
                # next read of this block raises ChecksumError — the
                # fault is silent until then.
                half = self.block_size // 2
                old = self._image(file._stored[block_no])
                file._stored[block_no] = self._compact(
                    bytes(data[:half]) + old[half:])
                file._verified[block_no] = None
            else:
                self._put(file, block_no, data)
                if self.fault_model is not None:
                    self.fault_model.on_write(file.name, block_no)
        if run_length >= 2 and self.on_run is not None:
            self.on_run(file.name, run_length)

    # -- reporting -----------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Total bytes ever allocated across live files (freed extents included)."""
        return sum(f.num_blocks for f in self.files.values()) * self.block_size

    @property
    def live_bytes(self) -> int:
        """Bytes in extents that have not been freed."""
        return sum(f.live_blocks for f in self.files.values()) * self.block_size

    @property
    def stored_bytes(self) -> int:
        """Bytes the sparse store holds: each block up to its last sector
        with a non-zero byte.  The simulator's own footprint, not a
        reproduced quantity — :attr:`allocated_bytes` is the paper's
        index-size measure."""
        return sum(len(stored) for f in self.files.values()
                   for stored in f._stored)


class _PhaseScope:
    """``with pager.phase(name)``: sets the device's attribution phase on
    entry and restores the previous one on exit.  A plain object rather
    than a generator context manager, and one that reads and writes the
    phase field itself rather than through :meth:`BlockDevice.set_phase`:
    every verb enters one or two scopes, so each call a scope makes is
    paid once or twice per verb (DESIGN.md Section 24)."""

    __slots__ = ("_device", "_name", "_previous")

    def __init__(self, device: BlockDevice, name: str) -> None:
        self._device = device
        self._name = name

    def __enter__(self) -> None:
        device = self._device
        self._previous = device._phase
        device._phase = self._name

    def __exit__(self, *exc) -> None:
        self._device._phase = self._previous
