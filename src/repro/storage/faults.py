"""Seeded, deterministic device-level fault injection.

A :class:`DeviceFaultModel` attached to a ``BlockDevice`` perturbs
*charged* accesses (memory-resident files model trusted RAM and are
never faulted):

- **bit rot** — with ``bit_rot_rate`` per read, one random bit of the
  *stored* payload flips before the read is served.  The damage is on
  the medium, so the block's envelope checksum no longer matches and the
  device raises ``ChecksumError`` instead of serving the bytes.
- **torn multi-block writes** — with ``torn_write_rate`` per multi-block
  ``write_blocks`` call, the write's prefix persists but its final block
  is caught mid-transfer: the block ends half-new/half-old with a stale
  checksum entry.  The tear is *silent* at write time (the drive acked
  from volatile cache); it is detected on the next read of that block.
- **transient read errors** — with ``transient_error_rate`` per read
  attempt, the access fails (``TransientIOError``) but the medium is
  intact; every retry redraws, so bounded retries almost surely succeed.
- **persistent read errors** — with ``persistent_error_rate`` per read,
  the block joins ``bad_blocks`` and every subsequent read raises
  ``PersistentIOError`` until a write remaps it (real drives reallocate
  grown defects on write).
- **stalls** — with ``stall_rate`` per read, the request hangs for
  ``stall_us`` of simulated time before timing out
  (:class:`MemberStallError`, a ``TransientIOError`` carrying the hang).
  The pager's retry loop charges the hang as latency, so a stalling
  member is *slow*, not just flaky: once the retries run out, the
  sharded tier strikes the member and re-issues the read on a peer.
- **whole-member crashes** — ``crash_after=N`` kills the device after
  its Nth faultable read: every later read raises
  :class:`MemberCrashError` (a ``PersistentIOError``), modeling a
  controller/enclosure failure rather than a single grown defect.

All draws come from one seeded ``random.Random``: identical seeds and
access sequences produce identical fault schedules, which the property
tests rely on.  :meth:`DeviceFaultModel.fork` derives per-member child
models — same rates, independent streams — from one parent seed, so a
replica group shares a single chaos seed yet each member fails on its
own schedule.  The WAL is never faulted: its loss is one the repair
protocol cannot undo — a single-copy log is the recovery *source*, not a
repair target; production systems mirror it.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from .integrity import PersistentIOError, TransientIOError

__all__ = ["DeviceFaultModel", "MemberCrashError", "MemberStallError"]

_MASK64 = (1 << 64) - 1

#: The one file no fault touches: the write-ahead log
#: (``repro.durability.wal.WAL_FILE``; storage sits below durability,
#: so the name is repeated here).
_WAL_FILE = "wal"


def _fork_seed(seed: int, member_id: int) -> int:
    """SplitMix64-style mix of (seed, member_id) into a child seed.

    An integer formula rather than a tuple seed: Python 3.11 removed
    ``random.Random`` support for non-scalar seeds.
    """
    x = (seed * 0x9E3779B97F4A7C15 + member_id + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class MemberCrashError(PersistentIOError):
    """The whole device is gone (controller death), not one bad block."""


class MemberStallError(TransientIOError):
    """A read request hung for ``stall_us`` before timing out."""

    def __init__(self, file_name: str, block_no: int, stall_us: float):
        super().__init__(file_name, block_no,
                         f"request stalled {stall_us:.0f}us before timeout")
        self.stall_us = stall_us


class DeviceFaultModel:
    """Seeded fault schedule for a simulated block device."""

    def __init__(self, seed: int = 0, bit_rot_rate: float = 0.0,
                 torn_write_rate: float = 0.0,
                 transient_error_rate: float = 0.0,
                 persistent_error_rate: float = 0.0,
                 stall_rate: float = 0.0, stall_us: float = 0.0,
                 crash_after: Optional[int] = None):
        for name, rate in (("bit_rot_rate", bit_rot_rate),
                           ("torn_write_rate", torn_write_rate),
                           ("transient_error_rate", transient_error_rate),
                           ("persistent_error_rate", persistent_error_rate),
                           ("stall_rate", stall_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if stall_rate and stall_us <= 0.0:
            raise ValueError("stall_rate needs a positive stall_us")
        if crash_after is not None and crash_after < 0:
            raise ValueError(f"crash_after must be >= 0, got {crash_after}")
        self.seed = seed
        self.rng = random.Random(seed)
        self.bit_rot_rate = bit_rot_rate
        self.torn_write_rate = torn_write_rate
        self.transient_error_rate = transient_error_rate
        self.persistent_error_rate = persistent_error_rate
        self.stall_rate = stall_rate
        self.stall_us = stall_us
        self.crash_after = crash_after
        #: blocks currently unreadable, as (file_name, block_no)
        self.bad_blocks: Set[Tuple[str, int]] = set()
        self.injected_bit_rots = 0
        self.injected_torn_writes = 0
        self.injected_transient_errors = 0
        self.injected_persistent_errors = 0
        self.injected_stalls = 0
        self.reads_observed = 0
        self.crashed = False
        #: torn blocks, recorded for test introspection (the device
        #: reports nothing at write time — the fault is silent)
        self.torn_blocks: List[Tuple[str, int]] = []

    def fork(self, member_id: int, **overrides) -> "DeviceFaultModel":
        """A deterministic per-member child: same rates, independent stream.

        ``member_id`` distinguishes siblings; the child's seed mixes it
        with the parent seed, so one chaos seed yields one independent
        fault schedule per :class:`~repro.sharding.shard.ShardMember`.
        Keyword overrides replace any constructor parameter (e.g. give
        one member ``crash_after`` while its siblings stay clean).
        """
        params = dict(seed=_fork_seed(self.seed, member_id),
                      bit_rot_rate=self.bit_rot_rate,
                      torn_write_rate=self.torn_write_rate,
                      transient_error_rate=self.transient_error_rate,
                      persistent_error_rate=self.persistent_error_rate,
                      stall_rate=self.stall_rate, stall_us=self.stall_us,
                      crash_after=self.crash_after)
        params.update(overrides)
        return type(self)(**params)

    def clear_crash(self) -> None:
        """Repair the whole-member fault (operator swapped the enclosure)."""
        self.crash_after = None
        self.crashed = False

    def applies_to(self, file_name: str) -> bool:
        return file_name != _WAL_FILE

    def on_read(self, file, block_no: int) -> None:
        """Called by the device after charging a read of ``block_no``.

        May rot the stored payload (replacing the block's bytes behind
        the device's back, envelope untouched), or raise a transient or
        persistent I/O error.  Checksum verification runs *after* this
        hook, so rot injected here is caught on this very read.
        """
        if not self.applies_to(file.name):
            return
        self.reads_observed += 1
        if self.crashed or (self.crash_after is not None
                            and self.reads_observed > self.crash_after):
            self.crashed = True
            raise MemberCrashError(file.name, block_no, "member crashed")
        key = (file.name, block_no)
        if key in self.bad_blocks:
            raise PersistentIOError(file.name, block_no, "known bad block")
        if self.persistent_error_rate and self.rng.random() < self.persistent_error_rate:
            self.bad_blocks.add(key)
            self.injected_persistent_errors += 1
            raise PersistentIOError(file.name, block_no, "grown defect")
        if self.transient_error_rate and self.rng.random() < self.transient_error_rate:
            self.injected_transient_errors += 1
            raise TransientIOError(file.name, block_no, "transient read failure")
        if self.stall_rate and self.rng.random() < self.stall_rate:
            self.injected_stalls += 1
            raise MemberStallError(file.name, block_no, self.stall_us)
        if self.bit_rot_rate and self.rng.random() < self.bit_rot_rate:
            image = bytearray(file.blocks[block_no])
            bit = self.rng.randrange(len(image) * 8)
            image[bit // 8] ^= 1 << (bit % 8)
            file.blocks[block_no] = image
            self.injected_bit_rots += 1

    def torn_index(self, file, pairs: Sequence[Tuple[int, bytes]]) -> Optional[int]:
        """Whether this multi-block write tears, and at which pair index.

        Returns the index of the torn pair (always the last: the prefix
        was already on the medium when power was cut mid-transfer) or
        None for a clean write.
        """
        if len(pairs) < 2 or not self.applies_to(file.name):
            return None
        if self.torn_write_rate and self.rng.random() < self.torn_write_rate:
            self.injected_torn_writes += 1
            torn = len(pairs) - 1
            self.torn_blocks.append((file.name, pairs[torn][0]))
            return torn
        return None

    def on_write(self, file_name: str, block_no: int) -> None:
        """A completed write remaps the block: clear any grown defect."""
        self.bad_blocks.discard((file_name, block_no))
