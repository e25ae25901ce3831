"""Checkpointing and WAL-replay recovery.

Recovery follows the classic redo-from-checkpoint protocol:

1. a :class:`Checkpoint` captures the whole device image plus the
   index's meta block (via :func:`repro.core.save_index`) together with
   the log sequence number it covers;
2. after a crash, :func:`recover` reopens the checkpoint image on a
   fresh device, scans the crashed device's WAL for its longest valid
   prefix (CRC-checked, so torn blocks cut the log), and redoes every
   record past the checkpoint LSN through the index's normal
   insert/update/delete path.

The crashed device's *index* files are never read: a crash mid-SMO
leaves them in an arbitrary state, and the checkpoint + logical redo is
the only state recovery trusts.  Both the WAL scan (on the crashed
device) and the replay (on the recovered device) are charged simulated
I/O, so recovery time is a measured metric, not an estimate.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

from ..core.interface import DiskIndex
from ..core.persistence import load_index, save_index
from ..storage import DiskProfile
from .wal import WriteAheadLog

__all__ = ["Checkpoint", "RecoveryResult", "take_checkpoint", "recover"]


@dataclass(frozen=True)
class Checkpoint:
    """A device+meta image and the highest seqno whose effect it contains."""

    image: bytes
    lsn: int

    @property
    def size_bytes(self) -> int:
        return len(self.image)


@dataclass
class RecoveryResult:
    """Outcome of one recovery: the rebuilt index and what replay cost."""

    index: DiskIndex
    last_seqno: int        # highest record redone (== durable prefix end)
    records_scanned: int
    records_applied: int
    wal_scan_us: float     # simulated time reading the log
    replay_us: float       # simulated time redoing operations

    @property
    def recovery_us(self) -> float:
        return self.wal_scan_us + self.replay_us


def take_checkpoint(index: DiskIndex, wal: Optional[WriteAheadLog] = None) -> Checkpoint:
    """Snapshot the index (device image + meta block) as a checkpoint.

    The WAL is flushed first so the checkpoint LSN is a durable point;
    records at or below the LSN are skipped during replay.  Under a
    write-back pager the dirty pages are then flushed too (a checkpoint
    is one of the three flush points), so the imaged device holds every
    buffered write — log strictly before data.
    """
    if wal is None:
        wal = index.wal
    if wal is not None:
        wal.flush()
    index.pager.flush()
    buffer = io.BytesIO()
    save_index(index, buffer)
    return Checkpoint(image=buffer.getvalue(),
                      lsn=wal.durable_seqno if wal is not None else 0)


def recover(checkpoint: Checkpoint, wal: WriteAheadLog,
            profile: Optional[DiskProfile] = None,
            pager_kwargs: Optional[dict] = None) -> RecoveryResult:
    """Rebuild a post-crash index: checkpoint image + WAL redo.

    Args:
        checkpoint: taken before the crash with :func:`take_checkpoint`.
        wal: the crashed run's log (its device holds the durable blocks).
        profile: optionally recover onto a different latency model.
        pager_kwargs: storage configuration (buffer pool, write-back,
            flush watermark) for the rebuilt index's pager, so recovery
            hands back an index with the same caching behavior it
            crashed with rather than bare pass-through defaults.
    """
    # 1. Scan the surviving log prefix off the crashed device.
    scan_start = wal.pager.stats.elapsed_us
    records = list(wal.durable_records())
    wal_scan_us = wal.pager.stats.elapsed_us - scan_start

    # 2. Reopen the checkpoint image on a fresh device.
    index = load_index(io.BytesIO(checkpoint.image), profile=profile,
                       pager_kwargs=pager_kwargs)
    device = index.pager.device
    # The image carries the log as it stood at checkpoint time; that copy
    # is stale (replay works off the crashed device) so reclaim it.
    if wal.file.name in device.files:
        index.pager.invalidate_file(wal.file.name)
        device.delete_file(wal.file.name)

    # 3. Redo everything past the checkpoint LSN, in sequence order.
    replay_start = device.stats.elapsed_us
    last_seqno = checkpoint.lsn
    applied = 0
    for record in records:
        if record.seqno <= checkpoint.lsn:
            continue
        if record.op == "insert":
            index.insert(record.key, record.payload)
        elif record.op == "update":
            index.update(record.key, record.payload)
        else:
            index.delete(record.key)
        last_seqno = record.seqno
        applied += 1
    replay_us = device.stats.elapsed_us - replay_start

    return RecoveryResult(index=index, last_seqno=last_seqno,
                          records_scanned=len(records), records_applied=applied,
                          wal_scan_us=wal_scan_us, replay_us=replay_us)
