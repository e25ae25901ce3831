"""Crash-fault injection.

A "crash" in the simulator is the moment the process state diverges from
the durable state: everything in memory — the group-commit buffer, the
index's meta block, any half-finished SMO — is gone, and the device may
additionally hold one *torn* block from the flush that was in flight.
:class:`FaultInjector` decides *when* that moment happens (at a fixed
operation index) and applies its storage effects to the write-ahead
log; :mod:`repro.durability.recovery` then rebuilds the
index from a checkpoint plus the log's surviving prefix, never trusting
the crashed device's index files (which a mid-SMO crash leaves in an
arbitrary state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .wal import WriteAheadLog

__all__ = ["CrashError", "CrashReport", "FaultInjector"]


class CrashError(RuntimeError):
    """Raised by the injector at the crash point; carries the op index."""

    def __init__(self, op_index: int) -> None:
        super().__init__(f"simulated crash before operation {op_index}")
        self.op_index = op_index


@dataclass(frozen=True)
class CrashReport:
    """What the crash destroyed."""

    op_index: int
    dropped_records: int        # group-commit buffer records lost with RAM
    torn_block: bool            # last log block left half-written
    dropped_dirty_pages: int = 0  # write-back pages lost before any flush


class FaultInjector:
    """Kills a run at a chosen operation.

    Args:
        crash_at_op: crash immediately before this 0-based operation
            index (None = no crash point: only :meth:`crash` applies
            one).
        torn_tail: when True, the crash also tears the last flushed log
            block — the flush in flight at power loss — so recovery must
            cut the log at the CRC mismatch.

    Media faults (bit rot, torn data writes, read errors) are a
    :class:`~repro.storage.faults.DeviceFaultModel` set on the device
    itself: crashes destroy volatile state, device faults damage the
    medium.
    """

    def __init__(self, crash_at_op: Optional[int] = None,
                 torn_tail: bool = False) -> None:
        self.crash_at_op = crash_at_op
        self.torn_tail = torn_tail
        self.fired = False

    def maybe_crash(self, op_index: int) -> None:
        """Raise :class:`CrashError` if this operation is the crash point."""
        if self.fired:
            return
        if self.crash_at_op is not None and op_index >= self.crash_at_op:
            self.fired = True
            raise CrashError(op_index)

    def crash(self, wal: Optional[WriteAheadLog], op_index: int = 0,
              pager=None) -> CrashReport:
        """Apply the crash's storage effects: drop the unflushed group-commit
        buffer, drop any write-back dirty pages still in RAM, and
        (optionally) tear the tail log block."""
        self.fired = True
        dropped = wal.drop_unflushed() if wal is not None else 0
        dropped_pages = pager.drop_dirty() if pager is not None else 0
        torn = bool(self.torn_tail and wal is not None and wal.tear_tail_block())
        return CrashReport(op_index=op_index, dropped_records=dropped,
                           torn_block=torn, dropped_dirty_pages=dropped_pages)
