"""Block-structured write-ahead log.

The WAL is an ordinary file on the simulated :class:`~repro.storage.BlockDevice`,
so every log flush is charged real simulated I/O and shows up in
:class:`~repro.storage.StorageStats` under the ``"log"`` phase.  Records
are *logical*: ``(op, seqno, key, payload)`` for insert/update/delete —
the paper's indexes rewrite whole blocks during SMOs, so physical
(page-delta) logging would be as large as the data itself, while logical
records are 25 bytes regardless of what the operation restructures.

Layout: each flush packs the buffered records into freshly allocated
blocks.  A block is ``crc32 | record count | records... | zero padding``;
the CRC covers the record area so recovery can detect a *torn* block (a
crash in the middle of the device's final flush) and cut the log there.
Flushes never reopen a previously written block — exactly the economics
of group commit: a batch of one record still costs a full block write,
so larger batches amortize the per-flush block cost.

Group commit: ``append`` buffers records in memory and flushes every
``group_commit`` records (or on an explicit :meth:`flush`).  Records
still in the buffer at a crash are *lost* — they were never
acknowledged — which is what :class:`repro.durability.FaultInjector`
simulates by dropping the buffer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List

from ..storage.integrity import StorageFault
from ..storage.pager import Pager

__all__ = ["LogRecord", "WriteAheadLog", "WAL_FILE"]

#: Default name of the log file on the device.
WAL_FILE = "wal"

_OP_CODES = {"insert": 0, "update": 1, "delete": 2}
_OP_NAMES = {code: op for op, code in _OP_CODES.items()}

_RECORD = struct.Struct("<BQQQ")      # op code, seqno, key, payload
_BLOCK_HEADER = struct.Struct("<IH")  # crc32 of record area, record count


@dataclass(frozen=True)
class LogRecord:
    """One logical operation: what to replay, not which bytes changed."""

    op: str
    seqno: int
    key: int
    payload: int

    @classmethod
    def unpack(cls, raw: bytes) -> "LogRecord":
        code, seqno, key, payload = _RECORD.unpack(raw)
        return cls(op=_OP_NAMES[code], seqno=seqno, key=key, payload=payload)


class WriteAheadLog:
    """Group-committed logical log written through a :class:`Pager`.

    Args:
        pager: access path to the device the log lives on (normally the
            same device as the index, as in a single-disk DBMS).
        group_commit: records buffered per flush.  1 = flush every
            operation (classic force-at-commit); larger values batch.
        file_name: device file holding the log blocks.
    """

    def __init__(self, pager: Pager, group_commit: int = 1,
                 file_name: str = WAL_FILE) -> None:
        if group_commit < 1:
            raise ValueError(f"group_commit must be >= 1, got {group_commit}")
        self.pager = pager
        self.group_commit = group_commit
        self.file = pager.device.get_or_create_file(file_name)
        # Register as the pager's log-before-data barrier: under
        # write-back, no dirty data page reaches the device before the
        # WAL records covering it are durable.
        pager.set_wal(self)
        self.buffer: List[bytes] = []
        self.next_seqno = 1
        self.durable_seqno = 0
        self.flushes = 0
        self.records_appended = 0
        #: optional hook ``(records, blocks)`` fired after each group
        #: commit reaches the device (set by :class:`repro.obs.Tracer`).
        self.on_flush = None

    # -- geometry ------------------------------------------------------------

    @property
    def records_per_block(self) -> int:
        return (self.pager.block_size - _BLOCK_HEADER.size) // _RECORD.size

    @property
    def pending(self) -> int:
        """Appended but not yet durable records (lost if we crash now)."""
        return len(self.buffer)

    @property
    def current_lsn(self) -> int:
        """Highest sequence number appended so far (durable or not).

        Because the index logs before it applies, this LSN covers every
        page write that has happened up to now — the write-back pager
        stamps dirty pages with it and refuses to flush them until
        ``durable_seqno`` catches up.
        """
        return self.next_seqno - 1

    # -- append path ---------------------------------------------------------

    def append(self, op: str, key: int, payload: int = 0) -> int:
        """Buffer one logical record; flush at the group-commit boundary.

        Returns the record's sequence number.  The caller applies the
        operation to the index *after* appending (log-before-data), but
        the record only becomes durable at the next flush.
        """
        code = _OP_CODES.get(op)
        if code is None:
            raise ValueError(f"unknown log op {op!r}")
        seqno = self.next_seqno
        self.next_seqno = seqno + 1
        # the bytes LogRecord.unpack reads back, packed without a record
        self.buffer.append(_RECORD.pack(code, seqno, key, payload))
        self.records_appended += 1
        if len(self.buffer) >= self.group_commit:
            self.flush()
        return seqno

    def flush(self) -> None:
        """Force all buffered records to the device (one group commit)."""
        if not self.buffer:
            return
        per_block = self.records_per_block
        bs = self.pager.block_size
        pairs = []
        for start in range(0, len(self.buffer), per_block):
            chunk = self.buffer[start:start + per_block]
            area = b"".join(chunk)
            block = bytearray(bs)
            _BLOCK_HEADER.pack_into(block, 0, zlib.crc32(area), len(chunk))
            block[_BLOCK_HEADER.size:_BLOCK_HEADER.size + len(area)] = area
            pairs.append((self.file.allocate(1), bytes(block)))
        # One coalesced device write, bypassing the pager's caches: the
        # blocks are freshly allocated (nothing cached can alias them),
        # and going through the buffer pool here could evict a dirty data
        # frame whose log-before-data barrier would re-enter this very
        # flush while ``durable_seqno`` is still stale.
        with self.pager.phase("log"):
            self.pager.device.write_blocks(self.file, pairs)
        blocks_written = len(pairs)
        self.durable_seqno = self.next_seqno - 1
        self.flushes += 1
        records = len(self.buffer)
        self.buffer.clear()
        if self.on_flush is not None:
            self.on_flush(records, blocks_written)

    # -- crash surface (used by the fault injector) ---------------------------

    def drop_unflushed(self) -> int:
        """Discard the in-memory buffer, as a power loss would; returns
        how many acknowledged-to-nobody records were lost."""
        lost = len(self.buffer)
        self.buffer.clear()
        return lost

    def tear_tail_block(self) -> bool:
        """Corrupt the tail half of the last log block on the medium.

        Models a crash midway through the device's final flush: the block
        header (and its CRC) were written, the tail of the record area was
        not.  No I/O is charged — nothing completed — and the envelope is
        left as it was.  Returns False when there is no block to tear.
        """
        if self.file.num_blocks == 0:
            return False
        last = self.file.num_blocks - 1
        block = bytearray(self.file.blocks[last])
        _, count = _BLOCK_HEADER.unpack_from(block, 0)
        # Cut inside the *occupied* record area, not the zero padding —
        # otherwise a small group commit's tear would miss every record
        # and the CRC would still pass.
        used = max(count, 1) * _RECORD.size
        half = _BLOCK_HEADER.size + used // 2
        block[half:] = b"\xff" * (len(block) - half)
        self.file.blocks[last] = block
        # The pager may still hold the intact image of this block.
        self.pager.invalidate_file(self.file.name)
        return True

    # -- recovery scan -------------------------------------------------------

    def durable_records(self) -> Iterator[LogRecord]:
        """Yield the longest valid prefix of the on-disk log, in order.

        Reads are charged under the ``"log"`` phase (recovery pays real
        I/O).  The scan stops at the first block whose CRC does not match
        its record area — everything at or past a torn block is treated
        as never written, which is safe because blocks are flushed in
        sequence-number order.  A block the storage layer itself refuses
        to serve (its checksum envelope is stale — the torn tail mutated
        bytes behind the device's back — or the medium is bad) cuts the
        log the same way.

        The first record anchors the expected sequence: a log rebuilt
        mid-history (post-recovery appends, a failover's re-written log)
        starts above 1, and its prefix is just as valid.
        """
        expected = None
        with self.pager.phase("log"):
            for block_no in range(self.file.num_blocks):
                try:
                    raw = self.pager.read_block(self.file, block_no)
                except StorageFault:
                    return  # unreadable block: cut the log here
                crc, count = _BLOCK_HEADER.unpack_from(raw, 0)
                if count > self.records_per_block:
                    return
                area = raw[_BLOCK_HEADER.size:_BLOCK_HEADER.size + count * _RECORD.size]
                if zlib.crc32(area) != crc:
                    return  # torn block: cut the log here
                for i in range(count):
                    record = LogRecord.unpack(area[i * _RECORD.size:(i + 1) * _RECORD.size])
                    if expected is None:
                        expected = record.seqno
                    if record.seqno != expected:
                        return
                    expected += 1
                    yield record
