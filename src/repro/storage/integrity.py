"""Block-integrity primitives: checksum envelope and storage-fault types.

Every block written through :class:`~repro.storage.device.BlockDevice`
carries a CRC over its full payload, kept in an out-of-band per-file
array (``BlockFile.checksums``) that models the common production layout
of an *inline* per-block CRC32C (e.g. InnoDB page checksums, ext4
metadata_csum, ZFS blkptr checksums).  Keeping the envelope out of band
means verification adds **zero extra block accesses** on the clean read
path — exactly like an inline trailer, without stealing payload bytes
from the simulated 4 KiB blocks and perturbing every fan-out constant in
the study.  We use zlib's CRC-32 (the only CRC in the stdlib); CRC32C
differs just in polynomial choice and detection strength is equivalent
for single-block faults.

Faults surface as exceptions, never as corrupt bytes:

``ChecksumError``
    the stored payload no longer matches its checksum (bit rot, torn
    write) — deterministic, retrying cannot help; repair can.
``TransientIOError``
    the access failed but the medium is fine (bus reset, timeout) — the
    pager absorbs these with bounded retry/backoff.
``PersistentIOError``
    the block is unreadable for good (grown defect) until a remapping
    write replaces it — the repair path's job.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = [
    "StorageFault",
    "ChecksumError",
    "TransientIOError",
    "PersistentIOError",
    "block_crc",
    "ScrubReport",
]


def block_crc(data: bytes) -> int:
    """The 32-bit checksum stored in a block's envelope entry.

    ``zlib.crc32`` is the fastest 32-bit digest available in the
    standard toolchain (measurably faster than ``adler32`` and numpy
    folds for 4 KiB pages).  Every device write computes one; a charged
    read computes one only for a block version not yet proven against
    its envelope entry — the device memoizes the proof (DESIGN.md
    Section 22) — so repeat reads of an unchanged block never get here.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


class StorageFault(Exception):
    """Base of every storage-level fault raised instead of corrupt data.

    Carries the failing ``(file_name, block_no)`` so handlers (pager
    retry, quarantine, repair) can target the exact block.
    """

    def __init__(self, file_name: str, block_no: int, detail: str = ""):
        self.file_name = file_name
        self.block_no = block_no
        suffix = f": {detail}" if detail else ""
        super().__init__(f"{type(self).__name__} at {file_name!r} block {block_no}{suffix}")


class ChecksumError(StorageFault):
    """A read found payload bytes inconsistent with the block's checksum."""


class TransientIOError(StorageFault):
    """A read attempt failed; the stored data is intact — retry."""


class PersistentIOError(StorageFault):
    """The block is unreadable until a write remaps it — repair."""


@dataclass
class ScrubReport:
    """Result of one :meth:`Pager.scrub` pass over allocated blocks."""

    blocks_scanned: int = 0
    #: blocks whose device copy failed verification, as (file, block_no)
    bad_blocks: List[Tuple[str, int]] = field(default_factory=list)
    #: quarantined blocks whose device copy now verifies clean again
    released: List[Tuple[str, int]] = field(default_factory=list)
    #: simulated time charged to the scrub (under the ``"scrub"`` phase)
    elapsed_us: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.bad_blocks
