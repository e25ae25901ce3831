"""Persistence: save/load a block device image to a real file.

The simulator holds real serialized bytes, so a device can be dumped to
an image file and reloaded later — a bulk-loaded index survives process
restarts the way an on-disk index should.  The image format is:

``magic | version | block_size | profile name | file table | blocks``

with the file table listing, per file: name, number of blocks, live
blocks, memory-resident flag.  Counters (reads/writes/clock) are *not*
persisted: a reloaded device starts with fresh statistics, as a real
machine would after a reboot.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Union

from .device import BlockDevice
from .profile import HDD, NULL_DEVICE, SSD, DiskProfile

__all__ = ["save_device", "load_device"]

_MAGIC = b"RPRODEV1"
_HEADER = struct.Struct("<II")  # block_size, file count
_FILE_HEADER = struct.Struct("<HIIB")  # name length, num blocks, live blocks, resident

_PROFILES = {"hdd": HDD, "ssd": SSD, "null": NULL_DEVICE}


def save_device(device: BlockDevice, target: Union[str, BinaryIO],
                pager=None) -> None:
    """Write the device image to ``target`` (path or binary stream).

    Pass the ``pager`` serving the device when one exists: a write-back
    pager may hold dirty pages newer than the device's blocks, and the
    image must contain them — they are flushed first, in coalesced
    :meth:`~repro.storage.device.BlockDevice.write_blocks` runs (charged
    simulated I/O, as a real checkpoint writer would pay).
    """
    if pager is not None:
        pager.flush()
    own = isinstance(target, str)
    stream: BinaryIO = open(target, "wb") if own else target
    try:
        stream.write(_MAGIC)
        name = device.profile.name.encode("utf-8")
        stream.write(_HEADER.pack(device.block_size, len(device.files)))
        stream.write(struct.pack("<H", len(name)))
        stream.write(name)
        for file_name, handle in device.files.items():
            encoded = file_name.encode("utf-8")
            stream.write(_FILE_HEADER.pack(len(encoded), handle.num_blocks,
                                           handle.live_blocks,
                                           int(handle.memory_resident)))
            stream.write(encoded)
            for image in handle.blocks:
                stream.write(image)
    finally:
        if own:
            stream.close()


def load_device(source: Union[str, BinaryIO],
                profile: DiskProfile = None) -> BlockDevice:
    """Reconstruct a device from an image written by :func:`save_device`.

    ``profile`` overrides the persisted latency model (e.g. replay an
    HDD-built image on the SSD profile).
    """
    own = isinstance(source, str)
    stream: BinaryIO = open(source, "rb") if own else source
    try:
        magic = stream.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a device image (bad magic {magic!r})")
        block_size, file_count = _HEADER.unpack(stream.read(_HEADER.size))
        name_len = struct.unpack("<H", stream.read(2))[0]
        profile_name = stream.read(name_len).decode("utf-8")
        if profile is None:
            try:
                profile = _PROFILES[profile_name]
            except KeyError:
                raise ValueError(
                    f"image uses custom profile {profile_name!r}; pass one "
                    f"explicitly to load_device") from None
        device = BlockDevice(block_size=block_size, profile=profile)
        for _ in range(file_count):
            raw = stream.read(_FILE_HEADER.size)
            fname_len, num_blocks, live_blocks, resident = _FILE_HEADER.unpack(raw)
            file_name = stream.read(fname_len).decode("utf-8")
            handle = device.create_file(file_name)
            handle.blocks = [stream.read(block_size) for _ in range(num_blocks)]
            handle.live_blocks = live_blocks
            handle.memory_resident = bool(resident)
            # The image stores payloads only; the out-of-band checksum
            # envelope is rebuilt from them (a clean image verifies).
            handle.recompute_checksums()
        # Loading is not an I/O event: reset the allocation counter the
        # create_file/blocks assignment path did not touch anyway.
        device.stats.allocated_blocks = sum(
            f.num_blocks for f in device.files.values())
        return device
    finally:
        if own:
            stream.close()
