"""Binary layout helpers shared by the on-disk indexes.

Every index serializes real bytes into device blocks.  Keys and payloads
are uint64 (the paper's datasets are uint64 keys with payload = key + 1),
so one key-payload entry is 16 bytes and a 4 KiB block holds 256 entries
— exactly the arithmetic behind the paper's Table 2 cost formulas.

The pack/unpack helpers run on every block (de)serialization, so they use
one flattened ``struct`` call per batch (with the per-count ``Struct``
objects cached) instead of a Python-level loop of ``pack_into`` calls.

Sorted runs (DESIGN.md §15): a node page, a model-predicted window, a
delta buffer — every sorted array of fixed-stride records whose first
field is the u64 key — is searched and mutated as the bytes the pager
returned, never unpacked on a point path.  :func:`bisect_left` and
:func:`bisect_right` probe the key column in place, a hit is one
:func:`entry_at`, and :func:`splice` gives the bytes an insert or
overwrite has to write back.  :func:`keys_view` exposes the same column
as a strided ``numpy`` view for whole-page checks.
"""

from __future__ import annotations

import bisect as _bisect
import struct
import sys
from functools import lru_cache
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ENTRY_SIZE",
    "KEY_SIZE",
    "NULL_BLOCK",
    "pack_entry",
    "pack_entries",
    "unpack_entries",
    "pack_u64s",
    "entries_per_block",
    "keys_view",
    "key_at",
    "entry_at",
    "iter_entries",
    "bisect_left",
    "bisect_right",
    "find_entry",
    "splice",
]

KEY_SIZE = 8
ENTRY_SIZE = 16
#: Sentinel "no block" pointer (u32).
NULL_BLOCK = 0xFFFFFFFF

_ENTRY = struct.Struct("<QQ")
_U64 = struct.Struct("<Q")


@lru_cache(maxsize=1024)
def _u64_struct(count: int) -> struct.Struct:
    """Cached ``Struct`` for ``count`` little-endian uint64s."""
    return struct.Struct(f"<{count}Q")


@lru_cache(maxsize=64)
def _keys_dtype(stride: int) -> np.dtype:
    """A one-field record dtype reading a ``<u8`` key out of each
    ``stride``-byte record (used when the stride is not u64-aligned)."""
    return np.dtype({"names": ["key"], "formats": ["<u8"],
                     "offsets": [0], "itemsize": stride})


def entries_per_block(block_size: int, codec=None) -> int:
    """Key-payload entries that fit in one block (the paper's ``B``).

    With no ``codec`` (or the raw codec) this is the fixed-stride
    constant ``block_size // 16``.  With a compressed codec capacity is
    data-dependent, so this returns the codec's *upper bound*
    (:meth:`~repro.core.codecs.LeafCodec.max_entries`) — sizing math
    that needs the achieved density must measure a built index instead
    (see ``bench/experiments.py::exp_compression``).
    """
    if codec is None:
        return block_size // ENTRY_SIZE
    from .codecs import get_codec
    resolved = get_codec(codec)
    if resolved.is_raw:
        return block_size // ENTRY_SIZE
    return resolved.max_entries(block_size)


#: ``pack_entry(key, payload)``: one serialized entry.
pack_entry = _ENTRY.pack


def pack_entries(items: Sequence[Tuple[int, int]]) -> bytes:
    """Serialize (key, payload) pairs to little-endian uint64 pairs."""
    if not items:
        return b""
    return _u64_struct(2 * len(items)).pack(*chain.from_iterable(items))


def unpack_entries(data: bytes, count: int, offset: int = 0) -> List[Tuple[int, int]]:
    """Deserialize ``count`` (key, payload) pairs starting at ``offset``."""
    if count <= 0:
        return []
    flat = _u64_struct(2 * count).unpack_from(data, offset)
    return list(zip(flat[0::2], flat[1::2]))


def pack_u64s(values: Sequence[int]) -> bytes:
    return _u64_struct(len(values)).pack(*values) if values else b""


def keys_view(data, count: int, offset: int = 0,
              stride: int = ENTRY_SIZE) -> np.ndarray:
    """Zero-copy uint64 view of the key column of ``count`` serialized
    records of ``stride`` bytes each, starting at ``offset``.

    The result aliases ``data`` (no copy): when the stride is a multiple
    of 8 it is a sliced ``<u8`` view, otherwise a record-dtype field view
    (e.g. the B+-tree's 12-byte inner entries).  Either form is accepted
    by ``np.searchsorted`` directly.
    """
    if count <= 0:
        return _EMPTY_U64
    if stride % 8 == 0:
        step = stride // 8
        flat = np.frombuffer(data, dtype="<u8",
                             count=(count - 1) * step + 1, offset=offset)
        return flat[::step]
    rec = np.frombuffer(data, dtype=_keys_dtype(stride),
                        count=count, offset=offset)
    return rec["key"]


_EMPTY_U64 = np.empty(0, dtype="<u8")


def key_at(data, index: int, offset: int = 0, stride: int = ENTRY_SIZE) -> int:
    """The uint64 key of the record at slot ``index``."""
    return _U64.unpack_from(data, offset + index * stride)[0]


def entry_at(data, index: int, offset: int = 0) -> Tuple[int, int]:
    """The single (key, payload) entry at slot ``index`` — parses 16
    bytes instead of materializing the whole region like
    :func:`unpack_entries`."""
    return _ENTRY.unpack_from(data, offset + index * ENTRY_SIZE)


def iter_entries(data, count: int, offset: int = 0):
    """Lazily decode ``count`` (key, payload) entries starting at
    ``offset``, one per ``next`` — a scan pays for what it takes."""
    return _ENTRY.iter_unpack(
        memoryview(data)[offset : offset + count * ENTRY_SIZE])


#: Whether the host stores integers little-endian, so that a native
#: ``memoryview.cast("Q")`` reads a run's ``<u8`` key column as is.
_LITTLE_ENDIAN = sys.byteorder == "little"
#: Runs shorter than this are bisected by the Python probe loop: building
#: the strided view costs about as much as the few probes it replaces.
_C_BISECT_MIN = 16


def _key_column(data, count: int, offset: int, stride: int):
    """The key column of ``count`` ``stride``-byte records at ``offset``
    as a zero-copy sequence of u64s (``stride`` a multiple of 8, host
    little-endian), for :mod:`bisect` to search in C."""
    return memoryview(data)[offset : offset + count * stride].cast("Q")[::stride >> 3]


def bisect_right(data, key: int, count: int, offset: int = 0,
                 stride: int = ENTRY_SIZE, lo: int = 0,
                 unpack=_U64.unpack_from) -> int:
    """How many of a sorted run's first ``count`` records have a key
    <= ``key``: the slot just past the floor record.

    Bisects the key column of the ``stride``-byte records at ``offset``
    in place: in C over :func:`_key_column` when the stride is a
    multiple of 8 (16-byte entries, pgm descriptors, fiting directory
    records) and the run is long enough, else by the probe loop below
    (the B+-tree's 12-byte inner entries, big-endian hosts).  Records
    before ``lo`` are taken to qualify (a B+-tree inner node never
    compares entry 0).
    """
    if count >= _C_BISECT_MIN and not stride & 7 and _LITTLE_ENDIAN:
        return _bisect.bisect_right(_key_column(data, count, offset, stride), key, lo)
    hi = count
    while lo < hi:
        mid = (lo + hi) >> 1
        if unpack(data, offset + mid * stride)[0] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bisect_left(data, key: int, count: int, offset: int = 0,
                stride: int = ENTRY_SIZE, unpack=_U64.unpack_from) -> int:
    """How many of a sorted run's first ``count`` records have a key
    < ``key``: the slot of ``key`` if present, else of its ceiling, else
    ``count`` — where an insert of ``key`` goes.  Searched as
    :func:`bisect_right` is."""
    if count >= _C_BISECT_MIN and not stride & 7 and _LITTLE_ENDIAN:
        return _bisect.bisect_left(_key_column(data, count, offset, stride), key)
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) >> 1
        if unpack(data, offset + mid * stride)[0] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


def find_entry(data, key: int, count: int,
               offset: int = 0) -> Tuple[int, Optional[int]]:
    """Search a sorted run of 16-byte entries for ``key``: its
    :func:`bisect_left` slot, and the payload stored there when the
    record at the slot holds ``key`` (else None)."""
    slot = bisect_left(data, key, count, offset)
    if slot < count:
        held, payload = _ENTRY.unpack_from(data, offset + slot * ENTRY_SIZE)
        if held == key:
            return slot, payload
    return slot, None


def splice(data, slot: int, record: bytes, count: int, offset: int = 0,
           replace: bool = False) -> bytes:
    """The bytes of a ``count``-record run from ``slot`` on, once
    ``record`` is inserted at ``slot`` (shifting the tail right) or, with
    ``replace``, written over the record there: what to write back at
    the slot's offset.  The stride is ``len(record)``."""
    stride = len(record)
    return record + data[offset + (slot + replace) * stride
                         : offset + count * stride]
