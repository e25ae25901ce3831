"""Shared helpers for the test suite (fixtures live in conftest.py).

Besides the small factories, this module holds the *differential
correctness harness*: a sorted-dict :class:`ReferenceModel` that states
the ordered-map semantics every index must implement, and
:func:`run_differential`, which drives a seeded random operation stream
against an index and the model in lockstep, asserting agreement after
every step.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_left, bisect_right

from repro.obs import Tracer
from repro.stack import StackSpec
from repro.stack import make_pager as make_stack_pager
from repro.storage import HDD, NULL_DEVICE, SSD, Pager


def make_pager(block_size: int = 4096, buffer_blocks: int = 0) -> Pager:
    """A pager over a fresh HDD device, with an LRU pool when asked."""
    return make_stack_pager(StackSpec(block_size=block_size,
                                      buffer_blocks=buffer_blocks))


def make_sharded(index_names, shards=None, **kwargs):
    """A :class:`repro.sharding.ShardedIndex` on free-I/O devices, so
    correctness tests pay no simulated latency.  Accepts everything
    :func:`repro.core.make_sharded_index` does, which resolves them to a
    sharded :class:`~repro.stack.StackSpec` and
    :func:`repro.stack.make_tier`."""
    from repro.core import make_sharded_index
    kwargs.setdefault("profile", NULL_DEVICE)
    return make_sharded_index(index_names, shards, **kwargs)


#: Constructor parameters a drawn spec may give each writable index.
SPEC_INDEX_PARAMS = {
    "btree": ({}, {"codec": "for"}, {"codec": "delta"}),
    "fiting": ({}, {"error_bound": 16}),
    "pgm": ({}, {"epsilon": 16}, {"codec": "for"}),
    "alex": ({}, {"layout": 2}),
    "lipp": ({},),
    "plid": ({}, {"error_bound": 1}),
}


def stack_specs(max_shards: int = 3):
    """Hypothesis strategy over every :class:`~repro.stack.StackSpec`
    field: a writable index (or one per shard), its parameters, device
    profile and block size, pool size / policy / write mode, inner
    residency, WAL group commit, shard and replica count.  Only specs
    that can be honoured are drawn."""
    from hypothesis import strategies as st

    @st.composite
    def specs(draw):
        shards = draw(st.integers(0, max_shards))
        names = st.sampled_from(sorted(SPEC_INDEX_PARAMS))
        if shards and draw(st.booleans()):
            index = tuple(draw(names) for _ in range(shards))
            params = {}
        else:
            index = draw(names)
            params = draw(st.sampled_from(SPEC_INDEX_PARAMS[index]))
        buffer_blocks = draw(st.sampled_from((0, 8, 64)))
        return StackSpec(
            index, index_params=params,
            profile=draw(st.sampled_from((HDD, SSD, NULL_DEVICE))),
            block_size=draw(st.sampled_from((4096, 8192))),
            buffer_blocks=buffer_blocks,
            buffer_policy=(draw(st.sampled_from(("lru", "clock", "fifo")))
                           if buffer_blocks else "lru"),
            write_back=bool(buffer_blocks) and draw(st.booleans()),
            # LIPP has no inner nodes to pin (the paper excludes it).
            inner_memory_resident=("lipp" not in index
                                   and draw(st.booleans())),
            group_commit=draw(st.sampled_from((0, 1, 8))),
            shards=shards,
            replicas=draw(st.integers(1, 3)) if shards else 1)

    return specs()


def random_sorted_keys(n: int, seed: int = 0, key_space: int = 10**12) -> list:
    rng = random.Random(seed)
    return sorted(rng.sample(range(key_space), n))


def items_of(keys) -> list:
    return [(k, k + 1) for k in keys]


def charges_of(index):
    """Everything an index's storage stack has been asked so far: every
    ``StorageStats`` field and, under a buffer pool, its hits and misses."""
    pool = index.pager.buffer_pool
    return (dataclasses.asdict(index.pager.stats),
            (pool.hits, pool.misses) if pool is not None else None)


class Watch:
    """What an index's storage stack shows besides its charges, for
    comparing it with a per-probe or per-bit reference: under
    ``"traced"`` a :class:`repro.obs.Tracer`'s records, under
    ``"hooked"`` the set of frames the pager's access hook saw,
    ``"bare"`` neither."""

    def __init__(self, index, instrument: str) -> None:
        self.tracer = None
        self.frames = set()
        if instrument == "traced":
            self.tracer = Tracer()
            index.attach_tracer(self.tracer)
        elif instrument == "hooked":
            index.pager.on_block_access = lambda *access: self.frames.add(access)

    def seen(self):
        """Tracer records without their ``reuse_hits`` (a reference that
        asks the pager once per probe or per bit meets each later probe
        of a block as a reuse hit, so that counter differs by design),
        and the hook's frames."""
        records = None
        if self.tracer is not None:
            records = [{k: v for k, v in record.items() if k != "reuse_hits"}
                       for record in self.tracer.iter_records()]
        return records, self.frames

    @property
    def reuse_hits(self) -> int:
        if self.tracer is None:
            return 0
        return sum(record.get("reuse_hits", 0)
                   for record in self.tracer.iter_records())


def lipp_header(index, block):
    """The header of the lipp node at ``block``, read through the pager."""
    from repro.core import lipp
    return lipp._NodeHeader.unpack(index.pager.read_bytes(
        index._file, block * index.pager.block_size, lipp.HEADER_SIZE))


def lipp_slot(index, block, slot):
    """``(flag, key, payload)`` of slot ``slot`` of the lipp node at
    ``block``, read through the pager."""
    from repro.core import lipp
    return lipp._SLOT.unpack(index.pager.read_bytes(
        index._file, index._slot_offset(block, slot), lipp.SLOT_SIZE))


def pages_of(index) -> dict:
    """Every block of every file, after flushing what a write-back pool
    still holds dirty."""
    index.pager.flush()
    return {name: [bytes(handle.blocks[no]) for no in range(handle.num_blocks)]
            for name, handle in index.pager.device.files.items()}


class ReferenceModel:
    """The oracle: a sorted dict with the DiskIndex ordered-map contract.

    Keeps a sorted key list beside the dict so scans are O(log n + k) and
    the expected answers are unambiguous — whatever the index's internal
    structure (tombstones, LSM runs, delta buffers), its observable
    behaviour must match this.
    """

    def __init__(self, items=()):
        self._data = {}
        self._keys = []
        for key, payload in items:
            self._data[key] = payload
            self._keys.append(key)
        self._keys.sort()

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def lookup(self, key):
        return self._data.get(key)

    def insert(self, key, payload):
        if key in self._data:
            raise KeyError(key)
        self._data[key] = payload
        self._keys.insert(bisect_left(self._keys, key), key)

    def update(self, key, payload):
        if key not in self._data:
            return False
        self._data[key] = payload
        return True

    def delete(self, key):
        if key not in self._data:
            return False
        del self._data[key]
        self._keys.pop(bisect_left(self._keys, key))
        return True

    def scan(self, start_key, count):
        i = bisect_left(self._keys, start_key)
        return [(k, self._data[k]) for k in self._keys[i : i + count]]

    def scan_range(self, low, high):
        i, j = bisect_left(self._keys, low), bisect_right(self._keys, high)
        return [(k, self._data[k]) for k in self._keys[i:j]]

    def keys(self):
        return list(self._keys)

    def items(self):
        return [(k, self._data[k]) for k in self._keys]


#: Default mix for mutation streams: read-heavy enough to observe the
#: effects of every structural modification soon after it happens.
MUTATION_KINDS = ("insert", "insert", "update", "delete", "lookup", "lookup",
                  "scan", "scan_range", "lookup_many")
READONLY_KINDS = ("lookup", "lookup", "scan", "scan_range", "lookup_many")


def _pick_key(rng, model, key_space, prefer_existing):
    """An existing key with probability ``prefer_existing``, else random."""
    if model.keys() and rng.random() < prefer_existing:
        return rng.choice(model.keys())
    return rng.randrange(key_space)


def run_differential(index, model, num_ops, seed, kinds=MUTATION_KINDS,
                     key_space=10**9, scan_count=7, payload_of=None):
    """Drive ``num_ops`` random operations against index and oracle.

    Each step applies the same operation to both and asserts identical
    results; a final full-content sweep catches anything the interleaved
    probes missed.  Inserts always pick keys absent from the model (the
    duplicate-insert contract differs per index — PGM and FITing shadow —
    and is covered by dedicated tests), and deleted keys become fresh
    again, so re-insert-after-delete is exercised naturally.
    """
    rng = random.Random(seed)
    payload_of = payload_of or (lambda key, i: key % 1000 + i)
    counts = {kind: 0 for kind in set(kinds)}
    for i in range(num_ops):
        kind = kinds[rng.randrange(len(kinds))]
        counts[kind] += 1
        if kind == "insert":
            key = rng.randrange(key_space)
            while key in model:
                key = rng.randrange(key_space)
            payload = payload_of(key, i)
            model.insert(key, payload)
            index.insert(key, payload)
        elif kind == "update":
            key = _pick_key(rng, model, key_space, prefer_existing=0.7)
            payload = payload_of(key, i)
            expected = model.update(key, payload)
            assert index.update(key, payload) == expected, (i, kind, key)
        elif kind == "delete":
            key = _pick_key(rng, model, key_space, prefer_existing=0.7)
            expected = model.delete(key)
            assert index.delete(key) == expected, (i, kind, key)
        elif kind == "lookup":
            key = _pick_key(rng, model, key_space, prefer_existing=0.5)
            assert index.lookup(key) == model.lookup(key), (i, kind, key)
        elif kind == "scan":
            key = _pick_key(rng, model, key_space, prefer_existing=0.5)
            assert index.scan(key, scan_count) == model.scan(key, scan_count), \
                (i, kind, key)
        elif kind == "scan_range":
            a = rng.randrange(key_space)
            b = rng.randrange(key_space)
            low, high = min(a, b), max(a, b)
            assert index.scan_range(low, high) == model.scan_range(low, high), \
                (i, kind, low, high)
        elif kind == "lookup_many":
            # A batch with hits, misses, and duplicate keys: the batched
            # path must answer position-for-position like per-key lookups
            # (and, on a sharded tier, survive boundary-straddling splits).
            batch = [_pick_key(rng, model, key_space, prefer_existing=0.5)
                     for _ in range(rng.randrange(1, 9))]
            if len(batch) > 2:
                batch[rng.randrange(len(batch))] = batch[0]
            expected = [model.lookup(k) for k in batch]
            assert index.lookup_many(batch) == expected, (i, kind, batch)
        else:  # pragma: no cover - guards against stream-mix typos
            raise ValueError(f"unknown op kind {kind!r}")
    check_full_agreement(index, model)
    return counts


def check_full_agreement(index, model, probe_misses=25, seed=1234,
                         key_space=10**9):
    """The index and the oracle agree on every live key and on absences."""
    for key, payload in model.items():
        assert index.lookup(key) == payload, key
    rng = random.Random(seed)
    for _ in range(probe_misses):
        key = rng.randrange(key_space)
        if key not in model:
            assert index.lookup(key) is None, key
    if model.keys():
        first = model.keys()[0]
        assert index.scan(first, len(model)) == model.items()


# -- fit-kernel references (DESIGN.md Section 20) ------------------------------
#
# The per-key loops the node builders ran before they became array
# kernels (alex) or a single pass (lipp), kept as the oracles the kernels
# are compared against byte for byte.

def reference_fit_least_squares(keys, positions):
    """``LinearModel.fit_least_squares`` with the key offsets taken one
    Python integer subtraction at a time."""
    import numpy as np
    from repro.models import LinearModel
    anchor = int(keys[0])
    xs = np.asarray([int(k) - anchor for k in keys], dtype=np.float64)
    ys = np.asarray(positions, dtype=np.float64)
    if xs.size == 1 or keys[0] == keys[-1]:
        return LinearModel(slope=0.0, intercept=float(ys[0]), anchor=anchor)
    x_mean = float(xs.mean())
    y_mean = float(ys.mean())
    xc = xs - x_mean
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        return LinearModel(slope=0.0, intercept=y_mean, anchor=anchor)
    slope = float(np.dot(xc, ys - y_mean)) / denom
    return LinearModel(slope=slope, intercept=y_mean - slope * x_mean, anchor=anchor)


def reference_alex_data_node(items, capacity):
    """An ALEX data node placed one key at a time: ``(model, bitmap
    bytes, the capacity (key, payload) slots, gaps filled)``."""
    from repro.models import LinearModel
    n = len(items)
    if n:
        model = reference_fit_least_squares(
            [key for key, _ in items],
            [int(i * capacity / max(n, 1)) for i in range(n)])
    else:
        model = LinearModel(0.0, 0.0)
    slots = []
    bitmap = bytearray((capacity + 7) // 8)
    last = -1
    for i, (key, payload) in enumerate(items):
        pred = model.predict_clamped(key, capacity)
        slot = min(max(pred, last + 1), capacity - (n - i))
        # Fill the gap run before this entry with a copy of the
        # previous entry (or of this entry for leading gaps).
        filler = items[i - 1] if i > 0 else (key, payload)
        while len(slots) < slot:
            slots.append(filler)
        slots.append((key, payload))
        bitmap[slot >> 3] |= 1 << (slot & 7)
        last = slot
    filler = items[-1] if items else (0, 0)
    while len(slots) < capacity:
        slots.append(filler)
    return model, bytes(bitmap), slots


def reference_alex_partition(items, model, fanout):
    """The items each of ``fanout`` children receives, routed one key at
    a time."""
    partitions = [[] for _ in range(fanout)]
    for key, payload in items:
        partitions[model.predict_clamped(key, fanout)].append((key, payload))
    return partitions


def reference_lipp_node_model(keys, num_slots):
    """LIPP's node model — FMCD, or min-max when more than half of the
    keys would share a slot — checked with one ``predict_clamped`` call
    per key."""
    from repro.models import LinearModel, build_fmcd_model
    fmcd = build_fmcd_model(keys, num_slots)
    model = fmcd.model
    if len(keys) >= 4 and not fmcd.fallback:
        first = model.predict_clamped(keys[0], num_slots)
        run = best = 1
        prev = first
        for key in keys[1:]:
            slot = model.predict_clamped(key, num_slots)
            run = run + 1 if slot == prev else 1
            prev = slot
            best = max(best, run)
        if best > len(keys) // 2:
            model = LinearModel.fit_min_max(keys[0], keys[-1], num_slots)
    return model


def reference_lipp_build_node(index, items):
    """``LippIndex._build_node`` predicting each key again to group it:
    the same nodes, allocated and written in the same order."""
    from repro.core import lipp
    from repro.models import lipp_node_slots
    root_block = None
    stack = [(items, None, 0)]
    while stack:
        node_items, parent_block, parent_slot = stack.pop()
        n = len(node_items)
        keys = [key for key, _ in node_items]
        num_slots = lipp_node_slots(max(n, 1), index.build_gap_count)
        model = reference_lipp_node_model(keys, num_slots) if n else None
        header = lipp._NodeHeader(
            item_count=n, num_slots=num_slots,
            slope=model.slope if model else 0.0,
            intercept=model.intercept if model else 0.0,
            anchor=model.anchor if model else 0,
            build_size=n, num_inserts=0)
        slots = bytearray(num_slots * lipp.SLOT_SIZE)
        groups = []
        for key, payload in node_items:
            slot = header.predict(key)
            if groups and groups[-1][0] == slot:
                groups[-1][1].append((key, payload))
            else:
                groups.append((slot, [(key, payload)]))
        block = index._file.allocate(index._extent_blocks(num_slots))
        for slot, group in groups:
            if len(group) == 1:
                lipp._SLOT.pack_into(slots, slot * lipp.SLOT_SIZE, lipp.SLOT_DATA,
                                     group[0][0], group[0][1])
            else:
                lipp._SLOT.pack_into(slots, slot * lipp.SLOT_SIZE, lipp.SLOT_NODE, 0, 0)
                stack.append((group, block, slot))
        index.pager.write_bytes(index._file, block * index.pager.block_size,
                                header.pack() + bytes(slots))
        if parent_block is None:
            root_block = block
        else:
            index._write_slot(parent_block, parent_slot, lipp.SLOT_NODE, block, 0)
    return root_block
