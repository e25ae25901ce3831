"""The one leaf page (``repro.core.leaffile``) against a sorted-dict model.

The test plays the inner structure: it keeps the ``(boundary key,
block)`` directory that ``bulk_write`` and ``store`` report, routes every
key through it, and holds every stored page to the obvious reference —
the leaf's sorted records packed (or codec-encoded) into a zeroed block
behind a header carrying its chain links.
"""

import struct
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codecs import get_codec
from repro.core.leaffile import HEADER_SIZE, LeafFile
from repro.core.serial import NULL_BLOCK
from repro.storage import NULL_DEVICE, BlockDevice, Pager

MAX_KEY = 2**64 - 1


def data_of(key, size):
    return bytes((key + i) % 251 for i in range(size))


def reference_leaf(block_size, records, next_=NULL_BLOCK, prev=NULL_BLOCK,
                   codec="raw"):
    """The sorted record list packed into a zeroed block."""
    codec = get_codec(codec)
    if codec.is_raw:
        body = b"".join(struct.pack("<Q", key) + data
                        for key, data in sorted(records.items()))
    else:
        body = codec.encode([(key, struct.unpack("<Q", data)[0])
                             for key, data in sorted(records.items())])
    header = struct.pack("<HHIII", len(records), codec.codec_id, next_, prev, 0)
    return (header + body).ljust(block_size, b"\x00")


class Harness:
    """A bare ``LeafFile`` plus the directory and page model beside it."""

    def __init__(self, data_size, codec, side, block_size, records):
        device = BlockDevice(block_size, NULL_DEVICE)
        self.file = device.create_file("leaf")
        self.leaves = LeafFile(Pager(device), self.file, data_size,
                               codec=codec, new_leaf_side=side)
        self.codec, self.right, self.block_size = codec, side == "right", block_size
        run = b"".join(struct.pack("<Q", key) + data
                       for key, data in sorted(records.items()))
        written = self.leaves.bulk_write(run)
        self.order = [block for _first, _last, block in written]
        # right: lower bounds, the first leaf's standing for minus infinity;
        # left: upper bounds, the last leaf's standing for plus infinity
        self.bounds = ([-1] + [first for first, _last, _block in written[1:]]
                       if self.right else
                       [last for _first, last, _block in written[:-1]] + [MAX_KEY + 1])
        self.pages = {block: {} for block in self.order}
        for key, data in records.items():
            self.pages[self.route(key)][key] = data

    def route(self, key):
        if self.right:
            return self.order[bisect_right(self.bounds, key) - 1]
        return self.order[bisect_left(self.bounds, key)]

    def apply(self, kind, key, data):
        """One op through locate + store; returns whether the key was held."""
        block = self.route(key)
        slot = self.leaves.locate(block, key)
        page = self.pages[block]
        assert slot.hit == (key in page)
        if kind == "insert" and not slot.hit:
            record = struct.pack("<Q", key) + data
            page[key] = data
        elif kind == "update" and slot.hit:
            record = struct.pack("<Q", key) + data
            page[key] = data
        elif kind == "delete" and slot.hit:
            record = b""
            del page[key]
        else:
            return slot.hit      # duplicate insert / absent key: no write
        blocks_before = self.file.num_blocks
        new = self.leaves.store(slot, record)
        # the returned pairs are exactly the newly allocated leaves
        assert [no for _key, no in new] == list(
            range(blocks_before, self.file.num_blocks))
        if new:
            self._register(block, new)
        return slot.hit

    def _register(self, block, new):
        """What a caller's directory does with ``store``'s pairs; the
        page model is re-cut at the reported boundaries."""
        at = self.order.index(block)
        records = sorted(self.pages[block].items())
        keys = [key for key, _data in records]
        if self.right:      # boundary = first key of each new leaf
            edges = [bisect_left(keys, key) for key, _no in new]
            cuts = [0] + edges + [len(keys)]
            blocks = [block] + [no for _key, no in new]
            self.bounds[at + 1 : at + 1] = [key for key, _no in new]
        else:               # boundary = last key of each new leaf
            edges = [bisect_right(keys, key) for key, _no in new]
            cuts = [0] + edges + [len(keys)]
            blocks = [no for _key, no in new] + [block]
            self.bounds[at:at] = [key for key, _no in new]
        self.order[at : at + 1] = blocks
        for i, no in enumerate(blocks):
            self.pages[no] = dict(records[cuts[i] : cuts[i + 1]])
            assert self.pages[no], "a split made an empty leaf"
        for (key, no) in new:
            assert key == (min if self.right else max)(self.pages[no])

    def check_pages(self):
        assert self.file.num_blocks == len(self.order)
        chain = [NULL_BLOCK] + self.order + [NULL_BLOCK]
        for i, block in enumerate(self.order):
            assert bytes(self.file.blocks[block]) == reference_leaf(
                self.block_size, self.pages[block], chain[i + 2], chain[i],
                self.codec), f"leaf {block}"

    def everything(self):
        return sorted((key, data) for page in self.pages.values()
                      for key, data in page.items())


_KEYS = st.one_of(st.integers(0, 60), st.integers(0, MAX_KEY),
                  st.sampled_from([0, MAX_KEY]))
_OPS = st.lists(st.tuples(st.sampled_from(["insert", "insert", "update", "delete"]),
                          _KEYS, st.integers(0, 250)), max_size=120)

#: record sizes 16 and 36; the codecs compress 16-byte records only
SHAPES = [(8, "raw"), (28, "raw"), (8, "for")]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("data_size,codec", SHAPES)
@settings(max_examples=60, deadline=None)
@given(block_size=st.sampled_from([256, 512]),
       bulk=st.lists(_KEYS, max_size=80, unique=True), ops=_OPS)
def test_stored_pages_equal_the_packed_reference(data_size, codec, side,
                                                block_size, bulk, ops):
    harness = Harness(data_size, codec, side, block_size,
                      {key: data_of(key, data_size) for key in bulk})
    harness.check_pages()
    leaves = harness.leaves
    for kind, key, salt in ops:
        # under a codec the payload doubles as an integer: salt the top
        # byte so FoR's payload column sometimes widens past the block
        data = data_of(key + salt, data_size)
        if codec != "raw" and salt > 200:
            data = data[:7] + bytes([salt])
        held = harness.apply(kind, key, data)
        if kind == "insert" and held:
            continue
        harness.check_pages()
        block = harness.route(key)
        assert leaves.get(leaves.read(block), key) == harness.pages[block].get(key)
    everything = harness.everything()
    first = harness.order[0]
    assert list(leaves.iterate_from(first, 0)) == everything
    assert [(block, sorted(harness.pages[block])) for block in harness.order] == [
        (block, keys) for block, keys in leaves.walk(first, harness.route)]
    if ops:
        key = ops[-1][1]
        at = bisect_left([k for k, _ in everything], key)
        assert list(leaves.iterate_from(harness.route(key), key)) == everything[at:]
        if data_size == 8:
            assert leaves.scan(harness.route(key), key, 7) == [
                (k, struct.unpack("<Q", d)[0]) for k, d in everything[at : at + 7]]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("data_size", [8, 28])
def test_raw_split_is_at_the_midpoint(data_size, side):
    harness = Harness(data_size, "raw", side, 512, {})
    keys = list(range(10, 10 + 7 * (harness.leaves.capacity + 1), 7))
    for key in keys:
        harness.apply("insert", key, data_of(key, data_size))
    mid = len(keys) // 2
    low, high = (0, 1) if side == "right" else (1, 0)   # block 1 is the new leaf
    assert harness.order == [low, high]
    assert sorted(harness.pages[low]) == keys[:mid]
    assert sorted(harness.pages[high]) == keys[mid:]
    # the boundary the caller registers: right -> the new leaf's first
    # key (a B+-tree separator), left -> its last key (a PLID max key)
    assert harness.bounds == ([-1, keys[mid]] if side == "right"
                              else [keys[mid - 1], MAX_KEY + 1])
    harness.check_pages()


def test_split_order_and_neighbour_patch_are_the_recorded_contract():
    """New leaf first, then the old block, then one read + one write of
    the far neighbour (tests/golden pins the charges this produces)."""
    for side, neighbour in (("right", 2), ("left", 0)):
        harness = Harness(8, "raw", side, 256, {k: data_of(k, 8)
                                                for k in range(0, 3600, 100)})
        assert harness.order == [0, 1, 2]
        calls = []
        harness.leaves.pager.on_block_access = (
            lambda kind, _file, block: calls.append((kind, block)))
        key = 1201
        while harness.file.num_blocks == 3:
            harness.apply("insert", key, data_of(key, 8))
            key += 1
        assert calls[-5:] == [("r", 1), ("w", 3), ("w", 1),
                              ("r", neighbour), ("w", neighbour)]
        harness.check_pages()


def test_compressed_leaf_repacks_into_as_many_leaves_as_it_needs():
    """One far-from-key payload widens FoR's whole payload column: the
    page of an *update* overflows and is repacked into the records before
    the wide one, the few that fit beside it, and the rest."""
    harness = Harness(8, "for", "right", 512, {})
    key = 0
    while harness.file.num_blocks == 1:
        key += 1
        harness.apply("insert", key, struct.pack("<Q", key + 1))
    harness.check_pages()
    before = harness.file.num_blocks
    held = sorted(harness.pages[harness.order[0]])
    victim = held[len(held) // 2]
    harness.apply("update", victim, struct.pack("<Q", 1 << 62))
    assert harness.file.num_blocks == before + 2
    harness.check_pages()
    assert [k for k, _ in harness.everything()] == list(range(1, key + 1))


def test_constructor_rejects_what_it_cannot_store():
    device = BlockDevice(512, NULL_DEVICE)
    pager, file = Pager(device), device.create_file("leaf")
    for kwargs in ({"data_size": 0}, {"fill": 0.01}, {"fill": 1.5},
                   {"new_leaf_side": "up"}, {"data_size": 28, "codec": "for"},
                   {"data_size": 400}):
        with pytest.raises(ValueError):
            LeafFile(pager, file, **kwargs)
    assert LeafFile(pager, file).capacity == (512 - HEADER_SIZE) // 16
