"""Integration tests for compressed leaf pages (DESIGN.md Section 16).

Four properties, each checked per codec:

* **Correctness** — differential oracle streams against every index that
  accepts a ``codec`` parameter (what the compressed layouts charge is
  the recorded contract of ``tests/test_*_golden.py``).
* **Raw identity** — building with an explicit ``codec="raw"`` charges
  the exact same ``StorageStats`` and writes the exact same file bytes
  as the default parameters: the codec layer costs raw layouts nothing.
* **Durability** — compressed pages round-trip ``save_index`` /
  ``load_index``, and corrupted compressed blocks (leaf and fence alike)
  are scrub-detected and repaired byte-identical from checkpoint + WAL.
* **Plumbing** — the fence zonemap's routing contract, and the
  ``compression`` experiment.
"""

import dataclasses
import io
from bisect import bisect_left

import pytest

from repro.bench import Scale, run_experiment
from repro.core import index_names, load_index, make_index, save_index
from repro.core.codecs import get_codec
from repro.durability import WriteAheadLog, repair_blocks, take_checkpoint
from repro.models.zonemap import FenceZonemap
from repro.storage import HDD, NULL_DEVICE, BlockDevice, Pager

from tests.util import (MUTATION_KINDS, READONLY_KINDS, ReferenceModel,
                        items_of, random_sorted_keys, run_differential)

COMPRESSED = ("delta", "for")
#: Indexes with a compressed leaf layout (the others validate the codec
#: name and keep raw pages — fixed-stride model/slot addressing).
COMPRESSIBLE = ("btree", "pgm", "hybrid-pgm")
RAW_ONLY = ("fiting", "alex", "lipp", "plid")


def build(name, codec, keys, profile=NULL_DEVICE, **params):
    device = BlockDevice(4096, profile)
    index = make_index(name, Pager(device), codec=codec, **params)
    index.bulk_load(items_of(keys))
    return index, device


# -- differential correctness ----------------------------------------------

@pytest.mark.parametrize("codec", COMPRESSED)
@pytest.mark.parametrize("name", COMPRESSIBLE)
def test_compressed_stream_matches_oracle(name, codec):
    keys = random_sorted_keys(600, seed=5, key_space=10**9)
    index, _ = build(name, codec, keys)
    model = ReferenceModel(items_of(keys))
    kinds = READONLY_KINDS if "-" in name else MUTATION_KINDS
    run_differential(index, model, num_ops=400, seed=5, kinds=kinds)
    assert index.verify() == len(model)


@pytest.mark.parametrize("codec", COMPRESSED)
@pytest.mark.parametrize("name", RAW_ONLY)
def test_raw_only_indexes_accept_codec_and_stay_correct(name, codec):
    """Indexes without a compressed layout still validate the parameter
    (so a codec sweep can run every index) and behave identically."""
    keys = random_sorted_keys(300, seed=11, key_space=10**9)
    index, _ = build(name, codec, keys)
    model = ReferenceModel(items_of(keys))
    run_differential(index, model, num_ops=150, seed=11)
    with pytest.raises(ValueError, match="unknown codec"):
        build(name, "zstd", keys[:10])


def test_btree_compressed_survives_width_widening_mutations():
    """The FoR hazard cases: one far-off payload widens a whole residual
    column (update), and merged deltas can widen the key column even on
    delete — both must trigger (multi-way) splits, never corruption."""
    keys = random_sorted_keys(3000, seed=3, key_space=2**62)
    index, _ = build("btree", "for", keys)
    count = len(keys)
    # Updates that blow up the payload residual of a dense page.
    for key in keys[100:130]:
        assert index.update(key, 1)
    # Deletes from dense runs (delta-merge widening).
    for key in keys[500:560:2]:
        assert index.delete(key)
        count -= 1
    # An insert storm into one region forces repeated leaf splits.
    for i in range(700):
        index.insert(keys[-1] + 2 * i + 1, i)
        count += 1
    assert index.verify() == count
    for key in keys[100:130]:
        assert index.lookup(key) == 1


# -- raw identity ----------------------------------------------------------

def _raw_stream(name, explicit_raw):
    device = BlockDevice(4096, HDD)
    params = {"codec": "raw"} if explicit_raw else {}
    index = make_index(name, Pager(device), **params)
    keys = random_sorted_keys(400, seed=17, key_space=10**9)
    index.bulk_load(items_of(keys))
    model = ReferenceModel(items_of(keys))
    kinds = READONLY_KINDS if "-" in name else MUTATION_KINDS
    run_differential(index, model, num_ops=150, seed=17, kinds=kinds)
    files = {f.name: [bytes(b) for b in f.blocks]
             for f in device.files.values()}
    return dataclasses.asdict(device.stats), files


@pytest.mark.parametrize(
    "name", index_names(include_plid=True)
    + [n for n in index_names(include_hybrids=True) if "-" in n])
def test_explicit_raw_codec_is_bit_identical_to_default(name):
    """codec="raw" must charge identical stats AND write identical bytes
    to the pre-codec-layer default construction, on every index."""
    default_stats, default_files = _raw_stream(name, explicit_raw=False)
    raw_stats, raw_files = _raw_stream(name, explicit_raw=True)
    assert raw_stats == default_stats
    assert raw_files == default_files


# -- persistence & repair --------------------------------------------------

@pytest.mark.parametrize("codec", COMPRESSED)
@pytest.mark.parametrize("name", COMPRESSIBLE)
def test_compressed_index_save_load_roundtrip(name, codec):
    keys = random_sorted_keys(3000, seed=29)
    index, _ = build(name, codec, keys)
    assert index.init_params()["codec"] == codec
    buffer = io.BytesIO()
    save_index(index, buffer)
    buffer.seek(0)
    reopened = load_index(buffer)
    assert reopened.init_params()["codec"] == codec
    for key in keys[::97]:
        assert reopened.lookup(key) == key + 1
    assert reopened.lookup(keys[-1] + 1) is None
    assert reopened.verify() == len(keys)


@pytest.mark.parametrize("codec", COMPRESSED)
def test_btree_compressed_repair_is_byte_identical(codec):
    """Checkpoint, mutate through the WAL, corrupt compressed leaf
    blocks, scrub, repair: healed bytes equal the pristine file."""
    keys = random_sorted_keys(2000, seed=7)
    index, device = build("btree", codec, keys)
    pager = index.pager
    wal = WriteAheadLog(pager, group_commit=4)
    index.attach_wal(wal)
    ckpt = take_checkpoint(index, wal)
    for k in range(1, 99, 2):
        index.durable_insert(k, k + 1)
    wal.flush()
    leaf = index._leaf_file.name
    pristine = [bytes(b) for b in device.get_file(leaf).blocks]
    for block_no in (0, 2):
        handle = device.get_file(leaf)
        bad = bytearray(handle.blocks[block_no])
        bad[200] ^= 0x5A
        handle.blocks[block_no] = bad
    report = pager.scrub()
    assert sorted(report.bad_blocks) == [(leaf, 0), (leaf, 2)]
    result = repair_blocks(index, ckpt, report.bad_blocks, wal)
    assert sorted(result.repaired) == [(leaf, 0), (leaf, 2)]
    healed = [bytes(b) for b in device.get_file(leaf).blocks]
    assert healed == pristine
    assert pager.scrub().clean
    assert index.verify() == len(keys) + 49


@pytest.mark.parametrize("name", ("pgm", "hybrid-pgm"))
def test_compressed_fence_and_data_repair(name):
    """Corrupt one block of every compressed file (fence pages included)
    and verify scrub + repair restore each byte-identically."""
    keys = random_sorted_keys(2000, seed=13)
    index, device = build(name, "for", keys)
    pager = index.pager
    wal = WriteAheadLog(pager, group_commit=4)
    index.attach_wal(wal)
    ckpt = take_checkpoint(index, wal)
    targets = [fname for fname, role in index.file_roles().items()
               if device.get_file(fname).num_blocks > 0]
    pristine = {fname: [bytes(b) for b in device.get_file(fname).blocks]
                for fname in targets}
    for fname in targets:
        handle = device.get_file(fname)
        block_no = handle.num_blocks - 1
        bad = bytearray(handle.blocks[block_no])
        bad[3] ^= 0xFF
        handle.blocks[block_no] = bad
    report = pager.scrub()
    assert len(report.bad_blocks) == len(targets)
    repair_blocks(index, ckpt, report.bad_blocks, wal)
    for fname in targets:
        healed = [bytes(b) for b in device.get_file(fname).blocks]
        assert healed == pristine[fname], fname
    assert pager.scrub().clean
    assert index.verify() == len(keys)
    for key in keys[::101]:
        assert index.lookup(key) == key + 1


# -- fence zonemap ---------------------------------------------------------

def _zonemap_over(fences, codec="for", block_size=256):
    device = BlockDevice(block_size, HDD)
    pager = Pager(device)
    file = device.create_file("fences")
    return FenceZonemap.build(pager, file, fences, codec), device


def test_zonemap_routes_like_a_ceiling_search():
    fences = [10 * i + 5 for i in range(1000)]  # multi-page under 256B blocks
    zonemap, _ = _zonemap_over(fences)
    assert zonemap.num_blocks > 1
    assert zonemap.verify() == len(fences)
    probes = list(range(0, 10_020, 7)) + [0, fences[-1], fences[-1] + 1]
    for key in probes:
        expected = bisect_left(fences, key)
        got = zonemap.route(key)
        assert got == (expected if expected < len(fences) else None), key
    batched = zonemap.route_many(probes)
    assert batched == {key: zonemap.route(key) for key in probes}


def test_zonemap_route_many_charges_one_span():
    fences = [10 * i + 5 for i in range(1000)]
    zonemap, device = _zonemap_over(fences)
    probes = list(range(0, 10_000, 11))

    before = device.stats.snapshot()
    batched = zonemap.route_many(probes)
    delta = device.stats.diff(before)

    assert batched == {key: bisect_left(fences, key) if key <= fences[-1]
                       else None for key in probes}
    # One coalesced span over every fence page: one positioning, against
    # one per page for key-by-key routing.
    assert (delta.reads, delta.read_positionings) == (zonemap.num_blocks, 1)


def test_zonemap_meta_roundtrip_and_verify_catches_drift():
    fences = [3, 7, 100, 2**62]
    zonemap, device = _zonemap_over(fences, block_size=4096)
    meta = zonemap.to_meta()
    attached = FenceZonemap.attach(zonemap.pager, zonemap.file, "for", meta)
    assert attached.route(8) == 2
    assert attached.verify() == 4
    attached.page_lasts[-1] -= 1  # in-memory boundary out of sync
    with pytest.raises(AssertionError):
        attached.verify()


# -- bench plumbing --------------------------------------------------------

TINY = Scale(n_read=3000, n_write_bulk=1200, n_write_ops=500,
             n_lookup_ops=80, n_scan_ops=10)


def test_compression_experiment_shape():
    # A 4-frame pool: at this toy scale a larger pool absorbs the whole
    # index and every cell degenerates to zero charged reads.
    result = run_experiment("compression", TINY, buffer_blocks=4)
    cells = {(r["device"], r["index"], r["codec"]) for r in result.rows}
    assert len(cells) == len(result.rows) == 2 * 3 * 3
    for row in result.rows:
        if row["codec"] == "raw":
            assert row["entries_ratio"] == 1.0
            assert row["blocks_ratio"] == 1.0
            assert row["decoded_entries_per_lookup"] == 0.0
        else:
            # Compression never loses density, even at tiny scale.
            assert row["entries_ratio"] > 1.0
            assert row["blocks_ratio"] <= 1.0
            assert row["decoded_entries_per_lookup"] > 0.0
        assert row["model_us_per_lookup"] > 0
        assert row["sim_us_per_lookup"] > 0


def test_compression_experiment_survives_full_caching():
    """The 32-frame pool floor absorbs the whole toy index — zero
    charged reads must report ratio 1.0, not divide by zero."""
    result = run_experiment("compression", TINY)
    for row in result.rows:
        assert row["blocks_per_lookup"] == 0.0
        assert row["blocks_ratio"] == 1.0
