"""Integration tests asserting the paper's key observations (O1-O18).

These run the real experiment pipeline at a reduced scale and check the
*shape* of each result: who wins, who loses, which direction a knob
moves a metric.  They are the executable form of EXPERIMENTS.md.
"""

import pytest

from repro.bench import Scale, fresh_index
from repro.stack import StackSpec
from repro.storage import HDD
from repro.workloads import run_workload

SCALE = Scale(n_read=60_000, n_write_bulk=8_000, n_write_ops=6_000,
              n_lookup_ops=500, n_scan_ops=60)

INDEXES = ("btree", "fiting", "pgm", "alex", "lipp")


def throughput(index_name, dataset, workload, **kwargs):
    setup = fresh_index(StackSpec(index_name, **kwargs), dataset, workload, SCALE)
    result = run_workload(setup.index, setup.ops, workload=workload)
    return result


@pytest.fixture(scope="module")
def lookup_results():
    return {
        (name, ds): throughput(name, ds, "lookup_only")
        for name in INDEXES for ds in ("ycsb", "fb")
    }


@pytest.fixture(scope="module")
def write_results():
    return {
        (name, ds): throughput(name, ds, "write_only")
        for name in INDEXES for ds in ("ycsb", "fb")
    }


def test_o2_lipp_wins_lookups_on_easy_data(lookup_results):
    """O2: LIPP outperforms the others on Lookup-Only (easy datasets)."""
    ycsb = {name: lookup_results[(name, "ycsb")] for name in INDEXES}
    assert ycsb["lipp"].blocks_read_per_op == min(
        r.blocks_read_per_op for r in ycsb.values())


def test_o3_btree_lookup_cost_is_dataset_independent(lookup_results):
    """O3: the B+-tree fetches the same blocks whatever the data."""
    assert lookup_results[("btree", "ycsb")].blocks_read_per_op == (
        pytest.approx(lookup_results[("btree", "fb")].blocks_read_per_op, abs=0.1))


def test_o3_learned_indexes_fluctuate_with_hardness(lookup_results):
    """O3: learned index lookup cost degrades on harder datasets."""
    for name in ("alex", "lipp"):
        assert (lookup_results[(name, "fb")].blocks_read_per_op
                > lookup_results[(name, "ycsb")].blocks_read_per_op)


def test_o4_o5_btree_wins_scans():
    """O4/O5: the B+-tree wins Scan-Only; ALEX and LIPP are the worst.

    One scale artifact: at 200M keys PGM pays several descriptor levels
    per scan, at our scaled N its level stack fits one block, so the
    PGM-vs-B+-tree gap closes on the easiest dataset.  The robust shape
    is: B+-tree beats every learned index on the hard dataset, beats
    FITing/ALEX/LIPP everywhere, and ALEX+LIPP are the two worst.
    """
    for dataset in ("ycsb", "fb"):
        results = {name: throughput(name, dataset, "scan_only") for name in INDEXES}
        blocks = {name: r.blocks_read_per_op for name, r in results.items()}
        for name in ("fiting", "alex", "lipp"):
            assert blocks["btree"] < blocks[name], (dataset, name)
        worst_two = sorted(blocks, key=blocks.get)[-2:]
        assert set(worst_two) == {"alex", "lipp"}, dataset
        if dataset == "fb":
            assert blocks["btree"] == min(blocks.values())


def test_o6_pgm_wins_write_only(write_results):
    """O6: PGM significantly outperforms everything on Write-Only."""
    for ds in ("ycsb", "fb"):
        best = max(INDEXES, key=lambda n: write_results[(n, ds)].throughput_ops_per_s)
        assert best == "pgm"


def test_o7_btree_beats_remaining_learned_indexes_on_writes(write_results):
    """O7: other than PGM, the B+-tree wins the Write-Only workload."""
    for ds in ("ycsb", "fb"):
        btree = write_results[("btree", ds)].throughput_ops_per_s
        for name in ("fiting", "alex", "lipp"):
            assert btree > write_results[(name, ds)].throughput_ops_per_s


def test_o9_btree_first_or_second_in_mixed_workloads():
    """O9: the B+-tree ranks first or second on every mixed workload."""
    for workload in ("read_heavy", "balanced"):
        results = {name: throughput(name, "fb", workload) for name in INDEXES}
        ranked = sorted(results, key=lambda n: -results[n].throughput_ops_per_s)
        assert "btree" in ranked[:2], (workload, ranked)


def test_o10_pgm_degrades_as_read_ratio_grows():
    """O10: PGM's rank drops from write-heavy to read-heavy workloads."""
    write_heavy = {name: throughput(name, "ycsb", "write_heavy") for name in INDEXES}
    read_heavy = {name: throughput(name, "ycsb", "read_heavy") for name in INDEXES}
    rank_wh = sorted(write_heavy, key=lambda n: -write_heavy[n].throughput_ops_per_s)
    rank_rh = sorted(read_heavy, key=lambda n: -read_heavy[n].throughput_ops_per_s)
    assert rank_wh.index("pgm") < rank_rh.index("pgm")


def test_o11_pgm_smallest_lipp_largest_storage():
    """O11: PGM has the smallest and LIPP the largest index size."""
    sizes = {}
    for name in INDEXES:
        setup = fresh_index(StackSpec(name), "fb", "lookup_only", SCALE)
        sizes[name] = setup.device.allocated_bytes
    assert sizes["pgm"] == min(sizes.values())
    assert sizes["lipp"] == max(sizes.values())


def test_o14_memory_resident_inner_barely_helps_pgm():
    """O14: pinning inner nodes speeds up the B+-tree's writes far more
    than PGM's (PGM's write path never touches its inner levels)."""
    def speedup(name):
        disk = throughput(name, "ycsb", "write_only").throughput_ops_per_s
        resident = throughput(name, "ycsb", "write_only",
                              inner_memory_resident=True).throughput_ops_per_s
        return resident / disk

    assert speedup("btree") > speedup("pgm") + 0.05


def test_o15_btree_wins_everything_with_resident_inner():
    """O15: with inner nodes in memory the B+-tree beats the learned
    indexes on write workloads (LIPP excluded per the paper)."""
    names = [n for n in INDEXES if n != "lipp"]
    for workload in ("write_only", "balanced"):
        results = {
            name: throughput(name, "ycsb", workload, inner_memory_resident=True)
            for name in names
        }
        best = max(names, key=lambda n: results[n].throughput_ops_per_s)
        assert best in ("btree", "pgm")
        if workload == "balanced":
            assert best == "btree"


def test_o17_block_size_helps_everyone_but_lipp():
    """O17: larger blocks cut fetched blocks for B+-tree/FITing/PGM/ALEX
    but LIPP's exact predictions leave nothing to batch."""
    def blocks(name, block_size):
        setup = fresh_index(StackSpec(name, block_size=block_size),
                            "fb", "lookup_only", SCALE)
        return run_workload(setup.index, setup.ops).blocks_read_per_op

    for name in ("btree", "pgm"):
        assert blocks(name, 16384) < blocks(name, 4096)
    lipp_delta = blocks("lipp", 4096) - blocks("lipp", 16384)
    assert lipp_delta <= 0.75  # essentially flat


def test_o18_btree_has_smallest_lookup_p99():
    """O18: the B+-tree's p99 lookup latency beats the learned indexes."""
    results = {name: throughput(name, "fb", "lookup_only") for name in INDEXES}
    p99 = {name: r.p99_latency_us for name, r in results.items()}
    assert p99["btree"] == min(p99.values())


def test_buffer_study_lipp_best_at_zero_then_overtaken():
    """Section 6.6: LIPP fetches fewest blocks with no buffer, but a
    large LRU buffer favors the small-upper-level indexes."""
    def blocks(name, buffer_blocks):
        setup = fresh_index(StackSpec(name, buffer_blocks=buffer_blocks),
                            "ycsb", "lookup_only", SCALE)
        return run_workload(setup.index, setup.ops).blocks_read_per_op

    no_buffer = {name: blocks(name, 0) for name in INDEXES}
    assert no_buffer["lipp"] == min(no_buffer.values())
    big_buffer = {name: blocks(name, 512) for name in INDEXES}
    assert big_buffer["lipp"] > min(big_buffer.values())
