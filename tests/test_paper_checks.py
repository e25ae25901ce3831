"""Gates that can fail: every clause of every table entry's ``check``
holds on the archived rows (``benchmarks/results/<id>.txt``) and turns
red on one named mutation of them."""

import pathlib
import re

import pytest

from repro.bench import EXPERIMENTS

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"

HDD_WRITES = {"device": "hdd", "workload": "write_only", "dataset": "fb"}
SSD_WRITES = {"device": "ssd", "workload": "write_only", "dataset": "fb"}
FB_LOOKUPS = {"workload": "lookup_only", "dataset": "fb"}

#: (experiment id, the clause, which row (first match), the values that break it)
MUTATIONS = [
    ("table2", "every cell under 12 blocks", {}, {"measured_blocks": 12}),
    ("table3", "FB has the most eps-64 segments", {"dataset": "osm"}, {"seg@64": 322}),
    ("table3", "OSM has the largest conflict degree", {"dataset": "genome"}, {"conflict_degree": 3180}),
    ("table3", "YCSB under a tenth of FB's segments", {"dataset": "ycsb"}, {"seg@64": 33}),
    ("fig3", "SSD above its HDD twin", {"device": "ssd", "workload": "scan_only", "dataset": "osm"}, {"btree": 0.0}),
    ("fig3", "LIPP >= B+-tree on YCSB lookups", {"device": "hdd", "workload": "lookup_only", "dataset": "ycsb"}, {"lipp": 0.0}),
    ("table4", "B+-tree reads one leaf block per lookup", {**FB_LOOKUPS, "index": "btree"}, {"leaf_blocks": 1.01}),
    ("table4", "LIPP fetches the most blocks per scan", {"workload": "scan_only", "index": "lipp"}, {"total_blocks": 0.0}),
    ("table5", "hybrid scans within 3 blocks of lookups", {"dataset": "fb", "index": "hybrid-lipp"}, {"scan_blocks": 99.0}),
    ("fig5", "PGM beats every learned index on Write-Only", SSD_WRITES, {"lipp": 2940.0}),
    ("fig5", "PGM beats the B+-tree on HDD", HDD_WRITES, {"btree": 51.9}),
    ("fig5", "PGM within 15% of the B+-tree on SSD", SSD_WRITES, {"pgm": 2600.0}),
    ("fig6", "LIPP's maintenance above btree/fiting/pgm", {"dataset": "ycsb", "index": "lipp"}, {"maintenance_us": 0.0}),
    ("fig7", "PGM the smallest", {"dataset": "ycsb", "index": "fiting"}, {"size_mib": 1.5}),
    ("fig7", "LIPP the largest", {"dataset": "osm", "index": "lipp"}, {"size_mib": 2.0}),
    ("fig7", "LIPP builds slower than the B+-tree", {"dataset": "fb", "index": "lipp"}, {"bulkload_sim_s": 0.06}),
    ("fig8", "ALEX below the best of btree/fiting/pgm", {"device": "hdd", "workload": "lookup_only"}, {"alex": 1e9}),
    ("fig9", "B+-tree wins balanced", {"device": "ssd", "workload": "balanced", "dataset": "osm"}, {"fiting": 6321.1}),
    ("fig10", "smallest two are PGM and the B+-tree", {"dataset": "osm", "index": "fiting"}, {"allocated_mib": 0.5}),
    ("fig10", "LIPP the largest", {"dataset": "ycsb", "index": "fiting"}, {"allocated_mib": 36.0}),
    ("fig11", "LIPP within one block across sizes", {"index": "lipp"}, {"16k": 0.0}),
    ("fig11", "larger blocks never fetch more", {"index": "pgm"}, {"16k": 9.0}),
    ("fig12", "B+-tree minimal p99 on FB lookups", {**FB_LOOKUPS, "index": "fiting"}, {"p99_us": 1.0}),
    ("fig12", "B+-tree std within 10% of the minimum", {**FB_LOOKUPS, "index": "pgm"}, {"std_us": 100.0}),
    ("fig12", "ALEX std > 5x the B+-tree's", {**FB_LOOKUPS, "index": "alex"}, {"std_us": 1000.0}),
    ("fig12", "LIPP std > 5x the B+-tree's", {**FB_LOOKUPS, "index": "lipp"}, {"std_us": 1000.0}),
    ("fig13", "LIPP the minimum at buffer 0 on YCSB", {"dataset": "ycsb", "index": "lipp"}, {"buf0": 2.49}),
    ("fig13", "LIPP not the minimum at 512 blocks", {"dataset": "fb", "index": "lipp"}, {"buf512": 0.0}),
    ("fig13", "buffers never increase fetched blocks", {"dataset": "osm", "index": "alex"}, {"buf512": 4.6}),
    ("fig14", "B+-tree >= 0.6 on scans", {"dataset": "ycsb", "workload": "scan_only"}, {"btree": 0.59}),
    ("fig14", "PGM = 1.0 on Write-Only", {"dataset": "fb", "workload": "write_only"}, {"pgm": 0.999}),
    ("ablation-alex-layout", "Layout#2 never fetches more", {}, {"layout2_blocks": 99.0}),
    ("ablation-fiting-segmentation", "streaming <= greedy segments", {}, {"streaming_segments": 10**9}),
    ("ablation-fiting-segmentation", "streaming <= greedy storage", {}, {"streaming_size_mib": 999.0}),
    ("ablation-error-bound", "eps=1024 never beats eps=64", {}, {"eps1024": 0.0}),
    ("scalability", "4x keys add at most 2.5 blocks", {}, {"4x_blocks": 99.0}),
    ("zipfian-buffer", "zipfian fetches fewer blocks", {}, {"zipfian_blocks": 99.0}),
    ("zipfian-buffer", "skew benefit above 50%", {}, {"skew_benefit_pct": 50.0}),
    ("plid", "PLID >= 0.9 B+-tree on lookups", {"workload": "lookup_only"}, {"plid": 0.0}),
    ("plid", "PLID > 0.95 of the best learned index on scans", {"workload": "scan_only"}, {"pgm": 1e9}),
    ("buffer-policy", "CLOCK within 1.5x of LRU", {}, {"clock_blocks": 9.0}),
    ("durability", "log blocks per op fall as the batch grows", {"device": "hdd", "index": "btree", "batch": 8}, {"log_blocks_per_op": 1.0}),
    ("durability", "throughput never drops as the batch grows", {"device": "hdd", "index": "btree", "batch": 8}, {"ops_per_s": 50.0}),
    ("durability", "recovery pays simulated I/O", {"device": "ssd", "index": "btree", "batch": 1}, {"recovery_ms": 0.0}),
    ("durability", "recovery replays the log", {"device": "hdd", "index": "alex", "batch": 64}, {"replayed": 0}),
    ("durability", "SSD recovers faster than HDD", {"device": "ssd", "index": "btree", "batch": 8}, {"recovery_ms": 400000.0}),
    ("batch_lookup", "blocks per op fall as the batch grows", {"device": "hdd", "index": "btree", "batch": 8}, {"blocks_per_op": 3.0}),
    ("batch_lookup", "positionings per op fall as the batch grows", {"device": "hdd", "index": "btree", "batch": 8}, {"positionings_per_op": 3.0}),
    ("batch_lookup", "the largest batch beats batch 1", {"device": "ssd", "index": "alex", "batch": 256}, {"ops_per_s": 4036.2}),
    ("write_back", "write-back never charges more write positionings", {"device": "hdd", "workload": "balanced", "index": "lipp", "mode": "back"}, {"write_positionings": 16835}),
    ("write_back", "write-back >= 2x fewer write positionings on write_heavy", {"device": "hdd", "workload": "write_heavy", "index": "lipp", "mode": "back"}, {"write_positionings": 20000}),
    ("write_back", "write-back is faster", {"device": "ssd", "workload": "balanced", "index": "lipp", "mode": "back"}, {"ops_per_s": 5290.3}),
    ("fault_sweep", "the zero-rate row counts no retry, failure or repair", {"device": "ssd", "index": "alex", "transient_rate": 0.0}, {"healed_faults": 1}),
    ("fault_sweep", "retries grow with the injected rate", {"device": "hdd", "index": "btree", "transient_rate": 0.001}, {"io_retries": 2}),
    ("fault_sweep", "bit rot is caught at every faulted rate", {"device": "hdd", "index": "alex", "transient_rate": 0.0001}, {"checksum_failures": 0}),
    ("fault_sweep", "every faulted cell healed", {"device": "ssd", "index": "btree", "transient_rate": 0.01}, {"healed_faults": 0}),
    ("fault_sweep", "every faulted cell rewrote blocks", {"device": "ssd", "index": "btree", "transient_rate": 0.01}, {"repaired_blocks": 0}),
    ("concurrency", "one client flushes once per write", {"device": "hdd", "index": "btree", "clients": 1}, {"flushes_per_write": 0.9}),
    ("concurrency", "every 4x more clients at least halve flushes per write", {"device": "ssd", "index": "alex", "clients": 16}, {"flushes_per_write": 0.2}),
    ("concurrency", "p99 within (10 + clients/2) x p50", {"device": "hdd", "index": "alex", "clients": 4}, {"p99_us": 1e9}),
    ("concurrency", "commit groups hold half the clients' writes", {"device": "ssd", "index": "btree", "clients": 64}, {"mean_commit_group": 31.0}),
    ("concurrency", "every cell serves snapshot reads", {"device": "ssd", "index": "hybrid-alex", "clients": 1}, {"snapshot_reads": 0}),
    ("sharding", "more shards never charge more positionings", {"section": "scaleout", "device": "hdd", "distribution": "zipfian", "shards": 4}, {"read_pos_per_op": 0.01}),
    ("sharding", "4 shards at least halve uniform positionings", {"section": "scaleout", "device": "ssd", "distribution": "uniform", "shards": 4}, {"read_pos_per_op": 0.5}),
    ("sharding", "replica fan-out leaves p99 no worse", {"section": "replicas", "replicas": 3}, {"p99_us": 16080.1}),
    ("sharding", "replica fan-out serves the same reads", {"section": "replicas", "replicas": 3}, {"reads_served": 999}),
    ("sharding", "the tuner assigns at least two classes", {"config": "divergent"}, {"composition": "btree,btree,btree"}),
    ("sharding", "the divergent tier beats every uniform one", {"config": "divergent"}, {"total_positionings": 4934}),
    ("compression", "FoR packs >= 2x the entries per leaf block", {"device": "hdd", "index": "btree", "codec": "for"}, {"entries_ratio": 1.99}),
    ("compression", "FoR charges <= 70% of raw's read blocks", {"device": "ssd", "index": "hybrid-pgm", "codec": "for"}, {"blocks_ratio": 0.71}),
    ("chaos", "no acknowledged write is lost", {"section": "failover", "device": "ssd"}, {"lost_acked": 1}),
    ("chaos", "zero-rate rows are counter-clean", {"section": "sweep", "device": "ssd", "replicas": 3, "fault_rate": 0.0}, {"quarantined": 1}),
    ("chaos", "a crashed replica is hedged around", {"section": "resync", "device": "hdd"}, {"hedged_reads": 0}),
    ("chaos", "a crashed replica rejoins by resync", {"section": "resync", "device": "ssd"}, {"resyncs": 0}),
    ("chaos", "resync replays log blocks", {"section": "resync", "device": "hdd"}, {"resync_blocks": 0}),
    ("chaos", "a crashed primary fails over", {"section": "failover", "device": "hdd"}, {"failovers": 0}),
    ("chaos", "writes are acknowledged across failover", {"section": "failover", "device": "ssd"}, {"acked_writes": 0}),
]


def archived_rows(experiment_id):
    """Parse ``format_result``'s table back into rows: each cell is cut
    at its header column's offsets, and a blank cell is a column the row
    does not have."""
    lines = (RESULTS / f"{experiment_id}.txt").read_text().splitlines()
    header = lines[2]
    starts = [match.start() for match in re.finditer(r"\S+", header)]
    spans = list(zip(starts, starts[1:] + [None]))

    def value(cell):
        if cell == "None":
            return None
        try:
            return float(cell) if "." in cell else int(cell)
        except ValueError:
            return cell

    rows = []
    for line in lines[4:]:
        if line.startswith("note: "):
            continue
        cells = (line[start:end].strip() for start, end in spans)
        rows.append({name: value(cell) for name, cell in zip(header.split(), cells)
                     if cell})
    return rows


def test_every_check_holds_on_the_archived_rows_and_has_a_mutation():
    assert {experiment_id for experiment_id, *_ in MUTATIONS} == set(EXPERIMENTS)
    for experiment_id in EXPERIMENTS:
        EXPERIMENTS[experiment_id].check(archived_rows(experiment_id))


@pytest.mark.parametrize("experiment_id, clause, where, values", MUTATIONS,
                         ids=[f"{m[0]}: {m[1]}" for m in MUTATIONS])
def test_clause_can_fail(experiment_id, clause, where, values):
    rows = archived_rows(experiment_id)
    next(row for row in rows
         if all(row.get(key) == wanted for key, wanted in where.items())).update(values)
    with pytest.raises(AssertionError):
        EXPERIMENTS[experiment_id].check(rows)
