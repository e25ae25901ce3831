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
]


def archived_rows(experiment_id):
    """Parse ``format_result``'s table back into rows."""
    lines = (RESULTS / f"{experiment_id}.txt").read_text().splitlines()

    def value(cell):
        try:
            return float(cell) if "." in cell else int(cell)
        except ValueError:
            return cell

    return [dict(zip(lines[2].split(), map(value, re.split(r"\s{2,}", line.strip()))))
            for line in lines[4:] if not line.startswith("note: ")]


def test_every_check_holds_on_the_archived_rows_and_has_a_mutation():
    checked = {entry.id for entry in EXPERIMENTS.values() if entry.check}
    assert {experiment_id for experiment_id, *_ in MUTATIONS} == checked
    for experiment_id in checked:
        EXPERIMENTS[experiment_id].check(archived_rows(experiment_id))


@pytest.mark.parametrize("experiment_id, clause, where, values", MUTATIONS,
                         ids=[f"{m[0]}: {m[1]}" for m in MUTATIONS])
def test_clause_can_fail(experiment_id, clause, where, values):
    rows = archived_rows(experiment_id)
    next(row for row in rows
         if all(row[key] == wanted for key, wanted in where.items())).update(values)
    with pytest.raises(AssertionError):
        EXPERIMENTS[experiment_id].check(rows)
