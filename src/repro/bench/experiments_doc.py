"""Generate EXPERIMENTS.md from archived benchmark results.

``python -m repro.bench report`` stitches the paper's expected outcome
for every table/figure together with the measured rows archived by the
benchmark suite under ``benchmarks/results/``, producing the
paper-vs-measured record the repository ships as EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional

__all__ = ["render_experiments_md", "PAPER_EXPECTATIONS"]

#: Per experiment: (paper artifact, what the paper reports, the shape that
#: must reproduce, known scale caveats).
PAPER_EXPECTATIONS: Dict[str, Dict[str, str]] = {
    "table2": {
        "artifact": "Table 2",
        "paper": "Worst-case I/O cost formulas per index (lookup/scan/insert).",
        "shape": "Measured lookup block counts stay within the formulas' "
                 "magnitude (a smoke bound: every cell under 12 blocks; "
                 "the per-index bound is ROADMAP item 5).",
    },
    "table3": {
        "artifact": "Table 3",
        "paper": "Dataset profiling: PLA segments at eps 16/64/256/1024, "
                 "B+-tree leaf count, FMCD conflict degree. FB hardest for "
                 "PLA; OSM the largest conflict degree; YCSB/Stack easiest.",
        "shape": "Same orderings on the synthetic datasets: FB max segments, "
                 "OSM max conflict degree (>2x genome), YCSB/Stack minimal "
                 "on both metrics.",
    },
    "fig3": {
        "artifact": "Figure 3",
        "paper": "Lookup/scan throughput, all-disk, HDD+SSD. Learned indexes "
                 "competitive on lookups (LIPP best); B+-tree wins scans.",
        "shape": "LIPP >= B+-tree on YCSB lookups; B+-tree tops scans; every "
                 "SSD number strictly above its HDD twin.",
    },
    "table4": {
        "artifact": "Table 4 / Figure 4",
        "paper": "Fetched blocks split into inner/leaf. B+-tree: 3 inner + 1 "
                 "leaf. FITing/PGM leaf ~1.2; ALEX >= 2 leaf blocks (model "
                 "and slot in different blocks); LIPP ~20-30 blocks per scan.",
        "shape": "B+-tree exactly 1 leaf block per lookup; ALEX >= 2 leaf "
                 "blocks; LIPP the scan maximum by a wide margin.",
    },
    "table5": {
        "artifact": "Table 5",
        "paper": "Hybrid design (learned inner + B+-tree leaves): similar or "
                 "better than B+-tree on FB/YCSB; fixes ALEX/LIPP scans.",
        "shape": "Hybrid ALEX/LIPP scan within ~2 blocks of their lookups "
                 "(vs 10-60 blocks for the originals).",
    },
    "fig5": {
        "artifact": "Figure 5",
        "paper": "Write workloads: PGM wins Write-Only everywhere; B+-tree "
                 "beats the other learned indexes; ALEX/LIPP collapse.",
        "shape": "PGM wins Write-Only on HDD and beats every learned index "
                 "on SSD. Scale caveat: our 3-level B+-tree (paper: 4) ties "
                 "PGM on the SSD profile.",
    },
    "fig6": {
        "artifact": "Figure 6",
        "paper": "Insert step breakdown: LIPP dominated by maintenance "
                 "(path statistics) and SMO; ALEX by insertion+bitmap; PGM "
                 "cheapest search.",
        "shape": "LIPP's maintenance latency above the B+-tree's, "
                 "FITing-tree's and PGM's on FB and YCSB. (\"PGM cheapest "
                 "search\" is not checked: neither its insert nor the "
                 "B+-tree's enters the search phase, both columns are 0.0 "
                 "- README, Known gaps.)",
    },
    "fig7": {
        "artifact": "Figure 7",
        "paper": "Bulkload: learned indexes build slower and bigger; PGM "
                 "smallest, LIPP largest (gapped 5x slot allocation).",
        "shape": "Size: PGM < B+-tree < FITing < ALEX << LIPP; LIPP builds "
                 "slowest.",
    },
    "fig8": {
        "artifact": "Figure 8",
        "paper": "Inner nodes memory-resident: FITing/PGM competitive with "
                 "B+-tree on search; ALEX is not (its leaves still cost 2+ "
                 "blocks). LIPP excluded (single node type, multi-GB root).",
        "shape": "ALEX below the best of B+-tree/FITing/PGM on lookups.",
    },
    "fig9": {
        "artifact": "Figure 9",
        "paper": "Inner nodes memory-resident, write workloads: B+-tree "
                 "outperforms everything (O15).",
        "shape": "B+-tree wins the balanced workload on every dataset/device.",
    },
    "fig10": {
        "artifact": "Figure 10",
        "paper": "Storage after Write-Only: PGM and B+-tree smallest "
                 "(reclaimable space), LIPP up to 20x larger.",
        "shape": "Smallest two = {PGM, B+-tree}; LIPP the largest.",
    },
    "fig11": {
        "artifact": "Figure 11",
        "paper": "Block size 4->16 KiB reduces fetched blocks for B+-tree/"
                 "FITing/PGM/ALEX; LIPP flat (exact predictions).",
        "shape": "Monotone non-increasing for all but LIPP; LIPP within 1 "
                 "block across sizes.",
    },
    "fig12": {
        "artifact": "Figure 12",
        "paper": "Tail latency: B+-tree smallest, most stable p99; ALEX/LIPP "
                 "large deviations (unbalanced structure, SMO spikes).",
        "shape": "B+-tree minimal p99 on FB and minimal std everywhere; "
                 "ALEX/LIPP std > 5x B+-tree on hard datasets. Scale caveat: "
                 "PGM's shallow level stack lets it tie p99 on OSM.",
    },
    "fig13": {
        "artifact": "Figure 13",
        "paper": "LRU buffer sweep: LIPP fewest blocks at buffer 0; beyond "
                 "~8 blocks the small-upper-level indexes overtake it.",
        "shape": "LIPP min at buffer 0 (YCSB); LIPP not the minimum at 512 "
                 "blocks; buffers never increase fetched blocks.",
    },
    "fig14": {
        "artifact": "Figure 14",
        "paper": "Normalized throughput, all six workloads on YCSB+FB: "
                 "except Lookup-Only, B+-tree competitive or best.",
        "shape": "B+-tree >= 0.6 normalized on scan/read-heavy/balanced; "
                 "PGM = 1.0 on Write-Only.",
    },
    "ablation-alex-layout": {
        "artifact": "Section 4.1 (prose)",
        "paper": "ALEX Layout#2 0.5%-30% faster than Layout#1 on lookups.",
        "shape": "Layout#2 never fetches more blocks; speedups up to ~30% "
                 "on the hard datasets, ~0% on YCSB.",
    },
    "ablation-fiting-segmentation": {
        "artifact": "Section 4.2 (prose)",
        "paper": "The port replaces greedy segmentation with PGM's optimal "
                 "streaming algorithm.",
        "shape": "Streaming produces <= greedy's segment count and storage.",
    },
    "ablation-error-bound": {
        "artifact": "Section 5.3 (prose)",
        "paper": "Error bound 64 chosen: best across the majority of cases.",
        "shape": "eps=1024 never beats eps=64 on lookup blocks.",
    },
    "scalability": {
        "artifact": "Section 5.1 (800M dataset)",
        "paper": "The 4x OSM dataset for scalability.",
        "shape": "Lookup blocks grow at most logarithmically over 4x keys.",
    },
    "zipfian-buffer": {
        "artifact": "Extension (P5)",
        "paper": "—",
        "shape": "Zipfian access turns a small LRU buffer into a ~90% "
                 "fetch reduction for every index.",
    },
    "plid": {
        "artifact": "Section 7.2 (P1-P5, future work)",
        "paper": "Proposes four design principles + buffer co-design for "
                 "future on-disk learned indexes; builds none.",
        "shape": "PLID (the principles instantiated) beats every *learned* "
                 "index on scans and mixed workloads and matches or beats "
                 "the B+-tree on lookups — the sweet spot the paper "
                 "conjectures exists.",
    },
    "buffer-policy": {
        "artifact": "Extension (Section 6.6)",
        "paper": "The paper fixes LRU.",
        "shape": "CLOCK tracks LRU closely; FIFO slightly worse.",
    },
    "durability": {
        "artifact": "Extension (durability subsystem)",
        "paper": "The paper evaluates clean runs only; disk-resident "
                 "deployments need logging/recovery (cf. Abu-Libdeh et "
                 "al.'s Google-scale disk-based learned index).",
        "shape": "Log blocks per op fall as 1/batch (1.0 -> 0.125 -> "
                 "0.016 for batches 1/8/64) and throughput rises "
                 "monotonically; WAL-replay recovery pays real simulated "
                 "I/O and is faster on SSD than HDD.",
    },
    "batch_lookup": {
        "artifact": "Extension (batched execution engine)",
        "paper": "The paper executes one query at a time; its Table 2 "
                 "cost model separates positioning (t_s) from sequential "
                 "transfer (t_t), which batching exploits.",
        "shape": "Blocks/op and positionings/op fall monotonically as the "
                 "batch grows (shared descents + coalesced leaf runs); "
                 "results are byte-identical at every batch size.",
    },
    "write_back": {
        "artifact": "Extension (write-back buffer pool)",
        "paper": "The paper writes through on every block write; its "
                 "Table 2 t_s/t_t split applies equally to writes, and "
                 "the authors' follow-up on-disk designs buffer writes "
                 "and flush them in bulk.",
        "shape": "Write-back charges >= 2x fewer write positionings than "
                 "write-through on the write-heavy workload for btree/"
                 "alex/lipp (never more on any cell), with validated, "
                 "byte-identical answers; throughput rises accordingly.",
    },
    "fault_sweep": {
        "artifact": "Extension (self-healing storage)",
        "paper": "The paper assumes a faithful device; production "
                 "disk-resident stores checksum every block and repair "
                 "from redundancy (cf. ARIES-style media recovery).",
        "shape": "The zero-rate row has zero retries/failures/repairs and "
                 "checksums add zero extra block accesses; as the "
                 "transient rate sweeps 1e-4 -> 1e-2, retries grow "
                 "roughly proportionally while every detected corruption "
                 "is repaired from checkpoint + WAL redo with no lost "
                 "acknowledged writes and throughput degrades gracefully.",
    },
    "concurrency": {
        "artifact": "Extension (concurrent multi-client serving)",
        "paper": "The paper drives each index with a single client "
                 "stream; a disk-resident DBMS serves many sessions over "
                 "one shared index, where group commit and latching "
                 "dominate (cf. its Section 7 discussion of DBMS "
                 "integration).",
        "shape": "Cross-client group commit amortizes log flushes: "
                 "flushes per committed write fall monotonically from "
                 "1.0 at one client to <= 1/4 of that by 64 clients on "
                 "every device/index cell. Latch-stall time grows with "
                 "client count under zipfian skew while snapshot reads "
                 "charge zero latch-wait at every cell; client-perceived "
                 "p99 widens with contention even though per-op device "
                 "work is unchanged.",
    },
    "sharding": {
        "artifact": "Extension (sharded, replicated storage tier)",
        "paper": "The paper evaluates one index on one disk; its design-"
                 "choice rules (P1-P5) are per-workload, which a "
                 "partitioned DBMS can apply per key range — different "
                 "index classes on different shards of one table.",
        "shape": "Scale-out: charged read positionings per uniform "
                 "lookup fall >= 2x at 4 shards (aggregate per-shard "
                 "pools) and monotonically with the shard count on every "
                 "device/distribution cell. Replica read fan-out over "
                 "identical copies leaves p99 unchanged. Under a skewed "
                 "mixed stream the P1-P5 tuner assigns divergent "
                 "per-shard classes (read-only range -> hybrid, "
                 "read-heavy -> ALEX, write-heavy -> B+-tree) and the "
                 "divergent tier charges less total positioning I/O "
                 "than any uniform writable choice; routing through a "
                 "1-shard tier charges zero extra positionings.",
    },
    "compression": {
        "artifact": "Extension (compressed leaf pages)",
        "paper": "The SIGMOD 2024 follow-up (\"Making In-Memory Learned "
                 "Indexes Efficient on Disk\") identifies page compression "
                 "as the biggest remaining lever for disk-resident learned "
                 "indexes: packing more entries per block shrinks the leaf "
                 "file and the I/O per lookup.",
        "shape": "FoR packs >= 2x the entries per leaf block on "
                 "btree/pgm/hybrid (delta hovers at ~2x) and, against the "
                 "same fixed-size buffer pool, charges <= 70% of the raw "
                 "layout's read blocks per uniform lookup (pgm reaches "
                 "~0.2x: one data page vs a straddling epsilon window and "
                 "far better pool coverage). The extended Table 2 model's "
                 "per-entry decode term narrows but never closes the gap "
                 "on the SSD profile.",
    },
    "chaos": {
        "artifact": "Extension (fault-tolerant serving)",
        "paper": "The paper's clean-run evaluation assumes every device "
                 "answers; a replicated disk-resident tier must keep "
                 "serving through member failures (cf. hedged requests "
                 "in \"The Tail at Scale\" and primary failover in "
                 "replicated B-tree stores).",
        "shape": "Zero lost acknowledged writes at every fault rate, "
                 "replica count and failure mode (the audit replays "
                 "every durable log record against the serving tier). "
                 "The zero-rate rows are charged-counter bit-identical "
                 "to a tier built without any fault machinery. With "
                 "hedging, serving p99 against a degraded or crashed "
                 "replica stays within 3x of the same cell's fault-free "
                 "p99. A crashed replica quarantines after hedged "
                 "reads and rejoins via catch-up resync (charged log "
                 "scan, byte-verified); a crashed primary fails over "
                 "live with sequence numbering unbroken; write-path "
                 "faults taint the member and force the full re-seed.",
    },
}

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's evaluation is one entry of one
table (`src/repro/bench/table.py`: its axes, its columns, the prose
below and `check`, the executable form of "Reproduced shape"), and one
command regenerates, archives and checks them all on the simulated block
device at the scaled-down defaults (see DESIGN.md for scales and the
substitution argument):

    python -m pytest benchmarks/bench_paper.py --benchmark-only   # -k fig5 for one
    python -m repro.bench report                                  # this file

The post-paper extensions (durability ... chaos) keep one
`benchmarks/bench_*.py` each.  Absolute numbers differ from the authors'
hardware by construction; the *shape* — who wins, by roughly what
factor, where crossovers fall — is what each entry records
(`tests/test_paper_shape.py` asserts it again at its own scale).
"""


def render_experiments_md(results_dir: str = "benchmarks/results") -> str:
    """Assemble the EXPERIMENTS.md text from archived result tables."""
    directory = pathlib.Path(results_dir)
    sections = [_HEADER]
    for experiment_id, info in PAPER_EXPECTATIONS.items():
        sections.append(f"\n## {info['artifact']} (`{experiment_id}`)\n")
        sections.append(f"**Paper:** {info['paper']}\n")
        sections.append(f"**Reproduced shape:** {info['shape']}\n")
        measured: Optional[str] = None
        path = directory / f"{experiment_id}.txt"
        if path.exists():
            measured = path.read_text().rstrip()
        if measured:
            sections.append("\n<details><summary>Measured rows</summary>\n")
            sections.append("```\n" + measured + "\n```")
            sections.append("</details>\n")
        else:
            sections.append("\n*(no archived result yet — run the benchmark suite)*\n")
    return "\n".join(sections) + "\n"
