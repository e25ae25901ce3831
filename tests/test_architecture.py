"""Architecture lints: each "one X" refactor stays one.

Every lint reads the source tree and returns its violations; a refactor
that deleted a second copy of something keeps it deleted here.  Each
lint is registered with the mutations that turn it red — edits appended
to (or new files added to) an in-memory view of the tree — and
``test_lint_is_red_on_its_mutations`` shows every one of them failing,
so no lint can pass vacuously.  The patterns and scopes are the ones the
lints had as CI steps; this file itself is the one file they skip (it
spells every forbidden pattern).
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = "tests/test_architecture.py"


@lru_cache(maxsize=None)
def _read(path: str) -> str:
    return (ROOT / path).read_bytes().decode("utf-8", "replace")


@lru_cache(maxsize=None)
def _parse(text: str) -> ast.Module:
    return ast.parse(text)


class Tree:
    """The repository as a lint sees it: relative posix path -> text,
    with ``edits`` appended to existing files or added as new ones."""

    def __init__(self, edits: Optional[Dict[str, str]] = None) -> None:
        self.edits = dict(edits or {})

    def paths(self, top: str) -> List[str]:
        """``top`` if it is a file, else every file under it (caches and
        this file skipped), edits included, sorted."""
        if (ROOT / top).is_file():
            return [top]
        found = set()
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            rel = Path(dirpath).relative_to(ROOT).as_posix()
            found.update(f"{rel}/{name}" for name in filenames)
        found.update(p for p in self.edits if p.startswith(top + "/"))
        found.discard(SELF)
        return sorted(found)

    def text(self, path: str) -> str:
        base = _read(path) if (ROOT / path).is_file() else ""
        return base + self.edits.get(path, "")

    def lines(self, path: str) -> List[str]:
        return self.text(path).splitlines()

    def grep(self, pattern: str, *tops: str, suffix: str = "") -> List[str]:
        """``grep -rnE pattern tops`` (``--include=*suffix``)."""
        regex = re.compile(pattern)
        return [f"{path}:{n}: {line.strip()}"
                for top in tops for path in self.paths(top)
                if path.endswith(suffix)
                for n, line in enumerate(self.lines(path), 1)
                if regex.search(line)]


LINTS: Dict[str, Callable[[Tree], List[str]]] = {}
MUTATIONS: List[tuple] = []


def lint(*mutations):
    """Register a lint with its named mutations ``(name, edits)``."""
    def register(fn):
        LINTS[fn.__name__] = fn
        MUTATIONS.extend((fn.__name__, name, edits) for name, edits in mutations)
        return fn
    return register


# -- One leaf implementation (core/leaffile.py) -------------------------------
# btree, plid and hybrid once each carried a copy of the leaf header
# struct and a _write_leaf; this fails if either appears in more than
# one file under src/.

@lint(("btree.py and plid.py each grow a _write_leaf",
       {"src/repro/core/btree.py": "\ndef _write_leaf(page):\n    return page\n",
        "src/repro/core/plid.py": "\ndef _write_leaf(page):\n    return page\n"}),
      ("hybrid.py re-declares the leaf header struct",
       {"src/repro/core/hybrid.py": '\n_LEAF = "<HHIII"\n'}))
def one_leaf_implementation(tree: Tree) -> List[str]:
    bad = []
    for pattern in ('"<HHIII"', "def _write_leaf"):
        files = [path for path in tree.paths("src")
                 if path.endswith(".py") and pattern in tree.text(path)]
        if len(files) > 1:
            bad.append(f"{pattern} appears in more than one file: {files}")
    return bad


# -- One ALEX search (core/alex.py) -------------------------------------------
# The point path once probed one entry per pager call
# (_exponential_search) beside a hand-inlined batch twin (_descend_vec,
# _search_node_vec, _lookup_many_vec); this fails if either comes back.

@lint(("alex.py grows a vectorized twin",
       {"src/repro/core/alex.py": "\ndef _descend_vec(keys):\n    return keys\n"}),
      ("alex.py probes one entry per pager call again",
       {"src/repro/core/alex.py": "\ndef _exponential_search(node, key):\n    return 0\n"}))
def one_alex_search(tree: Tree) -> List[str]:
    return tree.grep(r"_vec\b|def _exponential_search", "src/repro/core/alex.py")


# -- One result assembly (workloads/runner.py) --------------------------------
# The single stream and the serving path once each carried the
# before/after bookkeeping and a RunResult(...) call, and both folded
# every op into histogram digests no caller read (deleted; the one
# digest left is Session.digest's per-client latency summary); this
# fails if a second assembly or a digest in the runner or engine comes
# back.

@lint(("runner.py assembles a second RunResult",
       {"src/repro/workloads/runner.py": "\n_EMPTY = lambda: RunResult()\n"}),
      ("engine.py hand-rolls a digest",
       {"src/repro/serving/engine.py": "\n_digest = lambda: Histogram()\n"}))
def one_result_assembly(tree: Tree) -> List[str]:
    bad = []
    runner, engine = "src/repro/workloads/runner.py", "src/repro/serving/engine.py"
    assemblies = sum("RunResult(" in line for line in tree.lines(runner))
    if assemblies != 1:
        bad.append(f"runner.py constructs RunResult in {assemblies} places, not 1")
    digests = sum("Histogram(" in line
                  for path in (runner, engine) for line in tree.lines(path))
    if digests:
        bad.append(f"{digests} hand-rolled Histogram( in runner.py / engine.py")
    return bad


# -- One PLA descent (core/pgm.py build_levels / descend) ---------------------
# pgm and plid once each built their descriptor levels, routed to a floor
# descriptor and opened the +-eps window by hand, and both let the floor
# model extrapolate past its segment (the lost fb/osm keys); this fails
# if a second segmentation caller appears under core/ or plid.py grows
# its own model or segment struct again.

@lint(("hybrid.py segments keys itself",
       {"src/repro/core/hybrid.py": "\n_fit = lambda keys: optimal_segments(keys, 64)\n"}),
      ("plid.py routes through its own model",
       {"src/repro/core/plid.py": "\n_MODEL = LinearModel\n"}))
def one_pla_descent(tree: Tree) -> List[str]:
    bad = [f"optimal_segments( called outside core/pgm.py and core/fiting.py: {path}"
           for path in tree.paths("src/repro/core")
           if Path(path).parent.as_posix() == "src/repro/core" and path.endswith(".py")
           and not path.endswith(("/pgm.py", "/fiting.py"))
           and "optimal_segments(" in tree.text(path)]
    return bad + tree.grep(r"LinearModel|_SEGMENT|fit_min_max", "src/repro/core/plid.py")


# -- One segment-run writer (core/fiting.py _write_run) -----------------------
# Bulk load, the head-buffer flush and the resegment SMO once each
# segmented their run, wrote the extents, chained them and registered the
# descriptors, and only the third copy had to replace a directory record
# (it left a stale one when the first key was deleted); this fails if a
# second segmentation call or the helpers of the three copies come back.

@lint(("fiting.py segments a run outside _write_run",
       {"src/repro/core/fiting.py": "\n_again = lambda self, keys: self._segment_fn(keys)\n"}),
      ("fiting.py chains segments by hand again",
       {"src/repro/core/fiting.py": "\ndef _chain_segments(runs):\n    return runs\n"}))
def one_run_writer(tree: Tree) -> List[str]:
    fiting = "src/repro/core/fiting.py"
    callers = len(tree.grep(r"self\._segment_fn\(", fiting))
    bad = ([f"fiting.py calls self._segment_fn( in {callers} places, not 1"]
           if callers != 1 else [])
    return bad + tree.grep(r"def (_chain_segments|_write_segment)\b", fiting)


# -- One PLA fit (models/pla.py optimal_segments, DESIGN.md Section 20) -------
# The fit once fed an _OptimalPLA object one add_point call per key, and
# a lipp node build predicted every key three times through
# LinearModel.predict_clamped; this fails if the per-point object or
# lipp's per-key method calls come back.

@lint(("models/ feeds the fit one point per call again",
       {"src/repro/models/pla.py": "\nclass _OptimalPLA:\n    pass\n"}),
      ("lipp.py predicts through predict_clamped again",
       {"src/repro/core/lipp.py": "\n_slot = lambda model, key: model.predict_clamped(key)\n"}))
def one_pla_fit(tree: Tree) -> List[str]:
    return (tree.grep(r"class _OptimalPLA|def add_point", "src/repro/models")
            + tree.grep(re.escape("predict_clamped("), "src/repro/core/lipp.py"))


# -- One experiment table (bench/table.py, DESIGN.md Section 21) --------------
# Every experiment was once known in four places held equal by a test
# (an EXPERIMENTS dict plus side-registrations, the PAPER_EXPECTATIONS
# prose, one benchmarks/bench_<id>.py each, a tier-1 restatement), and
# every figure had its own copy of the build -> run -> columns loop; the
# post-paper extensions also archived their rows a second time as
# BENCH_<x>.json and took suite-wide pytest options.  This fails if a
# second registry, a per-figure function, a per-experiment wrapper file,
# a side archive or a benchmark option comes back.

@lint(("experiments.py registers a figure function again",
       {"src/repro/bench/experiments.py": "\ndef exp_fig3(result, scale):\n    pass\n"}),
      ("a per-experiment wrapper file comes back",
       {"benchmarks/bench_fig3.py": "import pytest\n"}),
      ("bench_paper.py takes a pytest option again",
       {"benchmarks/bench_paper.py": "\n_shards = lambda config: config.getoption('--shards')\n"}),
      ("a side archive comes back",
       {"benchmarks/results/BENCH_sharding.json": "{}\n"}))
def one_experiment_table(tree: Tree) -> List[str]:
    bad = tree.grep(r"PAPER_EXPECTATIONS|EXPERIMENTS\[|def exp_fig|def exp_ablation", "src")
    wrappers = [path for path in tree.paths("benchmarks")
                if fnmatch.fnmatch(path, "benchmarks/bench_*.py")]
    if len(wrappers) != 1:
        bad.append(f"benchmarks/ holds {len(wrappers)} bench_*.py files, not 1 (bench_paper.py)")
    bad += tree.grep(r"\bBENCH_|getoption", "src", "benchmarks")
    return bad + [f"side archive {path}" for top in ("src", "benchmarks")
                  for path in tree.paths(top)
                  if any(fnmatch.fnmatch(part, "BENCH_*") for part in path.split("/"))]


# -- One block store (storage/device.py, DESIGN.md Section 22) ----------------
# Every block was once a 4 KiB bytearray that bit rot and the WAL's torn
# tail wrote into in place; blocks are now compacted immutable bytes
# behind BlockFile.blocks, a full-image view, and a charged read skips
# the CRC of a version already proven against the same envelope entry
# (the _verified / _verified_crc memo, which every path that replaces a
# stored block keeps truthful).  This fails if code outside device.py
# reads the stored list or the memo, or if a line writes into an element
# of .blocks[...] in place (directly or through a name bound to one)
# instead of assigning a new image.

def _element(node) -> bool:
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "blocks")


@lint(("the pager reads the stored list",
       {"src/repro/storage/pager.py": "\ndef _peek(file):\n    return file._stored[0]\n"}),
      ("the WAL writes into a block in place",
       {"src/repro/durability/wal.py": "\ndef _rot(file):\n    file.blocks[0][3] = 1\n"}),
      ("a repair writes in place through an alias",
       {"src/repro/durability/repair.py": "\ndef _rot(file):\n    block = file.blocks[0]\n    block[3] ^= 1\n"}))
def one_block_store(tree: Tree) -> List[str]:
    bad = set()
    for path in tree.paths("src"):
        if not path.endswith(".py"):
            continue
        module = _parse(tree.text(path))
        if path != "src/repro/storage/device.py":
            bad |= {f"{path}:{n.lineno} reads .{n.attr}" for n in ast.walk(module)
                    if isinstance(n, ast.Attribute)
                    and n.attr in ("_stored", "_verified", "_verified_crc")}
        for scope in ast.walk(module):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(scope))
            aliases = {t.id for n in nodes if isinstance(n, ast.Assign) and _element(n.value)
                       for t in n.targets if isinstance(t, ast.Name)}
            for n in nodes:
                targets = (n.targets if isinstance(n, ast.Assign)
                           else [n.target] if isinstance(n, ast.AugAssign) else [])
                for t in targets:
                    if isinstance(t, ast.Subscript) and (
                            _element(t.value) or isinstance(t.value, ast.Name)
                            and t.value.id in aliases):
                        bad.add(f"{path}:{t.lineno} writes into a stored block in place")
    return sorted(bad)


# -- Subsystems on trial (ROADMAP item 10) ------------------------------------
# A post-paper subsystem stays only if removing it turns something red.
# Round one: the serving engine's deadlines, retry budget and write
# admission gate, the shard's hedge budget and quarantine knob, the
# rebalancer with its boundary move, and the latest / hotspot lookup
# distributions moved no archived row (all 16 chaos.txt rows read
# shed_ops 0 and op_retries 0) and were deleted.  Round two: the tuner,
# snapshot reads, CLOCK and the codecs kept their rows, and the settings
# around them that only tests set were deleted — latched reads
# (snapshot_reads=, the read/write latch split), commit_group=,
# commit_timeout_us=None, the pager's reuse_last_block /
# max_read_retries / flush_watermark, the fault model's exclude_files,
# the injector's crash_probability / device_faults / arm(), the tuner's
# candidates= / cost_table= / reset_mix, fresh_index's with_wal.
# Keyword forms only: snapshot_reads stays a RunResult counter.
# buffer_policy and replica_policy stay StackSpec / make_sharded_index
# keywords, so no pattern can tell them apart.  Round three: the run
# digests that only tests read — RunResult's per-op-type, per-phase and
# per-op-block histograms (and each serving client's), their
# KeyedDigest and io_bounds — and the router's routing counters went
# when a call-traffic run of every experiment, example and layers
# workload reached none of them (scripts/measure_traffic.py).  Round
# four: the three fan-out facades that made a tier's member pagers,
# devices and logs impersonate one Pager, BlockDevice and
# WriteAheadLog; consumers ask the index, and the tier answers from its
# members.  Round five: the replica read policies only a test set
# ("primary", "least_loaded") and the router's position-keeping batch
# split, which one batch frame replaced (a tier's batch reaches its
# shards sorted and deduplicated).  This fails if one comes back.

SUBSYSTEMS_ON_TRIAL = (
    r"hedge_us|deadline_us|retry_budget|max_inflight_writes|Rebalancer|set_boundary"
    r"|hotspot_|quarantine_after=|\bsnapshot_reads=|\bcommit_group=|commit_timeout_us=None"
    r"|reuse_last_block|max_read_retries|flush_watermark|exclude_files|crash_probability"
    r"|device_faults|\.arm\(|\bcandidates=|cost_table=|reset_mix|with_wal|read_latch"
    r"|write_latch"
    r"|KeyedDigest|io_bounds|op_io_histograms|phase_latency_histograms"
    r"|client_phase_histograms|op_latency_histograms|batches_routed"
    r"|_FanoutDevice|_FanoutPager|_FanoutWal"
    r"|least_loaded|REPLICA_POLICIES|split_keys")


@lint(("the shard grows a hedge budget again",
       {"src/repro/sharding/shard.py": "\nhedge_us = 0.0\n"}),
      ("a test sets latched reads again",
       {"tests/test_serving.py": "\n_KW = dict(snapshot_reads=False)\n"}),
      ("an example arms the injector again",
       {"examples/crash_recovery.py": "\n_arm = lambda injector: injector.arm()\n"}),
      ("the metrics grow a keyed digest again",
       {"src/repro/obs/metrics.py": "\nclass KeyedDigest(dict):\n    pass\n"}),
      ("the metrics grow block-count buckets again",
       {"src/repro/obs/metrics.py": "\ndef io_bounds():\n    return ()\n"}),
      ("the runner reports per-op block digests again",
       {"src/repro/workloads/runner.py": "\nop_io_histograms = None\n"}),
      ("the runner reports per-phase digests again",
       {"src/repro/workloads/runner.py": "\nphase_latency_histograms = None\n"}),
      ("the runner reports per-client phase digests again",
       {"src/repro/workloads/runner.py": "\nclient_phase_histograms = None\n"}),
      ("a session reports per-op-type digests again",
       {"src/repro/serving/session.py": "\nop_latency_histograms = {}\n"}),
      ("the router counts batches again",
       {"src/repro/sharding/router.py": "\nbatches_routed = 0\n"}),
      ("the tier grows a fan-out device again",
       {"src/repro/sharding/sharded.py": "\nclass _FanoutDevice:\n    pass\n"}),
      ("an example reaches a fan-out pager again",
       {"examples/sharded_tier.py": "\n# tier.pager is a _FanoutPager\n"}),
      ("a test builds a fan-out log again",
       {"tests/test_sharding.py": "\n_wal = lambda tier: _FanoutWal(tier)\n"}),
      ("the shard reads from the least-loaded copy again",
       {"src/repro/sharding/shard.py": '\n_POLICY = "least_loaded"\n'}),
      ("the shard lists its read policies again",
       {"src/repro/sharding/shard.py": '\nREPLICA_POLICIES = ("round_robin",)\n'}),
      ("a test splits a batch by position again",
       {"tests/test_sharding_property.py": "\n_split = lambda p, keys: p.split_keys(keys)\n"}))
def subsystems_on_trial(tree: Tree) -> List[str]:
    return tree.grep(SUBSYSTEMS_ON_TRIAL, "src", "examples", "tests")


# -- One stack builder (repro/stack.py, DESIGN.md Section 23) -----------------
# fresh_index, fresh_sharded_index, the shard members and the recovery
# path once each wired device -> pool -> pager -> index themselves, with
# four spellings of the same knobs (wal_group_commit, durability +
# group_commit, **member_kwargs read back with .get() defaults).  In
# src/, only the stack module and the two image loaders construct a
# BlockDevice, a buffer pool or a Pager; the deleted builder, the member
# kwargs dict and the second WAL knob name stay gone from src, tests
# and examples.

STACK_WIRING = ("BlockDevice", "make_buffer_pool", "Pager")
STACK_BUILDERS = ("src/repro/stack.py", "src/repro/storage/persist.py",
                  "src/repro/core/persistence.py")


def _called(node) -> Optional[str]:
    func = node.func
    return func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)


@lint(("the bench config builds its own device again",
       {"src/repro/bench/config.py": "\n_device = lambda: BlockDevice(4096)\n"}),
      ("a shard member builds its own pool again",
       {"src/repro/sharding/shard.py": "\n_pool = lambda n: make_buffer_pool(n)\n"}),
      ("recovery wires its own pager again",
       {"src/repro/durability/recovery.py": "\n_pager = lambda device: storage.Pager(device)\n"}),
      ("a test spells the WAL knob wal_group_commit again",
       {"tests/test_bench.py": "\n_KW = dict(wal_group_commit=8)\n"}),
      ("the shard threads member_kwargs again",
       {"src/repro/sharding/shard.py": "\n_member_kwargs = {}\n"}),
      ("an example calls fresh_sharded_index again",
       {"examples/sharded_tier.py": "\n# fresh_sharded_index('btree', 3)\n"}))
def one_stack_builder(tree: Tree) -> List[str]:
    bad = [f"{path}:{node.lineno} calls {_called(node)}( outside the stack module"
           for path in tree.paths("src")
           if path.endswith(".py") and path not in STACK_BUILDERS
           for node in ast.walk(_parse(tree.text(path)))
           if isinstance(node, ast.Call) and _called(node) in STACK_WIRING]
    return bad + tree.grep(r"fresh_sharded_index|member_kwargs|wal_group_commit",
                           "src", "tests", "examples")


# -- One held block (storage/pager.py Pager.view, DESIGN.md Section 15) -------
# "Serve a request from the block already in hand" was once spelled
# seven times: four copies in the pager (read_block, read_span's lowest
# block, and hand-copied guard sets in read_bytes and in write_bytes'
# in-block patch) and three in the indexes (vectorize.cursor for alex and
# pgm's buffer, the BlockMirror / Pinned batch mirrors beside the pager's
# pin cache, lipp _walk's held_no bookkeeping).  Pager.view is the one
# place a range is served from the held block; this fails if an index
# holds a block of its own again or reads the pager's last block.

@lint(("lipp's walk keeps its own held block again",
       {"src/repro/core/lipp.py": "\n_held_no = -1\n"}),
      ("vectorize grows a batch mirror again",
       {"src/repro/core/vectorize.py": "\nclass BlockMirror:\n    pass\n"}),
      ("alex grows a pinned source again",
       {"src/repro/core/alex.py": "\nclass Pinned:\n    pass\n"}),
      ("pgm grows a cursor again",
       {"src/repro/core/pgm.py": "\ndef cursor(source, file, bs):\n    return source\n"}),
      ("the serving engine reads the pager's last block",
       {"src/repro/serving/engine.py": "\ndef _held(pager):\n    return pager._last\n"}))
def one_held_block(tree: Tree) -> List[str]:
    return (tree.grep(r"held_no|class BlockMirror\b|class Pinned\b|def cursor\(", "src")
            + [line for line in tree.grep(r"\._last\b", "src")
               if not line.startswith("src/repro/storage/pager.py:")])


# -- One batch frame (DiskIndex.lookup_many, DESIGN.md Section 10) ------------
# Each index once repeated the batch frame itself: a one-key fallback,
# sort and dedup, and the answers put back in batch order.  The frame is
# DiskIndex.lookup_many; an index supplies only _lookup_sorted.  This
# fails if an index under core/ defines lookup_many or its fallback
# again.  (sorted(set(keys)) is no marker: fiting's verify uses it.)

@lint(("btree defines its own lookup_many again",
       {"src/repro/core/btree.py": "\n    def lookup_many(self, keys):\n        return []\n"}),
      ("pgm grows a one-key fallback again",
       {"src/repro/core/pgm.py": "\n    if len(keys) <= 1:\n        pass\n"}))
def one_batch_frame(tree: Tree) -> List[str]:
    return [line for line in tree.grep(r"def lookup_many\(|len\(keys\) <= 1",
                                       "src/repro/core")
            if not line.startswith("src/repro/core/interface.py:")]


@pytest.mark.parametrize("name", LINTS)
def test_lint_holds(name):
    assert LINTS[name](Tree()) == []


@pytest.mark.parametrize(
    "name, mutation, edits", MUTATIONS,
    ids=[f"{name}-{mutation.replace(' ', '-')}" for name, mutation, _ in MUTATIONS])
def test_lint_is_red_on_its_mutations(name, mutation, edits):
    assert LINTS[name](Tree(edits)), f"{name} stays green when {mutation}"
