"""Workload-aware per-shard index selection (the paper's P1-P5 as a
scoring function).

The paper's conclusion — and the premise of this tier — is that *no
single on-disk index wins every operation mix* (confirmed at memory
scale by Wongkham et al. 2022, and exploited per-replica by the
extend-dist divergent-tuning work).  The tuner therefore scores each
shard's **observed** op mix against a per-class cost table and picks the
cheapest class *for that shard*, so a tier can run e.g. ``hybrid-alex``
on its read-only range and ``btree`` on its write-heavy range at the
same time.

The cost table is *measured*, not guessed: charged positionings per
operation on this repository's own storage model (uniform ops over a
60K-key dense-integer load, no buffer pool, so the numbers are the
intrinsic per-op disk touches).  Each entry traces to one of the paper's
design principles:

* ``lookup`` — P1 (reduce tree height) and P4 (models live in the
  parent): ALEX's model descent touches fewer levels than the B+-tree
  (2.65 vs 3.0), and the hybrid (learned inner over B+-tree leaves)
  is lower still at 2.40 because its whole inner level is one compact
  model array.
* ``insert`` — P2 (lightweight SMOs): the B+-tree's local split writes a
  handful of blocks (4.0 effective per insert at a write-heavy mix)
  while ALEX's gapped-array expansions rewrite whole node ranges (7.9).
  Hybrids are read-only (Table 5), so their insert cost is infinite and
  the tuner only assigns them to mutation-free mixes.
* ``scan`` — P3 (cheap next-item fetch): chained B+-tree/hybrid leaves
  ride the sequential rate (3.0 / 2.4 per 100-entry scan) while ALEX
  hops between gapped nodes with a positioning each (4.05).
* P5 (buffer co-design) enters through the *tier*, not the table: each
  shard has its own pool, so shrinking a shard's working set (more
  shards) or picking a flatter class raises its hit rate.

Scores are positionings per operation of the observed mix — device
independent (HDD and SSD charge the same *count*; only the per-event
microseconds differ), so one table serves both profiles.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping

from .shard import Shard, ShardMember
from .sharded import ShardedIndex

__all__ = ["ShardTuner", "COST_TABLE", "READ_ONLY_CLASSES"]

_INF = float("inf")

#: Measured charged positionings per operation (see module docstring).
#: ``scan`` is per scan *operation* (100 entries at the paper's default).
COST_TABLE: Dict[str, Dict[str, float]] = {
    "btree":       {"lookup": 3.00, "insert": 4.00, "update": 3.10,
                    "delete": 3.10, "scan": 3.00},
    "alex":        {"lookup": 2.65, "insert": 7.90, "update": 2.75,
                    "delete": 2.75, "scan": 4.05},
    "hybrid-alex": {"lookup": 2.40, "insert": _INF, "update": _INF,
                    "delete": _INF, "scan": 2.40},
}

#: Classes the paper evaluates read-only (Table 5): assignable only to
#: shards whose observed mix has zero mutations.
READ_ONLY_CLASSES = frozenset(
    name for name, costs in COST_TABLE.items()
    if costs["insert"] == _INF)

_MUTATION_KINDS = ("insert", "update", "delete")


class ShardTuner:
    """Scores shard op mixes against :data:`COST_TABLE` (every class in
    it is a candidate) and (optionally) rebuilds shards onto their
    chosen class."""

    # -- scoring -------------------------------------------------------------

    def score(self, mix: Mapping[str, int]) -> Dict[str, float]:
        """Expected positionings per op of each candidate on ``mix``.

        ``mix`` maps op kind to observed count (a shard's
        :meth:`~repro.sharding.shard.Shard.op_mix`).  Read-only classes
        score infinite on any mix with mutations.
        """
        total_ops = sum(mix.get(kind, 0)
                        for kind in ("lookup", "scan") + _MUTATION_KINDS)
        scores: Dict[str, float] = {}
        for name, costs in COST_TABLE.items():
            if total_ops == 0:
                # Nothing observed: rank by lookup cost (the paper's
                # default workload), writable classes only.
                scores[name] = (costs["lookup"]
                                if costs["insert"] != _INF else _INF)
                continue
            # Skip zero-count terms: 0 * inf is NaN, and a class must
            # not be penalized for ops the shard never sees.
            weighted = sum(mix.get(kind, 0) * costs[kind]
                           for kind in ("lookup", "scan") + _MUTATION_KINDS
                           if mix.get(kind, 0) > 0)
            scores[name] = weighted / total_ops
        return scores

    def choose(self, mix: Mapping[str, int]) -> str:
        """The cheapest class for ``mix`` (ties break toward the table's
        order)."""
        scores = self.score(mix)
        return min(scores, key=scores.__getitem__)

    # -- applying a choice ---------------------------------------------------

    def retune(self, sharded: ShardedIndex) -> Dict[int, str]:
        """Choose per shard from its observed mix; rebuild divergers.

        Returns ``{shard_id: chosen_class}``.  Shards already running
        their chosen class are untouched.  Every shard's observed mix is
        then reset, so the next retune scores only what came after.  The
        rebuild (dump + bulk load on fresh member storage) is charged
        I/O under the ``"maintenance"`` phase — conversion is an SMO
        writ large, and the experiment reports what it cost.
        """
        plan: Dict[int, str] = {}
        for shard in sharded.shards:
            choice = self.choose(shard.op_mix())
            plan[shard.shard_id] = choice
            if choice != shard.index_name:
                self.convert(shard, choice)
            shard.reset_op_mix()
        return plan

    def convert(self, shard: Shard, index_name: str) -> None:
        """Rebuild every member of ``shard`` onto ``index_name``.

        The dump reads through the old primary (charged), the loads
        write through the new members (charged).  Durability carries
        over: a converted shard gets a fresh WAL whose numbering
        continues the old one — the rebuild is its own checkpoint, so
        dropping the old log loses nothing.
        """
        with shard.primary.pager.phase("maintenance"):
            items = shard.primary.index.scan_range(0, 2**64 - 1)
        old_wal = shard.wal
        spec = replace(shard.spec, index=index_name)
        members: List[ShardMember] = []
        for _ in shard.members():
            member = ShardMember(spec)
            with member.pager.phase("maintenance"):
                member.index.bulk_load(items)
            members.append(member)
        shard.spec = spec
        shard.primary, shard.replicas = members[0], members[1:]
        shard.wal = None
        shard._ensure_wal()
        if shard.wal is not None and old_wal is not None:
            shard.wal.next_seqno = old_wal.next_seqno
            shard.wal.durable_seqno = old_wal.next_seqno - 1
