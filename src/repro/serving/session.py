"""Per-client sessions.

A :class:`Session` owns one client's operation queue and accumulates that
client's view of the run: per-op latencies (as the *client* perceives
them — latch stalls and group-commit waits included), contention
counters, and the dispatch-gap record the starvation tests assert on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..obs.metrics import Histogram, latency_bounds
from ..workloads.spec import Operation

__all__ = ["Session"]


class Session:
    """One client's op stream and its per-client accounting.

    Args:
        client_id: small integer identifying the client (also the
            round-robin tie-break order in the scheduler).
        ops: the client's operation stream, executed in order.

    The session's *virtual clock* (``clock_us``) is the simulated time at
    which its next operation may start: each completed op advances it by
    the op's device time plus any latch stall, and an acknowledged write
    advances it to the group commit's completion.  The scheduler always
    dispatches the session with the smallest virtual clock, which is what
    makes the schedule fair.
    """

    def __init__(self, client_id: int, ops: Sequence[Operation]) -> None:
        self.client_id = client_id
        self.ops: List[Operation] = list(ops)
        #: next op to dispatch (index into ``ops``).
        self.cursor = 0
        #: virtual time at which the next op may start.
        self.clock_us = 0.0
        #: client-perceived latency of each *completed* op, in op order.
        self.latencies_us: List[float] = []
        self.latch_waits = 0
        self.latch_wait_us = 0.0
        self.commit_waits = 0
        self.commit_wait_us = 0.0
        #: reads served at snapshot isolation (never touched a latch).
        self.snapshot_reads = 0
        #: snapshot reads that suppressed a not-yet-durable key.
        self.snapshot_suppressed = 0
        self.committed_writes = 0
        #: ops a storage fault no member could absorb — consumed from
        #: the queue but never completed.
        self.shed_ops = 0
        #: global dispatch index of each of this session's dispatches —
        #: the starvation test bounds the largest gap between them.
        self.dispatch_indices: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Session({self.client_id}, {self.completed}/{len(self.ops)}"
                f" ops, clock={self.clock_us:.0f}us)")

    @property
    def remaining(self) -> int:
        return len(self.ops) - self.cursor

    @property
    def completed(self) -> int:
        return len(self.latencies_us)

    def next_op(self) -> Operation:
        """Pop the next operation off the queue."""
        op = self.ops[self.cursor]
        self.cursor += 1
        return op

    def max_dispatch_gap(self) -> Optional[int]:
        """Largest gap between this session's consecutive dispatches.

        A fair scheduler bounds this by a small multiple of the client
        count; a starved session shows an unbounded gap.  None when the
        session was dispatched fewer than twice.
        """
        if len(self.dispatch_indices) < 2:
            return None
        return max(b - a for a, b in zip(self.dispatch_indices,
                                         self.dispatch_indices[1:]))

    def digest(self) -> dict:
        """This client's slice of a serving run (``RunResult.per_client``):
        its latency digest and its counters."""
        latency = Histogram(latency_bounds())
        latency.record_many(self.latencies_us)
        return {
            "ops": self.completed,
            "latency": latency.summary(),
            "latch_waits": self.latch_waits,
            "latch_wait_us": self.latch_wait_us,
            "commit_waits": self.commit_waits,
            "commit_wait_us": self.commit_wait_us,
            "snapshot_reads": self.snapshot_reads,
            "snapshot_suppressed": self.snapshot_suppressed,
            "committed_writes": self.committed_writes,
            "shed_ops": self.shed_ops,
            "max_dispatch_gap": self.max_dispatch_gap(),
        }
