"""Span recorder: times calls into each layer's public functions.

The layers are measured *from outside*: ``SpanRecorder.install`` wraps a
fixed table of public entry points at class level (nothing under
``src/`` is edited) and ``uninstall`` puts the originals back.  It is
installed only for the traced pass of a ``--trace 1`` run, so end-to-end
numbers are never taken with it in place.

Every wrapped call is a span: name, layer, start/end ``perf_counter_ns``,
the span that caused it, and the id of the enclosing index operation.  A
span's *self time* is its duration minus the part its child spans cover;
since one real thread runs everything, the self times under a root span
partition the root's duration exactly.  All spans feed per-(layer,
function, op kind) accumulators; complete span trees are kept in memory
for every ``SAMPLE_EVERY``-th operation, until a cell has ``SPAN_BUDGET``
spans (which keeps a committed trace file near 50 KB, not 1 MB), and
written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

SAMPLE_EVERY = 64
SPAN_BUDGET = 64

_INDEX_CLASSES = (
    ("repro.core.btree", "BTreeIndex"), ("repro.core.fiting", "FitingTreeIndex"),
    ("repro.core.pgm", "PgmIndex"), ("repro.core.alex", "AlexIndex"),
    ("repro.core.lipp", "LippIndex"), ("repro.core.plid", "PlidIndex"),
    ("repro.core.hybrid", "HybridIndex"), ("repro.core.interface", "DiskIndex"),
)
_INDEX_METHODS = ("bulk_load", "lookup", "lookup_many", "insert", "scan",
                  "durable_insert")
_TIER_METHODS = ("bulk_load", "lookup", "lookup_many", "scan", "insert", "apply")

#: (layer, module, class, function names; a trailing * matches a prefix).
#: An empty class name means functions of the module itself.  The
#: outermost span of an ``OP_LAYERS`` layer opens an operation.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("serving", "repro.serving.engine", "ServingEngine", ("run",)),
    ("sharding", "repro.sharding.sharded", "ShardedIndex", _TIER_METHODS),
    # what the tier's fan-out device/pager facades spend their time in
    ("sharding", "repro.sharding.sharded", "", ("combine_stats",)),
    ("sharding", "repro.sharding.router", "Router", _TIER_METHODS),
    ("sharding", "repro.sharding.shard", "Shard", _TIER_METHODS),
    *(("index", module, name, _INDEX_METHODS) for module, name in _INDEX_CLASSES),
    ("pager", "repro.storage.pager", "Pager",
     ("read_block", "read_span", "write_block", "write_blocks", "flush",
      "cached_keys", "cached_decode")),
    ("pool", "repro.storage.buffer_pool", "BufferPool",
     ("get", "put", "get_many", "put_many")),
    ("device", "repro.storage.device", "BlockDevice",
     ("read_block", "read_blocks", "write_block", "write_blocks")),
    ("wal", "repro.durability.wal", "WriteAheadLog", ("append", "flush")),
    *(("codecs", "repro.core.codecs", name,
       ("decode", "decode_arrays", "decode_keys", "encode"))
      for name in ("RawCodec", "DeltaVarintCodec", "FoRCodec")),
    ("models", "repro.models.linear", "LinearModel", ("predict*",)),
    ("models", "repro.models.pla", "SegmentArray", ("predict*",)),
    ("models", "repro.models.zonemap", "FenceZonemap", ("route*",)),
    ("obs", "repro.obs.trace", "Tracer", ("begin_op", "end_op")),
)
OP_LAYERS = ("sharding", "index")

#: accumulator scopes that are not part of a timed run
SETUP_SCOPES = ("setup", "bulk_load")

Totals = Dict[Tuple[str, str, str], List[float]]   # -> [calls, self_ns]


class SpanRecorder:
    """Owns the patches, the live span stack and the accumulators."""

    def __init__(self) -> None:
        self.enabled = False
        self.totals: Totals = {}
        self.sampled: List[dict] = []
        self._stack: List[list] = []    # [span_id, child_ns]
        self._patched: List[Tuple[object, str, object]] = []
        self._scope = "setup"           # "run" under a root span
        self._op_kind: Optional[str] = None
        self._op_id = -1
        self._sampling = False
        self._next_span = 0

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, class_name, patterns in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            for attr, fn in list(vars(owner).items()):
                if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
                    continue
                if any(attr == p or (p.endswith("*") and attr.startswith(p[:-1]))
                       for p in patterns):
                    self._patched.append((owner, attr, fn))
                    name = f"{class_name}.{attr}" if class_name else attr
                    setattr(owner, attr, self._wrap(fn, layer, name, attr))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str, method: str):
        rec = self
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter_ns
        opens_op = layer in OP_LAYERS

        def span(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            opened = opens_op and rec._op_kind is None
            if opened:
                rec._op_kind = method
                rec._op_id += 1
                rec._sampling = (rec._op_id % SAMPLE_EVERY == 0
                                 and rec._scope == "run"
                                 and len(rec.sampled) < SPAN_BUDGET)
            rec._next_span += 1
            frame = [rec._next_span, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                key = (layer, name, rec._op_kind or rec._scope)
                acc = totals.get(key)
                if acc is None:
                    acc = totals[key] = [0, 0]
                acc[0] += 1
                acc[1] += duration - frame[1]
                if rec._sampling:
                    rec.sampled.append({
                        "id": frame[0],
                        "parent": parent[0] if parent is not None else None,
                        "op": rec._op_id, "kind": rec._op_kind,
                        "layer": layer, "name": name,
                        "start_ns": start, "end_ns": end})
                if opened:
                    rec._op_kind = None
                    rec._sampling = False

        span.__wrapped__ = fn
        return span

    # -- recording -----------------------------------------------------------

    @contextmanager
    def recording(self) -> Iterator[None]:
        """Record spans inside the block (a build: scope ``setup``)."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextmanager
    def root(self, layer: str, name: str) -> Iterator[None]:
        """A hand-placed root span around one timed run of a cell."""
        self._next_span += 1
        frame = [self._next_span, 0]
        self._stack.append(frame)
        self._scope = "run"
        self.enabled = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            duration = time.perf_counter_ns() - start
            self.enabled = False
            self._scope = "setup"
            self._stack.pop()
            acc = self.totals.setdefault((layer, name, "run"), [0, 0])
            acc[0] += 1
            acc[1] += duration - frame[1]

    def drain(self) -> Tuple[Totals, List[dict]]:
        """Hand back one cell's accumulators and sampled spans; start afresh."""
        totals = {key: list(value) for key, value in self.totals.items()}
        sampled = list(self.sampled)
        self.totals.clear()
        self.sampled.clear()
        self._op_id = -1
        return totals, sampled


def run_layers(totals: Totals) -> Dict[str, List[float]]:
    """Per layer ``[calls, self_ns]`` over the spans of timed runs."""
    out: Dict[str, List[float]] = {}
    for (layer, _name, scope), (calls, self_ns) in totals.items():
        if scope in SETUP_SCOPES:
            continue
        acc = out.setdefault(layer, [0, 0])
        acc[0] += calls
        acc[1] += self_ns
    return out


def run_self_ns(totals: Totals, layer: str, prefixes: Tuple[str, ...]) -> float:
    """Self time of one layer's functions whose name starts with a prefix."""
    return sum(self_ns for (lyr, name, scope), (_calls, self_ns) in totals.items()
               if lyr == layer and scope not in SETUP_SCOPES
               and name.startswith(prefixes))
