"""Observability: op-level tracing, metrics, and trace analysis.

The paper's whole argument rests on *counting block fetches per
operation* (observations O1/O4/O13); :class:`StorageStats` gives the
end-of-run totals, this package gives the per-operation breakdown behind
them:

* :mod:`repro.obs.metrics` — a fixed-bucket latency histogram
  (p50/p90/p99/max at O(buckets) memory), each serving client's
  latency summary;
* :mod:`repro.obs.trace` — a :class:`Tracer` that scopes every charged
  block access, buffer-pool probe, and WAL flush to the logical
  operation in flight, ring-buffers one structured event per op, and
  exports JSONL whose totals reconcile *exactly* with ``StorageStats``;
* :mod:`repro.obs.analyze` — summarizes a trace file: top-K most
  expensive ops, SMO cascade detection, buffer-pool hit-rate timeline
  (``python -m repro.obs.analyze trace.jsonl``).

Tracing is opt-in: with no tracer attached every hook is ``None`` and
the hot paths pay a single attribute check per access.
"""

from .metrics import Histogram, latency_bounds
from .trace import TRACE_SCHEMA_VERSION, Tracer

_ANALYZE_NAMES = ("format_summary", "load_trace", "summarize", "analyze_main")


def __getattr__(name):
    # Lazy so ``python -m repro.obs.analyze`` does not re-import the
    # module it is about to execute (runpy would warn).
    if name in _ANALYZE_NAMES:
        from . import analyze

        return getattr(analyze, "main" if name == "analyze_main" else name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Histogram",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "analyze_main",
    "format_summary",
    "latency_bounds",
    "load_trace",
    "summarize",
]
