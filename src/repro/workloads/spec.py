"""Workload specifications — the six types of Section 5.2.

1. **Lookup-Only** — bulk load every key, then random lookups of
   existing keys.
2. **Scan-Only** — same index; each operation looks up a start key and
   scans the next 99 elements (``scan_length = 100``).
3. **Write-Only** — bulk load half of a key pool, insert the other half.
4. **Read-Heavy** — 90% lookups / 10% inserts, interleaved exactly as
   the paper does: 2 inserts then 18 lookups, repeated.
5. **Write-Heavy** — 18 inserts then 2 lookups, repeated.
6. **Balanced** — 10 inserts then 10 lookups, repeated.

Lookup keys in the mixed workloads are drawn uniformly from the keys
present at that point (the paper: "the search keys for the lookup in the
Mixed workloads are evenly distributed").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["WorkloadSpec", "WORKLOADS", "Operation", "DISTRIBUTIONS",
           "build_workload", "workload_names"]

#: (op, key) — op is "lookup", "insert" or "scan"; payload is key + 1 by
#: the paper's convention and scans use the workload's scan length.
Operation = Tuple[str, int]


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload type.

    ``round_pattern`` is the exact op interleaving of one round ("I" =
    insert, "L" = lookup, "S" = scan); the paper specifies these rounds
    verbatim for the mixed workloads.
    """

    name: str
    round_pattern: str
    bulk_all: bool  # bulk load the whole dataset (read-only workloads)

    @property
    def insert_fraction(self) -> float:
        return self.round_pattern.count("I") / len(self.round_pattern)

    @property
    def has_writes(self) -> bool:
        return "I" in self.round_pattern


WORKLOADS = {
    "lookup_only": WorkloadSpec("lookup_only", "L", bulk_all=True),
    "scan_only": WorkloadSpec("scan_only", "S", bulk_all=True),
    "write_only": WorkloadSpec("write_only", "I", bulk_all=False),
    "read_heavy": WorkloadSpec("read_heavy", "II" + "L" * 18, bulk_all=False),
    "write_heavy": WorkloadSpec("write_heavy", "I" * 18 + "LL", bulk_all=False),
    "balanced": WorkloadSpec("balanced", "I" * 10 + "L" * 10, bulk_all=False),
}


def workload_names() -> List[str]:
    return list(WORKLOADS)


#: Lookup/scan target distributions accepted by ``build_workload``.
DISTRIBUTIONS = ("uniform", "zipfian")


class _KeyPicker:
    """Samples an index into a growing population under a distribution.

    The paper's workloads sample lookup keys uniformly ("evenly
    distributed"); the zipfian mode is an extension (YCSB's request
    distribution) for skew and contention studies:

    * ``"uniform"`` — every present key equally likely.
    * ``"zipfian"`` — Zipf(s) ranks via the bounded inverse-CDF
      approximation ``rank = floor(n * u^(1/(1-s)))``, scattered over
      the population with a multiplicative hash so hot keys are spread
      across the key space rather than clustered at one end.
    """

    _SCATTER = 2654435761  # Knuth's multiplicative hash constant

    def __init__(self, rng: random.Random, distribution: str,
                 zipf_s: float) -> None:
        if distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {distribution!r}")
        if distribution == "zipfian" and not 0.0 < zipf_s < 1.0:
            raise ValueError(f"zipf_s must be in (0, 1), got {zipf_s}")
        self._rng = rng
        self._zipfian = distribution == "zipfian"
        self._exponent = 1.0 / (1.0 - zipf_s) if self._zipfian else 1.0

    def _zipf_rank(self, n: int) -> int:
        rank = int(n * (self._rng.random() ** self._exponent))
        return min(rank, n - 1)

    def pick(self, n: int) -> int:
        if n <= 0:
            raise ValueError("cannot pick from an empty population")
        if not self._zipfian:
            return self._rng.randrange(n)
        return (self._zipf_rank(n) * self._SCATTER) % n


def build_workload(spec: WorkloadSpec, keys: np.ndarray, num_ops: int,
                   seed: int = 17, lookup_distribution: str = "uniform",
                   zipf_s: float = 0.99,
                   ) -> Tuple[List[Tuple[int, int]], List[Operation]]:
    """Materialize (bulk items, operation stream) for a dataset.

    For read-only workloads the whole dataset is bulk loaded and
    ``num_ops`` start/lookup keys are sampled from it.  For write
    workloads the dataset is split: the first half (sorted random
    sample) is bulk loaded, inserts consume the withheld half, and
    mixed-workload lookups target keys present at that moment.

    ``lookup_distribution`` picks the lookup/scan target distribution —
    see :data:`DISTRIBUTIONS` and :class:`_KeyPicker` (an extension; the
    paper samples uniformly).  ``zipf_s`` parameterizes the zipfian mode.
    """
    if num_ops <= 0:
        raise ValueError(f"num_ops must be positive, got {num_ops}")
    rng = random.Random(seed)
    picker = _KeyPicker(rng, lookup_distribution, zipf_s)
    n = len(keys)
    if spec.bulk_all:
        bulk_items = [(int(k), int(k) + 1) for k in keys]
        op_kind = "scan" if "S" in spec.round_pattern else "lookup"
        ops = [(op_kind, int(keys[picker.pick(n)])) for _ in range(num_ops)]
        return bulk_items, ops

    num_inserts = sum(
        1 for i in range(num_ops)
        if spec.round_pattern[i % len(spec.round_pattern)] == "I"
    )
    if num_inserts >= n:
        raise ValueError(
            f"workload needs {num_inserts} insert keys but the dataset has only "
            f"{n} keys; pass a larger dataset or fewer operations")
    withheld_positions = set(rng.sample(range(n), num_inserts))
    bulk_keys = [int(keys[i]) for i in range(n) if i not in withheld_positions]
    insert_keys = [int(keys[i]) for i in sorted(withheld_positions)]
    rng.shuffle(insert_keys)

    bulk_items = [(k, k + 1) for k in bulk_keys]
    present = list(bulk_keys)
    ops: List[Operation] = []
    insert_cursor = 0
    for i in range(num_ops):
        kind = spec.round_pattern[i % len(spec.round_pattern)]
        if kind == "I":
            key = insert_keys[insert_cursor]
            insert_cursor += 1
            ops.append(("insert", key))
            present.append(key)
        elif kind == "L":
            ops.append(("lookup", present[picker.pick(len(present))]))
        else:
            ops.append(("scan", present[picker.pick(len(present))]))
    return bulk_items, ops
