"""Dataset profiling — reproduces Table 3 of the paper.

For every dataset the paper reports, per error bound, the number of PLA
segments (how hard the data is to model linearly — "a dataset with more
segments is harder to model"), the number of B+-tree leaves at 4 KiB
blocks, and the FMCD conflict degree ("a dataset with a larger conflict
degree lowers performance for LIPP").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..models import conflict_degree, optimal_segments

__all__ = ["DatasetProfile", "profile_dataset", "btree_leaf_count"]

#: Error bounds profiled in Table 3.
TABLE3_ERROR_BOUNDS = (16, 64, 256, 1024)


def btree_leaf_count(n: int, block_size: int = 4096, fill: float = 0.8) -> int:
    """Leaves of a bulk-loaded B+-tree (Table 3's "B+-tree" row).

    A 4 KiB block holds 255 16-byte entries after the header; at the
    0.8 bulk-load fill factor that is 204 per leaf — the paper's
    980,393 leaves for 200M keys.
    """
    entry_size = 16
    header_size = 16
    per_leaf = max(1, int((block_size - header_size) // entry_size * fill))
    return (n + per_leaf - 1) // per_leaf


@dataclass
class DatasetProfile:
    """One dataset's Table 3 row set."""

    name: str
    n: int
    segments_by_error: Dict[int, int] = field(default_factory=dict)
    btree_leaves: int = 0
    conflict_degree: int = 0


def profile_dataset(name: str, keys: Sequence[int],
                    error_bounds: Tuple[int, ...] = TABLE3_ERROR_BOUNDS,
                    block_size: int = 4096) -> DatasetProfile:
    """Profile a sorted unique key array the way Table 3 does."""
    key_list: List[int] = [int(k) for k in keys]
    profile = DatasetProfile(name=name, n=len(key_list))
    for error_bound in error_bounds:
        profile.segments_by_error[error_bound] = len(
            optimal_segments(key_list, error_bound))
    profile.btree_leaves = btree_leaf_count(len(key_list), block_size)
    profile.conflict_degree = conflict_degree(key_list)
    return profile
