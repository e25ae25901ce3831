"""FMCD — Fastest Minimum Conflict Degree model construction (LIPP).

LIPP (Wu et al., VLDB 2021) builds each node by finding a linear model
that spreads a sorted key set over ``L`` slots with the smallest maximum
number of keys colliding in one slot (the *conflict degree*).  We follow
the reference implementation: a two-pointer scan grows the tolerated
conflict degree ``D`` until the induced slot width ``Ut`` separates all
but ``D``-sized clusters; if ``D`` grows past ``size / 3`` the method
falls back to a min-max model.

Table 3 of the paper profiles every dataset by the conflict degree of a
whole-dataset FMCD model, which :func:`conflict_degree` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .linear import LinearModel

__all__ = ["FmcdResult", "build_fmcd_model", "conflict_degree", "lipp_node_slots"]


def lipp_node_slots(item_count: int, build_gap_count: int = 4) -> int:
    """Slots allocated for a LIPP node holding ``item_count`` keys.

    The paper's O11: items < 100,000 get ``5 * item_count`` slots
    (``build_gap_count = 4``), items in [100,000, 1,000,000) get
    ``2 * item_count``, larger nodes get ``1.2 * item_count``.
    """
    if item_count <= 0:
        raise ValueError(f"item count must be positive, got {item_count}")
    if item_count < 100_000:
        return item_count * (build_gap_count + 1)
    if item_count < 1_000_000:
        return item_count * 2
    return int(item_count * 1.2)


@dataclass
class FmcdResult:
    """Outcome of FMCD construction for one node.

    ``conflict_degree`` — the most keys the model maps to one slot — is
    a pass over every key, made when it is read: Table 3's profile reads
    it, a LIPP node build does not.
    """

    model: LinearModel
    num_slots: int
    fallback: bool  # True when the min-max fallback was used
    keys: Sequence[int] = field(repr=False)

    @property
    def conflict_degree(self) -> int:
        return _max_conflict(self.keys, self.model, self.num_slots)


def build_fmcd_model(keys: Sequence[int], num_slots: int) -> FmcdResult:
    """Fit a linear model over ``num_slots`` slots with minimal conflicts.

    Mirrors ``build_tree_bulk_fmcd`` in the LIPP reference code: the
    tolerated conflict degree ``D`` starts at 1 and grows whenever two
    keys ``D`` apart are closer than the slot width ``Ut`` derived from
    the remaining key span.
    """
    n = len(keys)
    if n == 0:
        raise ValueError("cannot build a model over zero keys")
    if num_slots < 2 or n == 1:
        model = LinearModel(slope=0.0, intercept=0.0)
        return FmcdResult(model=model, num_slots=max(num_slots, 1), fallback=True,
                          keys=keys)

    big_l = num_slots
    i = 0
    d = 1
    fallback = n < 4  # too few keys for the two-pointer scan to make sense
    if not fallback:
        ut = (keys[n - 1 - d] - keys[d]) / float(big_l - 2) + 1e-6
        while i < n - 1 - d:
            while i + d < n and keys[i + d] - keys[i] >= ut:
                i += 1
            if i + d >= n:
                break
            d += 1
            if d * 3 > n:
                break
            ut = (keys[n - 1 - d] - keys[d]) / float(big_l - 2) + 1e-6
        fallback = d * 3 > n

    if not fallback and keys[n - 1 - d] > keys[d]:
        ut = (keys[n - 1 - d] - keys[d]) / float(big_l - 2) + 1e-6
        slope = 1.0 / ut
        # Anchor at the first key so the float intercept stays small:
        # b' = a*A + b with A = keys[0], algebraically identical to the
        # LIPP reference formula but free of uint64-scale cancellation.
        anchor = int(keys[0])
        rel_hi = int(keys[n - 1 - d]) - anchor
        rel_lo = int(keys[d]) - anchor
        intercept = (big_l - slope * (float(rel_hi) + float(rel_lo))) / 2.0
        model = LinearModel(slope=slope, intercept=intercept, anchor=anchor)
    else:
        fallback = True
        model = LinearModel.fit_min_max(keys[0], keys[-1], big_l)

    return FmcdResult(model=model, num_slots=big_l, fallback=fallback, keys=keys)


def _max_conflict(keys: Sequence[int], model: LinearModel, num_slots: int) -> int:
    """Maximum number of keys mapped to a single slot (keys are sorted)."""
    best = 0
    run = 0
    prev_slot = None
    for key in keys:
        slot = model.predict_clamped(key, num_slots)
        if slot == prev_slot:
            run += 1
        else:
            run = 1
            prev_slot = slot
        if run > best:
            best = run
    return best


def conflict_degree(keys: Sequence[int], build_gap_count: int = 4) -> int:
    """Dataset conflict degree as profiled in Table 3 of the paper.

    Builds a single FMCD model over the whole (sorted, unique) key set
    with LIPP's root-node slot allocation and reports the maximum slot
    collision count.
    """
    slots = lipp_node_slots(len(keys), build_gap_count)
    return build_fmcd_model(list(keys), slots).conflict_degree
