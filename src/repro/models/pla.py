"""Piecewise linear approximation (PLA) of sorted key arrays.

Two segmentation algorithms appear in the paper:

* ``shrinking_cone_segments`` — the greedy algorithm of the original
  FITing-tree (Galakatos et al., SIGMOD 2019).  The anchor is the first
  point of the segment and a feasible-slope cone is narrowed as points
  stream in.
* ``optimal_segments`` — the optimal streaming algorithm of O'Rourke
  (CACM 1981) as used by the PGM-index.  It maintains the exact convex
  feasible region of (slope, intercept) pairs, so it produces the
  minimum number of segments for a given error bound.  Section 4.2 of
  the paper replaces FITing-tree's greedy segmentation with this
  algorithm in the on-disk port; we do the same and keep the greedy one
  for ablations.

Both guarantee ``|predicted_pos - true_pos| <= epsilon`` for every key
covered by a segment.  Cross products are computed with exact Python
integers, so there is no precision failure even for keys near ``2**64``
(the C++ originals need ``__int128`` for the same reason); a numpy key
array is converted to Python integers on the way in.

Each is one loop over the keys with its state in locals: the fit runs
under every pgm and fiting build, merge and resegment (DESIGN.md
Section 20).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import List, Sequence

import numpy as np

from .linear import LinearModel, anchored_diff

__all__ = ["Segment", "SegmentArray", "optimal_segments",
           "shrinking_cone_segments"]


@dataclass
class Segment:
    """One PLA segment over ``keys[first_pos : first_pos + length]``.

    ``model`` predicts *absolute* positions in the source array; callers
    that store per-segment arrays subtract ``first_pos``.
    """

    first_key: int
    first_pos: int
    length: int
    model: LinearModel


class SegmentArray:
    """Struct-of-arrays form of a sorted run of anchored linear segments.

    Holds the per-segment ``first_key``/``slope``/``intercept``/``anchor``
    columns as numpy arrays so a whole ``lookup_many`` batch resolves its
    segments (one ``np.searchsorted``) and predicted positions (one
    anchored multiply-add) in two vectorized passes, bit-identical to
    looping :meth:`LinearModel.predict` per key (DESIGN.md §15).

    Used at batch time over segment descriptors the caller already paid
    charged I/O to fetch — it is a compute cache, never a routing
    shortcut, so the charged cost model is untouched.
    """

    __slots__ = ("first_keys", "slopes", "intercepts", "anchors")

    def __init__(self, first_keys, slopes, intercepts, anchors=None):
        self.first_keys = np.asarray(first_keys, dtype=np.uint64)
        self.slopes = np.asarray(slopes, dtype=np.float64)
        self.intercepts = np.asarray(intercepts, dtype=np.float64)
        self.anchors = (self.first_keys if anchors is None
                        else np.asarray(anchors, dtype=np.uint64))

    def __len__(self) -> int:
        return len(self.first_keys)

    def resolve(self, keys) -> np.ndarray:
        """Floor-segment index per key: the rightmost segment whose
        ``first_key`` is <= the key, clamped to segment 0."""
        keys = np.asarray(keys, dtype=np.uint64)
        idx = np.searchsorted(self.first_keys, keys, side="right")
        idx = idx.astype(np.int64) - 1
        return np.clip(idx, 0, None, out=idx)

    def predict(self, keys, idx=None) -> np.ndarray:
        """Predicted float positions for all keys in one vectorized pass;
        ``idx`` (from :meth:`resolve`) maps each key to its segment."""
        keys = np.asarray(keys, dtype=np.uint64)
        if idx is None:
            idx = self.resolve(keys)
        diff = anchored_diff(keys, self.anchors[idx])
        return self.slopes[idx] * diff + self.intercepts[idx]


def _exact_sorted_keys(keys: Sequence[int]) -> Sequence[int]:
    """``keys`` as exact Python integers, checked strictly increasing.

    A ``np.uint64`` array (what ``make_dataset`` returns) is converted
    once: left as numpy scalars, the keys would make every difference and
    cross product below wrap, overflow or — under NumPy 1.x promotion,
    uint64 with a Python int — silently become float64.
    """
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
    if not all(map(lt, keys, islice(keys, 1, None))):
        i = next(i for i in range(1, len(keys)) if keys[i] <= keys[i - 1])
        raise ValueError(
            f"keys must be strictly increasing; violation at index {i}: "
            f"{keys[i - 1]} >= {keys[i]}"
        )
    return keys


def shrinking_cone_segments(keys: Sequence[int], epsilon: int) -> List[Segment]:
    """Greedy FITing-tree segmentation with error bound ``epsilon``.

    The model of each segment passes through its first point; the slope
    is the midpoint of the surviving cone.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    keys = _exact_sorted_keys(keys)
    segments: List[Segment] = []
    n = len(keys)
    i = 0
    while i < n:
        anchor_key = keys[i]
        anchor_pos = i
        # Slopes are rationals (dy, dx) compared by cross multiplication.
        lo_dy, lo_dx = 0, 1  # lower bound 0: positions never decrease
        hi_dy, hi_dx = 1, 0  # upper bound +infinity
        j = i + 1
        while j < n:
            dx = keys[j] - anchor_key
            rel = j - anchor_pos
            new_lo = (rel - epsilon, dx)
            new_hi = (rel + epsilon, dx)
            # Tighten: lo = max(lo, new_lo), hi = min(hi, new_hi).
            cand_lo_dy, cand_lo_dx = (
                new_lo if new_lo[0] * lo_dx > lo_dy * new_lo[1] else (lo_dy, lo_dx)
            )
            cand_hi_dy, cand_hi_dx = (
                new_hi if new_hi[0] * hi_dx < hi_dy * new_hi[1] else (hi_dy, hi_dx)
            )
            if cand_lo_dy * cand_hi_dx > cand_hi_dy * cand_lo_dx:
                break  # cone emptied: the point cannot be covered
            lo_dy, lo_dx = cand_lo_dy, cand_lo_dx
            hi_dy, hi_dx = cand_hi_dy, cand_hi_dx
            j += 1
        length = j - i
        if length == 1:
            slope = 0.0
        else:
            lo = lo_dy / lo_dx
            hi = hi_dy / hi_dx if hi_dx else lo
            slope = (lo + hi) / 2.0
        model = LinearModel(slope=slope, intercept=float(anchor_pos), anchor=anchor_key)
        segments.append(Segment(anchor_key, anchor_pos, length, model))
        i = j
    return segments


def optimal_segments(keys: Sequence[int], epsilon: int) -> List[Segment]:
    """Optimal streaming PLA of a strictly-increasing key array.

    O'Rourke's online feasible-region algorithm as the PGM-index
    reference implementation runs it, one loop over the keys: per
    segment, the two extreme feasible lines are held as a "rectangle" of
    four points — ``r0 -> r2`` the minimum-slope line, ``r1 -> r3`` the
    maximum-slope line — and the upper / lower convex hulls of the points
    shifted by ``+-epsilon`` as two lists with a cursor each, all in
    locals.  A slope comparison ``p < q`` of two vectors with positive
    ``dx`` is ``p.dy * q.dx < q.dy * p.dx`` and a hull turn is a 2x2
    cross product, both spelled out where they are used, in exact Python
    integers; xs are relative to the segment's first key, so the float
    slope and intercept never see a full-magnitude key
    (``tests/golden/pla_segments.json`` pins every segment, DESIGN.md
    Section 20).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    keys = _exact_sorted_keys(keys)
    segments: List[Segment] = []
    n = len(keys)
    i = 0
    while i < n:
        start = i
        first_x = keys[i]
        r0x = r1x = 0
        r0y = i + epsilon
        r1y = i - epsilon
        i += 1
        if i == n:  # a last key on its own
            segments.append(Segment(first_x, start, 1, LinearModel(
                slope=0.0, intercept=float(start), anchor=first_x)))
            break
        r2x = r3x = keys[i] - first_x
        r2y = i - epsilon
        r3y = i + epsilon
        upper = [(0, r0y), (r3x, r3y)]
        lower = [(0, r1y), (r2x, r2y)]
        upper_start = lower_start = 0
        # The extreme lines' direction vectors, min slope and max slope.
        s1x = s2x = r2x
        s1y = r2y - r0y
        s2y = r3y - r1y
        for i in range(i + 1, n):
            x = keys[i] - first_x
            y1 = i + epsilon  # the point shifted up, a vertex of the upper hull
            y2 = i - epsilon  # and down, of the lower hull
            if ((y1 - r2y) * s1x < s1y * (x - r2x)
                    or s2y * (x - r3x) < (y2 - r3y) * s2x):
                break  # outside the cone of the two extreme lines: a new segment
            if (y1 - r1y) * s2x < s2y * (x - r1x):
                # The max-slope line now passes through the raised point
                # and the lower-hull vertex of least slope to it.
                min_i = lower_start
                px, py = lower[min_i]
                mx, my = px - x, py - y1
                for j in range(lower_start + 1, len(lower)):
                    px, py = lower[j]
                    vx, vy = px - x, py - y1
                    if my * vx < vy * mx:
                        break
                    mx, my, min_i = vx, vy, j
                r1x, r1y = lower[min_i]
                r3x, r3y = x, y1
                s2x, s2y = x - r1x, y1 - r1y
                lower_start = min_i
                end = len(upper)
                while end >= upper_start + 2:
                    ox, oy = upper[end - 2]
                    ax, ay = upper[end - 1]
                    if (ax - ox) * (y1 - oy) - (ay - oy) * (x - ox) > 0:
                        break
                    end -= 1
                del upper[end:]
                upper.append((x, y1))
            if s1y * (x - r0x) < (y2 - r0y) * s1x:
                # The min-slope line, symmetrically.
                max_i = upper_start
                px, py = upper[max_i]
                mx, my = px - x, py - y2
                for j in range(upper_start + 1, len(upper)):
                    px, py = upper[j]
                    vx, vy = px - x, py - y2
                    if vy * mx < my * vx:
                        break
                    mx, my, max_i = vx, vy, j
                r0x, r0y = upper[max_i]
                r2x, r2y = x, y2
                s1x, s1y = x - r0x, y2 - r0y
                upper_start = max_i
                end = len(lower)
                while end >= lower_start + 2:
                    ox, oy = lower[end - 2]
                    ax, ay = lower[end - 1]
                    if (ax - ox) * (y2 - oy) - (ay - oy) * (x - ox) < 0:
                        break
                    end -= 1
                del lower[end:]
                lower.append((x, y2))
        else:
            i = n
        # The model: the mean of the extreme slopes through the point
        # where the two extreme lines cross.
        slope = (s1y / s1x + s2y / s2x) / 2.0
        denom = s1x * s2y - s1y * s2x
        if denom == 0:
            ix, iy = float(r0x), float(r0y)
        else:
            t = ((r1x - r0x) * s2y - (r1y - r0y) * s2x) / denom
            ix = r0x + t * s1x
            iy = r0y + t * s1y
        segments.append(Segment(first_x, start, i - start, LinearModel(
            slope=slope, intercept=iy - ix * slope, anchor=first_x)))
    return segments
