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
(the C++ originals need ``__int128`` for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

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


def _check_sorted_unique(keys: Sequence[int]) -> None:
    for i in range(1, len(keys)):
        if keys[i] <= keys[i - 1]:
            raise ValueError(
                f"keys must be strictly increasing; violation at index {i}: "
                f"{keys[i - 1]} >= {keys[i]}"
            )


def shrinking_cone_segments(keys: Sequence[int], epsilon: int) -> List[Segment]:
    """Greedy FITing-tree segmentation with error bound ``epsilon``.

    The model of each segment passes through its first point; the slope
    is the midpoint of the surviving cone.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    _check_sorted_unique(keys)
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


class _OptimalPLA:
    """O'Rourke's online feasible-region algorithm (PGM variant).

    Maintains upper/lower convex hulls of the shifted points and the
    extreme feasible lines as a "rectangle" of four points, exactly as in
    the PGM-index reference implementation, but with exact integer cross
    products.
    """

    def __init__(self, epsilon: int) -> None:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon
        self.reset()

    def reset(self) -> None:
        self.points_in_hull = 0
        self.first_x = 0  # the anchor: all stored xs are relative to it
        self.last_x: int | None = None
        self.rect: List[Tuple[int, int]] = [(0, 0)] * 4
        self.upper: List[Tuple[int, int]] = []
        self.lower: List[Tuple[int, int]] = []
        self.upper_start = 0
        self.lower_start = 0

    @staticmethod
    def _cross(o: Tuple[int, int], a: Tuple[int, int], b: Tuple[int, int]) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    @staticmethod
    def _slope_lt(p: Tuple[int, int], q: Tuple[int, int]) -> bool:
        """Compare slopes of vectors p, q (positive dx assumed)."""
        return p[1] * q[0] < q[1] * p[0]

    def add_point(self, x: int, y: int) -> bool:
        """Feed the next point; False means it opens a new segment."""
        if self.points_in_hull > 0 and self.last_x is not None and x <= self.last_x:
            raise ValueError(f"x values must be strictly increasing, got {x} after {self.last_x}")
        eps = self.epsilon
        if self.points_in_hull == 0:
            self.first_x = x
        # Work in coordinates relative to the segment's first x so the
        # final slope/intercept floats never see full-magnitude keys.
        rx = x - self.first_x
        p1 = (rx, y + eps)
        p2 = (rx, y - eps)

        if self.points_in_hull == 0:
            self.last_x = x
            self.rect[0], self.rect[1] = p1, p2
            self.upper = [p1]
            self.lower = [p2]
            self.upper_start = self.lower_start = 0
            self.points_in_hull = 1
            return True

        if self.points_in_hull == 1:
            self.last_x = x
            self.rect[2], self.rect[3] = p2, p1
            self.upper.append(p1)
            self.lower.append(p2)
            self.points_in_hull = 2
            return True

        slope1 = (self.rect[2][0] - self.rect[0][0], self.rect[2][1] - self.rect[0][1])
        slope2 = (self.rect[3][0] - self.rect[1][0], self.rect[3][1] - self.rect[1][1])
        outside1 = self._slope_lt((p1[0] - self.rect[2][0], p1[1] - self.rect[2][1]), slope1)
        outside2 = self._slope_lt(slope2, (p2[0] - self.rect[3][0], p2[1] - self.rect[3][1]))
        if outside1 or outside2:
            # Leave the hull intact: the caller extracts the finished
            # segment's model with current_model() and then calls reset().
            return False
        self.last_x = x

        if self._slope_lt((p1[0] - self.rect[1][0], p1[1] - self.rect[1][1]), slope2):
            # Update the max-slope extreme line: it now passes through p1
            # and the lower-hull point minimizing the slope to p1.
            min_i = self.lower_start
            min_vec = (self.lower[min_i][0] - p1[0], self.lower[min_i][1] - p1[1])
            for i in range(self.lower_start + 1, len(self.lower)):
                vec = (self.lower[i][0] - p1[0], self.lower[i][1] - p1[1])
                if self._slope_lt(min_vec, vec):
                    break
                min_vec = vec
                min_i = i
            self.rect[1] = self.lower[min_i]
            self.rect[3] = p1
            self.lower_start = min_i
            # Maintain the upper hull with p1.
            end = len(self.upper)
            while end >= self.upper_start + 2 and (
                self._cross(self.upper[end - 2], self.upper[end - 1], p1) <= 0
            ):
                end -= 1
            del self.upper[end:]
            self.upper.append(p1)

        if self._slope_lt(slope1, (p2[0] - self.rect[0][0], p2[1] - self.rect[0][1])):
            # Update the min-slope extreme line symmetrically.
            max_i = self.upper_start
            max_vec = (self.upper[max_i][0] - p2[0], self.upper[max_i][1] - p2[1])
            for i in range(self.upper_start + 1, len(self.upper)):
                vec = (self.upper[i][0] - p2[0], self.upper[i][1] - p2[1])
                if self._slope_lt(vec, max_vec):
                    break
                max_vec = vec
                max_i = i
            self.rect[0] = self.upper[max_i]
            self.rect[2] = p2
            self.upper_start = max_i
            end = len(self.lower)
            while end >= self.lower_start + 2 and (
                self._cross(self.lower[end - 2], self.lower[end - 1], p2) >= 0
            ):
                end -= 1
            del self.lower[end:]
            self.lower.append(p2)

        self.points_in_hull += 1
        return True

    def current_model(self) -> LinearModel:
        """Feasible model for the points fed since the last reset/break.

        The returned model is anchored at the segment's first x, so its
        float intercept stays within the (small) position range.
        """
        if self.points_in_hull == 0:
            raise ValueError("no points in the current segment")
        if self.points_in_hull == 1:
            return LinearModel(slope=0.0,
                               intercept=(self.rect[0][1] + self.rect[1][1]) / 2.0,
                               anchor=self.first_x)
        r0, r1, r2, r3 = self.rect
        min_slope = (r2[1] - r0[1]) / (r2[0] - r0[0])
        max_slope = (r3[1] - r1[1]) / (r3[0] - r1[0])
        slope = (min_slope + max_slope) / 2.0
        # Intersection of the two extreme lines fixes the intercept; all
        # coordinates here are relative to the anchor.
        d1 = (r2[0] - r0[0], r2[1] - r0[1])
        d2 = (r3[0] - r1[0], r3[1] - r1[1])
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if denom == 0:
            ix, iy = float(r0[0]), float(r0[1])
        else:
            t = ((r1[0] - r0[0]) * d2[1] - (r1[1] - r0[1]) * d2[0]) / denom
            ix = r0[0] + t * d1[0]
            iy = r0[1] + t * d1[1]
        intercept = iy - ix * slope
        return LinearModel(slope=slope, intercept=intercept, anchor=self.first_x)


def optimal_segments(keys: Sequence[int], epsilon: int) -> List[Segment]:
    """Optimal streaming PLA of a strictly-increasing key array."""
    _check_sorted_unique(keys)
    segments: List[Segment] = []
    n = len(keys)
    if n == 0:
        return segments
    pla = _OptimalPLA(epsilon)
    start = 0
    for i in range(n):
        if not pla.add_point(keys[i], i):
            segments.append(Segment(keys[start], start, i - start, pla.current_model()))
            pla.reset()
            pla.add_point(keys[i], i)
            start = i
    segments.append(Segment(keys[start], start, n - start, pla.current_model()))
    return segments
