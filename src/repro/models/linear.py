"""Linear models used by every learned index in the paper.

All four studied indexes (FITing-tree, PGM, ALEX, LIPP) predict positions
with a linear function.  Keys are 64-bit unsigned integers, so a naive
``slope * key + intercept`` in float64 loses up to ~2**64 * 2**-52 ≈ 4096
positions to cancellation — far beyond the error bound ε = 64.  Every
model is therefore *anchored*: ``pos = slope * (key - anchor) + intercept``
with the subtraction performed on exact Python integers before the float
conversion, exactly as the C++ reference implementations anchor their
segments at the first key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LinearModel", "NUMPY_MIN", "anchored_diff"]

#: Minimum numpy release the vectorized paths are tested against
#: (record-dtype ``np.frombuffer`` views, NEP-50-stable uint64 casts).
#: Mirrored by the ``numpy>=`` floor in ``pyproject.toml``.
NUMPY_MIN = (1, 22)


def _check_numpy_version() -> None:
    parts = np.__version__.split(".")
    try:
        major = int(parts[0])
        minor = int("".join(ch for ch in parts[1] if ch.isdigit()) or "0")
    except (IndexError, ValueError):  # pragma: no cover - dev builds
        return
    if (major, minor) < NUMPY_MIN:
        floor = ".".join(map(str, NUMPY_MIN))
        raise ImportError(
            f"repro requires numpy >= {floor} but found numpy "
            f"{np.__version__}.  The vectorized lookup paths rely on "
            "record-dtype np.frombuffer views and modern uint64->float64 "
            f"cast semantics; upgrade with: pip install 'numpy>={floor}'")


_check_numpy_version()


def anchored_diff(keys: np.ndarray, anchor) -> np.ndarray:
    """``float64(int(key) - anchor)`` for a uint64 key array, exactly.

    ``anchor`` is a uint64 scalar or a per-key uint64 array.  The
    subtraction wraps modulo 2**64 in uint64, then each side of the
    anchor converts its *magnitude* to float64 — the same
    round-to-nearest-even conversion CPython applies in
    ``float(int(key) - anchor)`` — so the result is bit-identical to the
    scalar path even for keys near 2**64.
    """
    a = np.asarray(anchor, dtype=np.uint64)
    d = keys - a
    out = d.astype(np.float64)
    below = keys < a
    if below.any():
        out[below] = -((np.uint64(0) - d[below]).astype(np.float64))
    return out


@dataclass
class LinearModel:
    """``pos = slope * (key - anchor) + intercept``.

    ``anchor`` is an integer key (typically the first key the model was
    fit on); ``key - anchor`` is computed with exact integer arithmetic,
    so the float multiply only ever sees the small in-segment offset.
    """

    slope: float
    intercept: float
    anchor: int = 0

    def predict(self, key: int) -> float:
        return self.slope * float(int(key) - self.anchor) + self.intercept

    def predict_clamped(self, key: int, size: int) -> int:
        """Predicted slot in ``[0, size - 1]``."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        pos = int(self.predict(key))
        if pos < 0:
            return 0
        if pos >= size:
            return size - 1
        return pos

    @classmethod
    def fit_least_squares(cls, keys: Sequence[int], positions: Sequence[int]) -> "LinearModel":
        """Ordinary least squares fit of positions on keys (ALEX-style).

        A single point (or all-equal keys) degenerates to a constant model.
        """
        if len(keys) == 0:
            raise ValueError("cannot fit a model to zero points")
        anchor = int(keys[0])
        xs = anchored_diff(np.asarray(keys, dtype=np.uint64), np.uint64(anchor))
        ys = np.asarray(positions, dtype=np.float64)
        if xs.size == 1 or keys[0] == keys[-1]:
            return cls(slope=0.0, intercept=float(ys[0]), anchor=anchor)
        x_mean = float(xs.mean())
        y_mean = float(ys.mean())
        xc = xs - x_mean
        denom = float(np.dot(xc, xc))
        if denom == 0.0:
            return cls(slope=0.0, intercept=y_mean, anchor=anchor)
        slope = float(np.dot(xc, ys - y_mean)) / denom
        intercept = y_mean - slope * x_mean
        return cls(slope=slope, intercept=intercept, anchor=anchor)

    @classmethod
    def fit_min_max(cls, first_key: int, last_key: int, size: int) -> "LinearModel":
        """Spread ``[first_key, last_key]`` evenly over ``size`` slots.

        This is LIPP's fallback when FMCD fails, and ALEX's model for
        evenly partitioning a key range across children.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if last_key <= first_key:
            return cls(slope=0.0, intercept=0.0, anchor=int(first_key))
        slope = (size - 1) / float(int(last_key) - int(first_key))
        return cls(slope=slope, intercept=0.0, anchor=int(first_key))
