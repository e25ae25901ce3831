"""Model substrate: linear models, PLA segmentation, FMCD."""

from .fmcd import FmcdResult, build_fmcd_model, conflict_degree, lipp_node_slots
from .linear import LinearModel, anchored_diff
from .pla import Segment, SegmentArray, optimal_segments, shrinking_cone_segments
from .zonemap import FenceZonemap

__all__ = [
    "FenceZonemap",
    "FmcdResult",
    "LinearModel",
    "Segment",
    "SegmentArray",
    "anchored_diff",
    "build_fmcd_model",
    "conflict_degree",
    "lipp_node_slots",
    "optimal_segments",
    "shrinking_cone_segments",
]
