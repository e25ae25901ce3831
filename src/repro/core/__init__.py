"""The paper's core contribution: five disk-resident updatable indexes.

* :class:`BTreeIndex` — the baseline on-disk B+-tree.
* :class:`FitingTreeIndex` — FITing-tree with the Delta Insert Strategy.
* :class:`PgmIndex` — dynamic (LSM-style) PGM-index.
* :class:`AlexIndex` — ALEX with gapped arrays and on-disk SMOs.
* :class:`LippIndex` — LIPP with FMCD nodes and slot type flags.
* :class:`HybridIndex` — learned inner + B+-tree-style leaves (Table 5).
"""

from .alex import AlexIndex
from .btree import BPlusTree, BTreeIndex
from .codecs import (CODEC_NAMES, DeltaVarintCodec, FoRCodec, LeafCodec,
                     RawCodec, get_codec)
from .fiting import FitingTreeIndex
from .hybrid import HYBRID_INNER_KINDS, HybridIndex
from .interface import DiskIndex, KeyPayload
from .lipp import LippIndex
from .persistence import load_index, save_index
from .pgm import PgmIndex, StaticPgm
from .plid import PlidIndex
from .registry import (INDEX_FACTORIES, index_names, make_index,
                       make_sharded_index)

__all__ = [
    "AlexIndex",
    "BPlusTree",
    "BTreeIndex",
    "CODEC_NAMES",
    "DeltaVarintCodec",
    "DiskIndex",
    "FoRCodec",
    "LeafCodec",
    "RawCodec",
    "get_codec",
    "FitingTreeIndex",
    "HYBRID_INNER_KINDS",
    "HybridIndex",
    "INDEX_FACTORIES",
    "KeyPayload",
    "LippIndex",
    "PgmIndex",
    "PlidIndex",
    "StaticPgm",
    "index_names",
    "load_index",
    "save_index",
    "make_index",
    "make_sharded_index",
]
