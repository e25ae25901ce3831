"""One held block: every index search reads through ``Pager.view``.

``Pager.view`` is the one place a range inside one block is served from
the block the pager already holds — the pin cache inside a batch, else
the last block fetched — under the guards for it: no access hook to
fire, no free resident read to prefer (DESIGN.md Section 15).  The
reference below is a pager whose ``view`` never does that: a one-block
range is a ``read_block``, a longer one a ``read_span``.  alex (both
layouts), pgm's buffer search and lipp's point verbs and slot walk run
seeded insert / lookup / lookup_many / scan histories, in and out of
``pager.batch()``, once over each pager, on 256-, 512- and 1000-byte
blocks (records lie across block boundaries) and the default 4096.
Every ``StorageStats`` field and pool probe after every operation, the
pool's order, the pages, the access hook's frames in order and the
tracer's records (``reuse_hits`` included) are the same.  Each of these
mutations of ``Pager.view`` turns it red:

- serving from the held block while an access hook is set (the hook's
  frames fall behind);
- inside a batch, serving the last block without consulting and filling
  the pin cache (a block the batch needs again is charged twice);
- keeping the block held before a span read as the held block after it
  (a probe the span displaced is served free).

Both runs execute the same index code, so which requests an index makes
is not what this compares: the page goldens (tests/golden) pin that.
"""

import random

import pytest

from repro.core.alex import AlexIndex
from repro.core.lipp import LippIndex
from repro.core.pgm import PgmIndex
from repro.obs import Tracer
from repro.storage import HDD, BlockDevice, BufferPool, Pager

from tests.util import charges_of, items_of, pages_of


class _ReadBlockPager(Pager):
    """``view`` that never serves from the held block: every one-block
    range goes through ``read_block``, every longer one through
    ``read_span``."""

    def view(self, file, offset, length):
        bs = self.block_size
        first, start = divmod(offset, bs)
        blocks = range(first, (offset + length - 1) // bs + 1)
        if len(blocks) == 1:
            return self.read_block(file, first), start
        span = self.read_span(file, blocks)
        return b"".join(span[no] for no in blocks), start


#: index name -> (constructor, keyword arguments): small nodes, a small
#: pgm buffer and eager lipp rebuilds, so a short history reaches SMOs,
#: buffer flushes, conflict children and subtree rebuilds.
_INDEXES = {
    "alex-layout1": (AlexIndex, {"layout": 1, "max_data_node_entries": 64}),
    "alex-layout2": (AlexIndex, {"layout": 2, "max_data_node_entries": 64}),
    "pgm": (PgmIndex, {"buffer_capacity": 40, "epsilon": 8}),
    "lipp": (LippIndex, {"rebuild_factor": 0.5, "build_gap_count": 1}),
}


#: what counts an index's restructurings: node expansions, buffer
#: merges, subtree rebuilds
_RESTRUCTURES = {"alex": "num_expands", "pgm": "num_merges", "lipp": "num_rebuilds"}


def _keys(seed):
    """Clustered keys: dense runs (lipp conflict children, gapped alex
    nodes) a long way apart."""
    rng = random.Random(seed)
    return sorted({base + rng.randrange(40) for base in
                   (rng.randrange(1 << 40) for _ in range(12))
                   for _ in range(30)})


def _stack(pager_cls, name, block_size, pool, instrument, bulk):
    buffer_pool = None if pool == "none" else BufferPool(6)
    pager = pager_cls(BlockDevice(block_size, HDD), buffer_pool=buffer_pool,
                      write_back=pool == "write-back")
    cls, kwargs = _INDEXES[name]
    index = cls(pager, **kwargs)
    index.bulk_load(items_of(bulk))
    frames, tracer = [], None
    if instrument == "traced":
        tracer = Tracer()
        index.attach_tracer(tracer)
    elif instrument == "hooked":
        pager.on_block_access = lambda *access: frames.append(access)
    return index, frames, tracer


def _history(seed, bulk):
    """Inserts of fresh keys beside stored ones, lookups of stored,
    fresh and absent keys, batches of them, scans; each op runs inside
    ``pager.batch()`` or not."""
    rng = random.Random(seed)
    stored = list(bulk)
    ops = []
    for _ in range(200):
        kind = rng.choice(("insert", "insert", "insert", "lookup", "lookup_many",
                           "scan"))
        if kind == "insert":
            arg = rng.choice(stored) + rng.choice((1, 2, rng.randrange(1 << 30)))
            if arg in stored:
                continue
            stored.append(arg)
        elif kind == "lookup":
            arg = rng.choice(stored) + rng.randrange(2)
        elif kind == "lookup_many":
            arg = [rng.choice(stored) + rng.randrange(2) for _ in range(8)]
        else:
            arg = (rng.choice(stored), rng.randrange(1, 60))
        ops.append((kind, arg, rng.random() < 0.3))
    return ops


def _apply(index, kind, arg, batched):
    pager = index.pager
    if batched:
        with pager.batch():
            return _apply(index, kind, arg, False)
    if kind == "insert":
        return index.insert(arg, arg + 1)
    if kind == "lookup":
        return index.lookup(arg)
    if kind == "lookup_many":
        return index.lookup_many(arg)
    return index.scan(*arg)


def _pool_order(index):
    pool = index.pager.buffer_pool
    return None if pool is None else list(pool._blocks.items())


@pytest.mark.parametrize("instrument", ["bare", "traced", "hooked"])
@pytest.mark.parametrize("pool", ["none", "lru", "write-back"])
@pytest.mark.parametrize("block_size", [256, 512, 1000, 4096])
@pytest.mark.parametrize("name", sorted(_INDEXES))
def test_charges_like_no_held_block(name, block_size, pool, instrument):
    seed = block_size + len(name)
    bulk = _keys(seed)
    index, frames, tracer = _stack(Pager, name, block_size, pool, instrument, bulk)
    twin, twin_frames, twin_tracer = _stack(_ReadBlockPager, name, block_size,
                                            pool, instrument, bulk)
    for kind, arg, batched in _history(seed, bulk):
        assert _apply(index, kind, arg, batched) == _apply(twin, kind, arg, batched)
        assert charges_of(index) == charges_of(twin), (kind, arg, batched)
    assert _pool_order(index) == _pool_order(twin)
    assert frames == twin_frames
    if tracer is not None:
        assert list(tracer.iter_records()) == list(twin_tracer.iter_records())
    assert pages_of(index) == pages_of(twin)
    assert index.verify() == twin.verify()
    # the history went through the index's restructurings
    assert getattr(index, _RESTRUCTURES[name.split("-")[0]]) > 0
