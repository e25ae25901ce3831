"""The one stack description: :class:`repro.stack.StackSpec` and
:func:`repro.stack.build`, flat and sharded."""

from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stack import StackSpec, build
from repro.storage import NULL_DEVICE

from tests.util import (ReferenceModel, items_of, random_sorted_keys,
                        run_differential, stack_specs)


@pytest.mark.parametrize("bad", [
    dict(replicas=2),                              # replicas without shards
    dict(index=("btree", "alex")),                 # per-shard names, flat
    dict(index=("btree", "alex"), shards=3),       # two names, three shards
    dict(index=["btree"], shards=1),               # a list is not a name tuple
    dict(write_back=True),                         # dirty frames need a pool
    dict(buffer_policy="clock"),                   # a policy needs a pool
    dict(replicas=0, shards=2),
    dict(shards=-1),
    dict(buffer_blocks=-8),
    dict(group_commit=-1),
])
def test_a_spec_that_cannot_be_honoured_is_rejected(bad):
    with pytest.raises(ValueError):
        StackSpec(**bad)


def test_unknown_names_are_rejected_at_build():
    items = items_of(random_sorted_keys(50, seed=1))
    with pytest.raises(ValueError):
        build(StackSpec("btrie"), items)
    with pytest.raises(ValueError):
        build(StackSpec(buffer_blocks=8, buffer_policy="mru"), items)


def test_a_tier_honours_every_member_field():
    """Pool policy, write-back, index parameters, inner residency and
    the WAL reach every member of every shard — none is dropped on the
    way from the spec to the members."""
    keys = random_sorted_keys(3000, seed=2)
    spec = StackSpec("btree", index_params={"codec": "for"},
                     profile=NULL_DEVICE, block_size=8192, buffer_blocks=16,
                     buffer_policy="clock", write_back=True,
                     inner_memory_resident=True, group_commit=4, shards=2,
                     replicas=2)
    stack = build(spec, items_of(keys))
    members = [m for shard in stack.index.shards for m in shard.members()]
    assert len(members) == 4
    for member in members:
        assert member.pager.buffer_pool.policy == "clock"
        assert member.pager.write_back and member.pager.dirty_blocks == 0
        assert member.device.block_size == 8192
        assert member.device.profile is NULL_DEVICE
        assert member.index.init_params()["codec"] == "for"
        inner = [name for name, role in member.index.file_roles().items()
                 if role == "inner"]
        assert inner and all(member.device.get_file(name).memory_resident
                             for name in inner)
    assert all(shard.wal.group_commit == 4 for shard in stack.index.shards)
    assert stack.wal is stack.index.wal and stack.index.verify() == len(keys)


def test_the_tier_bulk_load_is_charged():
    """The tier's bulk-load clock reads the fan-out device, which sums
    every member: a durable 1x1 tier charges what the flat stack does."""
    items = items_of(random_sorted_keys(3000, seed=3))
    spec = StackSpec("alex", buffer_blocks=64, write_back=True, group_commit=8)
    flat, tier = build(spec, items), build(replace(spec, shards=1), items)
    assert flat.bulkload_us > 0
    assert tier.bulkload_us == flat.bulkload_us


def test_every_field_is_a_value_callers_already_set():
    """No new knob: the fields are the names table axes and archived
    rows use, plus the tier's shape."""
    assert [f.name for f in fields(StackSpec)] == [
        "index", "index_params", "profile", "block_size", "buffer_blocks",
        "buffer_policy", "write_back", "inner_memory_resident",
        "group_commit", "shards", "replicas"]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=stack_specs(), seed=st.integers(0, 2**16))
def test_every_drawn_stack_builds_and_agrees_with_the_model(spec, seed):
    """Any stack the strategy draws builds and bulk loads, then agrees
    with the oracle op for op, and ``verify()`` counts the oracle's
    keys."""
    keys = random_sorted_keys(400, seed=seed, key_space=10**9)
    stack = build(spec, items_of(keys))
    model = ReferenceModel(items_of(keys))
    run_differential(stack.index, model, num_ops=150, seed=seed)
    assert stack.index.verify() == len(model)
