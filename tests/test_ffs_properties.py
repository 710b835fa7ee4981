"""Property-based FFS invariants under random namespace churn."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.errors import InvalidArgument, NoSpace
from repro.sim.fs.ffs import FFS, ROOT_INO, CylinderGroup
from repro.sim.fs.inode import FileKind
from repro.sim.fs.lfs import LogStructuredFS

BLOCK = 4096

operations = st.lists(
    st.tuples(
        st.sampled_from(["create", "unlink", "grow", "rename"]),
        st.integers(min_value=0, max_value=11),   # name index
        st.integers(min_value=1, max_value=40),   # size in blocks
    ),
    max_size=80,
)


def apply_ops(fs: FFS, ops):
    """Drive the allocator with a random op sequence; returns live names."""
    live = {}
    for op, name_index, nblocks in ops:
        name = f"n{name_index}"
        try:
            if op == "create":
                if name in live:
                    continue
                inode = fs.create(ROOT_INO, name, FileKind.FILE, now_ns=0)
                fs.grow_to_size(inode, nblocks * BLOCK)
                live[name] = inode
            elif op == "unlink":
                if name not in live:
                    continue
                fs.unlink(ROOT_INO, name, now_ns=0)
                del live[name]
            elif op == "grow":
                if name not in live:
                    continue
                inode = live[name]
                fs.grow_to_size(inode, len(inode.blocks) * BLOCK + nblocks * BLOCK)
            elif op == "rename":
                if name not in live:
                    continue
                new_name = f"r{name_index}"
                if new_name in live or fs.root.contains(new_name):
                    continue
                fs.rename(ROOT_INO, name, ROOT_INO, new_name, now_ns=0)
                live[new_name] = live.pop(name)
        except NoSpace:
            return live
    return live


def assert_free_total_audited(fs: FFS) -> None:
    """The running free-block total against its sources of truth."""
    assert fs.free_blocks_total() == sum(
        cg.free_block_count for cg in fs.groups
    ) == sum(cg._bitmap.count(0) for cg in fs.groups)


def fresh_fs(cls=FFS) -> FFS:
    return cls(
        fs_id=0, total_blocks=4096, block_bytes=BLOCK,
        blocks_per_cg=1024, inodes_per_cg=64,
    )


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_no_two_files_share_a_block(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    seen = {}
    for inode in fs.inodes.values():
        for block in inode.blocks:
            assert block not in seen, (
                f"block {block} in both #{seen[block]} and #{inode.ino}"
            )
            seen[block] = inode.ino


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_free_counts_match_bitmaps(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    for cg in fs.groups:
        assert cg.free_block_count == cg._bitmap.count(0)
    assert_free_total_audited(fs)


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_used_blocks_equal_inode_maps(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    mapped = sum(len(inode.blocks) for inode in fs.inodes.values())
    used = sum(cg.data_blocks - cg.free_block_count for cg in fs.groups)
    assert used == mapped


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_directory_entries_resolve_to_live_inodes(ops):
    fs = fresh_fs()
    live = apply_ops(fs, ops)
    assert set(fs.root.names()) == set(live)
    for name in fs.root.names():
        ino = fs.root.lookup(name)
        assert ino in fs.inodes


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_inumbers_unique_across_live_files(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    inos = [inode.ino for inode in fs.inodes.values()]
    assert len(inos) == len(set(inos))


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_lfs_satisfies_the_same_invariants(ops):
    fs = fresh_fs(LogStructuredFS)
    live = apply_ops(fs, ops)
    seen = set()
    for inode in fs.inodes.values():
        for block in inode.blocks:
            assert block not in seen
            seen.add(block)
    assert set(fs.root.names()) == set(live)
    assert_free_total_audited(fs)


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_file_sizes_covered_by_block_maps(ops):
    fs = fresh_fs()
    apply_ops(fs, ops)
    for inode in fs.inodes.values():
        need = -(-inode.size // BLOCK)
        assert len(inode.blocks) >= need


def test_free_blocks_total_survives_a_failing_free_midway():
    fs = fresh_fs()
    inode = fs.create(ROOT_INO, "f", FileKind.FILE, now_ns=0)
    fs.grow_to_size(inode, 4 * BLOCK)
    blocks = list(inode.blocks)
    fs.free_block_list(blocks[:1])
    # Frees blocks[1], then raises on the already-free blocks[0] before
    # reaching blocks[2:].
    with pytest.raises(InvalidArgument):
        fs.free_block_list([blocks[1], blocks[0]] + blocks[2:])
    assert_free_total_audited(fs)


SLOTS = 4

slot_ops = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "bad_free"]),
        st.integers(min_value=0, max_value=SLOTS),  # picks the slot to free
    ),
    max_size=120,
)


@settings(max_examples=100, deadline=None)
@given(ops=slot_ops)
def test_inode_slots_match_lowest_free_first_model(ops):
    """The watermark allocator against a plain set of free slots."""
    cg = CylinderGroup(0, 0, 64, inodes_per_cg=SLOTS, block_bytes=BLOCK)
    free = set(range(SLOTS))
    for op, pick in ops:
        if op == "alloc":
            got = cg.alloc_inode_slot()
            if free:
                assert got == min(free)
                free.remove(got)
            else:
                assert got is None
        elif op == "free":
            allocated = sorted(set(range(SLOTS)) - free)
            if allocated:
                slot = allocated[pick % len(allocated)]
                cg.free_inode_slot(slot)
                free.add(slot)
        else:
            # A double free, a slot never handed out, or one out of range.
            bad = sorted(free | {-1, SLOTS})
            with pytest.raises(InvalidArgument):
                cg.free_inode_slot(bad[pick % len(bad)])
        assert cg.free_inode_count == len(free)
