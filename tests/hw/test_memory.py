"""Unit + property tests for the memory model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory import PAGE, SLAB_BYTES, SLAB_REGION_MAX, AddressSpace, Buffer, MemoryError_


def test_alloc_and_rw_roundtrip():
    space = AddressSpace("p0")
    buf = space.alloc(100)
    data = np.arange(100, dtype=np.uint8)
    buf.write(data)
    assert np.array_equal(buf.read(), data)


def test_buffers_start_zeroed():
    space = AddressSpace("p0")
    buf = space.alloc(64)
    assert not buf.read().any()


def test_view_is_mutable_alias():
    space = AddressSpace("p0")
    buf = space.alloc(16)
    buf.view()[:] = 7
    assert (buf.read() == 7).all()


def test_offset_read_write():
    space = AddressSpace("p0")
    buf = space.alloc(32)
    buf.write(np.full(8, 5, dtype=np.uint8), offset=10)
    assert (buf.read(offset=10, nbytes=8) == 5).all()
    assert buf.read(offset=0, nbytes=10).sum() == 0


def test_sub_buffer_aliases_parent():
    space = AddressSpace("p0")
    buf = space.alloc(64)
    sub = buf.sub(16, 8)
    sub.fill(9)
    assert (buf.read(offset=16, nbytes=8) == 9).all()


def test_sub_buffer_bounds_checked():
    space = AddressSpace("p0")
    buf = space.alloc(64)
    with pytest.raises(MemoryError_):
        buf.sub(60, 8)
    with pytest.raises(MemoryError_):
        buf.sub(-1, 4)


def test_unmapped_access_traps():
    space = AddressSpace("p0")
    space.alloc(16)
    with pytest.raises(MemoryError_):
        space.read(0x1, 4)


def test_guard_between_regions():
    space = AddressSpace("p0")
    a = space.alloc(4096)
    b = space.alloc(4096)
    # reading across the end of region a must trap, never bleed into b
    with pytest.raises(MemoryError_):
        space.read(a.addr + 4090, 16)
    assert space.is_mapped(b.addr, 4096)


def test_free_unmaps():
    space = AddressSpace("p0")
    buf = space.alloc(128)
    space.free(buf)
    assert not space.is_mapped(buf.addr)
    with pytest.raises(MemoryError_):
        space.read(buf.addr, 1)


def test_free_non_region_address_rejected():
    space = AddressSpace("p0")
    buf = space.alloc(128)
    bogus = Buffer(space, buf.addr + 8, 8)
    with pytest.raises(MemoryError_):
        space.free(bogus)


def test_alloc_zero_rejected():
    space = AddressSpace("p0")
    with pytest.raises(MemoryError_):
        space.alloc(0)


def test_spaces_are_isolated():
    a = AddressSpace("a")
    b = AddressSpace("b")
    buf_a = a.alloc(16)
    buf_b = b.alloc(16)
    buf_a.fill(1)
    assert not buf_b.read().any()


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10000), min_size=1, max_size=8),
    data=st.data(),
)
def test_property_writes_never_alias_other_buffers(sizes, data):
    """Writing any buffer never perturbs the contents of any other."""
    space = AddressSpace("prop")
    bufs = [space.alloc(s) for s in sizes]
    shadows = [np.zeros(s, dtype=np.uint8) for s in sizes]
    for _ in range(10):
        i = data.draw(st.integers(0, len(bufs) - 1))
        off = data.draw(st.integers(0, sizes[i] - 1))
        n = data.draw(st.integers(1, sizes[i] - off))
        val = data.draw(st.integers(0, 255))
        chunk = np.full(n, val, dtype=np.uint8)
        bufs[i].write(chunk, offset=off)
        shadows[i][off : off + n] = val
    for buf, shadow in zip(bufs, shadows):
        assert np.array_equal(buf.read(), shadow)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=65536))
def test_property_roundtrip_any_size(n):
    space = AddressSpace("rt")
    buf = space.alloc(n)
    payload = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
    buf.write(payload)
    assert np.array_equal(buf.read(), payload)


# ------------------------------------------------------------------ slabs
def test_small_regions_share_a_slab_large_ones_do_not():
    space = AddressSpace("slab")
    a = space.alloc(100)
    b = space.alloc(SLAB_REGION_MAX)
    big = space.alloc(SLAB_REGION_MAX + 1)
    assert a.view().base is not None and a.view().base is b.view().base
    assert big.view().base is not a.view().base
    # addresses and guard gaps are those of separate regions
    assert b.addr == a.addr + PAGE + PAGE
    assert big.addr == b.addr + SLAB_REGION_MAX + PAGE
    assert space.allocated_bytes == PAGE + SLAB_REGION_MAX + SLAB_REGION_MAX + PAGE


def test_slab_neighbours_stay_isolated():
    """Adjacent in the slab, separate in the address space: an access
    running off one region traps instead of reaching the next."""
    space = AddressSpace("slab")
    a = space.alloc(PAGE)
    b = space.alloc(PAGE)
    b.fill(3)
    with pytest.raises(MemoryError_):
        space.write(a.addr + PAGE - 2, np.zeros(4, dtype=np.uint8))
    with pytest.raises(MemoryError_):
        space.read(a.addr + PAGE, 1)  # the guard gap
    assert (b.read() == 3).all() and not a.read().any()
    space.free(a)
    assert not space.is_mapped(a.addr)
    assert (b.read() == 3).all()


def test_full_slab_rolls_over_to_a_fresh_zeroed_one():
    space = AddressSpace("slab")
    per_slab = SLAB_BYTES // SLAB_REGION_MAX
    bufs = [space.alloc(SLAB_REGION_MAX) for _ in range(per_slab + 1)]
    for buf in bufs:
        buf.fill(9)
    first, last = bufs[0].view().base, bufs[-1].view().base
    assert bufs[per_slab - 1].view().base is first
    assert last is not first
    fresh = space.alloc(10)
    assert not fresh.read().any()
    assert all((buf.read() == 9).all() for buf in bufs)
