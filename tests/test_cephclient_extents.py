"""Unit and property tests for the dirty extent buffer and the dirty
total the write-back buffer charges to the object cache."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cephclient import ExtentBuffer, ObjectCache, WritebackBuffer
from repro.common.errors import InvalidArgument
from repro.hw import RamAccount
from repro.sim import Simulator


def test_empty_buffer_is_falsy():
    buffer = ExtentBuffer()
    assert not buffer
    assert buffer.dirty_bytes == 0
    assert buffer.max_end() == 0


def test_single_write():
    buffer = ExtentBuffer()
    buffer.write(10, b"abc")
    assert buffer.dirty_bytes == 3
    assert buffer.extents() == [(10, b"abc")]
    assert buffer.max_end() == 13


def test_disjoint_writes_stay_separate():
    buffer = ExtentBuffer()
    buffer.write(0, b"aa")
    buffer.write(10, b"bb")
    assert buffer.extents() == [(0, b"aa"), (10, b"bb")]
    assert buffer.dirty_bytes == 4


def test_overlapping_writes_merge():
    buffer = ExtentBuffer()
    buffer.write(0, b"aaaa")
    buffer.write(2, b"bbbb")
    assert buffer.extents() == [(0, b"aabbbb")]
    assert buffer.dirty_bytes == 6


def test_adjacent_writes_merge():
    buffer = ExtentBuffer()
    buffer.write(0, b"aa")
    buffer.write(2, b"bb")
    assert buffer.extents() == [(0, b"aabb")]


def test_write_bridging_extents():
    buffer = ExtentBuffer()
    buffer.write(0, b"aa")
    buffer.write(6, b"cc")
    buffer.write(1, b"bbbbbb")  # covers the gap and both edges
    assert buffer.extents() == [(0, b"abbbbbbc")]
    assert buffer.dirty_bytes == 8


def test_later_write_wins():
    buffer = ExtentBuffer()
    buffer.write(0, b"xxxx")
    buffer.write(1, b"YY")
    assert buffer.extents() == [(0, b"xYYx")]


def test_negative_offset_rejected():
    with pytest.raises(InvalidArgument):
        ExtentBuffer().write(-1, b"a")


def test_empty_write_is_noop():
    buffer = ExtentBuffer()
    buffer.write(5, b"")
    assert not buffer


def test_overlay_applies_dirty_data():
    buffer = ExtentBuffer()
    buffer.write(2, b"XY")
    assert buffer.overlay(0, 6, b"aaaaaa") == b"aaXYaa"


def test_overlay_extends_past_base():
    buffer = ExtentBuffer()
    buffer.write(4, b"ZZ")
    assert buffer.overlay(0, 6, b"ab") == b"ab\x00\x00ZZ"


def test_overlay_window_clips_extent():
    buffer = ExtentBuffer()
    buffer.write(0, b"ABCDEF")
    assert buffer.overlay(2, 2, b"xy") == b"CD"


def test_take_all():
    buffer = ExtentBuffer()
    buffer.write(0, b"aa")
    buffer.write(10, b"bb")
    taken = buffer.take()
    assert taken == [(0, b"aa"), (10, b"bb")]
    assert not buffer
    assert buffer.dirty_bytes == 0


def test_take_respects_budget():
    buffer = ExtentBuffer()
    buffer.write(0, b"aaaa")
    buffer.write(10, b"bbbb")
    taken = buffer.take(max_bytes=4)
    assert taken == [(0, b"aaaa")]
    assert buffer.extents() == [(10, b"bbbb")]


def test_take_returns_at_least_one_extent():
    buffer = ExtentBuffer()
    buffer.write(0, b"a" * 100)
    taken = buffer.take(max_bytes=1)
    assert taken == [(0, b"a" * 100)]


def test_clear():
    buffer = ExtentBuffer()
    buffer.write(0, b"data")
    buffer.clear()
    assert not buffer
    assert buffer.dirty_bytes == 0


# --- property tests: the buffer must behave exactly like a sparse file -------

@st.composite
def write_sequences(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    writes = []
    for _ in range(count):
        offset = draw(st.integers(min_value=0, max_value=64))
        size = draw(st.integers(min_value=1, max_value=32))
        byte = draw(st.integers(min_value=1, max_value=255))
        writes.append((offset, bytes([byte]) * size))
    return writes


@settings(max_examples=200, deadline=None)
@given(write_sequences())
def test_property_buffer_matches_reference_model(writes):
    """The extent buffer's overlay equals a flat reference byte array."""
    buffer = ExtentBuffer()
    reference = bytearray()
    written = set()
    for offset, data in writes:
        buffer.write(offset, data)
        end = offset + len(data)
        if end > len(reference):
            reference.extend(b"\x00" * (end - len(reference)))
        reference[offset:end] = data
        written.update(range(offset, end))
    window = len(reference) + 8
    overlay = buffer.overlay(0, window, b"\x00" * window)
    for position in written:
        assert overlay[position] == reference[position]
    # Dirty byte accounting covers at least every written position and the
    # extents are sorted and non-overlapping.
    extents = buffer.extents()
    assert buffer.dirty_bytes == sum(len(d) for _o, d in extents)
    previous_end = -1
    for offset, data in extents:
        assert offset > previous_end
        previous_end = offset + len(data) - 1


@settings(max_examples=100, deadline=None)
@given(write_sequences(), st.integers(min_value=1, max_value=64))
def test_property_take_preserves_content(writes, budget):
    """Draining via take() reproduces the same bytes as overlay()."""
    buffer = ExtentBuffer()
    for offset, data in writes:
        buffer.write(offset, data)
    window = buffer.max_end()
    expected = buffer.overlay(0, window, b"\x00" * window)
    rebuilt = bytearray(window)
    while buffer:
        for offset, data in buffer.take(max_bytes=budget):
            rebuilt[offset:offset + len(data)] = data
    assert bytes(rebuilt) == expected


def test_truncate_drops_tail_keeps_head():
    buffer = ExtentBuffer()
    buffer.write(0, b"abcdef")
    buffer.write(10, b"gone")
    freed = buffer.truncate(4)
    assert freed == 2 + 4  # 'ef' plus the whole tail extent
    assert buffer.extents() == [(0, b"abcd")]
    assert buffer.dirty_bytes == 4


def test_truncate_beyond_end_is_noop():
    buffer = ExtentBuffer()
    buffer.write(0, b"abc")
    assert buffer.truncate(10) == 0
    assert buffer.extents() == [(0, b"abc")]


def test_truncate_to_zero_clears():
    buffer = ExtentBuffer()
    buffer.write(5, b"xyz")
    assert buffer.truncate(0) == 3
    assert not buffer


@settings(max_examples=100, deadline=None)
@given(write_sequences(), st.integers(min_value=0, max_value=80))
def test_property_truncate_matches_reference(writes, cut):
    """truncate(size) leaves exactly the bytes below the cut."""
    buffer = ExtentBuffer()
    reference = bytearray()
    for offset, data in writes:
        buffer.write(offset, data)
        end = offset + len(data)
        if end > len(reference):
            reference.extend(b"\x00" * (end - len(reference)))
        reference[offset:end] = data
    before = buffer.dirty_bytes
    freed = buffer.truncate(cut)
    assert buffer.dirty_bytes == before - freed
    window = max(len(reference), cut) + 4
    overlay = buffer.overlay(0, window, b"\x00" * window)
    assert overlay[cut:] == b"\x00" * (len(overlay) - cut)
    # Bytes below the cut that were written survive unchanged.
    for offset, data in buffer.extents():
        assert bytes(reference[offset:offset + len(data)]) == data


# --- ownership: payloads are held by reference and never change ---------------

def test_mutating_the_source_after_write_does_not_reach_the_buffer():
    source = bytearray(b"abcdef")
    window = memoryview(bytearray(b"uvwxyz"))
    buffer = ExtentBuffer()
    buffer.write(0, source)
    buffer.write(10, window)
    source[:] = b"XXXXXX"
    window[:] = b"YYYYYY"
    assert buffer.extents() == [(0, b"abcdef"), (10, b"uvwxyz")]
    assert buffer.overlay(0, 6, b"\x00" * 6) == b"abcdef"


def test_taken_and_snapshotted_extents_outlive_later_changes():
    buffer = ExtentBuffer()
    buffer.write(0, b"aaaa")
    buffer.write(4, b"bbbb")  # same extent, second chunk
    snapshot = buffer.extents()
    buffer.write(2, b"ZZZZ")
    buffer.truncate(3)
    assert snapshot == [(0, b"aaaabbbb")]
    buffer.clear()
    buffer.write(0, b"aaaa")
    buffer.write(4, b"bbbb")
    taken = buffer.take()
    buffer.write(0, b"QQQQQQQQ")
    buffer.write(6, b"RR")
    buffer.truncate(1)
    assert taken == [(0, b"aaaabbbb")]
    assert bytes(taken[0][1]) == b"aaaabbbb"
    assert len(taken[0][1]) == 8


def test_appends_and_take_do_not_copy_the_payload():
    """Sixteen 1 MiB appends, then take(): the buffer may allocate its
    bookkeeping, not another copy of the bytes."""
    chunk = 1 << 20
    payloads = [bytes([index]) * chunk for index in range(16)]
    buffer = ExtentBuffer()
    tracemalloc.start()
    try:
        for index, payload in enumerate(payloads):
            buffer.write(index * chunk, payload)
        taken = buffer.take()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 16 * chunk
    assert len(taken) == 1 and len(taken[0][1]) == 16 * chunk
    assert all(
        mine is theirs for mine, theirs in zip(taken[0][1].chunks, payloads)
    )


def test_put_back_goes_under_newer_writes():
    buffer = ExtentBuffer()
    buffer.write(0, b"old-old-old-")
    buffer.write(20, b"far")
    taken = buffer.take()
    buffer.write(4, b"NEW")  # written while the flush was failing
    buffer.put_back(taken)
    assert buffer.extents() == [(0, b"old-NEW-old-"), (20, b"far")]
    assert buffer.dirty_bytes == 15


@settings(max_examples=100, deadline=None)
@given(write_sequences(), write_sequences())
def test_property_put_back_is_writing_in_the_original_order(first, later):
    """take + newer writes + put_back == never having taken at all."""
    flushed, untouched = ExtentBuffer(), ExtentBuffer()
    for offset, data in first:
        flushed.write(offset, data)
        untouched.write(offset, data)
    taken = flushed.take()
    for offset, data in later:
        flushed.write(offset, data)
        untouched.write(offset, data)
    flushed.put_back(taken)
    assert flushed.extents() == untouched.extents()
    assert flushed.dirty_bytes == untouched.dirty_bytes


# --- the running dirty total the object cache is charged -----------------------

cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 96),
                  st.integers(1, 40)),
        st.tuples(st.just("take"), st.integers(0, 2), st.integers(1, 48),
                  st.booleans()),
        st.tuples(st.just("truncate"), st.integers(0, 2), st.integers(0, 96)),
        st.tuples(st.just("drop"), st.integers(0, 2)),
    ),
    max_size=40,
)


def _take_now(buffer, ino, budget):
    """Run a take that has nothing to wait for; returns its batch."""
    take = buffer.take(ino, budget)
    with pytest.raises(StopIteration) as stop:
        next(take)
    return stop.value.value


@settings(max_examples=150, deadline=None)
@given(cache_ops)
def test_property_cache_dirty_total_equals_the_sum_of_its_buffers(ops):
    """``WritebackBuffer.dirty_bytes`` is a running total, and the object
    cache it charges counts the same bytes; every op that moves a dirty
    buffer's size must move both by the same amount. A take's batch
    lands or fails at once."""
    account = RamAccount(1 << 20)
    cache = ObjectCache(1 << 20, account, block_size=16)
    buffer = WritebackBuffer(Simulator(), charge=cache.dirty_changed)
    for op in ops:
        kind, ino = op[0], op[1]
        if kind == "write":
            buffer.write(ino, op[2], bytes([ino + 1]) * op[3])
        elif kind == "take":
            batch = _take_now(buffer, ino, op[2])
            if batch is not None:
                if op[3]:
                    buffer.land(batch)
                else:
                    buffer.put_back(batch)
        elif kind == "truncate":
            buffer.truncate(ino, op[2])
        else:
            buffer.forget(ino)
        total = sum(
            buffer.dirty(ino).dirty_bytes
            for ino in buffer.dirty_inos()
        )
        assert buffer.dirty_bytes == total
        assert cache.cached_bytes == total == account.used
