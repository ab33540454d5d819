"""ChunkMap: the by-reference byte store under OSD objects and extent
buffers. The proof obligation is equality with the representation it
replaced — a flat ``bytearray`` — not similarity."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, invariant, precondition, rule,
)

from repro.common.chunks import ChunkMap
from repro.common.errors import InvalidArgument


def test_empty_map():
    chunks = ChunkMap()
    assert len(chunks) == 0
    assert bytes(chunks) == b""
    assert chunks.read(0, 10) == b""
    assert chunks.stored == 0


def test_holes_and_zero_extension_read_as_zeros_and_hold_nothing():
    chunks = ChunkMap()
    chunks.write(4, b"ab")
    chunks.write(10, b"")  # an empty write past the end still extends
    assert len(chunks) == 10
    assert bytes(chunks) == b"\x00\x00\x00\x00ab\x00\x00\x00\x00"
    assert chunks.stored == 2
    assert chunks.offsets == [4]


def test_whole_chunk_read_returns_the_writers_object():
    payload = b"p" * 100
    chunks = ChunkMap()
    chunks.write(0, payload)
    assert chunks.read(0, 100) is payload
    assert chunks.read(0, 500) is payload  # clipped to the length
    assert bytes(chunks) is payload
    # A view of all of a bytes object is that object.
    other = ChunkMap()
    other.write(0, memoryview(payload))
    assert other.read(0, 100) is payload


def test_overwrite_re_slices_views_of_the_cut_chunk():
    payload = b"0123456789"
    chunks = ChunkMap()
    chunks.write(0, payload)
    chunks.write(3, b"abc")
    assert bytes(chunks) == b"012abc6789"
    head, _middle, tail = (chunks.chunks[start] for start in chunks.offsets)
    assert head.obj is payload and tail.obj is payload  # no copy was made
    assert chunks.stored == 10


def test_truncate_cuts_a_chunk_drops_the_rest_and_never_extends():
    chunks = ChunkMap()
    chunks.write(0, b"abcdef")
    chunks.write(10, b"gone")
    chunks.truncate(4)
    assert (len(chunks), bytes(chunks), chunks.stored) == (4, b"abcd", 4)
    chunks.truncate(9)
    assert len(chunks) == 4
    chunks.write(8, b"z")
    chunks.truncate(6)  # into the hole
    assert (len(chunks), bytes(chunks)) == (6, b"abcd\x00\x00")


def test_flip_replaces_one_byte_and_leaves_the_shared_chunk_alone():
    payload = b"\x00" * 8
    mine, theirs = ChunkMap(), ChunkMap()
    mine.write(0, payload)
    theirs.write(0, payload)
    mine.flip(3, 0x81)
    assert bytes(mine) == b"\x00\x00\x00\x81\x00\x00\x00\x00"
    assert theirs.read(0, 8) is payload and payload == b"\x00" * 8
    with pytest.raises(InvalidArgument):
        mine.flip(8, 1)


def test_negative_offset_rejected():
    with pytest.raises(InvalidArgument):
        ChunkMap().write(-1, b"a")


def test_drop_head_forgets_chunks_and_keeps_the_length():
    chunks = ChunkMap()
    chunks.write(0, b"aa")
    chunks.write(2, b"bb")
    chunks.write(9, b"c")
    chunks.drop_head(2)
    assert chunks.offsets == [9] and chunks.stored == 1
    assert bytes(chunks) == b"\x00" * 9 + b"c"


BUFFER_KINDS = ("bytes", "view", "part_view", "bytearray", "mutable_view",
                "readonly_view_of_mutable")


def _as_kind(kind, data):
    """``data`` as the named buffer type, and the mutable object under it
    (None when nothing can change it)."""
    if kind == "bytes":
        return data, None
    if kind == "view":
        return memoryview(data), None
    if kind == "part_view":
        return memoryview(b"<" + data + b">")[1:-1], None
    source = bytearray(data)
    if kind == "bytearray":
        return source, source
    if kind == "mutable_view":
        return memoryview(source), source
    return memoryview(source).toreadonly(), source


class ChunkMapVsBytearray(RuleBasedStateMachine):
    """Drive a ChunkMap and a flat bytearray with the same operations."""

    def __init__(self):
        super().__init__()
        self.chunks = ChunkMap()
        self.flat = bytearray()

    @rule(offset=st.integers(0, 96), data=st.binary(max_size=40),
          kind=st.sampled_from(BUFFER_KINDS))
    def write(self, offset, data, kind):
        buf, source = _as_kind(kind, data)
        self.chunks.write(offset, buf)
        if offset > len(self.flat):
            self.flat.extend(b"\x00" * (offset - len(self.flat)))
        self.flat[offset:offset + len(data)] = data
        if source is not None:
            source[:] = b"\xEE" * len(source)  # must not reach the map

    @rule(size=st.integers(0, 140))
    def truncate(self, size):
        self.chunks.truncate(size)
        del self.flat[size:]

    @precondition(lambda self: len(self.flat) > 0)
    @rule(where=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def flip(self, where, mask):
        position = where % len(self.flat)
        self.chunks.flip(position, mask)
        self.flat[position] ^= mask

    @rule(offset=st.integers(0, 150), size=st.integers(0, 150))
    def read(self, offset, size):
        assert self.chunks.read(offset, size) \
            == bytes(self.flat[offset:offset + size])

    @invariant()
    def same_bytes(self):
        chunks, flat = self.chunks, self.flat
        assert len(chunks) == len(flat)
        assert bytes(chunks) == bytes(flat)
        top = len(flat) + 8
        for offset in range(0, top, 5):
            for size in (1, 7, 33, top):
                got = chunks.read(offset, size)
                assert type(got) is bytes
                assert got == bytes(flat[offset:offset + size])

    @invariant()
    def chunks_are_sorted_disjoint_and_immutable(self):
        chunks = self.chunks
        assert sorted(chunks.chunks) == chunks.offsets
        end = 0
        for start in chunks.offsets:
            chunk = chunks.chunks[start]
            assert start >= end and len(chunk) > 0
            assert type(chunk) is bytes or type(chunk.obj) is bytes
            end = start + len(chunk)
        assert end <= len(chunks)
        assert chunks.stored == sum(map(len, chunks.chunks.values()))


ChunkMapVsBytearray.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_chunk_map_matches_a_flat_bytearray = ChunkMapVsBytearray.TestCase
