"""Dirty extent buffers: real bytes waiting to be flushed.

Both Ceph client personalities buffer written data before pushing it to
the OSDs (write-behind). The buffer is the *only* place where file bytes
exist outside the authoritative stores, which is exactly what makes the
consistency semantics of §3.4 observable: another client reading through
the cluster sees the data only after a flush.

Buffered bytes are held **by reference**. Every write is kept as the
immutable ``bytes`` object the caller passed (a mutable ``bytearray`` or
``memoryview`` is snapshotted once on the way in), in a sorted map of
non-overlapping chunks; an *extent* is a maximal run of adjacent chunks.
Overwriting part of a chunk re-slices only that chunk. :meth:`take`
hands the chunks over as :class:`~repro.common.rope.ByteRope` s, so
nothing returned by this class changes after the fact and nothing it
holds can be changed from outside.
"""

import bisect

from repro.common.errors import InvalidArgument
from repro.common.rope import ByteRope

__all__ = ["ExtentBuffer"]


class ExtentBuffer(object):
    """Non-overlapping sorted byte extents of one file."""

    def __init__(self):
        self._offsets = []  # sorted chunk start offsets
        self._chunks = {}  # start offset -> bytes
        self.dirty_bytes = 0

    def __bool__(self):
        return bool(self._offsets)

    def write(self, offset, data):
        """Insert ``data`` at ``offset``; later writes win over earlier."""
        if offset < 0:
            raise InvalidArgument("negative offset")
        if isinstance(data, ByteRope):
            for chunk in data.chunks:
                self.write(offset, chunk)
                offset += len(chunk)
            return
        if not data:
            return
        if type(data) is not bytes:
            data = bytes(data)
        offsets, chunks = self._offsets, self._chunks
        start, end = offset, offset + len(data)
        # Chunks [lo, hi) overlap the write: the first one may keep a head
        # before ``start``, the last one a tail from ``end``; everything
        # else they held is superseded.
        lo = bisect.bisect_right(offsets, start)
        if lo:
            prev_start = offsets[lo - 1]
            if prev_start + len(chunks[prev_start]) > start:
                lo -= 1
        hi = bisect.bisect_left(offsets, end, lo)
        pieces = [(start, data)]
        if lo < hi:
            first_start = offsets[lo]
            last_start = offsets[hi - 1]
            last = chunks[last_start]
            if first_start < start:
                pieces.insert(
                    0, (first_start, chunks[first_start][:start - first_start])
                )
            if last_start + len(last) > end:
                pieces.append((end, last[end - last_start:]))
            for old_start in offsets[lo:hi]:
                self.dirty_bytes -= len(chunks.pop(old_start))
        offsets[lo:hi] = [piece_start for piece_start, _piece in pieces]
        for piece_start, piece in pieces:
            chunks[piece_start] = piece
            self.dirty_bytes += len(piece)

    def put_back(self, extents):
        """Return extents a failed flush had taken, *under* anything
        written since: newer buffered bytes win over the returned ones."""
        newer = self.take()
        for offset, data in extents:
            self.write(offset, data)
        for offset, data in newer:
            self.write(offset, data)

    def overlay(self, offset, size, base):
        """Apply buffered extents over ``base`` (bytes read at ``offset``).

        Returns bytes of length up to max(len(base), highest buffered byte
        within the window) — buffered data may extend past the base.
        """
        offsets, chunks = self._offsets, self._chunks
        end = offset + size
        result = bytearray(base)
        index = max(bisect.bisect_right(offsets, offset) - 1, 0)
        while index < len(offsets) and offsets[index] < end:
            chunk_start = offsets[index]
            chunk = chunks[chunk_start]
            index += 1
            lo = max(chunk_start, offset)
            hi = min(chunk_start + len(chunk), end)
            if hi <= lo:
                continue
            if hi - offset > len(result):
                result.extend(b"\x00" * (hi - offset - len(result)))
            result[lo - offset:hi - offset] = memoryview(chunk)[
                lo - chunk_start:hi - chunk_start
            ]
        return bytes(result)

    def _extent_at(self, index):
        """The extent starting at chunk ``index``: ``(start, chunk list,
        length, index of the chunk after it)``."""
        offsets, chunks = self._offsets, self._chunks
        start = end = offsets[index]
        parts = []
        while index < len(offsets) and offsets[index] == end:
            chunk = chunks[end]
            parts.append(chunk)
            end += len(chunk)
            index += 1
        return start, parts, end - start, index

    def take(self, max_bytes=None):
        """Remove and return up to ``max_bytes`` of extents, oldest offset
        first, as ``[(offset, ByteRope)]`` (whole extents; at least one).

        The ropes are the buffered chunks themselves, handed over, not
        copied.
        """
        taken = []
        budget = max_bytes if max_bytes is not None else float("inf")
        index = 0
        while index < len(self._offsets) and (budget > 0 or not taken):
            start, parts, length, after = self._extent_at(index)
            if length > budget and taken:
                break
            budget -= length
            taken.append((start, ByteRope(parts, length)))
            index = after
        for start in self._offsets[:index]:
            del self._chunks[start]
        del self._offsets[:index]
        self.dirty_bytes -= sum(len(rope) for _start, rope in taken)
        return taken

    def extents(self):
        """Snapshot of ``(offset, bytes)`` pairs without consuming them."""
        snapshot = []
        index = 0
        while index < len(self._offsets):
            start, parts, _length, index = self._extent_at(index)
            snapshot.append((start, b"".join(parts)))
        return snapshot

    def clear(self):
        self._offsets = []
        self._chunks = {}
        self.dirty_bytes = 0

    def truncate(self, size):
        """Drop buffered bytes at or beyond ``size``; returns bytes freed.

        Buffered data *below* the cut survives — truncating a file must
        not lose its remaining unflushed contents.
        """
        offsets, chunks = self._offsets, self._chunks
        cut = bisect.bisect_left(offsets, size)
        freed = sum(len(chunks.pop(start)) for start in offsets[cut:])
        del offsets[cut:]
        if cut:
            last_start = offsets[cut - 1]
            last = chunks[last_start]
            keep = size - last_start
            if keep < len(last):
                chunks[last_start] = last[:keep]
                freed += len(last) - keep
        self.dirty_bytes -= freed
        return freed

    def max_end(self):
        """One past the highest buffered byte (0 when empty)."""
        if not self._offsets:
            return 0
        last = self._offsets[-1]
        return last + len(self._chunks[last])
