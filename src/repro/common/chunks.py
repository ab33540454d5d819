"""A byte store that holds what it is given by reference.

An OSD object and a client's dirty extent buffer are the same thing
seen from two ends of a flush: a sparse run of bytes assembled from
writes that may overlap; a local-filesystem inode (``fs/memtree.py``) is
a third. :class:`ChunkMap` is that structure, and the only
overlap-splice in the tree. It never owns a flat copy of its
contents: every write is kept as the immutable buffer the writer passed,
in a sorted map of non-overlapping chunks, and a later write that covers
part of a chunk re-slices a *view* of it.

Ownership. A chunk is ``bytes``, or a ``memoryview`` over ``bytes``;
neither can change, so any number of holders — the writer, an extent
buffer, ropes in flight, every replica of an object, a memoised read, a
local-fs inode — may share one. Anything else (``bytearray``, a view of
one, writable or not) is snapshotted once on the way in: the test is the
type of the memory under the buffer, never its ``readonly`` flag. Nothing is ever
changed in place; :meth:`ChunkMap.flip` and :meth:`ChunkMap.truncate`
replace or drop chunks of *this* map only. A writer must not
``release()`` a view it has handed over.

Memory bound. A view keeps the whole ``bytes`` object under it alive, so
a chunk cut down by overwrites pins its full original buffer until the
last view of it is superseded or the map is dropped: a map holds at
most the bytes of every write that still has one live byte in it, never
less than its contents.
"""

from bisect import bisect_left, bisect_right

from repro.common.errors import InvalidArgument

__all__ = ["ChunkMap"]


def _immutable(buf):
    """``buf`` itself when nothing can change its bytes, else a snapshot."""
    kind = type(buf)
    if kind is bytes:
        return buf
    if kind is memoryview and type(buf.obj) is bytes \
            and buf.format == "B" and buf.ndim == 1 and buf.c_contiguous:
        # A view of all of its ``bytes`` is that object: unwrapping it
        # lets a whole-chunk read hand the writer's object back.
        return buf.obj if len(buf) == len(buf.obj) else buf
    return bytes(buf)


class ChunkMap(object):
    """Sorted non-overlapping immutable chunks, plus an explicit length.

    Bytes no chunk covers — holes between chunks and the zero-extension
    of a write past the end — read as zeros and are not materialised.
    ``offsets`` and ``chunks`` are readable (an extent buffer walks them
    to find runs of adjacent chunks) but only the methods here change
    them.
    """

    __slots__ = ("offsets", "chunks", "stored", "_length")

    def __init__(self):
        self.offsets = []  # sorted chunk start offsets
        self.chunks = {}  # start offset -> bytes | memoryview over bytes
        self.stored = 0  # bytes held in chunks: the length minus its holes
        self._length = 0

    def __len__(self):
        return self._length

    def __bytes__(self):
        return self.read(0, self._length)

    def write(self, offset, buf):
        """Put ``buf`` at ``offset``; it wins over anything under it.

        A write that starts past the end zero-extends up to it (also when
        ``buf`` is empty), like a sparse file.
        """
        if offset < 0:
            raise InvalidArgument("negative offset")
        buf = _immutable(buf)
        offsets, chunks = self.offsets, self.chunks
        end = offset + len(buf)
        if end > self._length:
            self._length = end
        if end == offset:
            return
        # Chunks [lo, hi) overlap the write: the first one may keep a head
        # before ``offset``, the last one a tail from ``end``; everything
        # else they held is superseded.
        lo = bisect_right(offsets, offset)
        if lo:
            prev_start = offsets[lo - 1]
            if prev_start + len(chunks[prev_start]) > offset:
                lo -= 1
        hi = bisect_left(offsets, end, lo)
        pieces = [(offset, buf)]
        if lo < hi:
            first_start = offsets[lo]
            last_start = offsets[hi - 1]
            last = chunks[last_start]
            if first_start < offset:
                head = memoryview(chunks[first_start])[:offset - first_start]
                pieces.insert(0, (first_start, head))
            if last_start + len(last) > end:
                pieces.append((end, memoryview(last)[end - last_start:]))
            for old_start in offsets[lo:hi]:
                self.stored -= len(chunks.pop(old_start))
        offsets[lo:hi] = [piece_start for piece_start, _piece in pieces]
        for piece_start, piece in pieces:
            chunks[piece_start] = piece
            self.stored += len(piece)

    def truncate(self, size):
        """Cut the map to ``size`` bytes; never extends it."""
        if size >= self._length:
            return
        offsets, chunks = self.offsets, self.chunks
        cut = bisect_left(offsets, size)
        for start in offsets[cut:]:
            self.stored -= len(chunks.pop(start))
        del offsets[cut:]
        if cut:
            last_start = offsets[cut - 1]
            last = chunks[last_start]
            keep = size - last_start
            if keep < len(last):
                chunks[last_start] = memoryview(last)[:keep]
                self.stored -= len(last) - keep
        self._length = size

    def drop_head(self, count):
        """Forget the first ``count`` chunks (an extent buffer handing
        them to a flush). The length stays: what they covered is a hole."""
        offsets, chunks = self.offsets, self.chunks
        for start in offsets[:count]:
            self.stored -= len(chunks.pop(start))
        del offsets[:count]

    def pieces(self, offset, end):
        """The stored bytes inside ``[offset, end)`` as ``[(position,
        buffer)]``: a chunk itself when it lies wholly inside, a view of
        the part inside otherwise. No copy."""
        offsets, chunks = self.offsets, self.chunks
        found = []
        index = max(bisect_right(offsets, offset) - 1, 0)
        while index < len(offsets) and offsets[index] < end:
            start = offsets[index]
            chunk = chunks[start]
            index += 1
            lo = max(start, offset)
            hi = min(start + len(chunk), end)
            if hi <= lo:
                continue
            if hi - lo < len(chunk):
                chunk = memoryview(chunk)[lo - start:hi - start]
            found.append((lo, chunk))
        return found

    def read(self, offset, size):
        """The bytes of ``[offset, offset + size)``, clipped to the
        length, gathered once — or, when that span is exactly one whole
        ``bytes`` chunk, the writer's own object."""
        end = min(offset + size, self._length)
        if end <= offset:
            return b""
        parts = []
        position = offset
        for start, piece in self.pieces(offset, end):
            if start > position:
                parts.append(bytes(start - position))
            parts.append(piece)
            position = start + len(piece)
        if position < end:
            parts.append(bytes(end - position))
        if len(parts) == 1 and type(parts[0]) is bytes:
            return parts[0]
        return b"".join(parts)

    def flip(self, position, mask):
        """XOR the byte at ``position`` with ``mask``, as a one-byte
        chunk of this map: whoever shares the old chunk keeps it."""
        if not 0 <= position < self._length:
            raise InvalidArgument("flip outside the stored bytes")
        self.write(position, bytes([self.read(position, 1)[0] ^ mask]))
