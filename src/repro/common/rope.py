"""Byte payloads that travel by reference.

The write-behind path moves dirty file data from ``write()`` through the
extent buffers to the OSD stores. A :class:`ByteRope` lets it do so
without re-copying the payload at every hop: it is an immutable byte
string held as a sequence of immutable chunks — the very ``bytes``
objects the writers passed in, or read-only views of them where an
overwrite cut one (see :mod:`repro.common.chunks`). Only two things ever
materialise bytes from it: :meth:`ByteRope.split`, which gathers a span
that straddles chunks (a span inside one chunk is a zero-copy view), and
``bytes()``.

Ownership: a rope's chunks are ``bytes`` or views over ``bytes`` and
therefore never change under a holder; views cut from it keep their
chunk alive for as long as they are referenced.
"""

from itertools import chain

__all__ = ["ByteRope"]


class ByteRope(object):
    """An immutable byte string stored as a list of immutable chunks."""

    __slots__ = ("chunks", "_length")

    def __init__(self, chunks, length=None):
        self.chunks = chunks
        self._length = (
            sum(map(len, chunks)) if length is None else length
        )

    @classmethod
    def of(cls, data):
        """``data`` as a rope. ``bytes`` is adopted by reference; a
        mutable buffer (``bytearray``, ``memoryview``) is snapshotted
        once, so a rope never aliases memory its producer can change."""
        if isinstance(data, cls):
            return data
        if type(data) is not bytes:
            data = bytes(data)
        return cls([data] if data else [], len(data))

    def __len__(self):
        return self._length

    def __iter__(self):
        """Byte values in order, like iterating ``bytes``."""
        return chain.from_iterable(self.chunks)

    def __bytes__(self):
        if len(self.chunks) == 1 and type(self.chunks[0]) is bytes:
            return self.chunks[0]
        return b"".join(self.chunks)

    def __eq__(self, other):
        if isinstance(other, ByteRope):
            other = bytes(other)
        elif not isinstance(other, (bytes, bytearray, memoryview)):
            return NotImplemented
        return bytes(self) == other

    def __repr__(self):
        return "ByteRope(%d bytes in %d chunks)" % (
            self._length, len(self.chunks)
        )

    def split(self, lengths):
        """Cut the rope into consecutive spans of the given ``lengths``.

        Yields one buffer per length: a ``memoryview`` of the chunk when
        the span lies inside one chunk (no copy), one gathered ``bytes``
        when it straddles chunks. ``sum(lengths)`` must not exceed the
        rope's length.
        """
        chunks = iter(self.chunks)
        view = memoryview(b"")
        position = 0
        for length in lengths:
            parts = []
            while length:
                if position == len(view):
                    view = memoryview(next(chunks))
                    position = 0
                step = min(length, len(view) - position)
                parts.append(view[position:position + step])
                position += step
                length -= step
            yield parts[0] if len(parts) == 1 else b"".join(parts)
