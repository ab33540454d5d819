"""File capabilities: MDS-mediated cache coherence (Ceph-style caps).

The default client consistency in this reproduction is close-to-open
(§3.4): a writer's data reaches other clients once flushed, and readers
revalidate attributes on open. Real CephFS is stronger — the MDS issues
per-file *capabilities* and revokes them on conflicting access, forcing
writers to flush and readers to invalidate before the conflicting open
completes. This module provides that protocol; clients opt in with
``consistency="caps"``.

Capability bits:

* ``CAP_READ_CACHE`` — the holder may serve reads from its cache;
* ``CAP_WRITE_BUFFER`` — the holder may buffer dirty writes.

Grant rules (simplified from Ceph's Fc/Fb caps):

* any number of concurrent ``CAP_READ_CACHE`` holders;
* a ``CAP_WRITE_BUFFER`` grant revokes every other holder's caps
  (writers flush, readers invalidate);
* a ``CAP_READ_CACHE`` grant revokes other holders' write caps.
"""

__all__ = ["CAP_READ_CACHE", "CAP_WRITE_BUFFER", "CapsTable"]

CAP_READ_CACHE = 1
CAP_WRITE_BUFFER = 2


class CapsTable(object):
    """MDS-side bookkeeping of which client holds which caps per inode."""

    def __init__(self):
        self._caps = {}  # ino -> {client_id: caps bitmask}

    def holders(self, ino):
        return dict(self._caps.get(ino, {}))

    def conflicts(self, ino, client_id, want):
        """Revocations required before ``client_id`` can hold ``want``.

        Returns ``[(holder_id, caps_to_drop)]``.
        """
        out = []
        for holder, held in self._caps.get(ino, {}).items():
            if holder == client_id:
                continue
            drop = 0
            if want & CAP_WRITE_BUFFER:
                drop = held  # exclusive writer: everyone else drops all
            elif want & CAP_READ_CACHE and held & CAP_WRITE_BUFFER:
                drop = CAP_WRITE_BUFFER
            if drop:
                out.append((holder, drop))
        return out

    def grant(self, ino, client_id, caps):
        self._caps.setdefault(ino, {})
        self._caps[ino][client_id] = self._caps[ino].get(client_id, 0) | caps

    def revoke(self, ino, client_id, caps):
        holders = self._caps.get(ino)
        if not holders or client_id not in holders:
            return
        holders[client_id] &= ~caps
        if holders[client_id] == 0:
            del holders[client_id]
        if not holders:
            self._caps.pop(ino, None)

    def drop_ino(self, ino):
        self._caps.pop(ino, None)

    def held(self, ino, client_id):
        return self._caps.get(ino, {}).get(client_id, 0)
