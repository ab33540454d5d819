"""Ceph client personalities: user-level (libcephfs-like) and kernel."""

from repro.cephclient.cache import ObjectCache
from repro.cephclient.client import CephLibClient
from repro.cephclient.extents import ExtentBuffer, WritebackBuffer
from repro.cephclient.kernelfs import CephKernelFs

__all__ = [
    "ObjectCache", "CephLibClient", "ExtentBuffer", "WritebackBuffer",
    "CephKernelFs",
]
