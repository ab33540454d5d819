"""The simulated host kernel: VFS, page cache, writeback, locks, local FS."""

from repro.kernel.host import HostKernel, Vfs
from repro.kernel.localfs import LocalFs
from repro.kernel.locks import GLOBAL_INSTANCE, LockRegistry
from repro.kernel.pagecache import CachedFile, PageCache
from repro.kernel.writeback import WritebackDaemon

__all__ = [
    "HostKernel",
    "Vfs",
    "LocalFs",
    "LockRegistry",
    "GLOBAL_INSTANCE",
    "PageCache",
    "CachedFile",
    "WritebackDaemon",
]
