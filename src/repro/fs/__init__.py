"""Filesystem abstractions: the POSIX-like API, paths, in-memory trees."""

from repro.fs.api import FileHandle, FileStat, Filesystem, OpenFlags, Task
from repro.fs.memtree import MemTree, Node
from repro.fs.readahead import Readahead, next_window, plan_fetch

__all__ = [
    "FileHandle",
    "FileStat",
    "Filesystem",
    "OpenFlags",
    "Task",
    "MemTree",
    "Node",
    "Readahead",
    "next_window",
    "plan_fetch",
]
