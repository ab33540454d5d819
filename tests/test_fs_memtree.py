"""Unit tests for the in-memory namespace tree."""

import tracemalloc

import pytest

from repro.common.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.fs import MemTree


@pytest.fixture
def tree():
    return MemTree()


def test_root_exists(tree):
    assert tree.lookup("/").is_dir


def test_create_and_lookup_file(tree):
    node = tree.create_file("/a.txt")
    assert tree.lookup("/a.txt") is node
    assert not node.is_dir
    assert node.size == 0


def test_create_in_missing_dir_fails(tree):
    with pytest.raises(FileNotFound):
        tree.create_file("/missing/a.txt")


def test_create_exclusive_conflict(tree):
    tree.create_file("/a")
    with pytest.raises(FileExists):
        tree.create_file("/a", exclusive=True)


def test_create_non_exclusive_returns_existing(tree):
    first = tree.create_file("/a")
    assert tree.create_file("/a") is first


def test_create_over_directory_fails(tree):
    tree.mkdir("/d")
    with pytest.raises(IsADirectory):
        tree.create_file("/d")


def test_mkdir_and_nested_files(tree):
    tree.mkdir("/d")
    tree.create_file("/d/f")
    assert tree.readdir("/d") == ["f"]


def test_mkdir_existing_fails(tree):
    tree.mkdir("/d")
    with pytest.raises(FileExists):
        tree.mkdir("/d")


def test_makedirs(tree):
    tree.makedirs("/a/b/c")
    assert tree.lookup("/a/b/c").is_dir


def test_makedirs_through_file_fails(tree):
    tree.create_file("/a")
    with pytest.raises(NotADirectory):
        tree.makedirs("/a/b")


def test_write_and_read(tree):
    node = tree.create_file("/f")
    tree.write_node(node, 0, b"hello")
    assert node.read(0, 5) == b"hello"
    assert node.read(0, 100) == b"hello"
    assert node.read(5, 10) == b""


def test_write_with_hole_zero_fills(tree):
    node = tree.create_file("/f")
    tree.write_node(node, 4, b"x")
    assert node.read(0, 5) == b"\x00\x00\x00\x00x"
    assert node.size == 5


def test_overwrite_middle(tree):
    node = tree.create_file("/f")
    tree.write_node(node, 0, b"abcdef")
    tree.write_node(node, 2, b"XY")
    assert node.read(0, 6) == b"abXYef"


def test_total_bytes_accounting(tree):
    node = tree.create_file("/f")
    tree.write_node(node, 0, b"x" * 100)
    assert tree.total_bytes == 100
    tree.write_node(node, 50, b"y" * 100)  # extends to 150
    assert tree.total_bytes == 150
    tree.unlink("/f")
    assert tree.total_bytes == 0


def test_truncate_shrink_and_grow(tree):
    node = tree.create_file("/f")
    tree.write_node(node, 0, b"abcdef")
    tree.truncate_node(node, 3)
    assert node.read(0, 10) == b"abc"
    tree.truncate_node(node, 5)
    assert node.read(0, 10) == b"abc\x00\x00"
    assert tree.total_bytes == 5


def test_unlink_missing_fails(tree):
    with pytest.raises(FileNotFound):
        tree.unlink("/nope")


def test_unlink_directory_fails(tree):
    tree.mkdir("/d")
    with pytest.raises(IsADirectory):
        tree.unlink("/d")


def test_rmdir_nonempty_fails(tree):
    tree.mkdir("/d")
    tree.create_file("/d/f")
    with pytest.raises(DirectoryNotEmpty):
        tree.rmdir("/d")


def test_rmdir_file_fails(tree):
    tree.create_file("/f")
    with pytest.raises(NotADirectory):
        tree.rmdir("/f")


def test_rmdir_removes(tree):
    tree.mkdir("/d")
    tree.rmdir("/d")
    assert tree.try_lookup("/d") is None


def test_rename_file(tree):
    node = tree.create_file("/a")
    tree.write_node(node, 0, b"data")
    tree.rename("/a", "/b")
    assert tree.try_lookup("/a") is None
    assert tree.lookup("/b").read(0, 4) == b"data"


def test_rename_replaces_file(tree):
    a = tree.create_file("/a")
    tree.write_node(a, 0, b"aaaa")
    b = tree.create_file("/b")
    tree.write_node(b, 0, b"bb")
    tree.rename("/a", "/b")
    assert tree.lookup("/b").read(0, 4) == b"aaaa"
    assert tree.total_bytes == 4


def test_rename_into_own_subtree_fails(tree):
    tree.makedirs("/a/b")
    with pytest.raises(InvalidArgument):
        tree.rename("/a", "/a/b/c")


def test_rename_dir_over_nonempty_dir_fails(tree):
    tree.mkdir("/a")
    tree.makedirs("/b/c")
    with pytest.raises(DirectoryNotEmpty):
        tree.rename("/a", "/b")


def test_readdir_sorted(tree):
    for name in ("z", "a", "m"):
        tree.create_file("/" + name)
    assert tree.readdir("/") == ["a", "m", "z"]


def test_walk_visits_subtree(tree):
    tree.makedirs("/a/b")
    tree.create_file("/a/f")
    paths = [path for path, _node in tree.walk("/a")]
    assert paths == ["/a", "/a/b", "/a/f"]


def test_meta_size_override(tree):
    node = tree.create_file("/f")
    node.data = None
    node.meta_size = 12345
    assert node.size == 12345


def test_inos_are_unique(tree):
    nodes = [tree.create_file("/f%d" % i) for i in range(10)]
    inos = {node.ino for node in nodes}
    assert len(inos) == 10


# --- holes are a length, not zeros --------------------------------------------

def test_holes_read_as_zeros_and_hold_nothing(tree):
    size = 256 << 20
    grown = tree.create_file("/grown")
    sparse = tree.create_file("/sparse")
    tracemalloc.start()
    try:
        tree.truncate_node(grown, size)
        tree.write_node(sparse, size, b"tail")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 512 MiB when the zeros were materialised
    assert grown.size == len(grown.data) == size
    assert sparse.size == size + 4
    assert tree.total_bytes == 2 * size + 4
    assert grown.read(size - 8, 100) == bytes(8)
    assert sparse.read(size - 4, 100) == bytes(4) + b"tail"
    assert sparse.read(12345, 16) == bytes(16)
    tree.truncate_node(sparse, size - 1)  # cut back into the hole
    assert sparse.read(size - 3, 100) == bytes(2)
    assert tree.total_bytes == 2 * size - 1
