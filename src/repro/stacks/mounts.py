"""Mount objects: what a container receives from a stack factory."""

__all__ = ["Mount"]


class Mount(object):
    """A container root (or application) filesystem, fully assembled.

    Attributes:
        fs: the :class:`~repro.fs.api.Filesystem` the container's
            processes use for ordinary I/O (already rooted at '/').
        legacy_fs: the kernel-path view used by exec/mmap traffic; for
            Danaus this is the FUSE endpoint mounted in the host VFS, for
            kernel-based stacks it equals ``fs``.
        library: the Danaus filesystem library (None for kernel stacks).
        service: the Danaus filesystem service (None otherwise).
        client: the backend client instance serving this mount.
        union: the union filesystem layer, when the stack has one.
        fuse_layers: FUSE transports in the stack, outermost first (their
            metrics carry the context-switch counts of Fig. 8b).
    """

    def __init__(self, name, fs, legacy_fs=None, library=None, service=None,
                 client=None, union=None, fuse_layers=()):
        self.name = name
        self.fs = fs
        self.legacy_fs = legacy_fs
        self.library = library
        self.service = service
        self.client = client
        self.union = union
        self.fuse_layers = tuple(fuse_layers)

    def exec_read(self, task, path):
        """Legacy kernel-initiated read (exec/mmap); sim generator."""
        if self.library is not None:
            self.library.metrics.counter("legacy_reads").add(1)
        target = self.legacy_fs if self.legacy_fs is not None else self.fs
        return target.read_file(task, path)

    def ctx_switches(self):
        """Context switches incurred by this mount's transports so far."""
        total = 0
        for layer in self.fuse_layers:
            total += layer.metrics.counter("ctx_switches").value
        return total

    def __repr__(self):
        return "<Mount %s>" % self.name
