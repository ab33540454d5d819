"""Stack factories: the eight Table-1 client configurations.

==========  =====================  ==========================
Symbol      Union filesystem       Backend client
==========  =====================  ==========================
``D``       Danaus (optional)      Danaus (user-level cache)
``K``       —                      kernel CephFS (page cache)
``F``       —                      ceph-fuse, direct I/O
``FP``      —                      ceph-fuse + page cache
``K/K``     AUFS (page cache)      kernel CephFS (page cache)
``F/K``     unionfs-fuse           kernel CephFS (page cache)
``F/F``     unionfs-fuse           ceph-fuse (user cache only)
``FP/FP``   unionfs-fuse + pc      ceph-fuse + page cache
==========  =====================  ==========================

A :class:`StackFactory` is bound to one container pool and caches the
per-pool shared components (the backend client, the ceph-fuse daemon, the
Danaus service), so cloned containers genuinely share them — the paper's
scaleup configuration.
"""

from repro.cephclient import CephKernelFs, CephLibClient
from repro.common.errors import ConfigError
from repro.core import FilesystemLibrary, FilesystemService
from repro.fs import pathutil
from repro.fs.prefix import SubtreeFs
from repro.fuse import FuseTransport
from repro.kernel import LocalFs
from repro.stacks.mounts import Mount
from repro.unionfs import Branch, UnionFs

__all__ = ["SYMBOLS", "StackFactory", "mount_local", "validate_symbol"]

SYMBOLS = ("D", "K", "F", "FP", "K/K", "F/K", "F/F", "FP/FP")


def validate_symbol(symbol):
    """Check a Table-1 stack symbol; returns it.

    The single authority on known symbols — the factory and the
    experiment-spec validator both call this, so an unknown symbol fails
    with the same actionable message everywhere.
    """
    if symbol not in SYMBOLS:
        raise ConfigError(
            "unknown stack symbol %r (Table 1: %s)"
            % (symbol, ", ".join(SYMBOLS))
        )
    return symbol

#: symbols whose backend client is the user-level libcephfs analogue
_USER_CLIENT = {"D", "F", "FP", "F/F", "FP/FP"}
#: symbols whose backend client is the kernel CephFS client
_KERNEL_CLIENT = {"K", "K/K", "F/K"}


class StackFactory(object):
    """Builds container mounts of one pool for a Table-1 configuration."""

    def __init__(self, world, pool, symbol, cache_bytes=None,
                 locking="global", single_queue=False):
        validate_symbol(symbol)
        self.world = world
        self.pool = pool
        # The pool's host decides which kernel instance serves it — on a
        # multi-host world each host has its own kernel (and VFS).
        self.kernel = pool.host.kernel
        self.symbol = symbol
        self.cache_bytes = cache_bytes
        # the client locking policy (global/inode/range/adaptive)
        self.locking = locking
        self.single_queue = single_queue
        self._shared = {}
        # The paper's dirty limits: 50% of pool RAM for the kernel client.
        self.kernel.writeback.set_max_dirty(pool.ram, pool.ram.capacity // 2)

    # -- shared per-pool components -----------------------------------------

    @property
    def base(self):
        """The pool's directory in the shared cluster namespace."""
        return "/pools/%s" % self.pool.name

    def lib_client(self):
        """The pool's user-level Ceph client (shared by its containers)."""
        client = self._shared.get("lib_client")
        if client is None:
            client = CephLibClient(
                self.world.sim,
                self.world.cluster,
                self.world.costs,
                account=self.pool.ram,
                cpuset=self.pool.cores,
                name="%s.libceph" % self.pool.name,
                cache_bytes=self.cache_bytes,
                locking=self.locking,
            )
            self._shared["lib_client"] = client
        return client

    def kernel_client(self):
        """The pool's kernel CephFS mount (a kernel filesystem instance)."""
        client = self._shared.get("kernel_client")
        if client is None:
            client = CephKernelFs(
                self.kernel,
                self.world.cluster,
                name="%s.cephk" % self.pool.name,
            )
            self._shared["kernel_client"] = client
        return client

    def service(self):
        """The pool's Danaus filesystem service."""
        service = self._shared.get("service")
        if service is None:
            service = FilesystemService(
                self.world.sim,
                self.pool.machine,
                self.world.costs,
                self.pool.cores,
                name="%s.fsvc" % self.pool.name,
                single_queue=self.single_queue,
                pool=self.pool,
            )
            self.pool.services.append(service)
            self._shared["service"] = service
        return service

    def inner_fuse(self, use_page_cache):
        """The pool's ceph-fuse daemon (shared; mounted once in the VFS)."""
        key = "inner_fuse"
        fuse = self._shared.get(key)
        if fuse is None:
            fuse = FuseTransport(
                self.kernel,
                self.lib_client(),
                self.pool.cores,
                name="%s.cephfuse" % self.pool.name,
                use_page_cache=use_page_cache,
                pool=self.pool,
            )
            self.kernel.vfs.mount(self._fuse_mountpoint(), fuse)
            self._shared[key] = fuse
        return fuse

    def _fuse_mountpoint(self):
        return "/fuse/%s" % self.pool.name

    # -- branch assembly for cloned containers ----------------------------------

    def _union_over(self, branch_fs, cid, image_path, base=None):
        """Union of a private upper dir and the shared image lower dir."""
        upper = pathutil.join(base or self.base, cid, "upper")
        return UnionFs(
            self.world.sim,
            self.world.costs,
            [
                Branch(branch_fs, upper, writable=True),
                Branch(branch_fs, image_path, writable=False),
            ],
            name="%s.%s.union" % (self.pool.name, cid),
        )

    # -- the factory entry point -----------------------------------------------------

    def _provision_dirs(self, cid, cloned):
        """Pre-create the container's directories in the shared namespace.

        Container creation is engine-side setup, not measured I/O, so the
        directories are created directly in the MDS tree at no simulated
        cost.
        """
        tree = self.world.cluster.mds.tree
        container_base = self._container_base(cid)
        tree.makedirs(
            pathutil.join(container_base, "upper") if cloned else container_base
        )

    def mount_root(self, cid, image_path=None, base=None):
        """Build the root mount of container ``cid``.

        ``image_path`` (a path in the shared cluster namespace, e.g.
        ``/images/lighttpd``) selects the *cloned* layout: a union of a
        private upper branch over the shared read-only image. Without it
        the container gets an independent private root directory.

        ``base`` overrides the pool directory the container root lives
        under — used by migration to re-mount a container's *existing*
        state from a different pool or host (§9).
        """
        wants_union = "/" in self.symbol
        if wants_union and image_path is None:
            raise ConfigError(
                "%s is a union configuration: pass image_path" % self.symbol
            )
        self._base_override = base
        self._provision_dirs(cid, cloned=image_path is not None)
        if self.symbol == "D":
            return self._mount_danaus(cid, image_path)
        if self.symbol == "K":
            return self._mount_kernel(cid, image_path=None)
        if self.symbol in ("F", "FP"):
            return self._mount_fuse_plain(cid, self.symbol == "FP")
        if self.symbol == "K/K":
            return self._mount_kernel(cid, image_path=image_path)
        if self.symbol == "F/K":
            return self._mount_union_fuse(
            cid, image_path, inner_kernel=True, page_cache=False)
        if self.symbol == "F/F":
            return self._mount_union_fuse(
                cid, image_path, inner_kernel=False, page_cache=False
            )
        if self.symbol == "FP/FP":
            return self._mount_union_fuse(
                cid, image_path, inner_kernel=False, page_cache=True
            )
        raise ConfigError("unhandled symbol %r" % self.symbol)

    # -- per-symbol assembly ------------------------------------------------------------

    def _container_base(self, cid):
        return pathutil.join(getattr(self, "_base_override", None) or self.base, cid)

    def _mount_danaus(self, cid, image_path):
        client = self.lib_client()
        if image_path is not None:
            stack = self._union_over(
                client, cid, image_path,
                base=getattr(self, "_base_override", None),
            )
            union = stack
            libservices = ("union", "client")
        else:
            stack = SubtreeFs(client, self._container_base(cid))
            union = None
            libservices = ("client",)
        service = self.service()
        instance = service.mount("/" + cid, stack, libservices=libservices)
        library = FilesystemLibrary(
            self.kernel, name="%s.%s" % (self.pool.name, cid)
        )
        library.attach("/", service, instance)
        # Dual interface: the same stack parked behind FUSE in the host VFS
        # serves kernel-initiated (exec/mmap) requests.
        legacy_mountpoint = "/danaus/%s/%s" % (self.pool.name, cid)
        legacy_fuse = FuseTransport(
            self.kernel,
            stack,
            self.pool.cores,
            name="%s.%s.legacy" % (self.pool.name, cid),
            use_page_cache=False,
            pool=self.pool,
        )
        self.kernel.vfs.mount(legacy_mountpoint, legacy_fuse)
        legacy_fs = SubtreeFs(self.kernel.vfs, legacy_mountpoint)
        return Mount(
            "D:%s" % cid,
            fs=library,
            legacy_fs=legacy_fs,
            library=library,
            service=service,
            client=client,
            union=union,
            fuse_layers=(legacy_fuse,),
        )

    def _mount_kernel(self, cid, image_path):
        client = self.kernel_client()
        if image_path is not None:
            stack = self._union_over(
                client, cid, image_path,
                base=getattr(self, "_base_override", None),
            )
            union = stack
        else:
            stack = SubtreeFs(client, self._container_base(cid))
            union = None
        mountpoint = "/mnt/%s/%s" % (self.pool.name, cid)
        self.kernel.vfs.mount(mountpoint, stack)
        fs = SubtreeFs(self.kernel.vfs, mountpoint)
        name = ("K/K:%s" if union else "K:%s") % cid
        return Mount(name, fs=fs, client=client, union=union)

    def _mount_fuse_plain(self, cid, use_page_cache):
        fuse = self.inner_fuse(use_page_cache)
        mountpoint = pathutil.join(
            self._fuse_mountpoint(), self._container_base(cid)[1:]
        )
        fs = SubtreeFs(self.kernel.vfs, mountpoint)
        name = ("FP:%s" if use_page_cache else "F:%s") % cid
        return Mount(
            name, fs=fs, client=self.lib_client(), fuse_layers=(fuse,)
        )

    def _mount_union_fuse(self, cid, image_path, inner_kernel, page_cache):
        if inner_kernel:
            # F/K: the union daemon reaches CephFS through the kernel.
            branch_fs = self.kernel_client()
            inner_layers = ()
            client = branch_fs
        else:
            # F/F, FP/FP: branches live behind the pool's ceph-fuse mount,
            # so every branch access is a second kernel/FUSE crossing.
            inner = self.inner_fuse(page_cache)
            branch_fs = SubtreeFs(self.kernel.vfs, self._fuse_mountpoint())
            inner_layers = (inner,)
            client = self.lib_client()
        union = self._union_over(
            branch_fs, cid, image_path,
            base=getattr(self, "_base_override", None),
        )
        outer = FuseTransport(
            self.kernel,
            union,
            self.pool.cores,
            name="%s.%s.unionfuse" % (self.pool.name, cid),
            use_page_cache=page_cache,
            pool=self.pool,
        )
        mountpoint = "/mnt/%s/%s" % (self.pool.name, cid)
        self.kernel.vfs.mount(mountpoint, outer)
        fs = SubtreeFs(self.kernel.vfs, mountpoint)
        if inner_kernel:
            name = "F/K:%s" % cid
        else:
            name = ("FP/FP:%s" if page_cache else "F/F:%s") % cid
        return Mount(
            name,
            fs=fs,
            client=client,
            union=union,
            fuse_layers=(outer,) + inner_layers,
        )


def mount_local(pool):
    """An ext4-over-RAID0 mount on local disks (the RND/WBS substrate)."""
    kernel = pool.host.kernel
    device = pool.machine.make_raid0()
    fs = LocalFs(kernel, device, name="%s.ext4" % pool.name)
    mountpoint = "/local/%s/local" % pool.name
    kernel.vfs.mount(mountpoint, fs)
    kernel.writeback.set_max_dirty(pool.ram, pool.ram.capacity // 2)
    return Mount(
        "local:%s" % pool.name,
        fs=SubtreeFs(kernel.vfs, mountpoint),
        client=fs,
    )
