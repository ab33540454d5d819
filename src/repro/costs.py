"""Central cost model: every simulated CPU/IPC/protocol cost in one place.

The absolute values are calibrated to the order of magnitude of the paper's
testbed (2.4 GHz Opterons, Linux 4.9, 20 Gbps network, ramdisk OSDs); the
*relationships* between them are what reproduce the paper's shapes:

* a FUSE crossing costs two context switches plus queueing, a Danaus IPC
  crossing costs a shared-memory enqueue plus (rarely) one wakeup;
* kernel writeback runs on any activated core, Danaus flushing only on the
  pool's cores;
* the user-level client serialises on one global ``client_lock`` while the
  kernel client uses finer-grained inode locks.

Experiments may tweak individual fields via :meth:`CostModel.replace`.
"""

from repro.common import units

__all__ = ["CostModel"]


class CostModel(object):
    """Bag of cost constants; attributes are documented inline."""

    def __init__(self, **overrides):
        # --- CPU work per operation (seconds) ---------------------------
        #: mode switch in+out of the kernel for one system call
        self.syscall = units.usec(0.6)
        #: direct cost of one context switch (register/TLB state)
        self.context_switch = units.usec(3.0)
        #: scheduling latency until a woken thread runs
        self.wakeup_latency = units.usec(5.0)
        #: generic filesystem op bookkeeping (handle lookup, checks)
        self.fs_op = units.usec(1.0)
        #: per-path-component resolution work (dentry hash + checks)
        self.path_component = units.usec(0.3)
        #: per-page page-cache lookup/insert/mark work
        self.page_op = units.usec(0.15)
        #: per-entry readdir marshalling
        self.dirent_op = units.usec(0.2)

        # --- memory movement ---------------------------------------------
        #: copy bandwidth user<->kernel or between buffers (bytes/s)
        self.memcpy_bandwidth = 8 * units.GIB
        #: page size used by the page cache and dirty accounting
        self.page_size = 4096

        # --- Ceph client protocol ------------------------------------------
        #: client-side protocol work per request (marshalling, osdmap)
        self.ceph_client_op = units.usec(4.0)
        #: checksum/assembly bandwidth applied to payloads client-side
        self.ceph_payload_bandwidth = 4 * units.GIB
        #: stripe unit mapping files onto RADOS-like objects
        self.object_size = units.mib(1)
        #: maximum per-object ops one client keeps in flight when a
        #: striped read/write fans out across OSDs (the objecter's
        #: inflight window); 1 degenerates to fully serial dispatch
        self.client_inflight_ops = 16

        #: bandwidth of kernel-side messenger *send* processing (crc32c +
        #: scatter-gather assembly of flushed pages) executed by host-wide
        #: kworkers for the kernel client. Deliberately low: this is the
        #: work that lands on *any* activated core — the core stealing of
        #: Fig. 1a.
        self.kernel_wq_bandwidth = 256 * units.MIB
        #: bandwidth of kernel-side *receive* processing for sequential
        #: (readahead-pipelined) reads. High: the receive path overlaps
        #: DMA placement into the page cache, which is why the kernel
        #: client wins cold streaming reads (Fig. 11b) even though its
        #: flush path burns foreign cores.
        self.kernel_wq_read_bandwidth = 4 * units.GIB
        #: bandwidth of kernel-side receive processing for *random* reads:
        #: no readahead pipelining, per-request page allocation and crc
        #: verification — the reason the kernel client loses the
        #: out-of-core random-get workload (Fig. 7b).
        self.kernel_wq_rand_read_bandwidth = 512 * units.MIB
        #: number of kworker threads serving the kernel workqueue
        self.nr_kworkers = 4

        # --- server side -----------------------------------------------------
        #: OSD request processing before touching the store
        self.osd_op = units.usec(25.0)
        #: MDS request processing per metadata op
        self.mds_op = units.usec(40.0)
        #: concurrent ops one OSD serves before queueing
        self.osd_concurrency = 8
        #: concurrent ops the MDS serves before queueing
        self.mds_concurrency = 16

        # --- FUSE ------------------------------------------------------------
        #: kernel-side queue management per FUSE crossing direction
        self.fuse_queue_op = units.usec(2.0)
        #: context switches per FUSE round trip (app->daemon, daemon->app)
        self.fuse_switches_per_call = 2
        #: max request payload per FUSE call (forces large I/O splitting)
        self.fuse_max_write = units.kib(128)

        # --- Danaus IPC ---------------------------------------------------
        #: shared-memory circular-queue enqueue/dequeue work
        self.ipc_queue_op = units.usec(0.4)
        #: polling pickup latency when the service thread is awake
        self.ipc_poll_latency = units.usec(1.0)
        #: pending requests in a queue that spawn an extra service thread
        #: (§3.5); 1 means "another request is already waiting while all
        #: current threads are busy"
        self.ipc_backlog_threshold = 1

        # --- union filesystem ------------------------------------------------
        #: per-branch lookup work
        self.union_branch_op = units.usec(0.8)

        # --- locking -----------------------------------------------------------
        #: critical-section CPU inside kernel lock holds (per op)
        self.kernel_lock_section = units.usec(1.5)

        # --- writeback ---------------------------------------------------------
        #: kernel flusher wakeup interval (paper keeps the 1s default)
        self.writeback_interval = 1.0
        #: dirty expiration age (paper keeps the 5s default)
        self.expire_interval = 5.0
        #: flusher CPU work per flushed page
        self.flush_page_op = units.usec(0.3)
        #: number of kernel flusher threads on the host
        self.nr_flushers = 4
        #: batch size of one flush round per file (bytes)
        self.flush_batch = units.mib(4)

        # --- scheduling quantum ---------------------------------------------
        #: CPU slice used when chopping work onto cores
        self.quantum = units.usec(200)

        # --- fault recovery ---------------------------------------------------
        #: client-side op timeout before a request is declared lost
        self.op_timeout = 0.25
        #: first retry backoff; doubles per attempt (exponential)
        self.retry_backoff = 0.05
        #: ceiling of the exponential backoff
        self.retry_backoff_max = 1.0
        #: attempts before a retryable failure propagates to the caller
        self.retry_attempts = 10
        #: op-timeout reports against one OSD before the monitor marks it
        #: down (the failure-report quorum of the Ceph heartbeat protocol)
        self.osd_failure_reports = 2
        #: sliding window over which failure reports against one OSD are
        #: counted; a single transient blame expires instead of lingering
        #: until the quorum is eventually met
        self.failure_report_window = 5.0
        #: supervisor delay between detecting a service crash and the
        #: restarted service accepting requests again
        self.restart_delay = 0.5

        # --- membership lifecycle (heartbeats / osdmap epochs) ----------------
        #: monitor heartbeat probe period once ``start_heartbeats`` runs
        self.heartbeat_interval = 0.1
        #: missed probes before a silent OSD is marked down (a *suspect*
        #: OSD — blamed by reports — is confirmed down on the next miss)
        self.heartbeat_grace = 3
        #: seconds an OSD stays down before the monitor marks it *out*
        #: and backfill re-replicates its data elsewhere
        self.osd_out_interval = 2.0
        #: down->up transitions within ``flap_window`` that trigger flap
        #: damping (the rejoin is held back for ``flap_probation``)
        self.flap_threshold = 3
        #: sliding window for counting flaps (seconds)
        self.flap_window = 5.0
        #: probation a flapping OSD serves before it may rejoin
        self.flap_probation = 1.0

        # --- metadata HA (MDS journal / standbys / failover) ------------------
        #: per-record CPU cost of replaying one journal entry during
        #: standby promotion or journal-backed local recovery
        self.mds_replay_op = units.usec(5.0)
        #: period of the standby-replay journal tail (sim seconds)
        self.mds_tail_interval = 0.05
        #: missed monitor probes before the active MDS fails over to
        #: a standby (the mds_beacon_grace analogue)
        self.mds_heartbeat_grace = 3

        # --- backfill throttle ------------------------------------------------
        #: pause between backfill scheduler cycles (sim seconds)
        self.backfill_interval = 0.25
        #: recovery bytes one target OSD accepts per backfill cycle
        self.backfill_bytes_per_osd = units.mib(2)
        #: recovery pushes one target OSD accepts per backfill cycle
        self.backfill_ops_per_osd = 8
        #: minimum acting-set size a write needs to proceed degraded
        #: (the pool min_size; writes below it raise DataUnavailable)
        self.pool_min_size = 1

        # --- data integrity / scrub ------------------------------------------
        #: granularity of per-object checksums (bluestore-style per-chunk
        #: digests: a partial overwrite re-digests only touched chunks and
        #: can never "bless" corruption elsewhere in the object)
        self.integrity_chunk_size = 4096
        #: OSD-side digest-check bandwidth during verified reads/scrubs
        #: (blake2b over stored bytes, on the OSD's cores)
        self.integrity_verify_bandwidth = 2 * units.GIB
        #: pause between background scrub cycles (sim seconds)
        self.scrub_interval = 2.0
        #: every Nth scrub cycle is a deep scrub (byte verify); the others
        #: are light metadata scrubs. 0 disables deep cycles.
        self.deep_scrub_every = 2
        #: objects examined per scrub cycle (bounds foreground impact)
        self.scrub_batch = 64
        #: CPU+queue work of one light-scrub metadata probe per replica
        self.scrub_meta_op = units.usec(10.0)
        #: whether scrub repairs corrupt replicas (False: detect/quarantine
        #: only — the equivalent of ``osd_scrub_auto_repair=false``)
        self.scrub_repair = True

        for key, value in overrides.items():
            if not hasattr(self, key):
                raise AttributeError("unknown cost field %r" % key)
            setattr(self, key, value)

    def replace(self, **overrides):
        """A copy of this model with some fields overridden."""
        clone = CostModel()
        clone.__dict__.update(self.__dict__)
        for key, value in overrides.items():
            if not hasattr(clone, key):
                raise AttributeError("unknown cost field %r" % key)
            setattr(clone, key, value)
        return clone

    def copy_cost(self, nbytes):
        """CPU seconds to copy ``nbytes`` across a protection boundary."""
        return nbytes / self.memcpy_bandwidth

    def payload_cost(self, nbytes):
        """Client CPU seconds to checksum/assemble a payload."""
        return nbytes / self.ceph_payload_bandwidth

    def verify_cost(self, nbytes):
        """OSD CPU seconds to digest-check ``nbytes`` of stored data."""
        return nbytes / self.integrity_verify_bandwidth

    def pages_of(self, offset, size):
        """Number of pages covering ``[offset, offset+size)``."""
        if size <= 0:
            return 0
        first = offset // self.page_size
        last = (offset + size - 1) // self.page_size
        return last - first + 1
