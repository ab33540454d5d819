"""Property-based tests on core data structures (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import ConfigError, DataUnavailable
from repro.common.rng import derive, make_rng, pseudo_bytes
from repro.fs import MemTree, pathutil
from repro.hw import RamAccount
from repro.kernel import PageCache
from repro.storage import CrushMap
from repro.storage.monitor import OsdMap

from tests.reference_pagecache import PageCache as ReferencePageCache


# --- pathutil ---------------------------------------------------------------

path_segments = st.lists(
    st.text(alphabet="abcxyz.", min_size=1, max_size=4).filter(
        lambda s: s not in (".", "..")
    ),
    min_size=0, max_size=6,
)


@given(path_segments)
def test_property_normalize_idempotent(segments):
    path = "/" + "/".join(segments)
    once = pathutil.normalize(path)
    assert pathutil.normalize(once) == once


@given(path_segments)
def test_property_split_join_roundtrip(segments):
    path = pathutil.normalize("/" + "/".join(segments))
    parent, name = pathutil.split(path)
    if name:
        assert pathutil.join(parent, name) == path
    assert pathutil.is_ancestor(parent, path)


@given(path_segments, path_segments)
def test_property_relative_to_inverts_join(base_segments, rel_segments):
    base = pathutil.normalize("/" + "/".join(base_segments))
    joined = pathutil.join(base, *rel_segments) if rel_segments else base
    rel = pathutil.relative_to(base, joined)
    assert pathutil.join(base, rel.lstrip("/") or ".") == joined


# --- MemTree vs a flat-dict reference model ---------------------------------

@st.composite
def tree_ops(draw):
    names = ("a", "b", "c")
    count = draw(st.integers(min_value=1, max_value=20))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["create", "write", "unlink", "mkdir"]))
        name = draw(st.sampled_from(names))
        depth = draw(st.integers(min_value=0, max_value=1))
        parent = "/d" if depth else ""
        ops.append((kind, parent + "/" + name))
    return ops


@settings(max_examples=150, deadline=None)
@given(tree_ops())
def test_property_memtree_matches_dict_model(ops):
    from repro.common.errors import FsError

    tree = MemTree()
    tree.mkdir("/d")
    model = {}  # path -> bytes (files only)
    for kind, path in ops:
        try:
            if kind == "create":
                node = tree.create_file(path)
                model.setdefault(path, bytes(node.data))
            elif kind == "write":
                node = tree.create_file(path)
                tree.write_node(node, 0, b"data:" + path.encode())
                model[path] = b"data:" + path.encode()
            elif kind == "unlink":
                tree.unlink(path)
                model.pop(path, None)
            elif kind == "mkdir":
                tree.mkdir(path)
        except FsError:
            continue  # both models treat conflicts as no-ops
    for path, expected in model.items():
        node = tree.try_lookup(path)
        assert node is not None
        if expected:
            assert node.read(0, len(expected)) == expected
    # Space accounting equals the sum of live file sizes.
    live = sum(
        node.size for _p, node in tree.walk("/") if not node.is_dir
    )
    assert tree.total_bytes == live


data_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 96), st.binary(max_size=24)),
        st.tuples(st.just("truncate"), st.integers(0, 128)),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=150, deadline=None)
@given(data_ops)
def test_property_memtree_data_matches_flat_model(ops):
    """Writes inside, across and past EOF and truncates both ways: the
    node's bytes equal a flat ``bytearray`` that materialises every hole."""
    tree = MemTree()
    node = tree.create_file("/f")
    model = bytearray()
    for op in ops:
        if op[0] == "write":
            _kind, offset, data = op
            tree.write_node(node, offset, data)
            if offset > len(model):
                model.extend(bytes(offset - len(model)))
            model[offset:offset + len(data)] = data
        else:
            _kind, size = op
            tree.truncate_node(node, size)
            if size <= len(model):
                del model[size:]
            else:
                model.extend(bytes(size - len(model)))
        assert bytes(node.data) == model
        assert node.size == tree.total_bytes == len(model)
        assert node.read(3, 40) == bytes(model[3:43])


# --- CRUSH placement ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=10 ** 9),
    st.integers(min_value=0, max_value=10 ** 6),
)
def test_property_crush_valid_and_stable(num_osds, replicas, ino, index):
    if replicas > num_osds:
        replicas = num_osds
    crush = CrushMap(num_osds, replicas=replicas)
    placement = crush.placement(ino, index)
    assert len(placement) == replicas
    assert len(set(placement)) == replicas
    assert all(0 <= osd < num_osds for osd in placement)
    assert placement == crush.placement(ino, index)


crush_mutations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "reweight"]),
        st.integers(min_value=0, max_value=99),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    crush_mutations,
    st.sets(st.integers(min_value=0, max_value=9), max_size=3),
)
def test_property_acting_set_filters_a_fresh_order(num_osds, replicas,
                                                   mutations, down):
    """After any add/remove/reweight sequence the memoised order is the
    one the current weights give, and the acting set is that order with
    ``down`` skipped, cut to ``replicas``."""
    crush = CrushMap(num_osds, replicas=min(replicas, num_osds))
    objects = [(ino, index) for ino in range(1, 6) for index in range(2)]

    def fresh_order(ino, index):
        weighted = [osd for osd in crush.devices() if crush.weight(osd) > 0]
        return sorted(weighted, key=lambda osd: (
            -crush._straw(ino, index, osd, crush.weight(osd)), osd
        ))

    def check():
        osdmap = OsdMap(1, down, (), crush)
        for key in objects:
            order = fresh_order(*key)
            assert crush.order(*key) == order
            assert crush.placement(*key) == order[:crush.replicas]
            live = [osd for osd in order if osd not in down]
            if live:
                assert osdmap.acting_set(*key) == live[:crush.replicas]
            else:
                with pytest.raises(DataUnavailable):
                    osdmap.acting_set(*key)

    check()
    for kind, pick, weight in mutations:
        devices = crush.devices()
        osd_id = devices[pick % len(devices)]
        try:
            if kind == "add":
                crush.add_device(weight=weight or 1.0)
            elif kind == "remove":
                crush.remove_device(osd_id)
            else:
                crush.reweight(osd_id, weight)
        except ConfigError:
            continue
        check()


# --- page cache memory accounting ----------------------------------------------

@st.composite
def cache_ops(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["insert", "dirty", "clean", "drop"]))
        key = draw(st.sampled_from(["f", "g"]))
        page = draw(st.integers(min_value=0, max_value=8))
        ops.append((kind, key, page))
    return ops


@settings(max_examples=150, deadline=None)
@given(cache_ops())
def test_property_pagecache_accounting_invariants(ops):
    page_size = 4096
    ram = RamAccount(1 << 20, name="prop-ram")
    cache = PageCache(page_size, ram)
    for kind, key, page in ops:
        cf = cache.file(key)
        offset = page * page_size
        if kind == "insert":
            cache.insert(cf, offset, page_size, ram)
        elif kind == "dirty":
            cache.mark_dirty(cf, offset, page_size, now=0.0, account=ram)
        elif kind == "clean":
            cache.clean(cf, [page])
        elif kind == "drop":
            cache.drop_file(key)
        # Invariants after every step:
        total_pages = sum(
            file.nr_pages for file in cache._files.values()
        )
        dirty_pages = sum(
            file.nr_dirty for file in cache._files.values()
        )
        assert ram.used == total_pages * page_size
        assert cache.dirty_bytes == dirty_pages * page_size
        assert cache.dirty_bytes <= ram.used
        # per-account dirty sums to the global dirty figure
        assert cache.account_dirty(ram) == cache.dirty_bytes


# --- run-granular page cache vs the per-page reference model --------------------

PAGE = 4096
FILES = ("f", "g", "h")
ACCOUNTS = ("host", "pool-a", "pool-b")


class _LoggedReference(ReferencePageCache):
    """The per-page model, noting every eviction victim in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.victims = []

    def _evict_one(self):
        before = next(iter(self._lru), None)
        evicted = super()._evict_one()
        if evicted:
            self.victims.append(before)
        return evicted


class _LoggedPageCache(PageCache):
    """The run-granular cache, noting every eviction victim in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.victims = []

    def _evict(self, run, count):
        self.victims.extend(
            (run.file.key, page)
            for page in range(run.start, run.start + count)
        )
        super()._evict(run, count)


def _accounts():
    host = RamAccount(40 * PAGE, name="host")
    return {
        "host": host,
        "pool-a": host.child(28 * PAGE, "pool-a"),
        "pool-b": host.child(16 * PAGE, "pool-b"),
    }


def _run_pages(order):
    """Expand an order list of the run-granular cache into its pages."""
    run = order.next
    while run.file is not None:
        for page in range(run.start, run.end):
            yield run, page
        run = run.next


page_spans = st.tuples(
    st.integers(min_value=0, max_value=36),
    st.integers(min_value=1, max_value=14),
)


class PageCacheEquivalence(RuleBasedStateMachine):
    """Drive both caches with one operation sequence over several files
    and cgroups on a host small enough to be under memory pressure, and
    demand equal answers and equal page-level state after every step."""

    def __init__(self):
        super().__init__()
        self.ref_accounts = _accounts()
        self.new_accounts = _accounts()
        self.ref = _LoggedReference(PAGE, self.ref_accounts["host"])
        self.new = _LoggedPageCache(PAGE, self.new_accounts["host"])
        self.now = 0.0
        self.batches = []  # (file key, picked indices) awaiting an outcome
        self.ballast = []  # (account name, bytes) charged from outside

    def _both(self, call):
        """Run ``call(cache, accounts)`` on both models; equal results."""
        expected = call(self.ref, self.ref_accounts)
        actual = call(self.new, self.new_accounts)
        assert actual == expected
        return expected

    @rule(key=st.sampled_from(FILES), span=page_spans,
          account=st.sampled_from(ACCOUNTS))
    def insert(self, key, span, account):
        self._both(lambda cache, accounts: cache.insert(
            cache.file(key), span[0] * PAGE, span[1] * PAGE,
            accounts[account]))

    @rule(key=st.sampled_from(FILES), span=page_spans,
          skew=st.integers(min_value=0, max_value=PAGE - 1))
    def scan(self, key, span, skew):
        self._both(lambda cache, accounts: cache.scan(
            cache.file(key), span[0] * PAGE + skew, span[1] * PAGE))

    @rule(key=st.sampled_from(FILES), span=page_spans,
          account=st.sampled_from(ACCOUNTS),
          tick=st.sampled_from([0.0, 0.5, 3.0]))
    def mark_dirty(self, key, span, account, tick):
        self.now += tick
        self._both(lambda cache, accounts: cache.mark_dirty(
            cache.file(key), span[0] * PAGE, span[1] * PAGE, self.now,
            accounts[account]))

    @rule(key=st.sampled_from(FILES),
          max_pages=st.integers(min_value=1, max_value=20),
          min_age=st.sampled_from([None, 1.0, 5.0]))
    def pick_flush_batch(self, key, max_pages, min_age):
        picked = self._both(lambda cache, accounts: cache.pick_flush_batch(
            cache.file(key), max_pages, now=self.now, min_age=min_age))
        if picked:
            self.batches.append((key, picked))

    @precondition(lambda self: self.batches)
    @rule(data=st.data(), flushed=st.booleans())
    def finish_batch(self, data, flushed):
        index = data.draw(st.integers(0, len(self.batches) - 1))
        key, picked = self.batches.pop(index)
        if flushed:
            self._both(lambda cache, accounts: cache.clean(
                cache.file(key), picked))
        else:
            self._both(lambda cache, accounts: cache.cancel_writeback(
                cache.file(key), picked))

    @rule(key=st.sampled_from(FILES), flushed=st.booleans(),
          indices=st.lists(st.integers(min_value=0, max_value=50),
                           max_size=12))
    def finish_arbitrary_pages(self, key, flushed, indices):
        """Any index list is legal: unsorted, repeated, never picked."""
        method = "clean" if flushed else "cancel_writeback"
        self._both(lambda cache, accounts: getattr(cache, method)(
            cache.file(key), indices))

    @rule(key=st.sampled_from(FILES))
    def drop_file(self, key):
        self._both(lambda cache, accounts: cache.drop_file(key))
        self.batches = [b for b in self.batches if b[0] != key]

    @rule(account=st.sampled_from(ACCOUNTS),
          pages=st.integers(min_value=1, max_value=12))
    def squeeze_memory(self, account, pages):
        """Something else on the host takes memory (if it is there)."""
        nbytes = pages * PAGE
        if self.ref_accounts[account].can_charge(nbytes):
            self.ref_accounts[account].charge(nbytes)
            self.new_accounts[account].charge(nbytes)
            self.ballast.append((account, nbytes))

    @precondition(lambda self: self.ballast)
    @rule()
    def release_memory(self):
        account, nbytes = self.ballast.pop()
        self.ref_accounts[account].uncharge(nbytes)
        self.new_accounts[account].uncharge(nbytes)

    @invariant()
    def same_observable_state(self):
        ref, new = self.ref, self.new
        assert new.victims == ref.victims
        assert new.stats() == ref.stats()
        assert new.dirty_bytes == ref.dirty_bytes
        for name in ACCOUNTS:
            assert (new.account_dirty(self.new_accounts[name])
                    == ref.account_dirty(self.ref_accounts[name]))
            assert self.new_accounts[name].used == self.ref_accounts[name].used
        assert ([cf.key for cf in new.dirty_files()]
                == [cf.key for cf in ref.dirty_files()])
        for key in FILES:
            ref_cf, new_cf = ref.peek(key), new.peek(key)
            assert (new_cf is None) == (ref_cf is None)
            if ref_cf is None:
                continue
            assert new_cf.nr_pages == ref_cf.nr_pages
            assert new_cf.nr_dirty == ref_cf.nr_dirty
            assert (new_cf.oldest_dirty_age(self.now)
                    == ref_cf.oldest_dirty_age(self.now))

    @invariant()
    def same_page_level_state(self):
        """Every page in the same state, at the same LRU / dirty-order
        position: nothing a later operation could tell apart."""
        ref, new = self.ref, self.new
        assert [
            (run.file.key, page) for run, page in _run_pages(new._lru)
        ] == list(ref._lru)
        for key in FILES:
            ref_cf, new_cf = ref.peek(key), new.peek(key)
            if ref_cf is None:
                continue
            assert [
                (page, run.dirty_since) for run, page in _run_pages(new_cf._dirty)
            ] == list(ref_cf.dirty_pages.items())
            assert new_cf._starts == [run.start for run in new_cf._runs]
            pages = {}
            for run in new_cf._runs:
                assert run.start < run.end
                for page in range(run.start, run.end):
                    assert page not in pages
                    pages[page] = (run.dirty, run.dirty_since,
                                   run.under_writeback, run.account.name)
            assert pages == {
                index: (page.dirty, page.dirty_since if page.dirty else 0.0,
                        page.under_writeback, page.account.name)
                for index, page in ref_cf.pages.items()
            }


PageCacheEquivalence.TestCase.settings = settings(
    max_examples=300, stateful_step_count=60, deadline=None
)
test_pagecache_runs_match_per_page_model = PageCacheEquivalence.TestCase


# --- deterministic rng ------------------------------------------------------------

@given(st.integers(), st.text(max_size=8))
def test_property_derive_is_stable_and_label_sensitive(seed, label):
    assert derive(seed, label) == derive(seed, label)
    assert derive(seed, label) != derive(seed, label + "x")


@given(st.integers(min_value=0, max_value=4096), st.integers())
def test_property_pseudo_bytes_length_and_determinism(size, seed):
    data = pseudo_bytes(size, seed)
    assert len(data) == size
    assert data == pseudo_bytes(size, seed)


@given(st.integers())
def test_property_make_rng_streams_independent(seed):
    a = make_rng(seed, "a").random()
    b = make_rng(seed, "b").random()
    assert make_rng(seed, "a").random() == a
    assert a != b


# --- monitor epoch monotonicity vs a reference model -------------------------

monitor_ops = st.lists(
    st.tuples(
        st.sampled_from(["down", "up", "report"]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=40,
)


@given(monitor_ops)
@settings(max_examples=60, deadline=None)
def test_property_monitor_epoch_monotonic(ops):
    """The OSD map epoch never decreases and bumps exactly on transitions."""
    from repro.costs import CostModel
    from repro.net import Fabric
    from repro.sim import Simulator
    from repro.storage import CephCluster

    sim = Simulator()
    costs = CostModel()
    cluster = CephCluster(sim, Fabric(sim), costs, num_osds=4, replicas=2)
    monitor = cluster.monitor

    down = set()
    reports = {}
    expected = monitor.epoch
    for op, osd in ops:
        before = monitor.epoch
        if op == "down":
            monitor.mark_down(osd)
            if osd not in down:
                down.add(osd)
                expected += 1
        elif op == "up":
            monitor.mark_up(osd)
            reports.pop(osd, None)
            if osd in down:
                down.remove(osd)
                expected += 1
        else:
            monitor.report_failure(osd)
            if osd not in down:
                reports[osd] = reports.get(osd, 0) + 1
                if reports[osd] >= costs.osd_failure_reports:
                    reports.pop(osd)
                    down.add(osd)
                    expected += 1
        assert monitor.epoch >= before
        assert monitor.epoch == expected
        assert {o for o in range(4) if not monitor.is_up(o)} == down
