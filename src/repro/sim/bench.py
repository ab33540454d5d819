"""Engine-level reference scenarios and schedule fingerprints.

The DES engine is the hardware ceiling of every experiment in this
reproduction: VFS calls, writeback rounds, FUSE crossings and OSD RPCs
are all scheduler entries. This module provides two things the perf
work needs:

* **micro scenarios** — pure-engine torture loops (mutex convoys,
  semaphore herds, store pipelines, ``any_of`` races, interrupts) that
  exercise every scheduling path without any of the storage stack on
  top, so scheduler regressions are visible undiluted;
* **schedule fingerprints** — a stable hash over the exact sequence of
  ``(tag, simulated-time)`` observations a scenario produces. Two
  engines that schedule byte-identically produce equal fingerprints;
  any reordering of same-timestamp callbacks, however subtle, changes
  the hash. The determinism tests pin golden values captured from the
  pre-optimization engine, so the fast path is provably
  schedule-equivalent to the original heap-only scheduler.

A third piece, :func:`primitive_costs`, times the three uncontended
primitives everything else is made of (``python -m repro.sim.bench``).

The fingerprint hash is ``blake2b(repr(log))`` over a log of plain
tuples of strings/ints/floats — ``repr`` of those is stable across
CPython versions for the value ranges used here (times are sums of
exact binary fractions or short decimals; equality of schedules implies
equality of the floats themselves).
"""

import hashlib
import random
import time

from repro.common.errors import ThreadKilled
from repro.sim.cpu import Core, SimThread
from repro.sim.engine import Interrupt, Simulator
from repro.sim.sync import Mutex, Semaphore, Store

__all__ = [
    "torture_scenario",
    "interrupt_scenario",
    "combinator_scenario",
    "cpu_mix_scenario",
    "schedule_fingerprint",
    "run_reference",
    "stripe_fanout_reference",
    "primitive_costs",
]


def torture_scenario(sim, log, seed=1, nworkers=24, steps=40):
    """Mutex/semaphore/store contention mix; appends to ``log``.

    Returns the list of spawned processes (callers run the sim).
    """
    rng = random.Random(seed)
    locks = [Mutex(sim, name="m%d" % i) for i in range(3)]
    sem = Semaphore(sim, 2, name="sem")
    store = Store(sim, capacity=8, name="q")
    delays = [rng.randrange(1, 9) * 0.0005 for _ in range(nworkers * steps)]

    def consumer(tag):
        while True:
            item = yield store.get()
            if item is None:
                log.append(("stop", tag, sim.now))
                return
            log.append(("got", tag, item, sim.now))
            yield 0.0005 * ((item % 5) + 1)

    def worker(tag):
        for step in range(steps):
            choice = (tag + step) % 4
            delay = delays[tag * steps + step]
            if choice == 0:
                lock = locks[(tag + step) % 3]
                yield lock.acquire(who=None)
                log.append(("lock", tag, step, sim.now))
                yield delay
                lock.release()
            elif choice == 1:
                yield sem.acquire()
                yield delay
                sem.release()
                log.append(("sem", tag, step, sim.now))
            elif choice == 2:
                yield store.put(tag * 1000 + step)
                log.append(("put", tag, step, sim.now))
            else:
                gate = sim.event()
                index, _value = yield sim.any_of(
                    [sim.timeout(delay), gate]
                )
                log.append(("race", tag, step, index, sim.now))
        log.append(("done", tag, sim.now))

    def closer(procs):
        yield sim.all_of(procs)
        for _ in range(2):
            yield store.put(None)

    consumers = [sim.spawn(consumer(c), name="cons%d" % c) for c in range(2)]
    workers = [sim.spawn(worker(t), name="w%d" % t) for t in range(nworkers)]
    closer_proc = sim.spawn(closer(list(workers)), name="closer")
    return workers + consumers + [closer_proc]


def interrupt_scenario(sim, log, seed=2, npairs=16):
    """Interrupt storms, including interrupts racing queued resumptions."""
    rng = random.Random(seed)
    plan = [(rng.randrange(1, 7) * 0.001, rng.randrange(0, 3))
            for _ in range(npairs)]

    def sleeper(tag, kind):
        gate = sim.event()
        if kind == 1:
            # Wait on an event that has *already* triggered, so the
            # resumption is queued when the interrupt lands.
            gate.succeed("early")
        try:
            if kind == 2:
                yield 1000.0
            else:
                value = yield gate
                log.append(("woke", tag, value, sim.now))
        except Interrupt as intr:
            log.append(("intr", tag, intr.cause, sim.now))
        finally:
            log.append(("unwound", tag, sim.now))
        return tag

    def interrupter(tag, target, delay):
        yield delay
        target.interrupt(cause="k%d" % tag)
        log.append(("sent", tag, sim.now))

    procs = []
    for tag, (delay, kind) in enumerate(plan):
        target = sim.spawn(sleeper(tag, kind), name="s%d" % tag)
        procs.append(target)
        procs.append(
            sim.spawn(interrupter(tag, target, delay), name="i%d" % tag)
        )
    return procs


def combinator_scenario(sim, log, seed=3, rounds=12):
    """Nested any_of/all_of chains with immediate and delayed members."""
    rng = random.Random(seed)
    spec = [(rng.randrange(0, 4) * 0.0005, rng.randrange(1, 4) * 0.0005)
            for _ in range(rounds)]

    def leaf(tag, delay):
        yield delay
        return tag

    def round_proc(tag, fast, slow):
        first = sim.spawn(leaf(tag * 10, fast), name="f%d" % tag)
        second = sim.spawn(leaf(tag * 10 + 1, slow), name="g%d" % tag)
        index, value = yield sim.any_of([first, second])
        log.append(("any", tag, index, value, sim.now))
        values = yield sim.all_of([first, second])
        log.append(("all", tag, tuple(values), sim.now))
        # A zero-delay Timeout carrying a value: what a sleep cannot do.
        timer = sim.timeout(0.0, value="z")
        got = yield timer
        log.append(("zero", tag, got, sim.now))
        return tag

    return [
        sim.spawn(round_proc(tag, fast, slow), name="r%d" % tag)
        for tag, (fast, slow) in enumerate(spec)
    ]


def cpu_mix_scenario(sim, log, seed=4, nworkers=9, steps=24):
    """CPU charges, sleeps and free/contended lock traffic, mixed.

    Pinned and roaming ``SimThread`` threads over private and shared
    cores, multi-quantum charges, ``kill()`` mid-charge, interrupts
    landing during a sleep (and on the very timestamp it ends), free
    and contended ``Mutex``/``Semaphore``/``Store`` traffic, zero-length
    sleeps: every path the sleep and elision fast paths of
    ``Process._step`` replace. Its golden digest was captured on the
    engine that had neither, from the same scenario spelled with
    ``sim.timeout()``.
    """
    rng = random.Random(seed)
    cores = [Core(sim, index) for index in range(nworkers // 3 + 2)]
    shared = cores[-2:]
    lock = Mutex(sim, name="shared")
    private = [Mutex(sim, name="own%d" % tag) for tag in range(nworkers)]
    slots = Semaphore(sim, 2, name="slots")
    queue = Store(sim, capacity=2, name="q")
    plan = [(rng.randrange(0, 6), rng.randrange(0, 5) * 0.0004)
            for _ in range(nworkers * steps)]

    def thread_for(tag):
        # A third pinned to a private core, a third pinned to one shared
        # core, a third roaming over both shared cores.
        if tag % 3 == 0:
            thread = SimThread(sim, "w%d" % tag, [cores[tag // 3]])
            thread.pin(cores[tag // 3])
        elif tag % 3 == 1:
            thread = SimThread(sim, "w%d" % tag, shared)
            thread.pin(shared[0])
        else:
            thread = SimThread(sim, "w%d" % tag, shared)
        return thread

    def worker(tag, thread):
        for step in range(steps):
            kind, amount = plan[tag * steps + step]
            if kind == 0:
                yield from thread.run(amount)
            elif kind == 1:
                yield private[tag].acquire()
                yield 0.0
                private[tag].release()
            elif kind == 2:
                yield lock.acquire(who=thread)
                try:
                    yield from thread.run(amount / 4)
                finally:
                    lock.release()
            elif kind == 3:
                yield slots.acquire()
                yield amount
                slots.release()
            elif kind == 4:
                yield queue.put((tag, step))
            else:
                yield amount
            log.append(("step", tag, step, kind, thread.ctx_switches, sim.now))
        log.append(("done", tag, thread.cpu_time, sim.now))

    def consumer(thread):
        while True:
            item = yield queue.get()
            if item is None:
                log.append(("drained", sim.now))
                return
            yield from thread.run(0.0003)
            log.append(("got", item, sim.now))

    def closer(procs):
        yield sim.all_of(procs)
        yield queue.put(None)

    def victim(tag, thread):
        try:
            yield from thread.run(0.02)
            log.append(("survived", tag, sim.now))
        except ThreadKilled:
            log.append(("killed", tag, thread.cpu_time, sim.now))
        yield private[0].acquire()
        private[0].release()
        log.append(("victim-out", tag, sim.now))

    def killer(thread, delay):
        yield delay
        thread.kill()
        log.append(("kill", thread.name, sim.now))

    def sleeper(tag, nap):
        try:
            yield nap
            log.append(("woke", tag, sim.now))
            yield 1.0
        except Interrupt as intr:
            log.append(("intr", tag, intr.cause, sim.now))
        yield 0.0
        yield private[tag].acquire()
        private[tag].release()
        log.append(("sleeper-out", tag, sim.now))

    def interrupter(tag, box, delay):
        yield delay
        box[0].interrupt(cause="i%d" % tag)
        log.append(("sent", tag, sim.now))

    procs = []
    # Interrupts that land mid-sleep, on the wake's own timestamp from an
    # older and from a younger timer, and after the first sleep is over.
    for tag, (nap, delay, older) in enumerate(
            [(1.0, 0.0013, False), (0.002, 0.002, True),
             (0.002, 0.002, False), (0.001, 0.003, False)]):
        box = []
        if older:
            procs.append(
                sim.spawn(interrupter(tag, box, delay), name="i%d" % tag))
        box.append(sim.spawn(sleeper(tag, nap), name="s%d" % tag))
        procs.append(box[0])
        if not older:
            procs.append(
                sim.spawn(interrupter(tag, box, delay), name="i%d" % tag))
    workers = [sim.spawn(worker(tag, thread_for(tag)), name="w%d" % tag)
               for tag in range(nworkers)]
    eater = SimThread(sim, "eater", shared)
    procs.append(sim.spawn(consumer(eater), name="eater"))
    for tag, delay in enumerate((0.0031, 0.0007)):
        thread = SimThread(sim, "v%d" % tag, shared)
        if tag == 0:
            thread.pin(shared[1])
        procs.append(sim.spawn(victim(tag, thread), name="v%d" % tag))
        procs.append(sim.spawn(killer(thread, delay), name="k%d" % tag))
    procs.append(sim.spawn(closer(list(workers)), name="closer"))

    def report(everyone):
        yield sim.all_of(everyone)
        for mutex in [lock] + private + [core._mutex for core in cores]:
            stats = mutex.stats
            log.append(("lock", mutex.name, stats.acquisitions,
                        stats.contended, stats.total_wait, stats.total_hold))
        for core in cores:
            log.append(("core", core.name, core.busy_time))

    everyone = workers + procs
    return everyone + [sim.spawn(report(everyone), name="report")]


_SCENARIOS = {
    "torture": torture_scenario,
    "interrupts": interrupt_scenario,
    "combinators": combinator_scenario,
    "cpu_mix": cpu_mix_scenario,
}


def schedule_fingerprint(scenario="torture", seed=1, **kwargs):
    """Run a named micro scenario; return ``(fingerprint_hex, final_time)``.

    The fingerprint hashes the full observation log, so it changes if
    any callback runs at a different simulated time *or in a different
    order* relative to same-time callbacks.
    """
    build = _SCENARIOS[scenario]
    sim = Simulator()
    log = []
    build(sim, log, seed=seed, **kwargs)
    final = sim.run()
    log.append(("final", final))
    digest = hashlib.blake2b(
        repr(log).encode(), digest_size=16
    ).hexdigest()
    return digest, final


def stripe_fanout_reference(inflight=None, num_osds=6, objects=6,
                            fabric_gib=10, ino=3):
    """The striped-data-path reference world: write then read one
    ``objects``-object extent across ``num_osds`` OSDs.

    The fabric runs at ``fabric_gib`` GiB/s — fast enough that a striped
    read is bound by per-object OSD service, not by serialising bytes on
    the link, so dispatch concurrency is what the completion time
    measures. The default ``ino`` is one whose CRUSH placement spreads
    the six objects over five distinct OSDs (ino 1 happens to put three
    of six objects on one OSD, which would measure placement luck, not
    dispatch). ``inflight`` overrides ``costs.client_inflight_ops``
    (1 degenerates to the old fully-serial dispatch). Returns a dict of
    schedule-sensitive observations: identical schedules produce
    identical dicts.

    Storage imports are function-local: this module sits below the
    storage stack and the pure-engine scenarios must stay importable
    without it.
    """
    from repro.common import units
    from repro.costs import CostModel
    from repro.net.fabric import Fabric
    from repro.storage.cluster import CephCluster

    costs = CostModel()
    if inflight is not None:
        costs.client_inflight_ops = inflight
    sim = Simulator()
    fabric = Fabric(sim, bandwidth=fabric_gib * units.GIB)
    cluster = CephCluster(sim, fabric, costs, num_osds=num_osds)
    size = objects * costs.object_size
    payload = bytes(size)
    out = {}

    def driver():
        yield from cluster.write_extent(ino, 0, payload)
        out["write_done_s"] = sim.now
        t0 = sim.now
        data = yield from cluster.read_extent(ino, 0, size)
        out["read_s"] = sim.now - t0
        out["read_ok"] = len(data) == size

    sim.spawn(driver(), name="driver")
    out["final_s"] = sim.run()
    return out


def run_reference(scenario="torture", seed=1, repeat=1, **kwargs):
    """Run a micro scenario ``repeat`` times (for wall-clock measurement).

    Returns the fingerprint of the last run; all runs are identical by
    construction, so repeating only multiplies wall-clock work.
    """
    digest = None
    for _ in range(repeat):
        digest, _final = schedule_fingerprint(scenario, seed=seed, **kwargs)
    return digest


def primitive_costs(rounds=200000):
    """Host microseconds per uncontended engine primitive.

    One process alone in its simulator doing ``rounds`` of: a sleep; a
    free ``Mutex`` acquire and its release; a one-quantum
    ``SimThread.run`` charge on an idle core (an acquire, a sleep and a
    release inside a generator of its own). Loop overhead included;
    wall clock, so read the smallest of a few calls.
    """
    def sleeps(sim):
        for _ in range(rounds):
            yield 0.001

    def acquires(sim):
        lock = Mutex(sim, name="m")
        for _ in range(rounds):
            yield lock.acquire()
            lock.release()

    def charges(sim):
        thread = SimThread(sim, "t", [Core(sim, 0)])
        for _ in range(rounds):
            yield from thread.run(0.0001)

    costs = {}
    for name, body in (("sleep", sleeps), ("free_acquire", acquires),
                       ("cpu_charge", charges)):
        sim = Simulator()
        sim.spawn(body(sim), name=name)
        start = time.perf_counter()
        sim.run()
        costs[name] = (time.perf_counter() - start) / rounds * 1e6
    return costs


if __name__ == "__main__":
    best = {}
    for _ in range(5):
        for name, micros in primitive_costs().items():
            best[name] = min(micros, best.get(name, micros))
    for name, micros in best.items():
        print("%-13s %.2f us" % (name, micros))
