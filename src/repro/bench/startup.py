"""Container startup experiment: Fig. 8 (Lighttpd scaleup).

N cloned Lighttpd containers start concurrently inside a single pool over
a shared client (D, K/K, F/K, F/F). Startup traffic is read-intensive and
kernel-initiated (exec + mmap), so it runs on the *legacy* path of Danaus
— the configuration where the mature kernel stack is expected to win:

* K/K fastest (up to 8.8x over D), F/K second (2.9x over D);
* D beats F/F by 2.3-14.2x, explained by 9-39x fewer context switches
  (Fig. 8b) — D crosses FUSE once per legacy op, F/F twice per branch op.
"""

from repro.bench.util import run_all, seed_image
from repro.common import units
from repro.containers import Container, lighttpd_image
from repro.stacks import StackFactory
from repro.workloads import LighttpdFleet
from repro.world import World

__all__ = ["run_startup", "startup_notes"]

IMAGE_PATH = "/images/lighttpd"


def run_startup(symbol, n_containers, pool_cores=8, image_scale=1.0 / 8192,
                seed=1):
    world = World(num_cores=pool_cores, ram_bytes=units.gib(512))
    host = world.primary
    host.activate_cores(pool_cores)
    image = lighttpd_image(scale=image_scale, seed=seed)
    seed_image(world, image, IMAGE_PATH)
    pool = host.engine.create_pool(
        "fleet", num_cores=pool_cores, ram_bytes=units.gib(200)
    )
    factory = StackFactory(world, pool, symbol)
    containers = []
    mounts = []
    for index in range(n_containers):
        mount = factory.mount_root("c%d" % index, image_path=IMAGE_PATH)
        mounts.append(mount)
        containers.append(Container(pool, "c%d" % index, mount))
    fleet = LighttpdFleet(containers, image)
    run_all(world, [world.sim.spawn(fleet.run(), name="fleet")], budget=200000)
    ctx = sum(mount.ctx_switches() for mount in mounts)
    return {
        "symbol": symbol,
        "containers": n_containers,
        "real_time_s": fleet.real_time,
        "ctx_switches": ctx,
    }


def startup_notes(result, axes):
    """D's startup time relative to every other symbol, per count."""
    for count in axes["containers"]:
        d_time = result.value("real_time_s", symbol="D", containers=count)
        for other in axes["symbol"]:
            if other == "D":
                continue
            other_time = result.value(
                "real_time_s", symbol=other, containers=count
            )
            result.note(
                "%d containers: D/%s time ratio = %.2fx"
                % (count, other, d_time / other_time if other_time else 0)
            )
