"""Fault injection and chaos testing for the Danaus reproduction.

Three layers (see ``docs/faults.md``):

* **injection** — :class:`FaultPlan` schedules deterministic faults
  (OSD crashes, slow disks, partitions, MDS outages, service crashes)
  against a :class:`~repro.world.World`;
* **recovery** — the client retry/backoff machinery, MDS session
  reestablishment and :class:`~repro.core.ServiceSupervisor` live with
  the components they protect (``storage``, ``cephclient``, ``core``);
* **chaos harness** — :meth:`ChaosConfig.run` runs a mutating workload
  under a plan and verifies end-to-end data integrity and convergence.
"""

from repro.faults.chaos import (
    ChaosConfig,
    ChaosFileserver,
    ChaosResult,
    run_membership_churn,
)
from repro.faults.plan import (
    KINDS,
    MDS_HA_KINDS,
    FaultAction,
    FaultPlan,
)

__all__ = [
    "FaultAction",
    "FaultPlan",
    "KINDS",
    "MDS_HA_KINDS",
    "ChaosConfig",
    "ChaosFileserver",
    "ChaosResult",
    "run_membership_churn",
]
