"""Discrete-event simulation engine: events, processes, locks and cores."""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.parallel import map_tasks
from repro.sim.sync import LockStats, Mutex, Semaphore, Store
from repro.sim.cpu import DEFAULT_QUANTUM, Core, SimThread, UtilizationProbe

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "map_tasks",
    "LockStats",
    "Mutex",
    "Semaphore",
    "Store",
    "Core",
    "SimThread",
    "UtilizationProbe",
    "DEFAULT_QUANTUM",
]
