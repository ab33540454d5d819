"""Ceph-like storage backend: CRUSH placement, OSDs, MDS, cluster."""

from repro.storage.backfill import BackfillScheduler
from repro.storage.cluster import CephCluster
from repro.storage.crush import CrushMap
from repro.storage.mds import InodeInfo, Mds, MdsJournal, MdsMap, MdsService
from repro.storage.monitor import Monitor, OsdMap
from repro.storage.osd import Osd
from repro.storage.scrub import ScrubDaemon

__all__ = [
    "BackfillScheduler",
    "CephCluster",
    "CrushMap",
    "InodeInfo",
    "Mds",
    "MdsJournal",
    "MdsMap",
    "MdsService",
    "Monitor",
    "Osd",
    "OsdMap",
    "ScrubDaemon",
]
