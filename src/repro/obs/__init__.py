"""``repro.obs`` — the unified observability subsystem.

One API across every layer: attach an :class:`Observer` with
``world.observe(categories=..., capacity=...)`` and get the flat event
stream, nested spans with on-CPU attribution, get-or-create metric
registries, and derived profiles — the :data:`TABLES` spec (lock
contention, per-core CPU / core-steal attribution, fabric edges, the
metric-scope tables) rendered by :func:`format_table`, flamegraph folds
and Chrome ``trace_event`` exports.

The module also carries the *default observation spec* the CLI uses to
profile experiments that construct their own :class:`~repro.world.World`
instances internally (the colocation sweeps build one world per row):
``set_default(...)`` arms auto-attachment, each new ``World`` then
observes itself and registers here, and ``attached()`` hands the CLI
every observer the run produced.
"""

from repro.obs.export import chrome_trace, merge_profiles
from repro.obs.observer import Observer, Span, TraceEvent
from repro.obs.profile import TABLES, format_table

__all__ = [
    "Observer", "Span", "TraceEvent",
    "chrome_trace", "merge_profiles", "TABLES", "format_table",
    "set_default", "clear_default", "default_spec",
    "attached", "reset_attached",
]

_DEFAULT_SPEC = None
_ATTACHED = []


def set_default(categories=None, capacity=100000):
    """Arm auto-observation: every ``World`` built from now on attaches
    an observer with this spec and records it for :func:`attached`."""
    global _DEFAULT_SPEC
    _DEFAULT_SPEC = {"categories": categories, "capacity": capacity}


def clear_default():
    """Disarm auto-observation (new worlds stay unobserved)."""
    global _DEFAULT_SPEC
    _DEFAULT_SPEC = None


def default_spec():
    """The armed spec dict, or None when auto-observation is off."""
    return _DEFAULT_SPEC


def _note_attached(observer):
    _ATTACHED.append(observer)


def attached():
    """Observers auto-attached since the last :func:`reset_attached`."""
    return list(_ATTACHED)


def reset_attached():
    """Forget previously auto-attached observers (start of a run)."""
    del _ATTACHED[:]
