"""Unit helpers and constants.

All simulated time is in **seconds** (float) and all sizes in **bytes**
(int). These helpers keep workload and cost-model definitions readable.
"""

# --- sizes ----------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def kib(n):
    """Return ``n`` KiB in bytes."""
    return int(n * KIB)


def mib(n):
    """Return ``n`` MiB in bytes."""
    return int(n * MIB)


def gib(n):
    """Return ``n`` GiB in bytes."""
    return int(n * GIB)


# --- time -----------------------------------------------------------------

USEC = 1e-6
MSEC = 1e-3


def usec(n):
    """Return ``n`` microseconds in seconds."""
    return n * USEC


def msec(n):
    """Return ``n`` milliseconds in seconds."""
    return n * MSEC


def fmt_bytes(n):
    """Format a byte count for human-readable reports."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            return "%.1f%s" % (value, unit)
        value /= 1024.0
    return "%dB" % n

