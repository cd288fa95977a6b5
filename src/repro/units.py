"""Physical constants and unit helpers shared across the library.

All simulation times are expressed in **seconds** (floats), frequencies in
**Hz**, data rates in **bits per second** unless a name says otherwise.
Helper constants keep call sites readable (``5 * MINUTE``, ``40.96 * US``).
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------
US = 1e-6
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY

# --- frequency -------------------------------------------------------------
KHZ = 1e3
MHZ = 1e6

# --- data ------------------------------------------------------------------
BYTE = 8  # bits
KBPS = 1e3
MBPS = 1e6

# European mains (the EPFL testbed): 50 Hz.
MAINS_HZ = 50.0
#: Full mains cycle duration (20 ms at 50 Hz).
MAINS_CYCLE = 1.0 / MAINS_HZ
#: The HPAV tone-map schedule spans half a mains cycle (10 ms at 50 Hz),
#: because noise is (approximately) symmetric across the two half-cycles.
HALF_MAINS_CYCLE = MAINS_CYCLE / 2.0


def bits_per_second(mbit_per_second: float) -> float:
    """Convert Mbit/s to bits/s."""
    return mbit_per_second * MBPS
