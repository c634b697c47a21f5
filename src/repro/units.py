"""Data-size and data-rate units used throughout the library.

The paper reports data volumes in KiB/MiB and rates in MiB/s or GiB/s.
Internally every quantity is a plain ``float`` in *bytes* and
*bytes per second*; these constants and helpers exist so that model
definitions read like the paper's tables.
"""

from __future__ import annotations

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "KIB_PER_S",
    "MIB_PER_S",
    "GIB_PER_S",
    "format_bytes",
    "format_rate",
    "format_seconds",
]

#: One kibibyte in bytes.
KiB: float = 1024.0
#: One mebibyte in bytes.
MiB: float = 1024.0**2
#: One gibibyte in bytes.
GiB: float = 1024.0**3

#: One KiB/s in bytes/s.
KIB_PER_S: float = KiB
#: One MiB/s in bytes/s.
MIB_PER_S: float = MiB
#: One GiB/s in bytes/s.
GIB_PER_S: float = GiB


def format_bytes(n: float, precision: int = 3) -> str:
    """Render a byte count with a binary-prefix unit.

    Picks the largest binary prefix (B, KiB, MiB, GiB) for which the
    mantissa is at least one.
    """
    a = abs(n)
    if a >= GiB:
        return f"{n / GiB:.{precision}g} GiB"
    if a >= MiB:
        return f"{n / MiB:.{precision}g} MiB"
    if a >= KiB:
        return f"{n / KiB:.{precision}g} KiB"
    return f"{n:.{precision}g} B"


def format_rate(rate: float, precision: int = 4) -> str:
    """Render a rate in bytes/s with a binary-prefix unit per second."""
    a = abs(rate)
    if a >= GIB_PER_S:
        return f"{rate / GIB_PER_S:.{precision}g} GiB/s"
    if a >= MIB_PER_S:
        return f"{rate / MIB_PER_S:.{precision}g} MiB/s"
    if a >= KIB_PER_S:
        return f"{rate / KIB_PER_S:.{precision}g} KiB/s"
    return f"{rate:.{precision}g} B/s"


def format_seconds(t: float, precision: int = 4) -> str:
    """Render a duration with the natural SI sub-second unit."""
    a = abs(t)
    if a >= 1.0 or a == 0.0:
        return f"{t:.{precision}g} s"
    if a >= 1e-3:
        return f"{t * 1e3:.{precision}g} ms"
    if a >= 1e-6:
        return f"{t * 1e6:.{precision}g} us"
    return f"{t * 1e9:.{precision}g} ns"
