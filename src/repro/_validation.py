"""Small argument-validation helpers shared across the library.

These keep error messages uniform and make the public API fail loudly
on nonsensical inputs (negative rates, non-finite bursts, ...), which is
essential when model parameters are read from measurement files.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "check_finite",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_type",
]


def check_finite(name: str, value: float) -> float:
    """Ensure ``value`` is a finite real number; return it as a float."""
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def check_positive(name: str, value: float) -> float:
    """Ensure ``value`` is finite and strictly positive."""
    v = check_finite(name, value)
    if v <= 0.0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return v


def check_non_negative(name: str, value: float) -> float:
    """Ensure ``value`` is finite and non-negative."""
    v = check_finite(name, value)
    if v < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return v


def check_in_range(
    name: str, value: float, lo: float, hi: float, *, inclusive: bool = True
) -> float:
    """Ensure ``lo <= value <= hi`` (or strict when ``inclusive=False``)."""
    v = check_finite(name, value)
    if inclusive:
        if not (lo <= v <= hi):
            raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    else:
        if not (lo < v < hi):
            raise ValueError(f"{name} must be in ({lo}, {hi}), got {value!r}")
    return v


def check_type(name: str, value: Any, types: type | tuple[type, ...]) -> Any:
    """Ensure ``value`` is an instance of ``types``."""
    if not isinstance(value, types):
        expected = (
            types.__name__
            if isinstance(types, type)
            else " | ".join(t.__name__ for t in types)
        )
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value
