"""The option checks every layer shares, from the geometry to the command line.

This module imports nothing from the package, so ``geometry`` and ``oracle``
use the same rules as the solvers, the probes and the sweep runner. Each
check raises ``ValueError`` with a message of the form "<what> must be ...",
and callers run it before any work.
"""

from __future__ import annotations

import math
import numbers

MAP_MODES = ("exp", "retract")


def _check_count(what, value, least, *, or_none=False):
    """Raise ValueError unless ``value`` is an integer (a ``numbers.Integral``
    but not a bool) of at least ``least``; ``or_none`` also accepts None.
    Every count, seed and dimension is checked here, before any work."""
    if or_none and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "None or an integer" if or_none else "an integer"
        raise ValueError(f"{what} must be {kind} >= {least}, got {value!r}")


def _check_positive(what, value):
    """Raise ValueError unless ``value`` is finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")


def _check_modes(map_mode: str):
    if map_mode not in MAP_MODES:
        raise ValueError(f"map_mode must be one of {MAP_MODES}")
