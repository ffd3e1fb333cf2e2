"""Low-level utilities shared across the repro packages.

This package deliberately has no dependencies on the rest of ``repro`` so
that every other subpackage may import from it freely.
"""

from repro.util.lockwatch import (
    LockOrderViolation,
    named_lock,
    named_rlock,
    watchdog_enabled,
)
from repro.util.hashing import (
    UniversalHashFamily,
    fnv1a_64,
    splitmix64,
)
from repro.util.rng import derive_seed, make_rng
from repro.util.timing import format_seconds

__all__ = [
    "UniversalHashFamily",
    "fnv1a_64",
    "splitmix64",
    "derive_seed",
    "make_rng",
    "format_seconds",
    "LockOrderViolation",
    "named_lock",
    "named_rlock",
    "watchdog_enabled",
]
