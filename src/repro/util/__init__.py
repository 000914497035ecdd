"""Shared utilities: validation helpers, stage timing, deterministic RNG."""

from repro.util.validation import (
    check_dim,
    check_positive,
    check_array,
    check_same_shape,
    as_tuple,
)
from repro.util.timer import StageTimes
from repro.util.rng import make_rng

__all__ = [
    "check_dim",
    "check_positive",
    "check_array",
    "check_same_shape",
    "as_tuple",
    "StageTimes",
    "make_rng",
]
