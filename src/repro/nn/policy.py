"""Package-level precision policy for the NN substrate.

One knob steers every layer built after the policy is set:
``compute_dtype``, the dtype parameters are allocated in and inputs are
cast to (``float64`` by default, preserving the historical numerics;
``float32`` roughly halves memory traffic and doubles BLAS throughput
at the cost of bitwise determinism across BLAS builds).

The policy is process-wide and read at ``build`` time;
:func:`policy_scope` scopes a change to a ``with`` block (used by the
golden tests and the kernel microbenchmarks), and the CLI exposes it as
``--nn-dtype``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

__all__ = [
    "COMPUTE_DTYPES",
    "PrecisionPolicy",
    "get_policy",
    "set_policy",
    "policy_scope",
    "compute_dtype",
]

#: Allowed compute dtypes, by CLI name.
COMPUTE_DTYPES = {"float32": np.dtype(np.float32), "float64": np.dtype(np.float64)}


def _coerce_dtype(value: Union[str, np.dtype, type]) -> np.dtype:
    if isinstance(value, str) and value in COMPUTE_DTYPES:
        return COMPUTE_DTYPES[value]
    dtype = np.dtype(value)
    if dtype not in COMPUTE_DTYPES.values():
        raise ValueError(
            f"compute_dtype must be one of {sorted(COMPUTE_DTYPES)}, got {value!r}"
        )
    return dtype


@dataclass(frozen=True)
class PrecisionPolicy:
    """The active compute dtype."""

    compute_dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        object.__setattr__(self, "compute_dtype", _coerce_dtype(self.compute_dtype))


#: Default: float64 numerics (bit-compatible with the seed repo's
#: training trajectories).
DEFAULT_POLICY = PrecisionPolicy()

_current = DEFAULT_POLICY


def get_policy() -> PrecisionPolicy:
    """The active process-wide policy."""
    return _current


def set_policy(
    compute_dtype: Optional[Union[str, np.dtype, type]] = None,
) -> PrecisionPolicy:
    """Replace the process-wide policy's compute dtype; returns the policy.

    Pass ``None`` to keep it as is. Affects layers built afterwards
    (parameter dtype is fixed at ``build``).
    """
    global _current
    if compute_dtype is not None:
        _current = replace(_current, compute_dtype=_coerce_dtype(compute_dtype))
    return _current


@contextmanager
def policy_scope(compute_dtype: Optional[Union[str, np.dtype, type]] = None):
    """Set the compute dtype for the duration of a ``with`` block."""
    previous = _current
    try:
        yield set_policy(compute_dtype=compute_dtype)
    finally:
        _restore(previous)


def _restore(policy: PrecisionPolicy) -> None:
    global _current
    _current = policy


def compute_dtype() -> np.dtype:
    """The active compute dtype."""
    return _current.compute_dtype
