"""Process-wide precision policy for the batched data plane.

Mirrors :mod:`repro.nn.policy`: one knob, ``compute_dtype``, read once
per table-top collection pass (any chunk size, chunks of one
included) and shipped to its workers; the continuous handheld session
always computes in float64.

- ``float64`` (the default) is the *golden* configuration: every batched
  stage is byte-identical to the one-utterance-at-a-time reference
  (kept as a test oracle), so the committed golden fixtures pin both.
- ``float32`` is the hot path: the product stage (Table II feature
  extraction and spectrogram images) runs in single precision and the
  collected arrays are stored as ``float32``. Outputs are only
  tolerance-close to the float64 numerics, which is why
  :func:`repro.attack.engine.collection_key` folds the active dtype into
  the cache key — a float32 run can never serve cached rows to a
  float64 golden run (or vice versa).

Synthesis, the vibration channel and region detection always run in
double precision regardless of policy: they are RNG-driven and feed a
thresholding detector whose region *boundaries* are discrete, so letting
precision shift them would change which rows exist rather than merely
perturbing values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

__all__ = [
    "BATCH_DTYPES",
    "BatchPolicy",
    "get_batch_policy",
    "set_batch_policy",
    "batch_policy_scope",
    "batch_dtype",
]

#: Allowed batch compute dtypes, by CLI name.
BATCH_DTYPES = {"float32": np.dtype(np.float32), "float64": np.dtype(np.float64)}


def _coerce_dtype(value: Union[str, np.dtype, type]) -> np.dtype:
    if isinstance(value, str) and value in BATCH_DTYPES:
        return BATCH_DTYPES[value]
    dtype = np.dtype(value)
    if dtype not in BATCH_DTYPES.values():
        raise ValueError(
            f"compute_dtype must be one of {sorted(BATCH_DTYPES)}, got {value!r}"
        )
    return dtype


@dataclass(frozen=True)
class BatchPolicy:
    """The active compute dtype of the batched collection pipeline."""

    compute_dtype: np.dtype = np.dtype(np.float64)

    def __post_init__(self):
        object.__setattr__(self, "compute_dtype", _coerce_dtype(self.compute_dtype))

    @property
    def is_golden(self) -> bool:
        """True when the policy reproduces the reference numerics exactly."""
        return self.compute_dtype == np.dtype(np.float64)


#: Default: double precision — byte-identical to the one-utterance reference.
DEFAULT_BATCH_POLICY = BatchPolicy()

_current = DEFAULT_BATCH_POLICY


def get_batch_policy() -> BatchPolicy:
    """The active process-wide batch policy."""
    return _current


def set_batch_policy(
    compute_dtype: Optional[Union[str, np.dtype, type]] = None,
) -> BatchPolicy:
    """Replace selected fields of the process-wide policy; returns it."""
    global _current
    if compute_dtype is not None:
        _current = replace(_current, compute_dtype=_coerce_dtype(compute_dtype))
    return _current


@contextmanager
def batch_policy_scope(
    compute_dtype: Optional[Union[str, np.dtype, type]] = None,
):
    """Set policy fields for the duration of a ``with`` block."""
    previous = _current
    try:
        yield set_batch_policy(compute_dtype=compute_dtype)
    finally:
        _restore(previous)


def _restore(policy: BatchPolicy) -> None:
    global _current
    _current = policy


def batch_dtype() -> np.dtype:
    """The active batch compute dtype."""
    return _current.compute_dtype
