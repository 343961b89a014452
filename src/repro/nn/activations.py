"""Activation functions."""

from __future__ import annotations

import numpy as np

__all__ = ["relu", "softmax"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, numerically stabilised."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
