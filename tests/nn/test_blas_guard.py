"""Guard the two BLAS identities the streamed conv lowering relies on.

``repro.nn.layers`` is byte-identical to the whole-batch lowering only
because the BLAS numpy links against keeps two properties on the
models' GEMM shapes:

- **Row-split invariance:** a GEMM split into row blocks, each of at
  least ``_CHUNK_MIN_MACS`` multiply-adds, gives the same bits as the
  one-shot GEMM.
- **Transpose orientation:** ``(g.T @ cols).T`` has the same bits as
  ``cols.T @ g``.

A BLAS build that breaks either fails here, naming itself, instead of
showing up as drift in the golden fixtures.
"""

import numpy as np
import pytest

from repro.attack.models import build_feature_cnn, build_spectrogram_cnn
from repro.nn.layers import _CHUNK_MIN_MACS, Conv1D, Conv2D, _chunk_bounds


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "numpy's BLAS (see numpy.show_config())"


def _gemm_shapes():
    """``(label, n, rows, depth, filters)`` for every lowered conv GEMM."""
    shapes = set()
    for width in (0.25, 0.5, 1.0):
        for builder, shape, batches in (
            (build_spectrogram_cnn, (32, 32, 1), (32,)),
            (build_feature_cnn, (24, 1), (32, 256)),
        ):
            for layer in builder(7, width_scale=width).layers:
                out = layer.output_shape(shape)
                if isinstance(layer, (Conv1D, Conv2D)):
                    kernel = (layer.kh * layer.kw) if isinstance(layer, Conv2D) else layer.k
                    if kernel > 1:
                        rows, depth = int(np.prod(out[:-1])), kernel * shape[-1]
                        for n in batches:
                            shapes.add((n, rows, depth, layer.filters))
                shape = out
    return sorted(shapes)


SHAPES = _gemm_shapes()


def _splits(n, rows, depth, filters, itemsize):
    """The chunk rule's bounds and the finest split the MAC floor allows."""
    finest = max(1, -(-_CHUNK_MIN_MACS // (rows * depth * filters)))
    k = max(1, n // finest)
    return [_chunk_bounds(n, rows, depth, filters, itemsize), [n * i // k for i in range(k + 1)]]


def _row_split_matches(a, b, bounds, rows):
    whole = a @ b
    parts = np.empty_like(whole)
    for lo, hi in zip(bounds, bounds[1:]):
        np.matmul(a[lo * rows : hi * rows], b, out=parts[lo * rows : hi * rows])
    return whole.tobytes() == parts.tobytes()


@pytest.mark.parametrize("dtype", ("float64", "float32"))
@pytest.mark.parametrize("n,rows,depth,filters", SHAPES)
def test_gemm_identities_hold_on_model_shapes(n, rows, depth, filters, dtype):
    rng = np.random.default_rng(n + rows + depth + filters)
    cols = rng.normal(size=(n * rows, depth)).astype(dtype)
    w2d = rng.normal(size=(depth, filters)).astype(dtype)
    g2 = rng.normal(size=(n * rows, filters)).astype(dtype)
    where = f"{_blas_name()}, {dtype}, {n}x{rows} rows, depth {depth}, {filters} filters"
    for bounds in _splits(n, rows, depth, filters, np.dtype(dtype).itemsize):
        assert _row_split_matches(cols, w2d, bounds, rows), (
            f"row-split forward GEMM differs from the one-shot GEMM under {where}, "
            f"chunks {bounds}"
        )
        assert _row_split_matches(g2, w2d.T, bounds, rows), (
            f"row-split dX GEMM differs from the one-shot GEMM under {where}, "
            f"chunks {bounds}"
        )
    assert ((g2.T @ cols).T).tobytes() == (cols.T @ g2).tobytes(), (
        f"(g.T @ cols).T differs from cols.T @ g under {where}"
    )
