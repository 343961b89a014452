"""Byte-parity oracle for :mod:`repro.dsp.spectrogram`'s image path.

The straightforward per-row image maths — dB compression against the
row's own maximum, bilinear resize of one image at a time and min/max
normalisation — kept verbatim as the reference the stacked production
code must reproduce: byte for byte under float64, and the float32
policy's own per-row chain. Test-only: nothing under ``src/`` imports
it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dsp.stft import frame_signal, stft
from repro.dsp.windows import get_window


def reference_resize_image(image: np.ndarray, out_shape: Tuple[int, int]) -> np.ndarray:
    """Bilinear resize of a 2-D array to ``out_shape = (rows, cols)``."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    rows_out, cols_out = out_shape
    if rows_out < 1 or cols_out < 1:
        raise ValueError(f"output shape must be positive, got {out_shape}")
    rows_in, cols_in = image.shape

    def _axis_coords(n_out: int, n_in: int) -> np.ndarray:
        if n_out == 1:
            return np.zeros(1)
        return np.linspace(0.0, n_in - 1.0, n_out)

    r = _axis_coords(rows_out, rows_in)
    c = _axis_coords(cols_out, cols_in)
    r0 = np.clip(np.floor(r).astype(int), 0, max(rows_in - 2, 0))
    c0 = np.clip(np.floor(c).astype(int), 0, max(cols_in - 2, 0))
    r1 = np.minimum(r0 + 1, rows_in - 1)
    c1 = np.minimum(c0 + 1, cols_in - 1)
    wr = (r - r0)[:, None]
    wc = (c - c0)[None, :]
    top = image[np.ix_(r0, c0)] * (1 - wc) + image[np.ix_(r0, c1)] * wc
    bottom = image[np.ix_(r1, c0)] * (1 - wc) + image[np.ix_(r1, c1)] * wc
    return top * (1 - wr) + bottom * wr


def _db(power: np.ndarray) -> np.ndarray:
    """dB against the image's own maximum, floored at -120 dB."""
    ref = power.max() if power.size and power.max() > 0 else 1.0
    return 10.0 * np.log10(np.maximum(power / ref, 10 ** (-120.0 / 10.0)))


def _normalise(image: np.ndarray, size: int, dtype: np.dtype) -> np.ndarray:
    lo, hi = image.min(), image.max()
    if hi - lo < 1e-12:
        return np.zeros((size, size), dtype=dtype)
    return ((image - lo) / (hi - lo)).astype(dtype, copy=False)


def reference_spectrogram_image(
    x: np.ndarray,
    fs: float,
    size: int = 32,
    frame_length: int = 64,
    hop_length: int = 16,
    window: str = "hann",
) -> np.ndarray:
    """Normalised ``size x size`` log-spectrogram image of one region."""
    x = np.asarray(x, dtype=float)
    frame_length = min(frame_length, max(8, x.size))
    hop_length = max(1, min(hop_length, frame_length // 2))
    _, _, Z = stft(x, fs, frame_length, hop_length, window)
    image = reference_resize_image(_db(np.abs(Z) ** 2), (size, size))
    return _normalise(image, size, np.dtype(np.float64))


def reference_spectrogram_image_batch(
    rows: Sequence[np.ndarray],
    fs: float,
    size: int = 32,
    frame_length: int = 64,
    hop_length: int = 16,
    window: str = "hann",
    dtype: Optional[Union[str, np.dtype, type]] = None,
) -> List[np.ndarray]:
    """One shared FFT per frame geometry, then the image maths row by row.

    Under float32 the frames are cast before the FFT and the dB step
    runs single-precision, as the production float32 policy does.
    """
    out_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
    arrays = [np.asarray(r, dtype=float) for r in rows]
    images: List[Optional[np.ndarray]] = [None] * len(arrays)
    groups: dict = {}
    for i, x in enumerate(arrays):
        fl = min(frame_length, max(8, x.size))
        hl = max(1, min(hop_length, fl // 2))
        groups.setdefault((fl, hl), []).append(i)
    for (fl, hl), idxs in groups.items():
        frames_list = [frame_signal(arrays[i], fl, hl, pad=True) for i in idxs]
        counts = [f.shape[0] for f in frames_list]
        all_frames = np.concatenate(frames_list, axis=0)
        win = get_window(window, fl)
        if out_dtype == np.dtype(np.float32):
            all_frames = all_frames.astype(np.float32)
            win = win.astype(np.float32)
        power = np.abs(np.fft.rfft(all_frames * win, axis=1)) ** 2
        offset = 0
        for k, i in enumerate(idxs):
            p = power[offset : offset + counts[k]].T
            offset += counts[k]
            image = reference_resize_image(_db(p), (size, size))
            images[i] = _normalise(image, size, out_dtype)
    return images  # type: ignore[return-value]
