"""Spectrogram computation and spectrogram-image preparation.

The paper's CNN image classifier consumes 32x32 spectrogram images of each
detected speech region (Section IV-C1). :func:`spectrogram_image_batch`
performs the full chain for a ragged list of regions: STFT power, log
compression, bilinear resize to the target resolution and per-image
normalisation, each stage one array operation per frame geometry.
:func:`spectrogram_image` and :func:`resize_image` are its one-row cases.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dsp.stft import stft
from repro.dsp.windows import get_window

__all__ = [
    "power_spectrogram",
    "log_spectrogram",
    "resize_image",
    "spectrogram_image",
    "spectrogram_image_batch",
]


def power_spectrogram(
    x: np.ndarray,
    fs: float,
    frame_length: int = 256,
    hop_length: int = 64,
    window: str = "hann",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power spectrogram ``|STFT|^2`` with its frequency/time axes."""
    freqs, times, Z = stft(x, fs, frame_length, hop_length, window)
    return freqs, times, np.abs(Z) ** 2


def log_spectrogram(
    x: np.ndarray,
    fs: float,
    frame_length: int = 256,
    hop_length: int = 64,
    window: str = "hann",
    floor_db: float = -120.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-power spectrogram in dB, floored at ``floor_db``."""
    freqs, times, power = power_spectrogram(x, fs, frame_length, hop_length, window)
    return freqs, times, _decibels(power.T, [power.shape[1]], floor_db).T


def _decibels(power: np.ndarray, counts: Sequence[int], floor_db: float = -120.0) -> np.ndarray:
    """dB of every image in a stacked ``(frames, freqs)`` power matrix.

    Image ``k`` is the next ``counts[k]`` rows. Each is compressed
    against its own maximum (1.0 for an all-zero image) and floored at
    ``floor_db``; the result keeps ``power``'s dtype.
    """
    counts = np.asarray(counts, dtype=np.intp)
    peak = np.maximum.reduceat(power.max(axis=1), np.cumsum(counts) - counts)
    ref = np.where(peak > 0, peak, 1)
    db = power / np.repeat(ref, counts)[:, None]
    np.maximum(db, 10 ** (floor_db / 10.0), out=db)
    np.log10(db, out=db)
    db *= 10.0
    return db


def _axis_coords(n_out: int, n_in: np.ndarray) -> np.ndarray:
    """``np.linspace(0.0, n - 1.0, n_out)`` for every ``n`` in ``n_in``."""
    if n_out == 1:
        return np.zeros((n_in.size, 1))
    stop = n_in - 1.0
    coords = np.arange(n_out, dtype=float) * (stop / (n_out - 1))[:, None]
    coords[:, -1] = stop
    return coords


def _resize_stack(
    frames: np.ndarray, counts: Sequence[int], out_shape: Tuple[int, int]
) -> np.ndarray:
    """Bilinear resize of every image in a stacked ``(frames, freqs)`` matrix.

    Image ``k`` is the transpose of the next ``counts[k]`` rows of
    ``frames``: the frequency axis (shared) by its own number of
    frames. Returns ``(len(counts),) + out_shape`` in float64; each
    image's column coordinates are its own, so image ``k`` comes out as
    resizing it alone would.
    """
    rows_out, cols_out = out_shape
    counts = np.asarray(counts, dtype=np.intp)
    n_rows = frames.shape[1]
    r = _axis_coords(rows_out, np.array([n_rows]))[0]
    c = _axis_coords(cols_out, counts)
    r0 = np.clip(np.floor(r).astype(int), 0, max(n_rows - 2, 0))
    r1 = np.minimum(r0 + 1, n_rows - 1)
    c0 = np.clip(np.floor(c).astype(int), 0, np.maximum(counts - 2, 0)[:, None])
    c1 = np.minimum(c0 + 1, counts[:, None] - 1)
    wr = r - r0
    wc = (c - c0)[:, :, None]
    # Separable: interpolate whole frames between each output column's
    # two neighbours (frame j of image k is stacked row offsets[k] + j),
    # then pick and blend each output row's two frequency bins; per
    # output pixel that is the 2-D formula's own order of operations.
    offsets = (np.cumsum(counts) - counts)[:, None]
    cols = frames[offsets + c0] * (1 - wc) + frames[offsets + c1] * wc
    out = cols[:, :, r0] * (1 - wr) + cols[:, :, r1] * wr
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def _normalise(images: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Scale each image to [0, 1]; a flat image becomes all zeros."""
    lo = images.min(axis=(1, 2))[:, None, None]
    span = images.max(axis=(1, 2))[:, None, None] - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (images - lo) / span
    out[np.broadcast_to(span < 1e-12, out.shape)] = 0.0
    return out.astype(dtype, copy=False)


def _frame_rows(rows: Sequence[np.ndarray], fl: int, hl: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's ``frame_signal(row, fl, hl, pad=True)``, concatenated.

    One gather from the sliding windows of a zero-padded row stack;
    returns the ``(frames, fl)`` matrix and each row's frame count.
    """
    sizes = np.array([row.size for row in rows])
    counts = 1 + np.ceil((np.maximum(sizes, fl) - fl) / hl).astype(np.intp)
    stack = np.zeros((len(rows), (int(counts.max()) - 1) * hl + fl))
    for padded, row in zip(stack, rows):
        padded[: row.size] = row
    owner = np.repeat(np.arange(len(rows)), counts)
    frame = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    windows = np.lib.stride_tricks.sliding_window_view(stack, fl, axis=1)[:, ::hl]
    return windows[owner, frame], counts


def resize_image(image: np.ndarray, out_shape: Tuple[int, int]) -> np.ndarray:
    """Bilinear resize of a 2-D array to ``out_shape = (rows, cols)``."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    rows_out, cols_out = out_shape
    if rows_out < 1 or cols_out < 1:
        raise ValueError(f"output shape must be positive, got {out_shape}")
    return _resize_stack(image.T, [image.shape[1]], out_shape)[0]


def spectrogram_image(
    x: np.ndarray,
    fs: float,
    size: int = 32,
    frame_length: int = 64,
    hop_length: int = 16,
    window: str = "hann",
) -> np.ndarray:
    """Normalised ``size x size`` log-spectrogram image of a speech region.

    The image is scaled to [0, 1] per region, matching the per-image
    preprocessing applied before the paper's CNN (resized 32x32 inputs).
    """
    return spectrogram_image_batch([x], fs, size, frame_length, hop_length, window)[0]


def spectrogram_image_batch(
    rows: Sequence[np.ndarray],
    fs: float,
    size: int = 32,
    frame_length: int = 64,
    hop_length: int = 16,
    window: str = "hann",
    dtype: Optional[Union[str, np.dtype, type]] = None,
) -> List[np.ndarray]:
    """:func:`spectrogram_image` of every row of a ragged list.

    Rows are grouped by their effective ``(frame_length, hop_length)``
    (both depend on row length). Each group's frames are gathered
    into one matrix and transformed with a single ``rfft`` call; the dB
    compression, bilinear resize and normalisation then run as array
    operations over the group's power matrix, each row against its own
    maximum, frame count and range. Under the default float64 ``dtype``
    an image does not depend on its batchmates; ``float32`` is the hot
    path — frames are cast before the FFT (a complex64 transform), the
    dB step runs single-precision and images are stored
    single-precision, tolerance-close to the float64 chain.
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
        all_frames, counts = _frame_rows([arrays[i] for i in idxs], fl, hl)
        win = get_window(window, fl)
        if out_dtype == np.dtype(np.float32):
            all_frames = all_frames.astype(np.float32)
            win = win.astype(np.float32)
        power = np.abs(np.fft.rfft(all_frames * win, axis=1)) ** 2
        resized = _resize_stack(_decibels(power, counts), counts, (size, size))
        for i, image in zip(idxs, _normalise(resized, out_dtype)):
            images[i] = image
    return images  # type: ignore[return-value]
