"""Channel conditioning applied before the network.

Inputs are pre-cropped, spatially registered face images; no detection
or alignment happens here. Depth-like rasters come in as non-negative
sensor units with zero marking invalid pixels.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

# MAD below this is treated as degenerate (constant valid region).
_MAD_FLOOR = 1e-9


def mad_normalize(depth: np.ndarray, k: float = 3.0) -> np.ndarray:
    """Robust depth-to-8-bit mapping via median absolute deviation.

    Over the valid (nonzero) pixels, the window [m - k*MAD, m + k*MAD]
    around the median m is mapped linearly onto [0, 255] with clipping,
    then quantized (half up) to the 8-bit grid and returned as k/255
    floats. Invalid pixels stay 0. A degenerate MAD (constant region)
    maps every valid pixel to mid-gray 128/255.
    """
    arr = np.asarray(depth, dtype=np.float64)
    valid = arr != 0
    if not valid.any():
        raise DataError("no valid depth pixels")
    vals = arr[valid]
    m = float(np.median(vals))
    mad = float(np.median(np.abs(vals - m)))
    out = np.zeros(arr.shape, dtype=np.float64)
    if mad < _MAD_FLOOR:
        out[valid] = 128.0 / 255.0
        return out
    lo = m - k * mad
    hi = m + k * mad
    scaled = (vals - lo) / (hi - lo) * 255.0
    quantized = np.floor(np.clip(scaled, 0.0, 255.0) + 0.5)
    out[valid] = np.clip(quantized, 0.0, 255.0) / 255.0
    return out

