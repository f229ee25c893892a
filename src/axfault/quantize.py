"""Symmetric per-tensor int8 quantization.

scale = max(|t|) / 127 (1.0 when that comes out zero), codes are rounded
half away from zero and clamped to [-127, 127]. Code -128 is never
produced, so every code has an exact negation and the multiplier tables
see a symmetric operand range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class QTensor:
    data: np.ndarray
    scale: float

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.int8)
        self.scale = float(self.scale)


def quantize(t: np.ndarray) -> QTensor:
    """The int8 codes and scale of ``t``, as above.

    A tensor with no negative value, such as pixels or ReLU outputs (-0.0
    included), skips the two sign passes: its |x| is x, and its codes carry
    no sign.
    """
    t = np.asarray(t, dtype=np.float64)
    # max and min pass NaN and inf through, so a finite amax means finite t
    lo, hi = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    amax = max(hi, -lo)
    if not math.isfinite(amax):
        raise ValueError("cannot quantize non-finite values")
    scale = amax / 127.0
    if scale == 0.0:
        # all-zero tensor, or amax so small the division underflowed;
        # either way every code is 0 and any positive scale is consistent
        scale = 1.0
    # round half away from zero (numpy's round() is half-to-even) in one
    # buffer: sign(x) * min(floor(|x| + 0.5), 127) is the int8 truncation,
    # toward zero, of min(|x| + 0.5, 127) carrying the sign of t
    x = t / scale
    if lo < 0:
        np.abs(x, out=x)
    x += 0.5
    np.minimum(x, 127.0, out=x)
    if lo < 0:
        np.copysign(x, t, out=x)
    return QTensor(x.astype(np.int8), scale)


def dequantize(q: QTensor) -> np.ndarray:
    return q.data.astype(np.float64) * q.scale


def requantize_accum(acc: np.ndarray, w_scale: float, a_scale: float) -> np.ndarray:
    """Map int32 accumulator values back to float: acc * w_scale * a_scale."""
    return acc.astype(np.float64) * (float(w_scale) * float(a_scale))
