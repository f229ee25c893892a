"""8x8 -> 16-bit signed multiplier models backed by lookup tables.

Every multiplier in this package, exact or approximate, is fully described by
a 65536-entry int16 table. The operand convention used everywhere is
``multiply(m, x, y)`` where ``x`` is the streamed operand (an activation) and
``y`` is the stationary one (a weight); the table index is
``((x + 128) << 8) | (y + 128)``.

Two parametric hardware-flavoured families are built in:

* ``truncated(k)``: the k least significant bits of the 16-bit two's
  complement product pattern are forced to zero (output truncation).
* ``broken_carry(k)``: the k least significant bits of each 8-bit operand
  pattern are forced to zero before an otherwise exact multiply (broken
  carry chains in the low partial products).

Arbitrary third-party multipliers can be loaded from a raw little-endian
int16 LUT file of exactly 131072 bytes.

This module defines multipliers; ``faults`` computes with them, the
built-in families from ``kind`` and ``params`` alone, any other from its table.
"""

from __future__ import annotations

import numbers
import os
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TABLE_SIZE = 65536
LUT_FILE_BYTES = 131072

_OPERAND_MIN = -128
_OPERAND_MAX = 127


@dataclass(eq=False)
class Multiplier:
    """A signed 8x8 multiplier: identity plus its full product table."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)
    table: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.table is None:
            raise ValueError("multiplier needs a product table")
        t = np.ascontiguousarray(self.table, dtype=np.int16)
        if t.shape != (TABLE_SIZE,):
            raise ValueError(f"table must have shape ({TABLE_SIZE},), got {t.shape}")
        # the GEMM engines compute family kinds from kind and params alone
        self.params = _family_params(self.kind, self.params)
        family = _family_table(self.kind, self.params)
        if family is not None and not np.array_equal(family, t):
            raise ValueError(f"table of {self.id!r} is not the {self.kind} table "
                             f"for params {self.params}")
        self.table = t

    def table2d(self) -> np.ndarray:
        """View of the table as [x + 128, y + 128]."""
        return self.table.reshape(256, 256)

    @cached_property
    def by_weight(self) -> np.ndarray:
        """The table weight-major, as [y + 128, x + 128]: row y + 128 holds
        the products of weight y with every activation code. Built once."""
        return np.ascontiguousarray(self.table2d().T)


@dataclass(frozen=True)
class ErrorMetrics:
    mae_percent: float
    worst_case_abs: int
    error_count: int


def _exact_table2d() -> np.ndarray:
    v = np.arange(-128, 128, dtype=np.int32)
    return np.outer(v, v)


def _family_params(kind: str, params: dict) -> dict:
    """``params`` of a built-in family kind, checked: none for ``exact``,
    and for the others only ``k``, an integer (not a bool) in range, stored
    as a Python int: a numpy k overflows the masks below, and a bool one
    names no multiplier. Any other kind keeps its params."""
    hi = {"truncated": 15, "broken_carry": 7}.get(kind)
    if hi is None:
        if kind == "exact" and params:
            raise ValueError(f"exact multiplier takes no params, got {params}")
        return params
    k = params.get("k")
    if (set(params) != {"k"} or not isinstance(k, numbers.Integral)
            or isinstance(k, bool) or not 0 <= k <= hi):
        raise ValueError(f"{kind} params must be an integer k in [0, {hi}], got {params}")
    return {"k": int(k)}


def _family_table(kind: str, params: dict):
    """Product table of a built-in family kind with checked ``params``
    (``_family_params``), or None for any other kind."""
    if kind == "exact":
        return _exact_table2d().astype(np.int16).reshape(-1)
    if kind == "truncated":
        mask = np.uint16((0xFFFF << params["k"]) & 0xFFFF)
        pattern = _exact_table2d().astype(np.int16).view(np.uint16)
        return (pattern & mask).view(np.int16).reshape(-1)
    if kind == "broken_carry":
        mask = np.uint8((0xFF << params["k"]) & 0xFF)
        vals = np.arange(-128, 128, dtype=np.int8)
        ops = (vals.view(np.uint8) & mask).view(np.int8).astype(np.int32)
        return np.outer(ops, ops).astype(np.int16).reshape(-1)
    return None


def exact_multiplier() -> Multiplier:
    return Multiplier(id="exact", kind="exact", params={},
                      table=_family_table("exact", {}))


def truncated_multiplier(k: int) -> Multiplier:
    """Exact product with the k low bits of the 16-bit pattern zeroed."""
    k = _family_params("truncated", {"k": k})["k"]
    return Multiplier(id=f"truncated-{k}", kind="truncated", params={"k": k},
                      table=_family_table("truncated", {"k": k}))


def broken_carry_multiplier(k: int) -> Multiplier:
    """Exact product of operands whose k low bits are zeroed first."""
    k = _family_params("broken_carry", {"k": k})["k"]
    return Multiplier(id=f"broken-carry-{k}", kind="broken_carry", params={"k": k},
                      table=_family_table("broken_carry", {"k": k}))


def from_table(mult_id: str, table: np.ndarray) -> Multiplier:
    return Multiplier(id=mult_id, kind="lut", params={}, table=table)


def pair_index(x, y):
    """Table index for operand pair(s); works on scalars and arrays."""
    xi = np.asarray(x, dtype=np.int32)
    yi = np.asarray(y, dtype=np.int32)
    if xi.size and (xi.min() < _OPERAND_MIN or xi.max() > _OPERAND_MAX):
        raise ValueError("x operand out of int8 range")
    if yi.size and (yi.min() < _OPERAND_MIN or yi.max() > _OPERAND_MAX):
        raise ValueError("y operand out of int8 range")
    return ((xi + 128) << 8) | (yi + 128)


def multiply(m: Multiplier, x, y):
    """Product(s) of int8 operands under multiplier ``m``.

    Scalar inputs give a python int; array inputs give an int16 array.
    """
    idx = pair_index(x, y)
    out = m.table[idx]
    if np.isscalar(x) and np.isscalar(y):
        return int(out)
    return out


def save_lut(m: Multiplier, path) -> None:
    """Write the table as raw little-endian int16, exactly 131072 bytes."""
    data = m.table.astype("<i2").tobytes()
    assert len(data) == LUT_FILE_BYTES
    with open(path, "wb") as f:
        f.write(data)


def load_lut(path, mult_id: str | None = None) -> Multiplier:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) != LUT_FILE_BYTES:
        raise ValueError(
            f"LUT file must be exactly {LUT_FILE_BYTES} bytes, got {len(data)}"
        )
    table = np.frombuffer(data, dtype="<i2").astype(np.int16)
    if mult_id is None:
        mult_id = os.path.splitext(os.path.basename(str(path)))[0]
    return from_table(mult_id, table)


def error_metrics(m: Multiplier) -> ErrorMetrics:
    """Exhaustive error statistics against the exact product.

    mae_percent normalizes the mean absolute error by the full 16-bit
    output range width (65536), in percent.
    """
    diff = np.abs(m.table.astype(np.int64) - _exact_table2d().reshape(-1))
    mean_abs = int(diff.sum()) / float(TABLE_SIZE)
    return ErrorMetrics(
        mae_percent=100.0 * mean_abs / 65536.0,
        worst_case_abs=int(diff.max()),
        error_count=int(np.count_nonzero(diff)),
    )


# ---------------------------------------------------------------------------
# activation-aware weight retuning maps


@dataclass(eq=False)
class ActivationSample:
    """Histogram of int8 activation codes, indexed by code + 128: the 256
    counts are all it holds."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (256,):
            raise ValueError("activation histogram must have 256 bins")
        if c.dtype.kind in "biu":
            ok = bool((c >= 0).all())
        elif c.dtype.kind == "f":
            # a plain uint64 cast would wrap -1, turn NaN into 2^63 and
            # truncate 2.9 to 2
            ok = bool((np.isfinite(c) & (c >= 0) & (c == np.floor(c))
                       & (c < 2.0 ** 64)).all())
        else:
            ok = False
        if not ok:
            raise ValueError("activation counts must be finite, non-negative "
                             "whole numbers")
        self.counts = np.ascontiguousarray(c, dtype=np.uint64)


def uniform_activations() -> ActivationSample:
    return ActivationSample(np.ones(256, dtype=np.uint64))


def activations_from_codes(codes) -> ActivationSample:
    codes = np.asarray(codes)
    hist = np.bincount(codes.astype(np.int32).reshape(-1) + 128, minlength=256)
    return ActivationSample(hist.astype(np.uint64))


@dataclass(eq=False)
class WeightMapTable:
    """Per-weight retuning map: map[w + 128] is the substitute int8 code.
    The 256 codes are the whole map, as ``save_weight_map`` stores it."""

    map: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.map, dtype=np.int16)
        if a.shape != (256,):
            raise ValueError("weight map must have 256 entries")
        if a.min() < _OPERAND_MIN or a.max() > _OPERAND_MAX:
            raise ValueError("weight map entries must stay in int8 range")
        self.map = a

    def remap_codes(self, codes: np.ndarray) -> np.ndarray:
        return self.map[codes.astype(np.int32) + 128].astype(np.int8)


def build_weight_map(m: Multiplier, acts: ActivationSample) -> WeightMapTable:
    """Choose, per weight code w, the substitute code w' whose approximate
    products best track the exact products of w.

    The objective is the activation-weighted sum of absolute product errors
    sum_a counts[a] * |M(a, w') - a * w|, minimized over w'. Ties are broken
    by the smallest |w' - w|, then the smaller w', so an exact multiplier
    maps every code to itself.

    All 65536 costs come out exactly, in int64, in O(256^2). With c = counts
    and T = M(., w'), the cost of (w, w') is c_0 |T_0| + sum_{a != 0} W_a |w - s_a|
    with W_a = c_a |a| and s_a = T_a / a: a weighted sum of absolute
    deviations of w. The s_a below w (the left set L) add W_a (w - s_a),
    the rest W_a (s_a - w), so the cost is

        w (WL - WR) - (VL - VR) + c_0 |T_0|,    V_a = c_a sign(a) T_a,

    where WL, VL sum W and V over L and WR, VR over the rest. For an
    integer w, s_a < w exactly when w >= floor(T_a / a) + 1, so each a
    enters L at one threshold per w': bucketing W and V by threshold and
    prefix-summing over w gives WL and VL for every (w', w) at once.

    Counts below 2^39 (checked) keep every int64 value below 2^63: with
    |T_a| <= 2^15 and sum |a| = 2^14, sum |V_a| < 2^39 * 255 * 2^15 < 2^62,
    |w| sum W_a < 2^7 * 2^39 * 2^14 = 2^60 and c_0 |T_0| < 2^54. Each of WL,
    WR, VL, VR, each difference and each cost is bounded by those sums, so
    |cost| and every partial sum stay under 2^62 + 2^60 + 2^54 < 2^63.
    """
    if acts.counts.max(initial=0) >= (1 << 39):
        # checked on the unsigned counts, which an int64 cast would wrap
        raise ValueError("activation counts too large for exact accumulation")
    counts = acts.counts.astype(np.int64)
    table = m.table2d().astype(np.int64)
    codes = np.arange(-128, 128, dtype=np.int64)
    nz = codes != 0
    a = codes[nz]
    t = table[nz]                                   # [a, w'], a != 0
    wa = counts[nz] * np.abs(a)
    va = (counts[nz] * np.sign(a))[:, None] * t
    # row w' bin w + 128 holds the a entering L at w; bin 256 lies past w = 127
    enter = np.clip(np.floor_divide(t, a[:, None]) + 1 + 128, 0, 256)
    bins = enter + 257 * np.arange(256)
    wl = np.zeros(256 * 257, dtype=np.int64)
    vl = np.zeros(256 * 257, dtype=np.int64)
    # 1-d operands take numpy's fast add.at loop
    np.add.at(wl, bins.ravel(), np.repeat(wa, 256))
    np.add.at(vl, bins.ravel(), va.ravel())
    wl = np.cumsum(wl.reshape(256, 257)[:, :256], axis=1)    # [w', w]
    vl = np.cumsum(vl.reshape(256, 257)[:, :256], axis=1)
    wr = wa.sum() - wl
    vr = va.sum(axis=0)[:, None] - vl
    cost = (codes * (wl - wr) - (vl - vr)
            + counts[128] * np.abs(table[128])[:, None])
    # tie-break: rank the cheapest w' by 2 |w' - w|, plus one when w' > w
    step = codes[:, None] - codes
    rank = np.where(cost == cost.min(axis=0), 2 * np.abs(step) + (step > 0), 1024)
    out = codes[np.argmin(rank, axis=0)].astype(np.int16)
    return WeightMapTable(out)


WEIGHT_MAP_MAGIC = b"AXWM"
WEIGHT_MAP_VERSION = 1


def save_weight_map(wm: WeightMapTable, path) -> None:
    """Binary file format: magic 'AXWM', version byte, 3 reserved zero
    bytes, then 256 signed bytes (map entries for w = -128 .. 127)."""
    payload = wm.map.astype(np.int8).tobytes()
    assert len(payload) == 256
    with open(path, "wb") as f:
        f.write(WEIGHT_MAP_MAGIC)
        f.write(bytes([WEIGHT_MAP_VERSION, 0, 0, 0]))
        f.write(payload)


def load_weight_map(path) -> WeightMapTable:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) != 8 + 256:
        raise ValueError(f"weight map file has wrong size {len(data)}")
    if data[:4] != WEIGHT_MAP_MAGIC:
        raise ValueError("bad weight map magic")
    if data[4] != WEIGHT_MAP_VERSION:
        raise ValueError(f"unsupported weight map version {data[4]}")
    table = np.frombuffer(data[8:], dtype=np.int8).astype(np.int16)
    return WeightMapTable(table)


def parse_multiplier(spec: str) -> Multiplier:
    """Resolve a multiplier from its name: ``exact``, ``truncated-<k>`` or
    ``broken-carry-<k>``, each the ``id`` of the multiplier it names, so
    one multiplier has one spelling, or a path to a raw LUT file.
    """
    if spec == "exact":
        return exact_multiplier()
    mt = re.fullmatch(r"truncated-(0|[1-9][0-9]*)", spec)
    if mt:
        return truncated_multiplier(int(mt.group(1)))
    mb = re.fullmatch(r"broken-carry-(0|[1-9][0-9]*)", spec)
    if mb:
        return broken_carry_multiplier(int(mb.group(1)))
    if os.path.exists(spec):
        return load_lut(spec)
    raise ValueError(f"unknown multiplier '{spec}'")
