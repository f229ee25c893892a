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
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

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
        family = _family_table(self.kind, self.params)
        if family is not None and not np.array_equal(family, t):
            raise ValueError(f"table of {self.id!r} is not the {self.kind} table "
                             f"for params {self.params}")
        self.table = t

    def table2d(self) -> np.ndarray:
        """View of the table as [x + 128, y + 128]."""
        return self.table.reshape(256, 256)


@dataclass(frozen=True)
class ErrorMetrics:
    mae_percent: float
    worst_case_abs: int
    error_count: int


def _exact_table2d() -> np.ndarray:
    v = np.arange(-128, 128, dtype=np.int32)
    return np.outer(v, v)


def _family_table(kind: str, params: dict):
    """Product table of a built-in family kind, or None for any other kind."""
    if kind == "exact":
        return _exact_table2d().astype(np.int16).reshape(-1)
    if kind == "truncated":
        k = params.get("k")
        if not isinstance(k, (int, np.integer)) or not 0 <= k <= 15:
            raise ValueError(f"truncated k must be in [0, 15], got {k}")
        mask = np.uint16((0xFFFF << k) & 0xFFFF)
        pattern = _exact_table2d().astype(np.int16).view(np.uint16)
        return (pattern & mask).view(np.int16).reshape(-1)
    if kind == "broken_carry":
        k = params.get("k")
        if not isinstance(k, (int, np.integer)) or not 0 <= k <= 7:
            raise ValueError(f"broken-carry k must be in [0, 7], got {k}")
        mask = np.uint8((0xFF << k) & 0xFF)
        vals = np.arange(-128, 128, dtype=np.int8)
        ops = (vals.view(np.uint8) & mask).view(np.int8).astype(np.int32)
        return np.outer(ops, ops).astype(np.int16).reshape(-1)
    return None


def exact_multiplier() -> Multiplier:
    return Multiplier(id="exact", kind="exact", params={},
                      table=_family_table("exact", {}))


def truncated_multiplier(k: int) -> Multiplier:
    """Exact product with the k low bits of the 16-bit pattern zeroed."""
    return Multiplier(id=f"truncated-{k}", kind="truncated", params={"k": k},
                      table=_family_table("truncated", {"k": k}))


def broken_carry_multiplier(k: int) -> Multiplier:
    """Exact product of operands whose k low bits are zeroed first."""
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
    m = from_table(mult_id, table)
    m.params["source"] = str(path)
    return m


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


def product_function(m: Multiplier):
    """Vectorized product closure for int8 operand arrays.

    Returns ``f(x, y) -> int16 array`` that broadcasts its inputs. Family
    kinds get direct arithmetic fast paths; anything else falls back to a
    table gather. The fast paths are exhaustively checked against the table
    in the test suite.
    """
    if m.kind == "exact":

        def f_exact(x, y):
            return (x.astype(np.int32) * y.astype(np.int32)).astype(np.int16)

        return f_exact
    if m.kind == "truncated":
        mask = np.uint16((0xFFFF << m.params["k"]) & 0xFFFF)

        def f_trunc(x, y):
            p = (x.astype(np.int32) * y.astype(np.int32)).astype(np.int16)
            return (p.view(np.uint16) & mask).view(np.int16)

        return f_trunc
    if m.kind == "broken_carry":
        omask = np.uint8((0xFF << m.params["k"]) & 0xFF)

        def f_broken(x, y):
            xm = (x.astype(np.int8).view(np.uint8) & omask).view(np.int8)
            ym = (y.astype(np.int8).view(np.uint8) & omask).view(np.int8)
            return (xm.astype(np.int32) * ym.astype(np.int32)).astype(np.int16)

        return f_broken

    table = m.table

    def f_lut(x, y):
        idx = ((x.astype(np.int32) + 128) << 8) | (y.astype(np.int32) + 128)
        return table[idx]

    return f_lut


# ---------------------------------------------------------------------------
# activation-aware weight retuning maps


@dataclass(eq=False)
class ActivationSample:
    """Histogram of int8 activation codes, indexed by code + 128."""

    id: str
    counts: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.counts, dtype=np.uint64)
        if c.shape != (256,):
            raise ValueError("activation histogram must have 256 bins")
        self.counts = c


def uniform_activations() -> ActivationSample:
    return ActivationSample(id="uniform-full", counts=np.ones(256, dtype=np.uint64))


def activations_from_codes(codes, sample_id: str) -> ActivationSample:
    codes = np.asarray(codes)
    hist = np.bincount(codes.astype(np.int32).reshape(-1) + 128, minlength=256)
    return ActivationSample(id=sample_id, counts=hist.astype(np.uint64))


@dataclass(eq=False)
class WeightMapTable:
    """Per-weight retuning map: map[w + 128] is the substitute int8 code."""

    map: np.ndarray
    multiplier_id: str
    activation_set_id: str

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
    """
    counts = acts.counts.astype(np.int64)
    if counts.max(initial=0) >= (1 << 39):
        # keeps the int64 weighted sums below 2^63
        raise ValueError("activation counts too large for exact accumulation")
    table = m.table2d().astype(np.int64)
    exact = _exact_table2d().astype(np.int64)
    codes = np.arange(-128, 128, dtype=np.int64)
    out = np.empty(256, dtype=np.int16)
    for wi in range(256):
        diff = np.abs(table - exact[:, wi][:, None])
        dist = counts @ diff
        cand = np.flatnonzero(dist == dist.min())
        away = np.abs(cand - wi)
        cand = cand[away == away.min()]
        out[wi] = codes[cand.min()]
    return WeightMapTable(out, multiplier_id=m.id, activation_set_id=acts.id)


WEIGHT_MAP_MAGIC = b"AXWM"
WEIGHT_MAP_VERSION = 1


def save_weight_map(wm: WeightMapTable, path) -> None:
    """Binary cache format: magic 'AXWM', version byte, 3 reserved zero
    bytes, then 256 signed bytes (map entries for w = -128 .. 127)."""
    payload = wm.map.astype(np.int8).tobytes()
    assert len(payload) == 256
    with open(path, "wb") as f:
        f.write(WEIGHT_MAP_MAGIC)
        f.write(bytes([WEIGHT_MAP_VERSION, 0, 0, 0]))
        f.write(payload)


def load_weight_map(path, multiplier_id: str = "", activation_set_id: str = "") -> WeightMapTable:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) != 8 + 256:
        raise ValueError(f"weight map file has wrong size {len(data)}")
    if data[:4] != WEIGHT_MAP_MAGIC:
        raise ValueError("bad weight map magic")
    if data[4] != WEIGHT_MAP_VERSION:
        raise ValueError(f"unsupported weight map version {data[4]}")
    table = np.frombuffer(data[8:], dtype=np.int8).astype(np.int16)
    return WeightMapTable(table, multiplier_id, activation_set_id)


def _safe_name(s: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", s)


def precompute_weight_maps(multipliers, acts: ActivationSample, cache_dir) -> dict:
    """Build (or load from cache) one retuning map per multiplier.

    Cache files are keyed by multiplier id and activation-sample id; a hit
    is returned byte-identical to what was stored.
    """
    os.makedirs(cache_dir, exist_ok=True)
    maps = {}
    for m in multipliers:
        fname = _safe_name(f"{m.id}__{acts.id}") + ".axwm"
        fpath = os.path.join(str(cache_dir), fname)
        if os.path.exists(fpath):
            maps[m.id] = load_weight_map(fpath, m.id, acts.id)
        else:
            wm = build_weight_map(m, acts)
            save_weight_map(wm, fpath)
            maps[m.id] = wm
    return maps


def parse_multiplier(spec: str) -> Multiplier:
    """Resolve a multiplier from a command-line style name.

    Accepts ``exact``, ``truncated-<k>``, ``broken-carry-<k>`` (underscores
    also fine), or a path to a raw LUT file.
    """
    s = spec.strip()
    if s == "exact":
        return exact_multiplier()
    mt = re.fullmatch(r"truncated[-_:](\d+)", s)
    if mt:
        return truncated_multiplier(int(mt.group(1)))
    mb = re.fullmatch(r"broken[-_]carry[-_:](\d+)", s)
    if mb:
        return broken_carry_multiplier(int(mb.group(1)))
    if os.path.exists(s):
        return load_lut(s)
    raise ValueError(f"unknown multiplier '{spec}'")
