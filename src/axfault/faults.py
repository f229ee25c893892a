"""Permanent stuck-at faults in MAC product logic, plus the two accelerator
execution models that propagate them.

The fault model: a faulty MAC forces one bit of the 16-bit two's complement
product pattern to 0 (``sa0``) or 1 (``sa1``) on every multiply it performs.
Registers, interconnect and accumulators are assumed fault-free. ``bypass``
mode models array-level disabling of a faulty MAC: its product is replaced
by zero before accumulation.

Bit 15 is the product's sign bit. Either kind moves a product by
2^15 = 32768 there, more than twice the magnitude of any legal product
(codes lie in [-127, 127], so |product| <= 16129): sa1 moves exactly the
products >= 0, sa0 exactly the negative ones.

Two engines share the multiplier and fault semantics:

* ``systolic_gemm``: a weight-stationary n x n array. Weight element (r, c)
  is stationed on MAC (r mod n, c mod n), so a single faulty MAC corrupts a
  regular lattice of weight positions when the matrix is larger than the
  array.
* ``gpu_tile_gemm``: output is computed in tile x tile blocks (row-major
  block order); faults live in one block's MAC grid and corrupt every
  product feeding the damaged output positions of that block only.

How the engines compute this, bit-identical to forming every product:
the fault-free GEMM of ``exact``, ``broken_carry`` and ``truncated`` (k <= 8,
2^k <= rows) multipliers is float64 matmuls, which are exact below
``MAX_GEMM_DEPTH``; other multipliers gather every product from the table.
On the matmul path, only the products that faults touch are then formed
and corrected: the stationed lattice, grouped by array row, on the systolic
engine; the damaged outputs, along the full depth, on the gpu engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .multipliers import Multiplier, product_function

FAULT_KINDS = ("sa0", "sa1")
GEMM_MODES = ("propagate", "bypass")

# int16 products accumulate in int32; cap the reduction depth so the sum of
# C worst-case products cannot overflow. The cap also keeps every partial
# sum of a float64 matmul exact: 2^15 * 2^15 = 2^30 < 2^53.
MAX_GEMM_DEPTH = 32768


@dataclass(frozen=True)
class StuckAtFault:
    bit: int
    kind: str

    def __post_init__(self):
        if not 0 <= self.bit <= 15:
            raise ValueError(f"fault bit must be in [0, 15], got {self.bit}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}")

    def masks(self):
        """(or_mask, and_mask) as uint16; applying both realizes the fault."""
        if self.kind == "sa1":
            return np.uint16(1 << self.bit), np.uint16(0xFFFF)
        return np.uint16(0), np.uint16(~(1 << self.bit) & 0xFFFF)


@dataclass
class FaultMap:
    """Sparse fault assignment over an n x n MAC array."""

    n: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("array dimension must be positive")
        for (i, j), f in self.entries.items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"fault coordinate ({i}, {j}) outside {self.n}x{self.n} array")
            if not isinstance(f, StuckAtFault):
                raise TypeError("fault map values must be StuckAtFault")

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class SystolicConfig:
    n: int
    mode: str = "propagate"

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("array dimension must be positive")
        if self.mode not in GEMM_MODES:
            raise ValueError(f"mode must be one of {GEMM_MODES}")


@dataclass(frozen=True)
class TileFaultSpec:
    """One damaged block of a tiled GEMM.

    ``damaged_fraction`` of the tile's MAC positions (ceil-rounded, chosen by
    ``seed``) carry ``fault``. Positions are drawn on the full tile x tile
    grid; positions falling outside a ragged edge block simply do not exist
    there.
    """

    tile_index: int
    damaged_fraction: float
    fault: StuckAtFault
    seed: int

    def __post_init__(self):
        if self.tile_index < 0:
            raise ValueError("tile_index must be non-negative")
        if not 0.0 <= self.damaged_fraction <= 1.0:
            raise ValueError("damaged_fraction must be in [0, 1]")


def apply_fault(product, fault: StuckAtFault):
    """Force the fault's bit in the 16-bit product pattern.

    Accepts a python int or an int16 array; idempotent by construction.
    """
    arr = np.asarray(product)
    if arr.dtype != np.int16:
        info = np.iinfo(np.int16)
        if arr.size and (arr.min() < info.min or arr.max() > info.max):
            raise ValueError("product outside int16 range")
        arr = arr.astype(np.int16)
    else:
        arr = np.ascontiguousarray(arr)
    om, am = fault.masks()
    out = ((arr.view(np.uint16) & am) | om).view(np.int16)
    if np.isscalar(product) or isinstance(product, (int, np.integer)):
        return int(out)
    return out


def random_fault_map(n: int, percent: float, fault: StuckAtFault, seed: int) -> FaultMap:
    """Uniformly place floor(percent/100 * n^2) copies of ``fault``."""
    if n <= 0:
        raise ValueError("array dimension must be positive")
    if not 0.0 <= percent <= 100.0:
        raise ValueError("percent must be in [0, 100]")
    count = math.floor(n * n * percent / 100.0)
    entries = {}
    if count:
        rng = np.random.default_rng(seed)
        flat = rng.choice(n * n, size=count, replace=False)
        entries = {(int(p) // n, int(p) % n): fault for p in flat}
    return FaultMap(n=n, entries=entries)


def save_fault_map(fm: FaultMap, path) -> None:
    """Text format: 'n=<dim>' header, then one 'i,j,bit,kind' line per fault."""
    lines = [f"n={fm.n}"]
    for (i, j) in sorted(fm.entries):
        f = fm.entries[(i, j)]
        lines.append(f"{i},{j},{f.bit},{f.kind}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fault_map(path) -> FaultMap:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or not raw[0].startswith("n="):
        raise ValueError("fault map file must start with an 'n=<dim>' header")
    n = int(raw[0][2:])
    entries = {}
    for ln in raw[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad fault map line: {ln!r}")
        i, j, bit = int(parts[0]), int(parts[1]), int(parts[2])
        if (i, j) in entries:
            raise ValueError(f"duplicate fault coordinate ({i}, {j})")
        entries[(i, j)] = StuckAtFault(bit=bit, kind=parts[3])
    return FaultMap(n=n, entries=entries)


def _station(lattice: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Tile a per-MAC n x n lattice over a (rows, cols) weight matrix:
    weight (r, c) is stationed on MAC (r mod n, c mod n)."""
    n = lattice.shape[0]
    ri = np.arange(rows) % n
    ci = np.arange(cols) % n
    return lattice[ri[:, None], ci]


def _station_masks(fm: FaultMap | None, rows: int, cols: int):
    """Expand a fault map to full (rows, cols) or/and masks via mod-n
    stationing. Returns (None, None, None) when there is nothing to apply."""
    if fm is None or not fm.entries:
        return None, None, None
    or_n = np.zeros((fm.n, fm.n), dtype=np.uint16)
    and_n = np.full((fm.n, fm.n), 0xFFFF, dtype=np.uint16)
    for (i, j), f in fm.entries.items():
        or_n[i, j], and_n[i, j] = f.masks()
    return (_station(or_n, rows, cols), _station(and_n, rows, cols),
            pruned_mask((rows, cols), fm))


def _int8_codes(x, name: str) -> np.ndarray:
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise ValueError(f"{name} codes must have an integer dtype, got {x.dtype}")
    if x.dtype != np.int8 and x.size and (x.min() < -128 or x.max() > 127):
        raise ValueError(f"{name} codes must lie in [-128, 127]")
    return np.ascontiguousarray(x, dtype=np.int8)


def _check_gemm_operands(wq, aq):
    wq, aq = _int8_codes(wq, "weight"), _int8_codes(aq, "activation")
    if wq.ndim != 2 or aq.ndim != 2:
        raise ValueError("GEMM operands must be 2-d")
    if wq.shape[1] != aq.shape[0]:
        raise ValueError(f"inner dimensions differ: {wq.shape} vs {aq.shape}")
    if min(wq.shape + aq.shape) == 0:
        raise ValueError("GEMM operands must be non-empty")
    if wq.shape[1] > MAX_GEMM_DEPTH:
        raise ValueError(f"reduction depth {wq.shape[1]} exceeds {MAX_GEMM_DEPTH}")
    return wq, aq


def _blas_ready(m: Multiplier, rows: int) -> bool:
    """Whether the fault-free GEMM of ``m`` is a few float64 matmuls.

    truncated-k needs 2^k - 1 extra matmuls; past k = 8 or 2^k > rows the
    table gather is faster.
    """
    if m.kind in ("exact", "broken_carry"):
        return True
    return m.kind == "truncated" and m.params["k"] <= 8 and (1 << m.params["k"]) <= rows


def _blas_gemm(wq, aq, m: Multiplier) -> np.ndarray:
    """Fault-free GEMM of a ``_blas_ready`` multiplier, as exact float64."""
    k = m.params.get("k", 0)
    w, a = wq, aq
    if m.kind == "broken_carry":
        keep = np.uint8((0xFF << k) & 0xFF)
        w = (wq.view(np.uint8) & keep).view(np.int8)
        a = (aq.view(np.uint8) & keep).view(np.int8)
    out = w.astype(np.float64) @ a.astype(np.float64)
    if m.kind == "truncated" and k:
        # truncation subtracts p mod 2^k, which depends on the operands' low
        # k bits only: sum over each value v of the activation's low bits
        low = (1 << k) - 1
        w_lo = (wq.view(np.uint8) & low).astype(np.int32)
        a_lo = aq.view(np.uint8) & low
        for v in range(1, 1 << k):
            out -= ((v * w_lo) & low).astype(np.float64) @ (a_lo == v).astype(np.float64)
    return out


def _gather_gemm(wq, aq, prod, or_m=None, and_m=None, hit=None, mode="propagate"):
    """Every product formed in (rows, depth, batch) chunks; the optional
    stationed masks corrupt (or, in bypass mode, zero) products in place."""
    rows, depth = wq.shape
    batch = aq.shape[1]
    out = np.empty((rows, batch), dtype=np.int32)
    chunk = max(1, (1 << 24) // (rows * depth))
    for b0 in range(0, batch, chunk):
        p = prod(aq[None, :, b0 : b0 + chunk], wq[:, :, None])
        if or_m is not None:
            if mode == "propagate":
                p = ((p.view(np.uint16) & and_m[:, :, None]) | or_m[:, :, None]).view(np.int16)
            else:
                p[hit] = 0
        out[:, b0 : b0 + chunk] = p.sum(axis=1, dtype=np.int32)
    return out


def _correct_lattice(out, wq, aq, prod, fm: FaultMap, mode: str) -> None:
    """Add to a fault-free float64 GEMM the change its faults make.

    Rows i, i+n, ... are stationed on array row i, so they share one set of
    faulty columns; only those products are formed.
    """
    n = fm.n
    rows, depth = wq.shape
    batch = aq.shape[1]
    or_m, and_m, hit = _station_masks(fm, min(rows, n), depth)
    for i in range(hit.shape[0]):
        cols = np.flatnonzero(hit[i])
        if cols.size == 0:
            continue
        w = wq[i::n, cols][:, :, None]
        om, am = or_m[i, cols][:, None], and_m[i, cols][:, None]
        chunk = max(1, (1 << 24) // (w.shape[0] * cols.size))
        for b0 in range(0, batch, chunk):
            p = prod(aq[cols, b0 : b0 + chunk][None], w)
            delta = -p.sum(axis=1, dtype=np.int64)
            if mode == "propagate":
                delta += ((p.view(np.uint16) & am) | om).view(np.int16).sum(axis=1, dtype=np.int64)
            out[i::n, b0 : b0 + chunk] += delta


def systolic_gemm(
    wq: np.ndarray,
    aq: np.ndarray,
    m: Multiplier,
    fm: FaultMap | None,
    cfg: SystolicConfig,
) -> np.ndarray:
    """Weight-stationary GEMM: out[r, b] = sum_c P(aq[c, b], wq[r, c]).

    Every product goes through multiplier ``m``; products formed on faulty
    MACs are corrupted (``propagate``) or zeroed (``bypass``) before the
    int32 accumulation. With an exact multiplier and an empty fault map this
    equals the integer matrix product.
    """
    wq, aq = _check_gemm_operands(wq, aq)
    if fm is not None and fm.n != cfg.n:
        raise ValueError(f"fault map is {fm.n}x{fm.n} but array is {cfg.n}x{cfg.n}")
    rows, depth = wq.shape
    prod = product_function(m)
    if not _blas_ready(m, rows):
        or_m, and_m, hit = _station_masks(fm, rows, depth)
        return _gather_gemm(wq, aq, prod, or_m, and_m, hit, cfg.mode)
    out = _blas_gemm(wq, aq, m)
    if fm is not None and fm.entries:
        _correct_lattice(out, wq, aq, prod, fm, cfg.mode)
    return out.astype(np.int32)


def gpu_tile_gemm(
    wq: np.ndarray,
    aq: np.ndarray,
    m: Multiplier,
    tf: TileFaultSpec | None,
    tile: int,
) -> np.ndarray:
    """Tiled GEMM with at most one damaged tile x tile output block.

    Blocks are indexed row-major over the (rows, batch) output grid. In the
    damaged block, the seeded MAC positions corrupt every product along the
    reduction for their output element; there is no cross-block coupling.
    """
    wq, aq = _check_gemm_operands(wq, aq)
    if tile <= 0:
        raise ValueError("tile size must be positive")
    rows, depth = wq.shape
    batch = aq.shape[1]
    nbr = -(-rows // tile)
    nbb = -(-batch // tile)
    if tf is not None and tf.tile_index >= nbr * nbb:
        raise ValueError(f"tile_index {tf.tile_index} outside {nbr}x{nbb} block grid")

    prod = product_function(m)
    if _blas_ready(m, rows):
        out = _blas_gemm(wq, aq, m).astype(np.int32)
    else:
        out = _gather_gemm(wq, aq, prod)
    count = 0 if tf is None else math.ceil(tf.damaged_fraction * tile * tile)
    if count:
        rng = np.random.default_rng(tf.seed)
        flat = rng.choice(tile * tile, size=count, replace=False)
        bi, bj = divmod(tf.tile_index, nbb)
        r = bi * tile + flat // tile
        b = bj * tile + flat % tile
        # damage drawn outside a ragged edge block does not exist
        keep = (r < rows) & (b < batch)
        r, b = r[keep], b[keep]
        om, am = tf.fault.masks()
        chunk = max(1, (1 << 24) // depth)
        for k0 in range(0, r.size, chunk):
            rr, bb = r[k0 : k0 + chunk], b[k0 : k0 + chunk]
            p = prod(aq[:, bb].T, wq[rr])
            out[rr, bb] = ((p.view(np.uint16) & am) | om).view(np.int16).sum(axis=1, dtype=np.int32)
    return out


def pruned_mask(shape, fm: FaultMap) -> np.ndarray:
    """Boolean (rows, cols) array marking weights stationed on faulty MACs;
    these are the positions a mitigation run prunes."""
    hit_n = np.zeros((fm.n, fm.n), dtype=bool)
    for (i, j) in fm.entries:
        hit_n[i, j] = True
    return _station(hit_n, *shape)
