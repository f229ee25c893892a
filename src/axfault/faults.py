"""Permanent stuck-at faults in MAC product logic, plus the two accelerator
execution models that propagate them.

The fault model: a faulty MAC forces one bit of the 16-bit two's complement
product pattern to 0 (``sa0``) or 1 (``sa1``) on every multiply it performs.
Registers, interconnect and accumulators are assumed fault-free. ``bypass``
mode models array-level disabling of a faulty MAC: its product is replaced
by zero before accumulation, one more fault, which forces every bit to 0.

Bit 15 is the product's sign bit. Either kind moves a product by
2^15 = 32768 there, more than twice the magnitude of any legal product
(codes lie in [-127, 127], so |product| <= 16129): sa1 moves exactly the
products >= 0, sa0 exactly the negative ones.

Two engines share the multiplier and fault semantics:

* ``systolic_gemm``: a weight-stationary n x n array. Weight element (r, c)
  is stationed on MAC (r mod n, c mod n), so a single faulty MAC corrupts a
  regular lattice of weight positions when the matrix is larger than the
  array. A call reads its fault map once, into one code per MAC holding
  the two masks that force its product bits (``_lattice``), and every
  fault route stations that lattice or slices of it (``_station``): the
  weights a fault hits (``pruned_mask``), the masks, the table of each
  weight's MAC, and which faults take matmuls.
* ``gpu_tile_gemm``: output is computed in tile x tile blocks (row-major
  block order); faults live in one block's MAC grid and corrupt every
  product feeding the damaged output positions of that block only.

How the engines compute this, bit-identical to forming every product:
the fault-free GEMM of ``exact``, ``broken_carry`` and ``truncated`` (k <= 8,
2^k <= rows) multipliers is float32 matmuls over depth slabs of at most
``_SLAB`` columns, each exact and summed in int32; truncated-k takes off
what it truncates in 2^(k-1) + k - 1 more (``_truncation``). On that path
the gpu engine then forms the products of its damaged outputs, along the
full depth, as int16 and sums them in int32 (``_products``).

A bypassed product is replaced by zero, which is the product of a zero
weight for every multiplier whose weight-0 products are all 0 (every
arithmetic kind, and a LUT that keeps them): there ``bypass`` is the
fault-free GEMM of the weights with those on faulty MACs zeroed, the
pruning a mitigation run does. Otherwise the systolic engine adds what its
faults change (``_correct_lattice``). Faults at bit 15 take float32
matmuls: the sign bit moves a product by 2^15 exactly when its sign is one
way, so counts of products by sign give the change. Only when such faults
station fewer than two weights per depth column they touch, and for every
other fault, are the products on the stationed lattice formed, as int16,
grouped by array row, and corrected with int32 sums.

Every other multiplier is read from its product table, held weight-major
once per multiplier (``Multiplier.by_weight``): per-weight tables of the
products with ``span`` activation codes from ``lo``, depth-major (row
``c * span + v - lo`` for depth column c and activation code v), are built
(``_weight_tables``) and one contiguous row of them is summed per MAC
(``_table_gemm``). The GEMM walks the depth in slabs of at most
``_SLAB_ENTRIES`` entries and sums each slab while it is still in cache.
The fault-free tables depend on the weights and the multiplier alone, so a
caller can build them once (``_clean_tables``) and pass them to either
engine as ``tables``, whose slabs are then slices: ``network`` builds them
once per evaluate of several eval batches, and a campaign's golden pass
shares them with its resumed cells. Such plan tables hold all 256 codes
(lo = -128), since any activations may read them; ``network`` decides which
tables a plan keeps. Without ``tables``, every call builds its slabs one at
a time and never the whole table, and only for the codes it reads: lo and
lo + span - 1 are its smallest and largest activation code (digit pixels,
for one, read codes 0..127). Since a stuck-at fault acts on
the product pattern alone, a faulty MAC, bypassed or not, is one more
table: the systolic engine stacks one table per distinct code of its
lattice, the multiplier's own for a fault-free MAC, and builds each
weight's products from the table of its MAC, so faults cost no more than a
fresh build (a LUT whose weight-0 products are all 0 prunes instead, as
above).
The gpu engine reads the fault-free tables. Without faults the two engines
compute the same GEMM.

Given ``clean``, the output of the same GEMM without faults, either engine
starts from a copy of it and adds only the faults: ``systolic_gemm``
adds what they change as above (where ``bypass`` prunes it checks
``clean``'s shape and no more), and ``gpu_tile_gemm`` recomputes the
damaged outputs. For a multiplier read from its table, a GEMM of at least
``_CHANGE_TABLE_BATCH`` batch columns reads the change of each faulty
weight from a 256-entry change table at its column's activation codes
(``_table_changes``), and a narrower one forms the faulty products. A
campaign cell resumed from the clean pass at its faulty layer takes this
route.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .multipliers import Multiplier

FAULT_KINDS = ("sa0", "sa1")
GEMM_MODES = ("propagate", "bypass")

# int16 products accumulate in int32; cap the reduction depth so the sum of
# C worst-case products cannot overflow: 2^15 * 2^15 = 2^30 < 2^31.
MAX_GEMM_DEPTH = 32768

# depth of one float32 matmul of int8 codes: every partial sum is an integer
# with |s| <= 1024 * 2^14 = 2^24, and float32 holds all of those exactly
_SLAB = 1024

# cap on the entries of one depth slab of per-weight product tables
# (512 KiB), small enough to be read while it is still in cache: a slab
# spans _SLAB_ENTRIES // (span * rows) depth columns, span 256 for a plan's
# tables and the number of activation codes read for a call's own
_SLAB_ENTRIES = 1 << 18

# faulty weights per activation row read at which matmuls take over from
# forming the faulty products (see _correct_lattice)
_COUNTED_PER_ROW = 2

# GEMM batch width at which change tables take over from forming the faulty
# products of a table multiplier (see _correct_lattice): at the shapes of
# both desk models they win from 1024 columns on, and at 512 they lose on
# lenet conv 2 (16x200)
_CHANGE_TABLE_BATCH = 1024

# multiplier kinds whose products are computed (``_products``); every other
# kind reads them from its table
_ARITHMETIC = ("exact", "truncated", "broken_carry")


def _check_int(name: str, value, lo=None, hi=None) -> int:
    """``value`` as a Python int, which callers store: a numpy integer
    wraps in later arithmetic (``np.uint8(16)`` squares to 0). Raises
    ``ValueError``, naming ``name``, unless ``value`` is an integer (not a
    bool) in [lo, hi], a bound None being open (``hi`` comes with ``lo``)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _check_range(name, int(value), lo, hi)


def _check_real(name: str, value, lo=None, hi=None) -> float:
    """``value`` as a Python float, as ``_check_int`` for a real number (not
    a bool) that a float holds: not NaN, infinite or an int past its range."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return _check_range(name, float(value), lo, hi)


def _check_range(name: str, value, lo, hi):
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class StuckAtFault:
    bit: int
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "bit", _check_int("bit", self.bit, 0, 15))
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
        self.n = _check_int("n", self.n, 1)
        for ij, f in self.entries.items():
            if not isinstance(ij, tuple) or len(ij) != 2:
                raise ValueError(f"fault coordinate must be a pair of integers, got {ij!r}")
            for i in ij:
                _check_int("fault coordinate", i, 0, self.n - 1)
            if not isinstance(f, StuckAtFault):
                raise TypeError("fault map values must be StuckAtFault")

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class SystolicConfig:
    n: int
    mode: str = "propagate"

    def __post_init__(self):
        object.__setattr__(self, "n", _check_int("n", self.n, 1))
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
        object.__setattr__(self, "tile_index", _check_int("tile_index", self.tile_index, 0))
        object.__setattr__(self, "damaged_fraction",
                           _check_real("damaged_fraction", self.damaged_fraction, 0, 1))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))


def seeded_tile_index(seed: int) -> int:
    """The damaged tile that ``seed`` picks when none is named, an index in
    [0, 2^30) that ``network`` reduces modulo each layer's block grid."""
    _check_int("seed", seed, 0)
    return int(np.random.default_rng(seed).integers(1 << 30))


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
    out = _forced(arr, *fault.masks())
    if np.isscalar(product) or isinstance(product, (int, np.integer)):
        return int(out)
    return out


def random_fault_map(n: int, percent: float, fault: StuckAtFault, seed: int) -> FaultMap:
    """Uniformly place floor(percent/100 * n^2) copies of ``fault``."""
    n = _check_int("n", n, 1)
    seed = _check_int("seed", seed, 0)
    percent = _check_real("percent", percent, 0, 100)
    count = math.floor(n * n * percent / 100.0)
    entries = {}
    if count:
        rng = np.random.default_rng(seed)
        flat = rng.choice(n * n, size=count, replace=False)
        entries = {(int(p) // n, int(p) % n): fault for p in flat}
    return FaultMap(n=n, entries=entries)


def save_fault_map(fm: FaultMap, path) -> None:
    """Text format: 'n=<dim>' header, 'faults=<count>', then one
    'i,j,bit,kind' line per fault."""
    lines = [f"n={fm.n}", f"faults={len(fm)}"]
    for (i, j) in sorted(fm.entries):
        f = fm.entries[(i, j)]
        lines.append(f"{i},{j},{f.bit},{f.kind}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_fault_map(path) -> FaultMap:
    """The map of a ``save_fault_map`` file. Raises ``ValueError``, naming
    the file, when the count line is missing or differs from the number of
    fault lines, as in a file cut short, and naming the file and the line
    when a header, count or field is not an integer, a fault line does not
    hold 4 fields or repeats a coordinate."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or not raw[0].startswith("n="):
        raise ValueError(f"fault map file {path} must start with an 'n=<dim>' header")
    if len(raw) < 2 or not raw[1].startswith("faults="):
        raise ValueError(f"fault map file {path} has no 'faults=<count>' line after its header")

    def integer(field: str, ln: str) -> int:
        try:
            return int(field)
        except ValueError:
            raise ValueError(f"fault map file {path}, line {ln!r}: "
                             f"{field!r} is not an integer") from None

    n, count = integer(raw[0][2:], raw[0]), integer(raw[1][7:], raw[1])
    if count != len(raw) - 2:
        raise ValueError(f"fault map file {path} holds {len(raw) - 2} faults, "
                         f"but its count line says {count}")
    entries = {}
    for ln in raw[2:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"fault map file {path}, line {ln!r}: "
                             f"a fault line holds 4 fields (i,j,bit,kind), got {len(parts)}")
        i, j, bit = (integer(field, ln) for field in parts[:3])
        if (i, j) in entries:
            raise ValueError(f"fault map file {path}, line {ln!r}: "
                             f"duplicate fault coordinate ({i}, {j})")
        entries[(i, j)] = StuckAtFault(bit=bit, kind=parts[3])
    return FaultMap(n=n, entries=entries)


# the ``_lattice`` code of a fault-free MAC, whose masks change nothing
_FAULT_FREE = 0xFFFF


def _lattice(fm: FaultMap, mode: str) -> np.ndarray:
    """The fault of every MAC of ``fm``'s array as an (n, n) uint32 code,
    ``or_mask << 16 | and_mask`` of its ``StuckAtFault.masks``:
    ``_FAULT_FREE`` on a fault-free MAC, and in ``bypass`` 0 on a faulty
    one, whose masks zero every product."""
    lattice = np.full((fm.n, fm.n), _FAULT_FREE, dtype=np.uint32)
    # masks() once per distinct fault, not per MAC: it builds numpy scalars
    code = {}
    for ij, f in fm.entries.items():
        if f not in code:
            code[f] = int(f.masks()[0]) << 16 | int(f.masks()[1])
        lattice[ij] = 0 if mode == "bypass" else code[f]
    return lattice


def _station(lattice: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Tile a per-MAC n x n lattice over a (rows, cols) weight matrix:
    weight (r, c) is stationed on MAC (r mod n, c mod n)."""
    n = lattice.shape[0]
    return np.tile(lattice, (-(-rows // n), -(-cols // n)))[:rows, :cols]


def _masks(codes: np.ndarray):
    """(or_mask, and_mask) as uint16 of ``_lattice`` codes."""
    return (codes >> 16).astype(np.uint16), (codes & 0xFFFF).astype(np.uint16)


def _forced(p, om, am) -> np.ndarray:
    """int16 products ``p`` with the bits set in uint16 ``om`` forced to 1
    and those clear in ``am`` to 0: the stuck bits of ``_masks``."""
    return ((p.view(np.uint16) & am) | om).view(np.int16)


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
    """Whether the fault-free GEMM of ``m`` is a few float32 matmuls.

    truncated-k needs 2^(k-1) + k - 1 extra matmuls (``_truncation``), so
    past k = 8 or 2^k > rows it reads the product tables instead.
    """
    if m.kind in ("exact", "broken_carry"):
        return True
    return m.kind == "truncated" and m.params["k"] <= 8 and (1 << m.params["k"]) <= rows


def _exact_operands(wq, aq, m: Multiplier):
    """The codes whose exact product a kind of ``_ARITHMETIC`` rounds:
    broken-carry-k drops the low k bits of both, the others keep them."""
    if m.kind != "broken_carry":
        return wq, aq
    keep = np.uint8((0xFF << m.params["k"]) & 0xFF)
    return (wq.view(np.uint8) & keep).view(np.int8), (aq.view(np.uint8) & keep).view(np.int8)


def _products(x, y, m: Multiplier) -> np.ndarray:
    """The int16 products of int8 activation codes ``x`` with weight codes
    ``y``, broadcast, under ``m``. A table multiplier gathers them from its
    table; a kind of ``_ARITHMETIC`` multiplies its ``_exact_operands`` in
    int16 (|p| <= 2^14), and truncated-k then clears the k low bits."""
    if m.kind not in _ARITHMETIC:
        return m.table[((x.astype(np.int32) + 128) << 8) | (y.astype(np.int32) + 128)]
    y, x = _exact_operands(y, x, m)
    p = x.astype(np.int16) * y.astype(np.int16)
    if m.kind == "truncated":
        p &= np.int16(-(1 << m.params["k"]))
    return p


def _matmul(x, y) -> np.ndarray:
    """The int32 product of two integer matrices, one float32 matmul. The
    caller keeps every partial sum within 2^24, so float32 holds each one
    exactly whatever order BLAS sums in."""
    x, y = x.astype(np.float32, copy=False), y.astype(np.float32, copy=False)
    return (x @ y).astype(np.int32)


def _blas_gemm(wq, aq, m: Multiplier) -> np.ndarray:
    """Fault-free int32 GEMM of a ``_blas_ready`` multiplier.

    The products are int8 x int8, so |p| <= 2^14 and a float32 matmul over
    ``_SLAB`` columns is exact; the slabs are summed in int32. Truncated-k
    then takes off what it truncates (``_truncation``).
    """
    w, a = _exact_operands(wq, aq, m)
    w, a = w.astype(np.float32), a.astype(np.float32)
    out = _matmul(w[:, :_SLAB], a[:_SLAB])
    for c0 in range(_SLAB, w.shape[1], _SLAB):
        out += _matmul(w[:, c0 : c0 + _SLAB], a[c0 : c0 + _SLAB])
    if m.kind == "truncated" and m.params["k"]:
        out -= _truncation(wq, aq, m.params["k"])
    return out


def _truncation(wq, aq, k: int) -> np.ndarray:
    """What truncated-k takes off the exact GEMM: the int32 sums over c of
    p mod K, K = 2^k, for the products p of ``wq[r, c]`` and ``aq[c, b]``,
    in at most K/2 + k - 1 matmuls, the rank of the table of u v mod K.

    p mod K depends on the operands' low k bits u and v alone. Write
    M_v = v u mod K for each weight and H_v = [activation v]. Then
    M_{K-v} = K [M_v != 0] - M_v, and M_v != 0 exactly when u mod
    2^(k-t) != 0, t the 2-adic valuation of v. So the sum is
    sum_{0<v<K/2} M_v @ (H_v - H_{K-v}) + (K/2) [u odd] @ H_{K/2}
    + K sum_t [u mod 2^(k-t) != 0] @ [v > K/2 of valuation t]. Every term
    of these matmuls lies in [-255, 255], so over at most MAX_GEMM_DEPTH
    columns each is exact in float32; they are summed in int32.
    """
    K, half, low = 1 << k, 1 << (k - 1), np.uint8((1 << k) - 1)
    u = wq.view(np.uint8) & low
    v = aq.view(np.uint8) & low
    out = np.zeros((wq.shape[0], aq.shape[1]), dtype=np.int32)

    def add(left, right, shift=0):
        # an activation value no column holds takes no matmul
        if right.any():
            out[...] += _matmul(left, right) << shift

    for j in range(1, half):
        add((np.uint8(j) * u) & low, (v == j).view(np.int8) - (v == K - j).view(np.int8))
    add((u & np.uint8(1)) * np.uint8(half), v == half)
    if k > 1:
        # the lowest set bit of each v above K/2 (k = 1 has none), 0 elsewhere
        bottom = (v & -v) & -(v >> np.uint8(k - 1))
        for t in range(k - 1):
            add((u & np.uint8((1 << (k - t)) - 1)) != 0, bottom == (1 << t), k)
    return out


def _mac_tables(products, lattice, rows: int, depth: int):
    """Product tables of every kind of MAC in the array, and which one each
    weight is stationed on.

    ``products`` holds columns of the multiplier's weight-major
    [weight + 128, activation + 128] table (``Multiplier.by_weight``),
    those of the activation codes a GEMM reads. Returns ``(tables, sel)``.
    ``tables`` stacks, as (256 t, span) int16, one table per distinct code
    of ``lattice`` (``_lattice``; ``products`` itself on a fault-free MAC,
    zeros on a bypassed one), since a stuck-at fault acts on the product
    pattern alone. ``sel`` is the (rows, depth) table number of each
    weight.
    """
    codes, number = np.unique(lattice, return_inverse=True)
    tables = [_forced(products, om, am) for om, am in zip(*_masks(codes))]
    return np.vstack(tables), _station(number.reshape(lattice.shape), rows, depth)


def _weight_tables(wq, tables, sel):
    """Per-weight product tables of ``wq``, depth-major, built a slab of at
    most ``_slab_columns`` depth columns at a time.

    ``tables`` is weight-major, one row of products per weight code (and
    table number), with one column for each of ``span`` activation codes
    from lo: those a GEMM call reads for the tables it builds itself, all
    256 for a plan's (``_clean_tables``). It and ``sel`` are as
    ``_mac_tables`` returns them, or columns of ``Multiplier.by_weight``
    and None without faults. Returns ``slab(c0, c1)``, a (span (c1 - c0),
    rows) int16 array ``h`` whose entry ``h[(c - c0) * span + v - lo, r]``
    is the product of activation code v with weight (r, c), faults
    included; the next call overwrites it.
    """
    rows = wq.shape[0]
    span = tables.shape[1]
    # np.take copies a strided table on every gather: a call's own codes
    # are a column slice of the weight-major table
    products = np.ascontiguousarray(tables)
    step = min(_slab_columns(rows, span), wq.shape[1])
    # every slab reuses these buffers, as _table_gemm does its own
    gathered = np.empty((step, rows, span), dtype=np.int16)
    built = np.empty((step, span, rows), dtype=np.int16)

    def slab(c0, c1):
        # row of ``products`` that holds each weight's products, (d, rows)
        col = wq[:, c0:c1].T.astype(np.intp) + 128
        if sel is not None:
            col += 256 * sel[:, c0:c1].T
        d = col.shape[0]
        g = np.take(products, col, axis=0, out=gathered[:d], mode="clip")
        np.copyto(built[:d], g.transpose(0, 2, 1))
        return built[:d].reshape(-1, rows)

    return slab


def _slab_columns(rows: int, span: int) -> int:
    """Depth columns in one slab of the per-weight tables of ``rows``
    weights and ``span`` activation codes: at most ``_SLAB_ENTRIES``
    entries, and at least one column."""
    return max(1, _SLAB_ENTRIES // (span * rows))


def _table_gemm(wq, aq, slab, lo, span) -> np.ndarray:
    """GEMM read from per-weight product tables of ``span`` activation
    codes from ``lo``: output column b is the sum over c of the product of
    ``aq[c, b]`` with weight (r, c), row ``c * span + aq[c, b] - lo`` of the
    tables. ``slab(c0, c1)`` gives the tables of depth columns [c0, c1) as
    ``_weight_tables`` builds them: per call, of the codes ``aq`` holds;
    a plan's, of all 256 (lo = -128). Each slab is read whole, in chunks of
    about 2^17 gathered products, while it is still in cache."""
    rows, depth = wq.shape
    batch = aq.shape[1]
    step = min(_slab_columns(rows, span), depth)
    chunk = min(batch, max(1, (1 << 17) // (step * rows)))
    # one buffer for the gathers of every slab: allocated per slab, it lets
    # the allocator hand its pages back and fault them in again. Every
    # index is in range, so "clip" only spares a copy of ``out``
    gathered = np.empty(step * chunk * rows, dtype=np.int16)
    out = np.zeros((rows, batch), dtype=np.int32)
    for c0 in range(0, depth, step):
        h = slab(c0, c0 + step)
        a = aq[c0 : c0 + step]
        idx = a.astype(np.intp) + (span * np.arange(a.shape[0])[:, None] - lo)
        for b0 in range(0, batch, chunk):
            i = idx[:, b0 : b0 + chunk]
            p = gathered[: i.size * rows].reshape(*i.shape, rows)
            np.take(h, i, axis=0, out=p, mode="clip")
            out[:, b0 : b0 + chunk] += p.sum(axis=0, dtype=np.int32).T
    return out


def _fresh_gemm(wq, aq, m: Multiplier, lattice):
    """GEMM read from per-weight tables built for this call alone, with the
    faults of ``lattice`` (if any) folded in. The tables hold the span codes
    from the smallest activation code to the largest, the only ones read."""
    lo = int(aq.min())
    span = int(aq.max()) - lo + 1
    products = m.by_weight[:, lo + 128 : lo + 128 + span]
    # the stacked tables go before _table_gemm allocates its buffers: held
    # through it, they made a fault-folded 10x32x256 GEMM about twice as slow
    slab = _weight_tables(wq, *((products, None) if lattice is None
                                else _mac_tables(products, lattice, *wq.shape)))
    return _table_gemm(wq, aq, slab, lo, span)


def _clean_tables(wq, m: Multiplier) -> np.ndarray | None:
    """The fault-free per-weight tables of ``wq`` under ``m`` to pass to
    ``systolic_gemm`` or ``gpu_tile_gemm`` as ``tables``: a (256 depth,
    rows) int16 array of every activation code, row ``c * 256 + v + 128``
    as ``_weight_tables`` lays it out for the whole table, so that any
    activations can read them. None when ``m`` is ``_blas_ready``: no
    tables are read."""
    rows, depth = wq.shape
    if _blas_ready(m, rows):
        return None
    slab = _weight_tables(wq, m.by_weight, None)
    h = np.empty((256 * depth, rows), dtype=np.int16)
    step = _slab_columns(rows, 256)
    for c0 in range(0, depth, step):
        h[256 * c0 : 256 * (c0 + step)] = slab(c0, c0 + step)
    return h


def _clean_gemm(wq, aq, m: Multiplier, tables=None) -> np.ndarray:
    """Fault-free int32 GEMM of ``m``: matmuls when ``_blas_ready``, the
    bare product table otherwise, read from ``tables`` when they are given.
    Both engines compute it alike."""
    rows, depth = wq.shape
    if _blas_ready(m, rows):
        return _blas_gemm(wq, aq, m)
    if tables is None:
        return _fresh_gemm(wq, aq, m, None)
    if tables.shape != (256 * depth, rows) or tables.dtype != np.int16:
        raise ValueError(f"tables {tables.shape} {tables.dtype} are not the int16 "
                         f"per-weight tables of a {rows}x{depth} weight matrix")
    return _table_gemm(wq, aq, lambda c0, c1: tables[256 * c0 : 256 * c1], -128, 256)


def _form_products(out, wq, aq, m: Multiplier, lattice) -> None:
    """Add to ``out`` the change the faults of ``lattice`` (``_lattice``
    codes) make, forming their products under ``m`` (``_products``).

    Rows i, i+n, ... are stationed on array row i, so they share one set of
    faulty columns, lattice row i stationed along the depth; only those
    products are formed. Each reduction of int16 products is exact in int32,
    |sum| <= MAX_GEMM_DEPTH * 2^15 = 2^30, and int32 addition wraps modulo
    2^32, so ``out`` ends exact.
    """
    n = lattice.shape[0]
    rows, depth = wq.shape
    batch = aq.shape[1]
    codes = _station(lattice, min(rows, n), depth)
    (or_m, and_m), hit = _masks(codes), codes != _FAULT_FREE
    for i in range(hit.shape[0]):
        cols = np.flatnonzero(hit[i])
        if cols.size == 0:
            continue
        w = wq[i::n, cols][:, :, None]
        om, am = or_m[i, cols][:, None], and_m[i, cols][:, None]
        chunk = max(1, (1 << 24) // (w.shape[0] * cols.size))
        for b0 in range(0, batch, chunk):
            p = _products(aq[cols, b0 : b0 + chunk][None], w, m)
            delta = _forced(p, om, am).sum(axis=1, dtype=np.int32)
            delta -= p.sum(axis=1, dtype=np.int32)
            out[i::n, b0 : b0 + chunk] += delta


def _table_changes(out, wq, aq, m: Multiplier, lattice) -> None:
    """Add to ``out`` the change the faults of ``lattice`` (``_lattice``
    codes) make, read from per-weight change tables of table multiplier
    ``m``.

    Faulty weight w's change table holds, for every activation code v at
    v + 128, fault(P(v, w)) - P(v, w), -P(v, w) on a bypassed MAC: int32,
    since a change reaches 2^16 - 1. Its 256 products
    are row w + 128 of ``m.by_weight``. The faulty weights are taken
    depth column by depth column, so that each column's activation codes
    become indices once, and their tables are built a block of at most
    ``_SLAB_ENTRIES`` entries at a time, never for the whole layer. The
    int32 sums wrap as in ``_form_products``, so ``out`` ends exact.
    """
    rows, depth = wq.shape
    codes = _station(lattice, rows, depth)
    step = max(1, _SLAB_ENTRIES // (256 * rows))
    for c0 in range(0, depth, step):
        block = codes[:, c0 : c0 + step]
        # faulty weights of the block, column by column
        cs, rs = np.nonzero(block.T != _FAULT_FREE)
        if cs.size == 0:
            continue
        p = m.by_weight[wq[rs, cs + c0].astype(np.intp) + 128]
        om, am = _masks(block[rs, cs])
        change = _forced(p, om[:, None], am[:, None]).astype(np.int32)
        change -= p
        # code + 128 of every activation the block's columns read
        idx = aq[c0 : c0 + step].view(np.uint8) ^ np.uint8(0x80)
        ends = np.append(np.flatnonzero(np.diff(cs)) + 1, cs.size)
        k0 = 0
        for k1 in ends.tolist():
            out[rs[k0:k1]] += np.take(change[k0:k1], idx[cs[k0]], axis=1)
            k0 = k1


def _sign_counts(out, wq, aq, m: Multiplier, hit, sa1_rows) -> None:
    """Add to ``out`` the change that stuck-at faults at bit 15 make on the
    weights ``hit`` marks, from counts of negative products.

    ``m`` is ``_blas_ready``, so a product is negative exactly when its
    (broken-carry masked) codes have opposite signs: truncation floors and
    keeps the sign. Bit 15 is the sign bit, so sa1 moves every product >= 0
    by -2^15 and sa0 every negative one by +2^15. Row r moves by
    2^15 (N - H): N counts the negative products at ``hit``, and H, the
    int32 ``sa1_rows[r]``, the sa1 weights of row r. N is a float32 matmul
    of 0/1 matrices, exact because N <= MAX_GEMM_DEPTH < 2^24, and
    |2^15 (N - H)| <= 2^30.
    """
    w, a = _exact_operands(wq, aq, m)
    depth, batch = a.shape
    # [w > 0 | w < 0] at the faulty weights against [a < 0 ; a > 0]
    ws = np.hstack([hit & (w > 0), hit & (w < 0)]).astype(np.float32)
    h = sa1_rows[:, None]
    # at most 16 MiB of signs at a time
    chunk = max(1, (1 << 21) // depth)
    for b0 in range(0, batch, chunk):
        ab = a[:, b0 : b0 + chunk]
        signs = np.empty((2 * depth, ab.shape[1]), dtype=np.float32)
        signs[:depth] = ab < 0
        signs[depth:] = ab > 0
        out[:, b0 : b0 + chunk] += (_matmul(ws, signs) - h) << 15


def _correct_lattice(out, wq, aq, m: Multiplier, lattice) -> None:
    """Add to a fault-free int32 GEMM the change the faults of ``lattice``
    (``_lattice``) make.

    For a ``_blas_ready`` multiplier the faults that force bit 15 alone
    take a few float32 matmuls instead of forming their products
    (``_sign_counts``). The matmuls read every activation row that such a
    weight meets, so they are taken only when those weights number at least
    ``_COUNTED_PER_ROW`` per activation row read. Below that, as in shallow
    GEMMs and sparse maps, forming the products is cheaper. When they are
    taken, the rest of the lattice forms its products (``_form_products``).

    A multiplier read from its table (a kind not in ``_ARITHMETIC``) forms a
    product by a gather from its 64K table, about ten times the cost of a
    table GEMM's. From ``_CHANGE_TABLE_BATCH`` batch columns on, its faults
    read per-weight change tables instead (``_table_changes``), whose
    Python work per faulty weight only wide GEMMs repay: conv layers, and
    dense layers over many samples.
    """
    rows, depth = wq.shape
    or_m, and_m = _masks(lattice)
    # sa1 and sa0 at bit 15 force the sign bit and no other
    counted = ((or_m | ~and_m) == 0x8000) & _blas_ready(m, rows)
    hit = _station(counted, rows, depth)
    cols = np.flatnonzero(hit.any(axis=0))
    if cols.size and np.count_nonzero(hit) >= _COUNTED_PER_ROW * cols.size:
        h = _station(counted & (or_m != 0), rows, depth).sum(axis=1, dtype=np.int32)
        _sign_counts(out, wq[:, cols], aq[cols], m, hit[:, cols], h)
        lattice = np.where(counted, np.uint32(_FAULT_FREE), lattice)
    if (lattice == _FAULT_FREE).all():
        return
    if m.kind not in _ARITHMETIC and aq.shape[1] >= _CHANGE_TABLE_BATCH:
        _table_changes(out, wq, aq, m, lattice)
    else:
        _form_products(out, wq, aq, m, lattice)


def _check_tiles(wq, aq, tf: TileFaultSpec | None, tile: int):
    """Checked operands and tile of a tiled GEMM whose damaged block must
    exist."""
    wq, aq = _check_gemm_operands(wq, aq)
    tile = _check_int("tile", tile, 1)
    nbr = -(-wq.shape[0] // tile)
    nbb = -(-aq.shape[1] // tile)
    if tf is not None and tf.tile_index >= nbr * nbb:
        raise ValueError(f"tile_index {tf.tile_index} outside {nbr}x{nbb} block grid")
    return wq, aq, tile


def _clean_copy(clean, wq, aq) -> np.ndarray:
    clean = np.asarray(clean)
    if clean.shape != (wq.shape[0], aq.shape[1]):
        raise ValueError(f"clean output {clean.shape} does not match the "
                         f"{wq.shape[0]}x{aq.shape[1]} GEMM")
    return clean.astype(np.int32)


def systolic_gemm(
    wq: np.ndarray,
    aq: np.ndarray,
    m: Multiplier,
    fm: FaultMap | None,
    cfg: SystolicConfig,
    clean: np.ndarray | None = None,
    tables: np.ndarray | None = None,
) -> np.ndarray:
    """Weight-stationary GEMM: out[r, b] = sum_c P(aq[c, b], wq[r, c]).

    Every product goes through multiplier ``m``; products formed on faulty
    MACs are corrupted (``propagate``) or zeroed (``bypass``) before the
    int32 accumulation. With an exact multiplier and an empty fault map this
    equals the integer matrix product.

    ``bypass`` under a multiplier whose weight-0 products are all 0 is the
    fault-free GEMM of ``wq`` with the weights on faulty MACs zeroed.
    Otherwise, from ``clean``, the fault-free output of the same GEMM (left
    as it is), only the change the faults make is added. ``tables``, the
    fault-free per-weight tables of ``wq`` (``_clean_tables``), spare a
    table multiplier their build; faults folded into the tables, and pruned
    weights, build their own.
    """
    wq, aq = _check_gemm_operands(wq, aq)
    if fm is not None and fm.n != cfg.n:
        raise ValueError(f"fault map is {fm.n}x{fm.n} but array is {cfg.n}x{cfg.n}")
    out = None if clean is None else _clean_copy(clean, wq, aq)
    lattice = _lattice(fm, cfg.mode) if fm is not None and fm.entries else None
    if lattice is not None:
        if cfg.mode == "bypass" and not m.by_weight[128].any():
            # a bypassed product is a zero weight's: prune, then run clean
            pruned = np.where(_station(lattice != _FAULT_FREE, *wq.shape), np.int8(0), wq)
            return _clean_gemm(pruned, aq, m)
        if out is None and not _blas_ready(m, wq.shape[0]):
            # faults folded into the product tables
            return _fresh_gemm(wq, aq, m, lattice)
    if out is None:
        out = _clean_gemm(wq, aq, m, tables)
    if lattice is not None:
        _correct_lattice(out, wq, aq, m, lattice)
    return out


def _damage_outputs(out, wq, aq, m: Multiplier, tf: TileFaultSpec, tile: int) -> None:
    """Recompute in place the outputs of ``out`` that the damaged block's
    faulty MACs produce, every product along their reduction corrupted."""
    count = math.ceil(tf.damaged_fraction * tile * tile)
    if not count:
        return
    rows, depth = wq.shape
    batch = aq.shape[1]
    rng = np.random.default_rng(tf.seed)
    flat = rng.choice(tile * tile, size=count, replace=False)
    bi, bj = divmod(tf.tile_index, -(-batch // tile))
    r = bi * tile + flat // tile
    b = bj * tile + flat % tile
    # damage drawn outside a ragged edge block does not exist
    keep = (r < rows) & (b < batch)
    r, b = r[keep], b[keep]
    om, am = tf.fault.masks()
    chunk = max(1, (1 << 24) // depth)
    for k0 in range(0, r.size, chunk):
        rr, bb = r[k0 : k0 + chunk], b[k0 : k0 + chunk]
        p = _products(aq[:, bb].T, wq[rr], m)
        out[rr, bb] = _forced(p, om, am).sum(axis=1, dtype=np.int32)


def gpu_tile_gemm(
    wq: np.ndarray,
    aq: np.ndarray,
    m: Multiplier,
    tf: TileFaultSpec | None,
    tile: int,
    clean: np.ndarray | None = None,
    tables: np.ndarray | None = None,
) -> np.ndarray:
    """Tiled GEMM with at most one damaged tile x tile output block.

    Blocks are indexed row-major over the (rows, batch) output grid. In the
    damaged block, the seeded MAC positions corrupt every product along the
    reduction for their output element; there is no cross-block coupling.

    From ``clean``, the fault-free output of the same GEMM (left as it
    is), only the damaged outputs are recomputed. ``tables`` are as for
    ``systolic_gemm``.
    """
    wq, aq, tile = _check_tiles(wq, aq, tf, tile)
    out = _clean_gemm(wq, aq, m, tables) if clean is None else _clean_copy(clean, wq, aq)
    if tf is not None:
        _damage_outputs(out, wq, aq, m, tf, tile)
    return out


def pruned_mask(shape, fm: FaultMap) -> np.ndarray:
    """Boolean (rows, cols) array marking weights stationed on faulty MACs;
    these are the positions a mitigation run prunes."""
    return _station(_lattice(fm, "bypass") != _FAULT_FREE, *shape)
