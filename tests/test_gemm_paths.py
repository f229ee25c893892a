"""Differential tests of the two GEMM engines against reference oracles.

The oracles are the engines as they were before the fault-free GEMM became
float64 matmuls: every product is formed in a (rows, depth, batch) tensor,
and faults are masked into it before the int32 sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axfault import faults as fl
from axfault import multipliers as mul
from axfault.faults import (FaultMap, SystolicConfig, TileFaultSpec,
                            _check_gemm_operands, _station_masks)
from axfault.multipliers import Multiplier, product_function


# --- reference oracles ------------------------------------------------------


def systolic_gemm_ref(
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
    batch = aq.shape[1]
    prod = product_function(m)
    or_m, and_m, hit = _station_masks(fm, rows, depth)

    out = np.empty((rows, batch), dtype=np.int32)
    chunk = max(1, (1 << 24) // (rows * depth))
    for b0 in range(0, batch, chunk):
        ab = aq[:, b0 : b0 + chunk]
        p = prod(ab[None, :, :], wq[:, :, None])
        if or_m is not None:
            if cfg.mode == "propagate":
                pu = p.view(np.uint16)
                p = ((pu & and_m[:, :, None]) | or_m[:, :, None]).view(np.int16)
            else:
                p[hit] = 0
        out[:, b0 : b0 + chunk] = p.sum(axis=1, dtype=np.int32)
    return out


def gpu_tile_gemm_ref(
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

    us = vs = None
    om = am = None
    if tf is not None:
        if tf.tile_index >= nbr * nbb:
            raise ValueError(
                f"tile_index {tf.tile_index} outside {nbr}x{nbb} block grid"
            )
        count = math.ceil(tf.damaged_fraction * tile * tile)
        if count:
            rng = np.random.default_rng(tf.seed)
            flat = np.sort(rng.choice(tile * tile, size=count, replace=False))
            us = flat // tile
            vs = flat % tile
            om, am = tf.fault.masks()

    prod = product_function(m)
    out = np.empty((rows, batch), dtype=np.int32)
    for bi in range(nbr):
        r0, r1 = bi * tile, min(rows, (bi + 1) * tile)
        for bj in range(nbb):
            c0, c1 = bj * tile, min(batch, (bj + 1) * tile)
            damaged = tf is not None and bi * nbb + bj == tf.tile_index and us is not None
            uu = vv = None
            if damaged:
                keep = (us < r1 - r0) & (vs < c1 - c0)
                uu, vv = us[keep], vs[keep]
                damaged = uu.size > 0
            acc = np.zeros((r1 - r0, c1 - c0), dtype=np.int32)
            kchunk = max(1, (1 << 24) // ((r1 - r0) * (c1 - c0)))
            for k0 in range(0, depth, kchunk):
                k1 = min(depth, k0 + kchunk)
                p = prod(aq[None, k0:k1, c0:c1], wq[r0:r1, k0:k1, None])
                if damaged:
                    pu = p.view(np.uint16)
                    pu[uu, :, vv] = (pu[uu, :, vv] & am) | om
                    p = pu.view(np.int16)
                acc += p.sum(axis=1, dtype=np.int32)
            out[r0:r1, c0:c1] = acc
    return out


# --- differential tests -----------------------------------------------------

_RANDOM_LUT = mul.from_table(
    "lut-random",
    np.random.default_rng(17).integers(-32768, 32768, size=mul.TABLE_SIZE).astype(np.int16))
_EXACT_LUT = mul.from_table("lut-exact", mul.exact_multiplier().table.copy())
MULTIPLIERS = ([mul.exact_multiplier()]
               + [mul.broken_carry_multiplier(k) for k in range(8)]
               + [mul.truncated_multiplier(k) for k in (0, 1, 2, 3, 4, 8, 9, 15)]
               + [_RANDOM_LUT, _EXACT_LUT])


def _operands(seed, rows, depth, batch):
    rng = np.random.default_rng(seed)
    w = rng.integers(-128, 128, size=(rows, depth)).astype(np.int8)
    a = rng.integers(-128, 128, size=(depth, batch)).astype(np.int8)
    # -128 is a legal code: a weight_map can emit it
    w[0, 0] = a[0, 0] = -128
    return w, a


def _fault_map(n, fill, seed):
    """``fill`` is "empty", "full" or "random"; random faults draw their own
    bit and kind per MAC."""
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n) for j in range(n)]
    if fill == "empty":
        cells = []
    elif fill == "random":
        cells = [c for c in cells if rng.random() < 0.4]
    return FaultMap(n, {c: fl.StuckAtFault(int(rng.integers(16)),
                                           ("sa0", "sa1")[rng.integers(2)])
                        for c in cells})


def _check_systolic(w, a, m, fm, cfg):
    got = fl.systolic_gemm(w, a, m, fm, cfg)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, systolic_gemm_ref(w, a, m, fm, cfg))


def _check_gpu(w, a, m, tf, tile):
    got = fl.gpu_tile_gemm(w, a, m, tf, tile)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, gpu_tile_gemm_ref(w, a, m, tf, tile))


@pytest.mark.parametrize("k,matmul", [(k, side) for k in range(9) for side in (True, False)
                                      if k or side])
def test_truncated_on_both_sides_of_the_matmul_crossover(k, matmul):
    # truncated-k takes the matmul path when 2^k <= rows
    rows = (1 << k) if matmul else (1 << k) - 1
    m = mul.truncated_multiplier(k)
    assert fl._blas_ready(m, rows) == matmul
    w, a = _operands(k, rows, 19, 7)
    for mode in fl.GEMM_MODES:
        _check_systolic(w, a, m, _fault_map(3, "random", k), SystolicConfig(3, mode))
    _check_systolic(w, a, m, None, SystolicConfig(3))
    tf = TileFaultSpec(0, 0.5, fl.StuckAtFault(k, "sa1"), seed=k)
    _check_gpu(w, a, m, tf, 4)


@pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.id)
@pytest.mark.parametrize("mode", fl.GEMM_MODES)
@pytest.mark.parametrize("fill", ["empty", "full", "random"])
def test_systolic_matches_reference_per_multiplier(m, mode, fill):
    w, a = _operands(3, 21, 30, 9)
    _check_systolic(w, a, m, _fault_map(4, fill, 5), SystolicConfig(4, mode))


@pytest.mark.parametrize("bit", range(16))
@pytest.mark.parametrize("kind", fl.FAULT_KINDS)
@pytest.mark.parametrize("mode", fl.GEMM_MODES)
def test_every_fault_bit_kind_and_mode(bit, kind, mode):
    w, a = _operands(bit, 13, 11, 6)
    f = fl.StuckAtFault(bit, kind)
    fm = fl.random_fault_map(3, 34.0, f, seed=bit)
    tf = TileFaultSpec(3, 0.6, f, seed=bit)
    for m in (mul.exact_multiplier(), mul.truncated_multiplier(2), _RANDOM_LUT):
        _check_systolic(w, a, m, fm, SystolicConfig(3, mode))
        _check_gpu(w, a, m, tf, 5)


def test_exact_table_lut_equals_exact_multiplier():
    w, a = _operands(8, 17, 23, 5)
    fm = _fault_map(4, "random", 8)
    for mode in fl.GEMM_MODES:
        cfg = SystolicConfig(4, mode)
        np.testing.assert_array_equal(fl.systolic_gemm(w, a, _EXACT_LUT, fm, cfg),
                                      fl.systolic_gemm(w, a, mul.exact_multiplier(), fm, cfg))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MULTIPLIERS), st.integers(1, 6), st.integers(1, 20),
       st.integers(1, 20), st.integers(1, 12), st.sampled_from(["empty", "full", "random"]),
       st.sampled_from(fl.GEMM_MODES), st.integers(0, 2**31 - 1))
def test_systolic_matches_reference_property(m, n, rows, depth, batch, fill, mode, seed):
    # rows and depth below n leave array rows and columns unused
    w, a = _operands(seed, rows, depth, batch)
    _check_systolic(w, a, m, _fault_map(n, fill, seed), SystolicConfig(n, mode))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MULTIPLIERS), st.integers(1, 6), st.integers(1, 20),
       st.integers(1, 20), st.integers(1, 20), st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(0, 15), st.sampled_from(fl.FAULT_KINDS), st.integers(0, 2**31 - 1))
def test_gpu_tiles_matches_reference_property(m, tile, rows, depth, batch, fraction,
                                              bit, kind, seed):
    # shapes that are no multiple of tile give ragged edge blocks
    w, a = _operands(seed, rows, depth, batch)
    blocks = -(-rows // tile) * -(-batch // tile)
    tf = TileFaultSpec(seed % blocks, fraction, fl.StuckAtFault(bit, kind), seed)
    _check_gpu(w, a, m, tf, tile)
    _check_gpu(w, a, m, None, tile)


def test_worst_case_sums_at_max_depth():
    # the largest |accumulator| the engines can reach: every clean product
    # is (-128)^2 = 2^14, every sa1-at-bit-15 product of a zero weight is
    # -2^15, over the full MAX_GEMM_DEPTH reduction
    depth = fl.MAX_GEMM_DEPTH
    w = np.full((2, depth), -128, dtype=np.int8)
    w[1] = 0
    a = np.full((depth, 2), -128, dtype=np.int8)
    m = mul.exact_multiplier()
    clean = fl.systolic_gemm(w, a, m, None, SystolicConfig(1))
    assert clean[0, 0] == 1 << 29 and clean[1, 0] == 0
    fm = FaultMap(1, {(0, 0): fl.StuckAtFault(15, "sa1")})
    faulty = fl.systolic_gemm(w, a, m, fm, SystolicConfig(1))
    assert faulty[1, 0] == -(1 << 30)
    np.testing.assert_array_equal(faulty, systolic_gemm_ref(w, a, m, fm, SystolicConfig(1)))
    tf = TileFaultSpec(0, 1.0, fl.StuckAtFault(15, "sa1"), seed=0)
    np.testing.assert_array_equal(fl.gpu_tile_gemm(w, a, m, tf, 2),
                                  gpu_tile_gemm_ref(w, a, m, tf, 2))
