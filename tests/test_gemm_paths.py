"""Differential tests of the two GEMM engines against the reference GEMM
of the fault model (``reference.py``).

The reference reads every product from the multiplier's table, forces the
stuck bits of each product with masks drawn from the fault description,
and sums in int64; the engines' matmuls, tables, sign counts and change
tables must give the same int32 outputs bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from axfault import faults as fl
from axfault import multipliers as mul
from axfault.faults import FaultMap, SystolicConfig, TileFaultSpec


def _systolic_ref(w, a, m, fm, mode="propagate"):
    """The reference of ``systolic_gemm`` on fault map ``fm`` in ``mode``."""
    return reference.gemm(w, a, m, reference.systolic_masks(fm, mode, w.shape))


# --- product formation ------------------------------------------------------

def test_products_agree_with_table():
    # all 65536 int8 operand pairs, broadcast as (activation, weight)
    v = np.arange(-128, 128).astype(np.int8)
    lut = mul.from_table("lut", np.random.default_rng(3).integers(
        -32768, 32768, size=mul.TABLE_SIZE).astype(np.int16))
    for m in ([mul.exact_multiplier(), lut]
              + [mul.truncated_multiplier(k) for k in range(16)]
              + [mul.broken_carry_multiplier(k) for k in range(8)]):
        got = fl._products(v[:, None], v[None, :], m)
        assert got.dtype == np.int16, m.id
        assert np.array_equal(got, m.table2d()), m.id


# --- differential tests -----------------------------------------------------

_RANDOM_LUT = mul.from_table(
    "lut-random",
    np.random.default_rng(17).integers(-32768, 32768, size=mul.TABLE_SIZE).astype(np.int16))
_EXACT_LUT = mul.from_table("lut-exact", mul.exact_multiplier().table.copy())
MULTIPLIERS = ([mul.exact_multiplier()]
               + [mul.broken_carry_multiplier(k) for k in range(8)]
               + [mul.truncated_multiplier(k) for k in (0, 1, 2, 3, 4, 8, 9, 15)]
               + [_RANDOM_LUT, _EXACT_LUT])
# multipliers that are no few matmuls at up to 31 rows (2^5 > rows)
TABLE_MULTIPLIERS = [_RANDOM_LUT, mul.truncated_multiplier(9),
                     mul.truncated_multiplier(15), mul.truncated_multiplier(5)]
# the table multipliers drawn as often as all others together, at narrow
# batches and at batches of at least 128 columns
ANY_MULTIPLIER = st.one_of(st.sampled_from(MULTIPLIERS), st.sampled_from(TABLE_MULTIPLIERS))
BATCHES = st.one_of(st.integers(1, 20), st.integers(128, 300))


# zero, whose products have no sign; codes of at most 3 bits, which
# broken-carry-k masks to 0 when positive and to -2^k when negative; and the
# extremes
_EDGE_CODES = np.array([-128, -4, -3, -2, -1, 0, 1, 2, 3, 4, 127], dtype=np.int8)


def _operands(seed, rows, depth, batch, window=(-128, 127)):
    """Random codes, a quarter of them drawn from ``_EDGE_CODES``. The
    activations lie in the code ``window`` [lo, hi] and hold lo."""
    rng = np.random.default_rng(seed)
    out = []
    for shape, (lo, hi) in (((rows, depth), (-128, 127)), ((depth, batch), window)):
        x = rng.integers(lo, hi + 1, size=shape).astype(np.int8)
        edge = rng.random(shape) < 0.25
        codes = _EDGE_CODES[(lo <= _EDGE_CODES) & (_EDGE_CODES <= hi)]
        if codes.size:
            x[edge] = rng.choice(codes, size=np.count_nonzero(edge))
        out.append(x)
    w, a = out
    # -128 is a legal code: a weight_map can emit it
    w[0, 0], a[0, 0] = -128, window[0]
    return w, a


FILLS = ["empty", "full", "random", "sign", "mixed"]


def _fault_map(n, fill, seed):
    """``fill`` is "empty", "full", "random", "sign" or "mixed". Random
    faults draw their own bit and kind per MAC; sign faults are all at bit
    15, the sign bit, and draw their kind; a mixed map draws bit 15 or any
    other bit with equal odds, so it has both unless it is tiny."""
    rng = np.random.default_rng(seed)
    cells = [(i, j) for i in range(n) for j in range(n)]
    if fill == "empty":
        cells = []
    elif fill != "full":
        cells = [c for c in cells if rng.random() < 0.4]

    def bit():
        if fill == "sign" or (fill == "mixed" and rng.random() < 0.5):
            return 15
        return int(rng.integers(15 if fill == "mixed" else 16))

    return FaultMap(n, {c: fl.StuckAtFault(bit(), ("sa0", "sa1")[rng.integers(2)])
                        for c in cells})


def _check_systolic(w, a, m, fm, cfg, step=False):
    """With ``step``, also the routes of a campaign's cells, which share the
    fault-free tables of a plan (``_clean_tables``; None for matmuls): the
    GEMM given the tables, which reads them unless it folds in faults, and
    a cell resumed at this layer, the clean GEMM read from the tables, then
    the faults alone added to it. The clean GEMM is the gpu engine's, since
    a campaign keeps one clean pass for both engines."""
    want = _systolic_ref(w, a, m, fm, cfg.mode)
    got = [fl.systolic_gemm(w, a, m, fm, cfg)]
    if step:
        tables = fl._clean_tables(w, m)
        got.append(fl.systolic_gemm(w, a, m, fm, cfg, tables=tables))
        clean = fl.gpu_tile_gemm(w, a, m, None, cfg.n, tables=tables)
        kept = clean.copy()
        got.append(fl.systolic_gemm(w, a, m, fm, cfg, clean))
        np.testing.assert_array_equal(clean, kept)
    for out in got:
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, want)


def _check_gpu(w, a, m, tf, tile, step=False):
    """As ``_check_systolic``; the clean GEMM is the systolic engine's."""
    want = reference.gemm(w, a, m, reference.tile_masks(tf, tile, w.shape[0], a.shape[1]))
    got = [fl.gpu_tile_gemm(w, a, m, tf, tile)]
    if step:
        clean = fl.systolic_gemm(w, a, m, None, SystolicConfig(tile))
        kept = clean.copy()
        got.append(fl.gpu_tile_gemm(w, a, m, tf, tile, clean))
        np.testing.assert_array_equal(clean, kept)
    for out in got:
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, want)


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


def test_truncated_9_reads_tables_at_512_rows():
    # 2^9 <= 512 rows, but k = 9 is past the matmul path's k <= 8: its
    # truncation's low-bit masks would not fit in uint8
    m = mul.truncated_multiplier(9)
    assert not fl._blas_ready(m, 512)
    w, a = _operands(9, 512, 3, 2)
    for mode in fl.GEMM_MODES:
        _check_systolic(w, a, m, _fault_map(3, "random", 9), SystolicConfig(3, mode),
                        step=True)
    _check_systolic(w, a, m, None, SystolicConfig(3), step=True)
    _check_gpu(w, a, m, None, 4, step=True)
    _check_gpu(w, a, m, TileFaultSpec(5, 0.5, fl.StuckAtFault(9, "sa1"), seed=9), 4,
               step=True)


def _counted(w, fm):
    """Whether the faults of ``fm`` station at least two weights of ``w``
    per depth column they touch, the least at which bit-15 faults take
    matmuls instead of forming their products."""
    hit = fl.pruned_mask(w.shape, fm)
    return np.count_nonzero(hit) >= 2 * np.count_nonzero(hit.any(axis=0))


def _check_per_multiplier(m, mode, fill, rows):
    # on a 4 x 4 array 21 rows station about eight faulty weights per depth
    # column, and 1 row at most one
    w, a = _operands(3, rows, 30, 9)
    fm = _fault_map(4, fill, 5)
    if fill != "empty":
        assert _counted(w, fm) == (rows > 1)
    _check_systolic(w, a, m, fm, SystolicConfig(4, mode), step=True)


@pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.id)
@pytest.mark.parametrize("mode", fl.GEMM_MODES)
@pytest.mark.parametrize("fill", FILLS)
def test_systolic_matches_reference_per_multiplier(m, mode, fill):
    _check_per_multiplier(m, mode, fill, 21)


@pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.id)
@pytest.mark.parametrize("mode", fl.GEMM_MODES)
@pytest.mark.parametrize("fill", FILLS)
def test_systolic_matches_reference_per_multiplier_shallow(m, mode, fill):
    _check_per_multiplier(m, mode, fill, 1)


def _routes(monkeypatch, *args):
    """``systolic_gemm(*args)`` and the (name, arguments) of each call it
    makes to the helpers that correct its faults or fold them into tables."""
    calls = []
    for name in ("_sign_counts", "_blas_gemm", "_form_products", "_table_changes",
                 "_mac_tables"):
        def spy(*a, _real=getattr(fl, name), _name=name):
            calls.append((_name, a))
            return _real(*a)
        monkeypatch.setattr(fl, name, spy)
    out = fl.systolic_gemm(*args)
    monkeypatch.undo()
    return out, calls


@pytest.mark.parametrize("m", [mul.exact_multiplier(), mul.broken_carry_multiplier(2),
                               mul.truncated_multiplier(3)], ids=lambda m: m.id)
@pytest.mark.parametrize("kind", fl.FAULT_KINDS)
@pytest.mark.parametrize("mode", fl.GEMM_MODES)
def test_sign_faults_take_matmuls_and_bypass_prunes_from_clean(monkeypatch, m, kind, mode):
    # given the clean GEMM, every _blas_ready family corrects bit-15 faults
    # from sign counts; a 1-row GEMM meets one faulty weight per depth
    # column and forms the faulty products. Bypass ignores the clean GEMM
    # and takes the clean GEMM of the pruned weights, as without it
    # (test_bypass_is_a_pruned_clean_gemm): one _blas_gemm where the rows
    # are _blas_ready (truncated-3 from 8 rows on), no helper otherwise.
    # Every edge code, among them those that broken-carry-2 masks to 0,
    # meets every other
    f = fl.StuckAtFault(15, kind)
    fm = FaultMap(2, {(i, j): f for i in range(2) for j in range(2)})
    cfg = SystolicConfig(2, mode)
    for rows in (8, 1):
        w, a = _operands(rows, rows, 12, 40)
        w[0, :11] = a[:, :11] = _EDGE_CODES
        clean = _systolic_ref(w, a, m, None)
        out, calls = _routes(monkeypatch, w, a, m, fm, cfg, clean)
        if mode == "propagate":
            assert [name for name, _ in calls] == ["_sign_counts" if rows > 1 else "_form_products"]
        elif fl._blas_ready(m, rows):
            assert [name for name, _ in calls] == ["_blas_gemm"]
            np.testing.assert_array_equal(calls[0][1][0], np.zeros_like(w))
        else:
            assert calls == []
        np.testing.assert_array_equal(out, _systolic_ref(w, a, m, fm, cfg.mode))


def test_mixed_maps_count_only_the_sign_bit(monkeypatch):
    # bit-15 faults take the counts and the others form their products; a
    # table multiplier, and truncated-4 below 16 rows, form them all
    F = fl.StuckAtFault
    fm = FaultMap(2, {(0, 0): F(15, "sa1"), (0, 1): F(3, "sa0"),
                      (1, 0): F(15, "sa0"), (1, 1): F(14, "sa1")})
    cfg = SystolicConfig(2, "propagate")
    w, a = _operands(4, 8, 12, 40)
    for m, want in ((mul.exact_multiplier(), ["_sign_counts", "_form_products"]),
                    (mul.truncated_multiplier(4), ["_form_products"]),
                    (_RANDOM_LUT, ["_form_products"])):
        clean = _systolic_ref(w, a, m, None)
        out, calls = _routes(monkeypatch, w, a, m, fm, cfg, clean)
        assert [name for name, _ in calls] == want
        # the lattice of the MACs whose products are formed
        formed = {ij: f for ij, f in fm.entries.items() if f.bit != 15 or len(want) == 1}
        np.testing.assert_array_equal(calls[-1][1][4],
                                      fl._lattice(FaultMap(2, formed), "propagate"))
        np.testing.assert_array_equal(out, _systolic_ref(w, a, m, fm, cfg.mode))


# a LUT whose products with weight 0 are all 0, as those of every arithmetic
# kind are: a bypassed product equals a zero weight's
_ZERO_ROW_LUT = mul.from_table("lut-zero-row", np.where(
    (np.arange(mul.TABLE_SIZE) % 256) == 128, 0, _RANDOM_LUT.table).astype(np.int16))


@pytest.mark.parametrize("m", [mul.exact_multiplier(), mul.broken_carry_multiplier(2),
                               mul.truncated_multiplier(3), _ZERO_ROW_LUT],
                         ids=lambda m: m.id)
@pytest.mark.parametrize("fill", ["random", "full"])
def test_bypass_is_a_pruned_clean_gemm(monkeypatch, m, fill):
    # without the clean GEMM, bypass zeroes the weights stationed on faulty
    # MACs and runs the clean GEMM of the rest: no helper corrects a fault,
    # a _blas_ready multiplier takes one _blas_gemm of the pruned weights and
    # a LUT builds tables of them, with no fault folded in
    assert not m.by_weight[128].any()
    fm = _fault_map(4, fill, 12)
    fm.entries[(0, 0)] = fl.StuckAtFault(0, "sa0")  # lattice code 0
    cfg = SystolicConfig(4, "bypass")
    w, a = _operands(12, 21, 30, 9)
    w[0, :11] = a[:11, 0] = _EDGE_CODES
    out, calls = _routes(monkeypatch, w, a, m, fm, cfg)
    if fl._blas_ready(m, w.shape[0]):
        assert [name for name, _ in calls] == ["_blas_gemm"]
        np.testing.assert_array_equal(calls[0][1][0],
                                      np.where(fl.pruned_mask(w.shape, fm), 0, w))
    else:
        assert calls == []
    np.testing.assert_array_equal(out, _systolic_ref(w, a, m, fm, cfg.mode))


def test_bypass_folds_a_lut_whose_zero_weight_products_are_not_zero(monkeypatch):
    # pruning would score such a LUT's bypassed products as its products
    # with weight 0: its faults are folded into its tables, as a table of
    # zeros, with or without the plan's tables
    m = _RANDOM_LUT
    assert m.by_weight[128].any()
    fm = _fault_map(4, "random", 13)
    cfg = SystolicConfig(4, "bypass")
    w, a = _operands(13, 21, 30, 9)
    want = _systolic_ref(w, a, m, fm, cfg.mode)
    assert not np.array_equal(want, _systolic_ref(
        np.where(fl.pruned_mask(w.shape, fm), 0, w), a, m, None))
    for tables in (None, fl._clean_tables(w, m)):
        out, calls = _routes(monkeypatch, w, a, m, fm, cfg, None, tables)
        assert [name for name, _ in calls] == ["_mac_tables"]
        np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("mode", fl.GEMM_MODES)
@pytest.mark.parametrize("fill", ["random", "sign", "full"])
def test_table_faults_on_both_sides_of_the_change_table_crossover(monkeypatch, mode, fill):
    # a LUT's faults read change tables from _CHANGE_TABLE_BATCH batch
    # columns on and form their products below; truncated-15, a table
    # multiplier whose products are arithmetic, forms them at any width in
    # propagate and prunes in bypass, calling no helper.
    # The 9 rows and 11 columns are no multiple of the 4 x 4 array
    width = fl._CHANGE_TABLE_BATCH
    fm = _fault_map(4, fill, 9)
    cfg = SystolicConfig(4, mode)
    truncated = ["_form_products"] if mode == "propagate" else []
    for batch, route in ((width - 1, "_form_products"), (width, "_table_changes")):
        w, a = _operands(batch, 9, 11, batch)
        w[0, :11] = a[:, 0] = _EDGE_CODES
        for m, want in ((_RANDOM_LUT, [route]), (mul.truncated_multiplier(15), truncated)):
            clean = _systolic_ref(w, a, m, None)
            out, calls = _routes(monkeypatch, w, a, m, fm, cfg, clean)
            assert [name for name, _ in calls] == want
            np.testing.assert_array_equal(out, _systolic_ref(w, a, m, fm, cfg.mode))


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


# The two GEMM properties take their example count from the loaded
# hypothesis profile: 100 by default, more under tests/conftest.py's
# "gemm-deep". They also draw the entries of one slab of per-weight tables:
# at 2^18 one slab spans at least 51 columns, more than the 40 drawn at
# most; below that the table path reads several, the last one often ragged.
# The change tables of a LUT's faults are built in blocks of the same cap.
SLAB_ENTRIES = st.sampled_from([256, 1024, 4096, fl._SLAB_ENTRIES])
# and the batch width from which a LUT's faults read change tables: every
# width, the wide batches alone, or none of those drawn
CHANGE_TABLE_BATCHES = st.sampled_from([1, 128, fl._CHANGE_TABLE_BATCH])
# and the window [lo, hi] of activation codes, whose span of codes sizes the
# tables that a call builds for itself: one code, the [0, 127] of images and
# ReLU outputs, windows of up to 8 codes, and every code
WINDOWS = st.one_of(
    st.integers(-128, 127).map(lambda v: (v, v)),
    st.just((0, 127)),
    st.tuples(st.integers(-128, 127), st.integers(1, 7)).map(
        lambda t: (t[0], min(127, t[0] + t[1]))),
    st.just((-128, 127)))


@settings(deadline=None)
@given(ANY_MULTIPLIER, st.integers(1, 6), st.integers(1, 20),
       st.integers(1, 40), BATCHES, st.sampled_from(FILLS),
       st.sampled_from(fl.GEMM_MODES), st.integers(0, 2**31 - 1), SLAB_ENTRIES, WINDOWS,
       CHANGE_TABLE_BATCHES)
# sign faults on either side of the rule that sends them to matmuls
@example(mul.exact_multiplier(), 2, 20, 40, 130, "mixed", "propagate", 1, 1 << 18,
         (-128, 127), 1024)
@example(mul.broken_carry_multiplier(2), 6, 1, 40, 5, "sign", "propagate", 1, 1 << 18,
         (-128, 127), 1024)
# a LUT's change tables in blocks of one depth column, in either mode
@example(_RANDOM_LUT, 3, 20, 40, 130, "random", "propagate", 1, 256, (-128, 127), 1)
@example(_RANDOM_LUT, 3, 20, 40, 130, "random", "bypass", 1, 256, (-128, 127), 1)
def test_systolic_matches_reference_property(m, n, rows, depth, batch, fill, mode, seed,
                                             slab, window, change_batch):
    # rows and depth below n leave array rows and columns unused
    w, a = _operands(seed, rows, depth, batch, window)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fl, "_SLAB_ENTRIES", slab)
        mp.setattr(fl, "_CHANGE_TABLE_BATCH", change_batch)
        _check_systolic(w, a, m, _fault_map(n, fill, seed), SystolicConfig(n, mode), step=True)


@settings(deadline=None)
@given(ANY_MULTIPLIER, st.integers(1, 40), st.integers(1, 20),
       st.integers(1, 40), BATCHES, st.sampled_from([0.0, 0.3, 1.0]),
       st.integers(0, 15), st.sampled_from(fl.FAULT_KINDS), st.integers(0, 2**31 - 1),
       SLAB_ENTRIES, WINDOWS)
def test_gpu_tiles_matches_reference_property(m, tile, rows, depth, batch, fraction,
                                              bit, kind, seed, slab, window):
    # shapes that are no multiple of tile give ragged edge blocks
    w, a = _operands(seed, rows, depth, batch, window)
    blocks = -(-rows // tile) * -(-batch // tile)
    tf = TileFaultSpec(seed % blocks, fraction, fl.StuckAtFault(bit, kind), seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fl, "_SLAB_ENTRIES", slab)
        _check_gpu(w, a, m, tf, tile, step=True)
        _check_gpu(w, a, m, None, tile, step=True)


# every multiplier whose fault-free GEMM is float32 slabs at 2^k <= rows
_BLAS_MULTIPLIERS = ([mul.exact_multiplier()]
                     + [mul.broken_carry_multiplier(k) for k in range(1, 8)]
                     + [mul.truncated_multiplier(k) for k in range(1, 9)])


def test_worst_case_sums_at_max_depth(monkeypatch):
    _check_worst_case(monkeypatch, "sa1", 0)


def test_worst_case_sa0_sums_at_max_depth(monkeypatch):
    _check_worst_case(monkeypatch, "sa0", 127)


def _check_worst_case(monkeypatch, kind, row1):
    # the largest |accumulator| the engines can reach: every clean product
    # is (-128)^2 = 2^14, every sa1-at-bit-15 product of a zero weight is
    # -2^15. Depths around the 1024-column float32 slab and up to the full
    # MAX_GEMM_DEPTH reduction, against int64 sums of table products. Row 2
    # and column 1 draw from [-128, -120]: one float32 matmul over 32768
    # such products is inexact. The sa0 twin's row 1 is 127, whose products
    # with -128 are all negative, so sa0 moves each by +2^15. Either way
    # the sign counts' 2^15 H or 2^15 N reaches 2^30 at full depth.
    fault = fl.StuckAtFault(15, kind)
    fm = FaultMap(1, {(0, 0): fault})
    tf = TileFaultSpec(0, 1.0, fault, seed=0)
    rng = np.random.default_rng(0)
    for depth in (1023, 1024, 1025, 2049, fl.MAX_GEMM_DEPTH):
        for m in _BLAS_MULTIPLIERS:
            rows = max(3, 1 << m.params.get("k", 0))
            assert fl._blas_ready(m, rows)
            w = np.full((rows, depth), -127, dtype=np.int8)
            w[0], w[1], w[2] = -128, row1, rng.integers(-128, -119, depth)
            a = np.full((depth, 2), -128, dtype=np.int8)
            a[:, 1] = rng.integers(-128, -119, depth)
            clean = fl.systolic_gemm(w, a, m, None, SystolicConfig(1))
            assert clean.dtype == np.int32
            np.testing.assert_array_equal(clean, reference.gemm(w, a, m),
                                          err_msg=f"{m.id} at depth {depth}")
            # every MAC of the 1 x 1 array carries the fault
            faulty = _systolic_ref(w, a, m, fm)
            bypassed = np.zeros_like(faulty)
            for mode, want in (("propagate", faulty), ("bypass", bypassed)):
                cfg = SystolicConfig(1, mode)
                np.testing.assert_array_equal(fl.systolic_gemm(w, a, m, fm, cfg), want,
                                              err_msg=f"{m.id} at depth {depth}, {mode}")
                out, calls = _routes(monkeypatch, w, a, m, fm, cfg, clean)
                np.testing.assert_array_equal(out, want)
                if mode == "propagate":
                    assert [name for name, _ in calls] == ["_sign_counts"]
            # the damaged block is rows 0-1 of both columns
            want = np.vstack([faulty[:2], clean[2:]])
            np.testing.assert_array_equal(fl.gpu_tile_gemm(w, a, m, tf, 2), want)
            np.testing.assert_array_equal(fl.gpu_tile_gemm(w, a, m, tf, 2, clean), want)
            # broken-carry-7 masks 127 to 0: no product is negative
            negative = mul.multiply(m, -128, row1) < 0
            if depth == fl.MAX_GEMM_DEPTH and (kind == "sa1" or negative):
                moved = faulty[1, 0] - clean[1, 0]
                assert moved == (1 << 30 if kind == "sa0" else -(1 << 30))
            if depth == fl.MAX_GEMM_DEPTH and m.kind == "exact" and kind == "sa1":
                assert clean[0, 0] == 1 << 29 and clean[1, 0] == 0
                assert faulty[1, 0] == -(1 << 30)


def _truncated_sums(w, a, k):
    """sum over c of (w[r, c] mod K) (a[c, b] mod K) mod K, K = 2^k, in
    int64: what truncated-k takes off the exact GEMM, column by column."""
    K = 1 << k
    u, v = w.astype(np.int64) % K, a.astype(np.int64) % K
    out = np.empty((w.shape[0], a.shape[1]), dtype=np.int64)
    for b in range(a.shape[1]):
        out[:, b] = (u * v[:, b] % K).sum(axis=1)
    return out


def _truncation_and_matmuls(monkeypatch, w, a, k):
    """``_truncation(w, a, k)`` and the number of matmuls it takes."""
    count = []

    def spy(x, y, _real=fl._matmul):
        count.append(1)
        return _real(x, y)

    monkeypatch.setattr(fl, "_matmul", spy)
    out = fl._truncation(w, a, k)
    monkeypatch.undo()
    assert out.dtype == np.int32
    return out, len(count)


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 20), st.integers(1, 64), st.integers(1, 20),
       st.integers(0, 2**31 - 1), WINDOWS)
def test_truncation_is_the_per_column_sum(k, rows, depth, batch, seed, window):
    # the correction takes at most 2^(k-1) + k - 1 matmuls (fewer when a
    # window of activation codes leaves some low bits unread); the operands
    # hold -128 and the edge codes
    w, a = _operands(seed, rows, depth, batch, window)
    with pytest.MonkeyPatch.context() as mp:
        got, matmuls = _truncation_and_matmuls(mp, w, a, k)
    np.testing.assert_array_equal(got, _truncated_sums(w, a, k))
    assert matmuls <= (1 << (k - 1)) + k - 1


def test_truncation_at_max_depth(monkeypatch):
    # codes whose low k bits are all set (-1) against -1, 1 and -128: the
    # terms of the matmuls reach +-(2^k - 1) over every one of the
    # MAX_GEMM_DEPTH columns, and a draw that reads every low-bit value
    # takes exactly 2^(k-1) + k - 1 matmuls, 1, 3, 6, 11, 20, 37, 70, 135
    depth = fl.MAX_GEMM_DEPTH
    w = np.full((2, depth), -1, dtype=np.int8)
    w[1, ::2] = 1
    a = np.full((depth, 3), -1, dtype=np.int8)
    a[:, 1], a[::2, 2] = 1, -128
    every = np.arange(-128, 128, dtype=np.int8).reshape(-1, 1)
    for k in range(1, 9):
        got, matmuls = _truncation_and_matmuls(monkeypatch, w, a, k)
        np.testing.assert_array_equal(got, _truncated_sums(w, a, k))
        assert got[0, 1] == depth * ((1 << k) - 1)
        assert matmuls <= (1 << (k - 1)) + k - 1
        _, matmuls = _truncation_and_matmuls(monkeypatch, every.T, every, k)
        assert matmuls == (1 << (k - 1)) + k - 1


def test_largest_truncation_correction_at_max_depth():
    # w = -1 and a = 1 make every product -1, whose low k bits are all set:
    # truncated-k drops 2^k - 1 from each, 32768 * 255 in all for k = 8
    depth = fl.MAX_GEMM_DEPTH
    for k in range(1, 9):
        m = mul.truncated_multiplier(k)
        w = np.full((1 << k, depth), -1, dtype=np.int8)
        a = np.ones((depth, 3), dtype=np.int8)
        got = fl.systolic_gemm(w, a, m, None, SystolicConfig(1))
        np.testing.assert_array_equal(got, reference.gemm(w, a, m))
        assert (got == -depth << k).all()


# --- product-table path ------------------------------------------------------

def test_random_maps_stack_one_table_per_distinct_fault():
    fm = _fault_map(4, "random", 3)
    distinct = set(fm.entries.values())
    assert len(distinct) > 1
    lattice = fl._lattice(fm, "propagate")
    # weight-major: 256 rows of products per table, one per weight code
    tables, sel = fl._mac_tables(_RANDOM_LUT.by_weight, lattice, 9, 10)
    assert tables.shape == (256 * (1 + len(distinct)), 256)
    assert sel.shape == (9, 10) and set(np.unique(sel)) == set(range(1 + len(distinct)))
    # bypassed, every faulty MAC reads one table of zeros
    tables, sel = fl._mac_tables(_RANDOM_LUT.by_weight, fl._lattice(fm, "bypass"), 9, 10)
    assert tables.shape == (512, 256)
    np.testing.assert_array_equal(sel == 0, fl.pruned_mask((9, 10), fm))
    assert not tables[:256].any()
    np.testing.assert_array_equal(tables[256:], _RANDOM_LUT.table2d().T)


def test_calls_build_tables_of_the_codes_they_read(monkeypatch):
    # a call that builds its own tables, with or without faults folded in,
    # builds the products of codes -3..4 alone; a plan's tables hold all 256
    w, a = _operands(2, 5, 30, 9, (-3, 4))
    a[-1, -1] = 4
    spans = []

    def spy(wq, tables, sel, _real=fl._weight_tables):
        spans.append(tables.shape[1])
        return _real(wq, tables, sel)

    monkeypatch.setattr(fl, "_weight_tables", spy)
    for fm in (None, _fault_map(2, "random", 2)):
        cfg = SystolicConfig(2)
        got = fl.systolic_gemm(w, a, _RANDOM_LUT, fm, cfg)
        np.testing.assert_array_equal(got, _systolic_ref(w, a, _RANDOM_LUT, fm))
    assert fl._clean_tables(w, _RANDOM_LUT).shape == (256 * 30, 5)
    assert spans == [8, 8, 256]


def test_table_path_at_max_depth_blocks_its_tables(monkeypatch):
    # the per-weight tables of three rows over MAX_GEMM_DEPTH hold 2^23
    # entries per row; built on every call, they are built and read a slab
    # at a time, and no gather, building a slab or reading one, exceeds it
    depth, batch, rows = fl.MAX_GEMM_DEPTH, 128, 3
    w, a = _operands(6, rows, depth, batch)
    fm = _fault_map(2, "random", 6)
    sizes = []
    take = np.take

    def spy(*args, **kwargs):
        out = take(*args, **kwargs)
        sizes.append(out.size)
        return out

    for fmap, mode in [(None, "propagate")] + [(fm, mode) for mode in fl.GEMM_MODES]:
        cfg = SystolicConfig(2, mode)
        monkeypatch.setattr(np, "take", spy)
        got = fl.systolic_gemm(w, a, _RANDOM_LUT, fmap, cfg)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, _systolic_ref(w, a, _RANDOM_LUT, fmap, mode))
    assert len(sizes) > 3 * depth // fl._slab_columns(rows, 256)
    assert max(sizes) <= max(fl._SLAB_ENTRIES, 256 * rows)
