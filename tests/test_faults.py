"""Stuck-at faults, fault maps, and the two faulty GEMM engines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from axfault import faults as fl
from axfault import multipliers as mul
from axfault import network


def _oracle_fault(p, bit, kind):
    u = p & 0xFFFF
    u = (u | (1 << bit)) if kind == "sa1" else (u & ~(1 << bit) & 0xFFFF)
    return u - 0x10000 if u & 0x8000 else u


@pytest.mark.parametrize("p,bit,kind,want", [
    (0, 3, "sa1", 8),
    (8, 3, "sa0", 0),
    (5, 0, "sa0", 4),
    (5, 0, "sa1", 5),
    (-1, 15, "sa0", 32767),
    (0, 15, "sa1", -32768),
    (12345, 15, "sa1", 12345 - 65536 + 32768),
])
def test_apply_fault_hand_cases(p, bit, kind, want):
    got = fl.apply_fault(p, fl.StuckAtFault(bit, kind))
    assert got == want == _oracle_fault(p, bit, kind)


def test_apply_fault_scalar_returns_int():
    out = fl.apply_fault(7, fl.StuckAtFault(1, "sa0"))
    assert isinstance(out, int) and out == 5


def test_apply_fault_array():
    p = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
    f = fl.StuckAtFault(14, "sa0")
    got = fl.apply_fault(p, f)
    assert got.dtype == np.int16
    want = [_oracle_fault(int(v), 14, "sa0") for v in p]
    assert list(got) == want


@pytest.mark.parametrize("bit", [0, 7, 15])
@pytest.mark.parametrize("kind", ["sa0", "sa1"])
def test_apply_fault_idempotent_and_bit_exact(bit, kind):
    p = np.arange(-32768, 32768, dtype=np.int16)
    f = fl.StuckAtFault(bit, kind)
    once = fl.apply_fault(p, f)
    assert np.array_equal(fl.apply_fault(once, f), once)
    u = once.view(np.uint16)
    assert np.all(((u >> bit) & 1) == (1 if kind == "sa1" else 0))
    # all other bits untouched
    assert not np.any((u ^ p.view(np.uint16)) & np.uint16(~(1 << bit) & 0xFFFF))


def test_apply_fault_range_check():
    with pytest.raises(ValueError):
        fl.apply_fault(32768, fl.StuckAtFault(0, "sa0"))
    with pytest.raises(ValueError):
        fl.apply_fault(-32769, fl.StuckAtFault(0, "sa0"))


def test_stuck_at_on_every_legal_product():
    # every product of two quantizer codes: |p| <= 127 * 127 < 2^14, so
    # bits 14 and 15 both equal the sign, and a zero product has no bit set
    codes = np.arange(-127, 128)
    p = np.unique(np.multiply.outer(codes, codes)).astype(np.int16)
    assert p.min() == -16129 and p.max() == 16129
    for bit in (14, 15):
        for kind, moved in (("sa1", p >= 0), ("sa0", p < 0)):
            out = fl.apply_fault(p, fl.StuckAtFault(bit, kind))
            delta = np.abs(out.astype(np.int32) - p.astype(np.int32))
            assert np.array_equal(delta != 0, moved)
            assert np.all(delta[moved] == 1 << bit)
    for bit in range(16):
        assert fl.apply_fault(0, fl.StuckAtFault(bit, "sa1")) != 0
        assert fl.apply_fault(0, fl.StuckAtFault(bit, "sa0")) == 0


def test_stuck_at_validation():
    with pytest.raises(ValueError):
        fl.StuckAtFault(16, "sa0")
    with pytest.raises(ValueError):
        fl.StuckAtFault(-1, "sa1")
    with pytest.raises(ValueError):
        fl.StuckAtFault(3, "stuck")


def test_fault_specs_reject_non_integers():
    # bit True acted as bit 1; bit 14.5, n 2.5 and tile_index 1.5 were
    # accepted and either ran or raised TypeError at the first GEMM. A
    # random map's n 2.5 and seed 1.5 raised numpy's errors naming neither,
    # and a tile fault's seed 1.5 was kept until a gpu_tiles forward. A
    # fault coordinate 0.5 raised IndexError at the first GEMM and True was
    # 1; a tile 2.5 raised numpy's "a must be a sequence or an integer" and
    # True ran as tile 1
    f = fl.StuckAtFault(15, "sa1")
    ones = np.ones((4, 4), dtype=np.int8)
    for make, field in ((lambda v: fl.StuckAtFault(v, "sa1"), "bit"),
                        (lambda v: fl.FaultMap(4, {(v, 1): f}), "fault coordinate"),
                        (lambda v: fl.FaultMap(4, {(1, v): f}), "fault coordinate"),
                        (lambda v: fl.gpu_tile_gemm(ones, ones, mul.exact_multiplier(), None, v),
                         "tile"),
                        (lambda v: fl.SystolicConfig(n=v), "n"),
                        (lambda v: fl.FaultMap(n=v), "n"),
                        (lambda v: fl.TileFaultSpec(v, 0.5, f, seed=0), "tile_index"),
                        (lambda v: fl.TileFaultSpec(0, 0.5, f, seed=v), "seed"),
                        (lambda v: fl.random_fault_map(v, 50.0, f, seed=1), "n"),
                        (lambda v: fl.random_fault_map(4, 50.0, f, seed=v), "seed")):
        for bad in (True, 14.5, 2.5, 1.5, 2.0, "3", None):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                make(bad)
        make(np.int64(3))
        make(np.uint8(2))


def test_fault_shares_reject_what_is_no_finite_number():
    # True was a share of 1 (one percent of the array, every position of a
    # tile), a string raised TypeError in the range test, and an int past
    # float range OverflowError
    f = fl.StuckAtFault(15, "sa1")
    for make, field, hi in ((lambda v: fl.random_fault_map(4, v, f, seed=1), "percent", 100),
                            (lambda v: fl.TileFaultSpec(0, v, f, seed=0), "damaged_fraction", 1)):
        for bad in (True, "0.5", None, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match=f"^{field} must be a finite number, got"):
                make(bad)
        with pytest.raises(ValueError, match=rf"^{field} must be in \[0, {hi}\], got -0.5$"):
            make(-0.5)
    assert type(fl.TileFaultSpec(0, np.float64(0.5), f, seed=0).damaged_fraction) is float
    assert fl.random_fault_map(4, 50, f, seed=1) == fl.random_fault_map(4, 50.0, f, seed=1)


def test_numpy_integers_are_kept_as_ints():
    # a numpy integer n wrapped in random_fault_map's count: np.uint8(16)
    # placed 0 faults where 16 places 128, and np.int16(200) raised
    # numpy's "a must be a positive integer"
    f = fl.StuckAtFault(np.uint8(5), "sa1")
    for n, typed in ((16, np.uint8), (200, np.int16)):
        got = fl.random_fault_map(typed(n), 50.0, f, seed=np.uint8(1))
        assert type(got.n) is int
        assert got.entries == fl.random_fault_map(n, 50.0, f, seed=1).entries
    assert len(fl.random_fault_map(np.uint8(16), 50.0, f, seed=1)) == 128
    tf = fl.TileFaultSpec(np.uint8(3), 0.5, f, seed=np.int16(4))
    env = network.ExecEnv(engine="gpu_tiles", multiplier=mul.exact_multiplier(),
                          tile=np.uint8(2))
    for value in (f.bit, fl.FaultMap(np.uint8(4)).n, fl.SystolicConfig(np.int16(8)).n,
                  tf.tile_index, tf.seed, env.tile):
        assert type(value) is int


def test_fault_map_validation():
    f = fl.StuckAtFault(2, "sa0")
    with pytest.raises(ValueError):
        fl.FaultMap(0)
    with pytest.raises(ValueError):
        fl.FaultMap(4, {(4, 0): f})
    with pytest.raises(TypeError):
        fl.FaultMap(4, {(0, 0): "sa0@2"})
    # a 1-tuple raised an unpacking error
    for key in ((1,), (1, 2, 3), 5):
        with pytest.raises(ValueError, match="^fault coordinate must be a pair of integers"):
            fl.FaultMap(4, {key: f})


def test_random_fault_map_count_and_bounds():
    f = fl.StuckAtFault(5, "sa1")
    fm = fl.random_fault_map(8, 16.0, f, seed=3)
    assert len(fm) == int(np.floor(64 * 0.16))
    assert all(0 <= i < 8 and 0 <= j < 8 for i, j in fm.entries)
    assert len(fl.random_fault_map(8, 0.0, f, seed=3)) == 0
    assert len(fl.random_fault_map(8, 100.0, f, seed=3)) == 64


def test_random_fault_map_determinism():
    f = fl.StuckAtFault(5, "sa1")
    a = fl.random_fault_map(16, 30.0, f, seed=9)
    b = fl.random_fault_map(16, 30.0, f, seed=9)
    c = fl.random_fault_map(16, 30.0, f, seed=10)
    assert a.entries.keys() == b.entries.keys()
    assert a.entries.keys() != c.entries.keys()


def test_random_fault_map_argument_errors():
    f = fl.StuckAtFault(5, "sa1")
    with pytest.raises(ValueError):
        fl.random_fault_map(0, 10, f, seed=1)
    with pytest.raises(ValueError):
        fl.random_fault_map(8, -1, f, seed=1)
    with pytest.raises(ValueError):
        fl.random_fault_map(8, 101, f, seed=1)
    with pytest.raises(ValueError, match="^seed must be at least 0"):
        fl.random_fault_map(8, 10, f, seed=-1)
    with pytest.raises(ValueError, match="^seed must be at least 0"):
        fl.TileFaultSpec(0, 0.5, f, seed=-1)


def test_fault_map_file_round_trip(tmp_path):
    fm = fl.random_fault_map(8, 25.0, fl.StuckAtFault(11, "sa0"), seed=2)
    fm.entries[(0, 1)] = fl.StuckAtFault(3, "sa1")
    p = tmp_path / "m.axfm"
    fl.save_fault_map(fm, p)
    back = fl.load_fault_map(p)
    assert back.n == fm.n
    assert back.entries == fm.entries
    lines = p.read_text().splitlines()
    assert lines[:2] == ["n=8", f"faults={len(fm)}"]
    assert lines[2:] == sorted(lines[2:])


def test_fault_map_file_errors(tmp_path):
    p = tmp_path / "bad.axfm"
    p.write_text("0,0,3,sa1\n")
    with pytest.raises(ValueError):
        fl.load_fault_map(p)
    # these two named neither the file nor, for a duplicate, the line
    p.write_text("n=4\nfaults=2\n0,0,3,sa1\n0,0,2,sa0\n")
    want = f"fault map file {p}, line '0,0,2,sa0': duplicate fault coordinate (0, 0)"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fl.load_fault_map(p)
    p.write_text("n=4\nfaults=1\n0,0,3\n")
    want = f"fault map file {p}, line '0,0,3': a fault line holds 4 fields (i,j,bit,kind), got 3"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fl.load_fault_map(p)


@pytest.mark.parametrize("text, line, field", [
    ("n=4.5\nfaults=0\n", "n=4.5", "4.5"),
    ("n=4\nfaults=one\n", "faults=one", "one"),
    ("n=4\nfaults=1\n1,x,3,sa1\n", "1,x,3,sa1", "x"),
    ("n=4\nfaults=1\n1.0,2,3,sa1\n", "1.0,2,3,sa1", "1.0"),
    ("n=4\nfaults=1\n1,2,,sa1\n", "1,2,,sa1", ""),
], ids=["header", "count", "column", "row", "bit"])
def test_fault_map_file_names_a_field_that_is_no_integer(tmp_path, text, line, field):
    # these used to raise a bare "invalid literal for int() with base 10"
    p = tmp_path / "bad.axfm"
    p.write_text(text)
    want = f"fault map file {p}, line {line!r}: {field!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fl.load_fault_map(p)


def test_a_cut_fault_map_file_is_refused(tmp_path):
    # a 25-fault map cut at a line end loaded as a smaller map, and its
    # first 3 bytes, "n=8", as a map with no faults
    fm = fl.random_fault_map(8, 40.0, fl.StuckAtFault(11, "sa0"), seed=2)
    p = tmp_path / "m.axfm"
    fl.save_fault_map(fm, p)
    text = p.read_bytes()
    ends = [i + 1 for i, c in enumerate(text) if c == ord("\n")]
    assert len(fm) == 25 and len(ends) == 27
    cut = tmp_path / "cut.axfm"
    for size in [3] + ends[:-1]:
        cut.write_bytes(text[:size])
        with pytest.raises(ValueError, match=f"^fault map file {re.escape(str(cut))} "):
            fl.load_fault_map(cut)
    cut.write_bytes(text)
    assert fl.load_fault_map(cut).entries == fm.entries


# --- systolic engine --------------------------------------------------------


def test_systolic_exact_clean_equals_integer_gemm(rng):
    m = mul.exact_multiplier()
    for _ in range(10):
        r, d, b = rng.integers(1, 40, size=3)
        w = rng.integers(-128, 128, size=(r, d)).astype(np.int8)
        a = rng.integers(-128, 128, size=(d, b)).astype(np.int8)
        out = fl.systolic_gemm(w, a, m, None, fl.SystolicConfig(n=8))
        assert out.dtype == np.int32
        assert np.array_equal(out, w.astype(np.int64) @ a.astype(np.int64))


def test_systolic_empty_fault_map_is_clean(rng):
    m = mul.exact_multiplier()
    w = rng.integers(-128, 128, size=(9, 17)).astype(np.int8)
    a = rng.integers(-128, 128, size=(17, 5)).astype(np.int8)
    clean = fl.systolic_gemm(w, a, m, None, fl.SystolicConfig(n=4))
    empty = fl.systolic_gemm(w, a, m, fl.FaultMap(4), fl.SystolicConfig(n=4))
    assert np.array_equal(clean, empty)


def test_systolic_stationing_oracle():
    # one faulty MAC at (0, 0) in a 2x2 array: exactly the products of
    # weights at (even row, even col) are corrupted, in the engine and in
    # the tests' reference GEMM alike
    f = fl.StuckAtFault(15, "sa1")
    fm = fl.FaultMap(2, {(0, 0): f})
    cfg = fl.SystolicConfig(n=2, mode="propagate")
    m = mul.exact_multiplier()
    rng = np.random.default_rng(5)
    w = rng.integers(-128, 128, size=(4, 4)).astype(np.int8)
    a = rng.integers(-128, 128, size=(4, 3)).astype(np.int8)
    outs = (fl.systolic_gemm(w, a, m, fm, cfg),
            reference.gemm(w, a, m, reference.systolic_masks(fm, cfg.mode, w.shape)))

    acc = np.zeros((4, 3), dtype=np.int64)
    for r in range(4):
        for c in range(4):
            for b in range(3):
                p = int(w[r, c]) * int(a[c, b])
                if r % 2 == 0 and c % 2 == 0:
                    p = _oracle_fault(p, 15, "sa1")
                acc[r, b] += p
    for got in outs:
        assert np.array_equal(got, acc)


def test_systolic_bypass_zeroes_faulty_products():
    f = fl.StuckAtFault(7, "sa0")
    fm = fl.FaultMap(2, {(1, 0): f})
    cfg = fl.SystolicConfig(n=2, mode="bypass")
    m = mul.exact_multiplier()
    rng = np.random.default_rng(6)
    w = rng.integers(-128, 128, size=(5, 4)).astype(np.int8)
    a = rng.integers(-128, 128, size=(4, 2)).astype(np.int8)
    got = fl.systolic_gemm(w, a, m, fm, cfg)

    acc = np.zeros((5, 2), dtype=np.int64)
    for r in range(5):
        for c in range(4):
            if r % 2 == 1 and c % 2 == 0:
                continue
            acc[r] += int(w[r, c]) * a[c].astype(np.int64)
    assert np.array_equal(got, acc)


def test_systolic_bypass_full_map_gives_zero():
    f = fl.StuckAtFault(0, "sa1")
    fm = fl.FaultMap(2, {(i, j): f for i in range(2) for j in range(2)})
    w = np.full((4, 4), 7, dtype=np.int8)
    a = np.full((4, 3), -3, dtype=np.int8)
    out = fl.systolic_gemm(w, a, mul.exact_multiplier(), fm,
                           fl.SystolicConfig(n=2, mode="bypass"))
    assert not out.any()


def test_systolic_faults_commute_with_multiplier():
    # faults hit the approximate product pattern, not the exact one
    k = 4
    m = mul.truncated_multiplier(k)
    f = fl.StuckAtFault(2, "sa1")
    fm = fl.FaultMap(1, {(0, 0): f})
    w = np.array([[3]], dtype=np.int8)
    a = np.array([[5]], dtype=np.int8)
    out = fl.systolic_gemm(w, a, m, fm, fl.SystolicConfig(n=1))
    approx = (3 * 5) & ~((1 << k) - 1)
    assert out[0, 0] == _oracle_fault(approx, 2, "sa1")


@pytest.mark.parametrize("lo, hi", [(-128, -121), (-3, 4), (100, 127), (7, 7)])
def test_a_calls_own_tables_hold_its_window_of_codes(lo, hi):
    # a table multiplier without a plan's tables builds per-weight tables of
    # the codes from the call's smallest to its largest; a window away from
    # -128 reads them at an offset, with or without faults
    rng = np.random.default_rng(lo + 128)
    m = mul.from_table("random", rng.integers(-3000, 3001, mul.TABLE_SIZE).astype(np.int16))
    w = rng.integers(-128, 128, (6, 9)).astype(np.int8)
    a = rng.integers(lo, hi + 1, (9, 5)).astype(np.int8)
    a[0, 0], a[-1, -1] = lo, hi
    fm = fl.FaultMap(4, {(1, 2): fl.StuckAtFault(3, "sa1"), (3, 0): fl.StuckAtFault(9, "sa0")})
    for faults in (None, fm):
        masks = None if faults is None else reference.systolic_masks(faults, "propagate", w.shape)
        np.testing.assert_array_equal(fl.systolic_gemm(w, a, m, faults, fl.SystolicConfig(n=4)),
                                      reference.gemm(w, a, m, masks))


def test_systolic_rejects_mismatched_map():
    w = np.ones((2, 2), dtype=np.int8)
    a = np.ones((2, 2), dtype=np.int8)
    fm = fl.FaultMap(4, {(0, 0): fl.StuckAtFault(0, "sa0")})
    with pytest.raises(ValueError):
        fl.systolic_gemm(w, a, mul.exact_multiplier(), fm,
                         fl.SystolicConfig(n=8))
    with pytest.raises(ValueError):
        fl.systolic_gemm(w, a, mul.exact_multiplier(), fm, fl.SystolicConfig(n=8),
                         np.zeros((2, 2), dtype=np.int32))


def test_fault_steps_reject_a_clean_output_of_another_shape():
    # bypass prunes instead of reading clean, and still checks its shape
    w = np.ones((2, 3), dtype=np.int8)
    a = np.ones((3, 4), dtype=np.int8)
    m = mul.exact_multiplier()
    fm = fl.FaultMap(2, {(0, 1): fl.StuckAtFault(4, "sa1")})
    for clean in (np.zeros((4, 2), dtype=np.int32), np.zeros(8, dtype=np.int32)):
        with pytest.raises(ValueError):
            fl.systolic_gemm(w, a, m, None, fl.SystolicConfig(n=2), clean)
        with pytest.raises(ValueError):
            fl.systolic_gemm(w, a, m, fm, fl.SystolicConfig(n=2, mode="bypass"), clean)
        with pytest.raises(ValueError):
            fl.gpu_tile_gemm(w, a, m, None, 2, clean)


def test_gemm_operand_validation():
    m = mul.exact_multiplier()
    cfg = fl.SystolicConfig(n=4)
    with pytest.raises(ValueError):
        fl.systolic_gemm(np.ones((2, 3), dtype=np.int8),
                         np.ones((4, 2), dtype=np.int8), m, None, cfg)
    with pytest.raises(ValueError):
        fl.systolic_gemm(np.ones((0, 3), dtype=np.int8),
                         np.ones((3, 2), dtype=np.int8), m, None, cfg)
    with pytest.raises(ValueError):
        fl.systolic_gemm(np.ones(3, dtype=np.int8),
                         np.ones((3, 2), dtype=np.int8), m, None, cfg)
    deep = np.ones((1, 32769), dtype=np.int8)
    with pytest.raises(ValueError):
        fl.systolic_gemm(deep, np.ones((32769, 1), dtype=np.int8), m, None, cfg)
    # codes outside int8 or of a float dtype used to wrap or truncate
    with pytest.raises(ValueError):
        fl.systolic_gemm(np.array([[200]]), np.array([[1]]), m, None, cfg)
    with pytest.raises(ValueError):
        fl.gpu_tile_gemm(np.array([[1]]), np.array([[-129]]), m, None, 4)
    with pytest.raises(ValueError):
        fl.systolic_gemm(np.array([[1.7]]), np.array([[1]]), m, None, cfg)
    with pytest.raises(ValueError):
        fl.gpu_tile_gemm(np.array([[1]]), np.array([[2.0]]), m, None, 4)
    out = fl.systolic_gemm(np.array([[-128, 127]]), np.array([[1], [1]]), m, None, cfg)
    assert out.tolist() == [[-1]]


# --- gpu tiles engine -------------------------------------------------------


def test_gpu_clean_equals_integer_gemm(rng):
    m = mul.exact_multiplier()
    w = rng.integers(-128, 128, size=(19, 33)).astype(np.int8)
    a = rng.integers(-128, 128, size=(33, 21)).astype(np.int8)
    out = fl.gpu_tile_gemm(w, a, m, None, tile=8)
    assert np.array_equal(out, w.astype(np.int64) @ a.astype(np.int64))


def test_gpu_damage_confined_to_one_block(rng):
    m = mul.exact_multiplier()
    w = rng.integers(-128, 128, size=(6, 10)).astype(np.int8)
    a = rng.integers(-128, 128, size=(10, 6)).astype(np.int8)
    clean = w.astype(np.int64) @ a.astype(np.int64)
    # block grid is 3x3 with tile=2; index 4 is the centre block
    tf = fl.TileFaultSpec(tile_index=4, damaged_fraction=1.0,
                          fault=fl.StuckAtFault(13, "sa1"), seed=0)
    out = fl.gpu_tile_gemm(w, a, m, tf, tile=2)
    diff = out != clean
    assert diff[2:4, 2:4].all()
    damaged_elsewhere = diff.copy()
    damaged_elsewhere[2:4, 2:4] = False
    assert not damaged_elsewhere.any()


def test_gpu_damaged_block_oracle():
    m = mul.exact_multiplier()
    rng = np.random.default_rng(11)
    w = rng.integers(-128, 128, size=(4, 5)).astype(np.int8)
    a = rng.integers(-128, 128, size=(5, 4)).astype(np.int8)
    tf = fl.TileFaultSpec(tile_index=0, damaged_fraction=1.0,
                          fault=fl.StuckAtFault(6, "sa0"), seed=1)
    outs = (fl.gpu_tile_gemm(w, a, m, tf, tile=2),
            reference.gemm(w, a, m, reference.tile_masks(tf, 2, 4, 4)))
    acc = np.zeros((4, 4), dtype=np.int64)
    for r in range(4):
        for b in range(4):
            for c in range(5):
                p = int(w[r, c]) * int(a[c, b])
                if r < 2 and b < 2:
                    p = _oracle_fault(p, 6, "sa0")
                acc[r, b] += p
    for out in outs:
        assert np.array_equal(out, acc)


def test_gpu_fraction_zero_is_clean(rng):
    m = mul.exact_multiplier()
    w = rng.integers(-128, 128, size=(5, 7)).astype(np.int8)
    a = rng.integers(-128, 128, size=(7, 5)).astype(np.int8)
    tf = fl.TileFaultSpec(tile_index=0, damaged_fraction=0.0,
                          fault=fl.StuckAtFault(3, "sa1"), seed=4)
    out = fl.gpu_tile_gemm(w, a, m, tf, tile=4)
    assert np.array_equal(out, w.astype(np.int64) @ a.astype(np.int64))


def test_gpu_ragged_edge_block(rng):
    # 5x5 output, tile 4: corner block is 1x1; damage must not crash or
    # leak outside it
    m = mul.exact_multiplier()
    w = rng.integers(-128, 128, size=(5, 6)).astype(np.int8)
    a = rng.integers(-128, 128, size=(6, 5)).astype(np.int8)
    clean = w.astype(np.int64) @ a.astype(np.int64)
    tf = fl.TileFaultSpec(tile_index=3, damaged_fraction=1.0,
                          fault=fl.StuckAtFault(12, "sa1"), seed=7)
    out = fl.gpu_tile_gemm(w, a, m, tf, tile=4)
    diff = out != clean
    assert not diff[:4, :].any() and not diff[4:, :4].any()


def test_gpu_tile_index_out_of_range(rng):
    w = np.ones((4, 4), dtype=np.int8)
    a = np.ones((4, 4), dtype=np.int8)
    tf = fl.TileFaultSpec(tile_index=4, damaged_fraction=0.5,
                          fault=fl.StuckAtFault(0, "sa0"), seed=0)
    with pytest.raises(ValueError):
        fl.gpu_tile_gemm(w, a, mul.exact_multiplier(), tf, tile=2)
    with pytest.raises(ValueError):
        fl.gpu_tile_gemm(w, a, mul.exact_multiplier(), tf, tile=2,
                         clean=np.zeros((4, 4), dtype=np.int32))


def test_tile_fault_validation():
    f = fl.StuckAtFault(0, "sa0")
    with pytest.raises(ValueError):
        fl.TileFaultSpec(tile_index=-1, damaged_fraction=0.5, fault=f, seed=0)
    with pytest.raises(ValueError):
        fl.TileFaultSpec(tile_index=0, damaged_fraction=1.5, fault=f, seed=0)


# --- pruning geometry -------------------------------------------------------


def test_pruned_mask_hand_case():
    fm = fl.FaultMap(2, {(1, 0): fl.StuckAtFault(0, "sa0")})
    got = fl.pruned_mask((4, 4), fm)
    assert {(int(r), int(c)) for r, c in np.argwhere(got)} == {
        (1, 0), (1, 2), (3, 0), (3, 2)}


def test_pruned_mask_matches_indices():
    # weight (r, c) is pruned exactly when MAC (r mod n, c mod n) is faulty
    fm = fl.random_fault_map(4, 40.0, fl.StuckAtFault(9, "sa1"), seed=8)
    mask = fl.pruned_mask((10, 7), fm)
    idx = {(r, c) for r in range(10) for c in range(7)
           if (r % fm.n, c % fm.n) in fm.entries}
    assert mask.shape == (10, 7)
    assert {(int(r), int(c)) for r, c in np.argwhere(mask)} == idx
    assert mask.sum() == len(idx)


def test_pruned_mask_empty_map():
    assert not fl.pruned_mask((6, 6), fl.FaultMap(3)).any()


# --- the fault lattice -------------------------------------------------------

_FAULTS = st.builds(fl.StuckAtFault, st.integers(0, 15), st.sampled_from(fl.FAULT_KINDS))


@st.composite
def _fault_maps(draw):
    """Maps of mixed bits and kinds: empty, one faulty MAC, some, or all."""
    n = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(n) for j in range(n)]
    fill = draw(st.sampled_from(["empty", "one", "some", "full"]))
    if fill == "empty":
        cells = []
    elif fill == "one":
        cells = [draw(st.sampled_from(cells))]
    elif fill == "some":
        cells = draw(st.lists(st.sampled_from(cells), unique=True))
    return fl.FaultMap(n, {c: draw(_FAULTS) for c in cells})


@settings(deadline=None)
@given(_fault_maps(), st.sampled_from(fl.GEMM_MODES), st.data())
def test_stationed_lattice_matches_a_loop_over_the_entries(fm, mode, data):
    # rows and depth below, at and above n, most of them no multiple of it
    rows, depth = (data.draw(st.integers(1, 3 * fm.n + 1)) for _ in range(2))
    lattice = fl._lattice(fm, mode)
    or_m, and_m = fl._masks(fl._station(lattice, rows, depth))
    hit = fl.pruned_mask((rows, depth), fm)
    # products of five activation codes, weight-major, one table per kind
    # of MAC
    table = mul.truncated_multiplier(3).by_weight[:, 60:65]
    tables, sel = fl._mac_tables(table, lattice, rows, depth)
    for r in range(rows):
        for c in range(depth):
            f = fm.entries.get((r % fm.n, c % fm.n))
            assert hit[r, c] == (f is not None)
            if f is None:
                masks, want = (0, 0xFFFF), table
            elif mode == "propagate":
                masks, want = f.masks(), fl.apply_fault(table, f)
            else:
                # a bypassed MAC's masks zero every product
                masks, want = (0, 0), np.zeros_like(table)
            assert (or_m[r, c], and_m[r, c]) == masks
            np.testing.assert_array_equal(tables[256 * sel[r, c] : 256 * (sel[r, c] + 1)],
                                          want)
    # one table per distinct fault (one for all in bypass), and the bare one
    # if a MAC is fault-free
    faulty = len(set(fm.entries.values())) if mode == "propagate" else bool(fm.entries)
    distinct = faulty + (len(fm.entries) < fm.n**2)
    assert tables.shape == (256 * distinct, 5)


class _Walks(dict):
    """A dict that counts the walks over its entries."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def items(self):
        self.walks += 1
        return super().items()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()


def test_a_faulty_call_reads_its_map_once_and_builds_no_map(monkeypatch):
    # every route, counts, pruning, formed products and folded tables, reads
    # the one lattice of the map
    F = fl.StuckAtFault
    entries = _Walks({(0, 0): F(15, "sa1"), (0, 1): F(3, "sa0"),
                      (1, 0): F(15, "sa0"), (1, 1): F(14, "sa1"), (2, 2): F(0, "sa1")})
    fm = fl.FaultMap(3, entries)
    built = []
    real = fl.FaultMap.__post_init__
    monkeypatch.setattr(fl.FaultMap, "__post_init__", lambda self: built.append(self) or real(self))
    rng = np.random.default_rng(4)
    w = rng.integers(-128, 128, (8, 12)).astype(np.int8)
    a = rng.integers(-128, 128, (12, 40)).astype(np.int8)
    lut = mul.from_table("lut-random", rng.integers(-32768, 32768, mul.TABLE_SIZE).astype(np.int16))
    for m in (mul.exact_multiplier(), mul.truncated_multiplier(4), lut):
        for mode in fl.GEMM_MODES:
            cfg = fl.SystolicConfig(3, mode)
            for clean in (None, fl.systolic_gemm(w, a, m, None, cfg)):
                entries.walks = 0
                fl.systolic_gemm(w, a, m, fm, cfg, clean)
                assert entries.walks == 1, (m.id, mode, clean is None)
    assert built == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 24), st.integers(1, 24),
       st.integers(1, 24))
def test_systolic_matches_numpy_property(seed, r, d, b):
    rng = np.random.default_rng(seed)
    w = rng.integers(-128, 128, size=(r, d)).astype(np.int8)
    a = rng.integers(-128, 128, size=(d, b)).astype(np.int8)
    out = fl.systolic_gemm(w, a, mul.exact_multiplier(), None,
                           fl.SystolicConfig(n=4))
    assert np.array_equal(out, w.astype(np.int64) @ a.astype(np.int64))
