"""Multiplier families, error metrics, LUT files, and weight maps.

The numeric anchors here (mae sweeps, worst cases, error counts) were
computed once with a separate brute-force script over all 65536 operand
pairs and frozen in; the tests check the library against those numbers,
not against its own arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axfault import multipliers as mul

ALL = np.arange(-128, 128, dtype=np.int16)


def _oracle_truncated(x, y, k):
    p = (int(x) * int(y)) & 0xFFFF
    p &= ~((1 << k) - 1) & 0xFFFF
    return p - 0x10000 if p & 0x8000 else p


def _oracle_broken(x, y, k):
    def chop(v):
        b = v & 0xFF
        b &= ~((1 << k) - 1) & 0xFF
        return b - 0x100 if b & 0x80 else b

    return chop(x) * chop(y)


def test_exact_table_is_plain_product():
    m = mul.exact_multiplier()
    want = np.multiply.outer(ALL.astype(np.int32), ALL.astype(np.int32))
    got = m.table.reshape(256, 256).astype(np.int32)
    assert np.array_equal(got, want)


def test_exact_metrics_are_zero():
    e = mul.error_metrics(mul.exact_multiplier())
    assert e.mae_percent == 0.0
    assert e.worst_case_abs == 0
    assert e.error_count == 0


@pytest.mark.parametrize("k", [1, 3, 4, 8, 15])
def test_truncated_matches_bit_oracle(k):
    m = mul.truncated_multiplier(k)
    r = np.random.default_rng(k)
    for _ in range(300):
        x = int(r.integers(-128, 128))
        y = int(r.integers(-128, 128))
        assert mul.multiply(m, x, y) == _oracle_truncated(x, y, k)


@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_broken_carry_matches_byte_oracle(k):
    m = mul.broken_carry_multiplier(k)
    r = np.random.default_rng(100 + k)
    for _ in range(300):
        x = int(r.integers(-128, 128))
        y = int(r.integers(-128, 128))
        assert mul.multiply(m, x, y) == _oracle_broken(x, y, k)


def test_truncated_4_frozen_metrics():
    e = mul.error_metrics(mul.truncated_multiplier(4))
    assert e.mae_percent == 0.009918212890625
    assert e.worst_case_abs == 15
    assert e.error_count == 53248


def test_broken_carry_2_frozen_metrics():
    e = mul.error_metrics(mul.broken_carry_multiplier(2))
    assert e.mae_percent == 0.2285527065396309
    assert e.worst_case_abs == 759
    assert e.error_count == 61056


def test_truncated_15_frozen_metrics():
    e = mul.error_metrics(mul.truncated_multiplier(15))
    assert e.mae_percent == 24.805068969726562
    assert e.worst_case_abs == 32767
    assert e.error_count == 65025


TRUNC_SWEEP = [
    0.0,
    0.0003814697265625,
    0.00152587890625,
    0.0041961669921875,
    0.009918212890625,
    0.0217437744140625,
    0.0457763671875,
    0.0942230224609375,
    0.191497802734375,
    0.3856658935546875,
    0.77362060546875,
]

BROKEN_SWEEP = [
    0.0,
    0.08138120174407959,
    0.2285527065396309,
    0.518712867051363,
    1.098281517624855,
    2.2602816112339497,
    4.602612182497978,
]


def test_truncated_mae_sweep_frozen():
    got = [mul.error_metrics(mul.truncated_multiplier(k)).mae_percent
           for k in range(11)]
    assert got == pytest.approx(TRUNC_SWEEP, rel=0, abs=0)


def test_broken_carry_mae_sweep_frozen():
    got = [mul.error_metrics(mul.broken_carry_multiplier(k)).mae_percent
           for k in range(7)]
    assert got == pytest.approx(BROKEN_SWEEP, rel=0, abs=0)


def test_mae_is_plain_float():
    # numpy scalar reprs would leak into CSV output otherwise
    e = mul.error_metrics(mul.truncated_multiplier(2))
    assert type(e.mae_percent) is float
    assert type(e.error_count) is int


def test_k_bounds_rejected():
    with pytest.raises(ValueError):
        mul.truncated_multiplier(16)
    with pytest.raises(ValueError):
        mul.truncated_multiplier(-1)
    with pytest.raises(ValueError):
        mul.broken_carry_multiplier(8)


def test_family_kind_must_match_its_table():
    # the GEMM engines compute a family kind from kind and params, not
    # from the table, so the two must agree
    trunc = mul.truncated_multiplier(4).table
    with pytest.raises(ValueError):
        mul.Multiplier("x", "exact", {}, trunc)
    with pytest.raises(ValueError):
        mul.Multiplier("x", "truncated", {"k": 3}, trunc)
    with pytest.raises(ValueError):
        mul.Multiplier("x", "broken_carry", {"k": 0}, trunc)
    with pytest.raises(ValueError):
        mul.Multiplier("x", "truncated", {}, trunc)
    assert mul.Multiplier("x", "truncated", {"k": 4}, trunc).kind == "truncated"
    assert mul.from_table("x", trunc).kind == "lut"


def test_pair_index_layout():
    assert mul.pair_index(-128, -128) == 0
    assert mul.pair_index(-128, -127) == 1
    assert mul.pair_index(127, 127) == 65535
    assert mul.pair_index(0, 0) == (128 << 8) | 128


def test_pair_index_range_check():
    with pytest.raises(ValueError):
        mul.pair_index(128, 0)
    with pytest.raises(ValueError):
        mul.pair_index(0, -129)


def test_multiply_vectorized_matches_scalar():
    m = mul.truncated_multiplier(5)
    r = np.random.default_rng(9)
    xs = r.integers(-128, 128, size=64).astype(np.int8)
    ys = r.integers(-128, 128, size=64).astype(np.int8)
    vec = mul.multiply(m, xs, ys)
    for i in range(64):
        assert vec[i] == mul.multiply(m, int(xs[i]), int(ys[i]))


def test_product_function_agrees_with_table():
    for m in (mul.exact_multiplier(), mul.truncated_multiplier(6),
              mul.broken_carry_multiplier(3)):
        f = mul.product_function(m)
        r = np.random.default_rng(3)
        xs = r.integers(-128, 128, size=(5, 7)).astype(np.int8)
        ys = r.integers(-128, 128, size=(5, 7)).astype(np.int8)
        got = f(xs, ys)
        assert got.dtype == np.int16
        want = m.table[mul.pair_index(xs.astype(np.int32),
                                      ys.astype(np.int32))]
        assert np.array_equal(got, want)


def test_lut_file_round_trip(tmp_path):
    m = mul.broken_carry_multiplier(2)
    p = tmp_path / "bc2.axlut"
    mul.save_lut(m, p)
    assert p.stat().st_size == 2 * 65536
    back = mul.load_lut(p, mult_id=m.id)
    assert back.id == m.id
    assert np.array_equal(back.table, m.table)
    # default id comes from the file name
    assert mul.load_lut(p).id == "bc2"


def test_lut_rejects_wrong_size(tmp_path):
    p = tmp_path / "bad.axlut"
    p.write_bytes(b"\x00" * 100)
    with pytest.raises(ValueError):
        mul.load_lut(p)
    p2 = tmp_path / "worse.axlut"
    p2.write_bytes(b"\x00" * (2 * 65536 + 2))
    with pytest.raises(ValueError):
        mul.load_lut(p2)


def test_from_table_validates_shape():
    with pytest.raises(ValueError):
        mul.from_table("oops", np.zeros(100, dtype=np.int16))
    with pytest.raises(ValueError):
        mul.from_table("oops", np.zeros((256, 256), dtype=np.int16))


def test_parse_multiplier_specs():
    assert mul.parse_multiplier("exact").id == "exact"
    assert mul.parse_multiplier("truncated-7").id == "truncated-7"
    assert mul.parse_multiplier("broken-carry-2").id == "broken-carry-2"
    with pytest.raises(ValueError):
        mul.parse_multiplier("warp-drive-3")
    with pytest.raises(ValueError):
        mul.parse_multiplier("truncated-99")


def test_parse_multiplier_lut_path(tmp_path):
    m = mul.truncated_multiplier(3)
    p = tmp_path / "t3.axlut"
    mul.save_lut(m, p)
    back = mul.parse_multiplier(str(p))
    assert np.array_equal(back.table, m.table)


# --- weight maps -----------------------------------------------------------


def test_weight_map_exact_is_identity():
    wm = mul.build_weight_map(mul.exact_multiplier(), mul.uniform_activations())
    assert np.array_equal(wm.map, np.arange(-128, 128, dtype=np.int16))


def test_weight_map_all_zero_table_ties_break_to_self():
    # constant product: every candidate has equal cost, so the nearest
    # (then smaller) rule must pick w itself
    z = mul.from_table("zeros", np.zeros(65536, dtype=np.int16))
    wm = mul.build_weight_map(z, mul.uniform_activations())
    assert np.array_equal(wm.map, np.arange(-128, 128, dtype=np.int16))


def _map_costs(m, acts, w):
    """Brute-force objective for every candidate substitute of weight w."""
    a = np.arange(-128, 128, dtype=np.int64)
    tab = m.table2d().astype(np.int64)
    err = np.abs(tab - np.outer(a, np.full(256, w, dtype=np.int64)))
    return err.T @ acts.counts.astype(np.int64)


def test_weight_map_truncated4_uniform_frozen_samples():
    m = mul.truncated_multiplier(4)
    acts = mul.uniform_activations()
    wm = mul.build_weight_map(m, acts)
    for w in (-128, -3, 0, 1, 5, 127):
        assert wm.map[w + 128] == w
    assert _map_costs(m, acts, 0)[128] == 0
    assert _map_costs(m, acts, 1)[1 + 128] == 1920
    assert _map_costs(m, acts, 5)[5 + 128] == 1920


def test_weight_map_minimizes_cost():
    # brute-force the objective for a handful of weights
    m = mul.broken_carry_multiplier(3)
    acts = mul.uniform_activations()
    wm = mul.build_weight_map(m, acts)
    for w in (-97, -16, 7, 33, 120):
        costs = _map_costs(m, acts, w)
        assert costs[wm.map[w + 128] + 128] == costs.min()


def test_weight_map_file_round_trip(tmp_path):
    wm = mul.build_weight_map(mul.truncated_multiplier(6),
                              mul.uniform_activations())
    p = tmp_path / "t6.axwm"
    mul.save_weight_map(wm, p)
    assert p.stat().st_size == 8 + 256
    back = mul.load_weight_map(p, wm.multiplier_id, wm.activation_set_id)
    assert back.multiplier_id == wm.multiplier_id
    assert back.activation_set_id == wm.activation_set_id
    assert np.array_equal(back.map, wm.map)


def test_weight_map_load_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.axwm"
    p.write_bytes(b"AXWM" + bytes([1, 0, 0, 0]) + b"\x00" * 200)
    with pytest.raises(ValueError):
        mul.load_weight_map(p)
    p.write_bytes(b"NOPE" + bytes([1, 0, 0, 0]) + b"\x00" * 256)
    with pytest.raises(ValueError):
        mul.load_weight_map(p)
    p.write_bytes(b"AXWM" + bytes([9, 0, 0, 0]) + b"\x00" * 256)
    with pytest.raises(ValueError):
        mul.load_weight_map(p)


def test_activation_sample_validation():
    with pytest.raises(ValueError):
        mul.ActivationSample("bad", np.ones(100, dtype=np.uint64))


def test_activations_from_codes_histogram():
    codes = np.array([-128, -128, 0, 5, 127], dtype=np.int8)
    acts = mul.activations_from_codes(codes, "probe")
    assert acts.counts.sum() == 5
    assert acts.counts[0] == 2
    assert acts.counts[5 + 128] == 1
    assert acts.counts[255] == 1


def test_precompute_cache_hits_disk(tmp_path):
    ms = [mul.truncated_multiplier(4), mul.exact_multiplier()]
    acts = mul.uniform_activations()
    first = mul.precompute_weight_maps(ms, acts, tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    stamps = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    second = mul.precompute_weight_maps(ms, acts, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == stamps
    for k in first:
        assert np.array_equal(first[k].map, second[k].map)


@settings(max_examples=60, deadline=None)
@given(st.integers(-128, 127), st.integers(-128, 127), st.integers(0, 15))
def test_truncated_error_bounded_by_mask(x, y, k):
    m = mul.truncated_multiplier(k)
    err = abs(int(mul.multiply(m, x, y)) - x * y)
    assert err < (1 << k)


@settings(max_examples=60, deadline=None)
@given(st.integers(-128, 127), st.integers(0, 7))
def test_broken_carry_zero_stays_zero(x, k):
    m = mul.broken_carry_multiplier(k)
    assert mul.multiply(m, x, 0) == 0
    assert mul.multiply(m, 0, x) == 0
