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
from hypothesis.extra import numpy as hnp

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
    # True is an int, but truncated-True is no multiplier name
    for make in (mul.truncated_multiplier, mul.broken_carry_multiplier):
        with pytest.raises(ValueError, match="must be an integer"):
            make(True)


def test_numpy_k_is_kept_as_an_int():
    # a numpy k overflowed the uint8 mask arithmetic, or was stored as numpy
    for make, name in ((mul.truncated_multiplier, "truncated"),
                       (mul.broken_carry_multiplier, "broken-carry")):
        m = make(np.uint8(3))
        assert type(m.params["k"]) is int
        assert m.id == f"{name}-3"
        assert np.array_equal(m.table, make(3).table)
        assert mul.parse_multiplier(m.id).id == m.id
    m = mul.Multiplier("t", "truncated", {"k": np.int64(4)}, mul.truncated_multiplier(4).table)
    assert type(m.params["k"]) is int


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
    # params hold nothing that kind and table do not use
    with pytest.raises(ValueError, match="params"):
        mul.Multiplier("x", "exact", {"k": 3}, mul.exact_multiplier().table)
    with pytest.raises(ValueError, match="params"):
        mul.Multiplier("x", "truncated", {"k": 4, "j": 1}, trunc)
    with pytest.raises(ValueError, match="must be an integer"):
        mul.Multiplier("x", "truncated", {"k": True}, mul.truncated_multiplier(1).table)
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


@pytest.mark.parametrize("spec", ["exact"]
                         + [f"truncated-{k}" for k in range(16)]
                         + [f"broken-carry-{k}" for k in range(8)])
def test_parse_multiplier_accepts_exactly_the_id(spec):
    assert mul.parse_multiplier(spec).id == spec


@pytest.mark.parametrize("spec", ["truncated_3", "truncated:3", "broken_carry-2",
                                  "broken-carry:2", " exact", "exact\n", "truncated-03"])
def test_parse_multiplier_refuses_other_spellings(spec):
    # another spelling of an id would key a campaign's cells, seeds and
    # energy lookup apart from the id it names
    with pytest.raises(ValueError, match="unknown multiplier"):
        mul.parse_multiplier(spec)


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


def _build_weight_map_oracle(m, acts):
    """The O(256^3) loop that ``build_weight_map`` replaced, kept verbatim."""
    counts = acts.counts.astype(np.int64)
    if counts.max(initial=0) >= (1 << 39):
        # keeps the int64 weighted sums below 2^63
        raise ValueError("activation counts too large for exact accumulation")
    table = m.table2d().astype(np.int64)
    exact = mul._exact_table2d().astype(np.int64)
    codes = np.arange(-128, 128, dtype=np.int64)
    out = np.empty(256, dtype=np.int16)
    for wi in range(256):
        diff = np.abs(table - exact[:, wi][:, None])
        dist = counts @ diff
        cand = np.flatnonzero(dist == dist.min())
        away = np.abs(cand - wi)
        cand = cand[away == away.min()]
        out[wi] = codes[cand.min()]
    return mul.WeightMapTable(out)


BIG_COUNT = (1 << 39) - 1


@st.composite
def _lut_multipliers(draw):
    """Random int16 tables holding both extremes. "near" tracks the exact
    product, as a useful approximate multiplier does; "few" repeats four
    random columns, so many candidates tie on cost, also at equal distance
    on both sides of w."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["full", "near", "few"]))
    if shape == "full":
        table = rng.integers(-32768, 32768, size=(256, 256))
    elif shape == "near":
        spread = draw(st.sampled_from([1, 8, 300]))
        noise = rng.integers(-spread, spread + 1, size=(256, 256))
        table = np.clip(mul._exact_table2d() + noise, -32768, 32767)
    else:
        columns = rng.integers(-32768, 32768, size=(256, 4))
        table = columns[:, rng.integers(0, 4, size=256)]
    table = table.reshape(-1)
    pins = rng.choice(mul.TABLE_SIZE, size=2 * draw(st.integers(1, 64)), replace=False)
    table[pins[::2]] = -32768
    table[pins[1::2]] = 32767
    return mul.from_table(f"lut-{shape}", table.astype(np.int16))


@st.composite
def _histograms(draw):
    """Dense, sparse or all-zero code counts, some bins at the 2^39 - 1 cap."""
    shape = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if shape == "zero":
        counts = np.zeros(256, dtype=np.uint64)
    else:
        counts = draw(hnp.arrays(
            np.uint64, 256,
            elements=st.one_of(st.integers(0, 9), st.integers(0, BIG_COUNT)),
            fill=st.just(0) if shape == "sparse" else None))
    for b in draw(st.lists(st.integers(0, 255), max_size=4)):
        counts[b] = BIG_COUNT
    return mul.ActivationSample(counts)


@settings(max_examples=40, deadline=None)
@given(_lut_multipliers(), _histograms())
def test_weight_map_equals_oracle_on_random_luts(m, acts):
    want = _build_weight_map_oracle(m, acts).map
    assert np.array_equal(mul.build_weight_map(m, acts).map, want)


@pytest.mark.parametrize("m", [mul.exact_multiplier()]
                         + [mul.truncated_multiplier(k) for k in range(16)]
                         + [mul.broken_carry_multiplier(k) for k in range(8)],
                         ids=lambda m: m.id)
def test_weight_map_equals_oracle_on_family_multipliers(m):
    rng = np.random.default_rng(17)
    for name, acts in (("uniform", mul.uniform_activations()),
                       ("random", mul.ActivationSample(rng.integers(0, 5000, size=256)))):
        want = _build_weight_map_oracle(m, acts).map
        assert np.array_equal(mul.build_weight_map(m, acts).map, want), name


def test_weight_map_extreme_table_and_counts():
    # every product -32768 at the largest allowed counts: the int64 costs
    # come closest to 2^63 here, and all candidates tie, so w maps to w
    m = mul.from_table("floor", np.full(mul.TABLE_SIZE, -32768, dtype=np.int16))
    acts = mul.ActivationSample(np.full(256, BIG_COUNT, dtype=np.uint64))
    got = mul.build_weight_map(m, acts).map
    assert np.array_equal(got, _build_weight_map_oracle(m, acts).map)
    assert np.array_equal(got, np.arange(-128, 128))


@pytest.mark.parametrize("count", [1 << 39, 2**63 + 5, 2**64 - 1])
def test_weight_map_rejects_counts_past_the_int64_guard(count):
    # counts of 2^63 and up used to wrap negative in the int64 cast and pass
    acts = mul.ActivationSample(np.full(256, count, dtype=np.uint64))
    with pytest.raises(ValueError):
        mul.build_weight_map(mul.truncated_multiplier(3), acts)


def test_weight_map_file_round_trip(tmp_path):
    wm = mul.build_weight_map(mul.truncated_multiplier(6),
                              mul.uniform_activations())
    p = tmp_path / "t6.axwm"
    mul.save_weight_map(wm, p)
    assert p.stat().st_size == 8 + 256
    assert np.array_equal(mul.load_weight_map(p).map, wm.map)


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
        mul.ActivationSample(np.ones(100, dtype=np.uint64))


@pytest.mark.parametrize("bad", [-1, np.nan, np.inf, 0.5, 2.9, "7"])
def test_activation_sample_rejects_bad_counts(bad):
    # a plain uint64 cast turned -1 into 2^64 - 1, NaN into 2^63 and 2.9 into 2
    counts = np.ones(256, dtype=object if isinstance(bad, str) else type(bad))
    counts[40] = bad
    with pytest.raises(ValueError):
        mul.ActivationSample(counts)


def test_activation_sample_takes_whole_numbers_of_any_dtype():
    want = np.arange(256, dtype=np.uint64)
    for counts in (want, want.astype(np.int64), want.astype(np.float64), list(range(256))):
        acts = mul.ActivationSample(counts)
        assert acts.counts.dtype == np.uint64
        assert np.array_equal(acts.counts, want)


def test_activations_from_codes_histogram():
    codes = np.array([-128, -128, 0, 5, 127], dtype=np.int8)
    acts = mul.activations_from_codes(codes)
    assert acts.counts.sum() == 5
    assert acts.counts[0] == 2
    assert acts.counts[5 + 128] == 1
    assert acts.counts[255] == 1


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
