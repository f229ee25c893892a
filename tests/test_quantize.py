import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from axfault.quantize import QTensor, dequantize, quantize, requantize_accum


def test_scale_from_amax():
    q = quantize(np.array([0.0, 63.5, -127.0]))
    assert q.scale == 1.0
    assert list(q.data) == [0, 64, -127]


def test_round_half_away_from_zero():
    # scale pinned to 1 by the 127 entry
    x = np.array([127.0, 0.5, -0.5, 1.49, -1.5, 2.5, 126.5])
    q = quantize(x)
    assert q.scale == 1.0
    assert list(q.data) == [127, 1, -1, 1, -2, 3, 127]


def test_code_128_never_appears():
    r = np.random.default_rng(0)
    for _ in range(20):
        q = quantize(r.normal(size=257) * r.uniform(0.01, 1000))
        assert q.data.min() >= -127


def test_all_zero_tensor():
    q = quantize(np.zeros(5))
    assert q.scale == 1.0
    assert not q.data.any()
    assert np.array_equal(dequantize(q), np.zeros(5))


def test_empty_tensor():
    q = quantize(np.zeros((0, 3)))
    assert q.scale == 1.0
    assert q.data.shape == (0, 3)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        quantize(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        quantize(np.array([np.inf]))


def test_extremes_hit_127():
    q = quantize(np.array([-3.0, 3.0, 1.0]))
    assert q.data[0] == -127
    assert q.data[1] == 127
    assert q.scale == 3.0 / 127.0


def test_dequantize_error_bound():
    r = np.random.default_rng(7)
    x = r.normal(size=(40, 13)) * 5
    q = quantize(x)
    assert np.max(np.abs(dequantize(q) - x)) <= q.scale / 2 + 1e-12


def test_requantize_accum_is_linear_scaling():
    acc = np.array([[1, -2], [3, 4]], dtype=np.int32)
    out = requantize_accum(acc, 0.5, 0.25)
    assert out.dtype == np.float64
    assert np.array_equal(out, acc * 0.125)


def test_requantize_accum_does_not_clamp():
    acc = np.array([2_000_000_000, -2_000_000_000], dtype=np.int32)
    out = requantize_accum(acc, 1.0, 1.0)
    assert out[0] == 2e9 and out[1] == -2e9


def test_qtensor_coerces_dtype():
    q = QTensor(np.array([1.0, 2.0]), np.float64(0.5))
    assert q.data.dtype == np.int8
    assert type(q.scale) is float


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_codes_always_in_range(x):
    q = quantize(x)
    assert q.data.min() >= -127 and q.data.max() <= 127
    assert q.scale > 0


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(-1e4, 1e4, allow_nan=False)))
def test_requantization_is_idempotent(x):
    # dequantized tensors quantize back to the same codes: the retuning
    # pipeline stores floats and relies on this round trip
    q1 = quantize(x)
    q2 = quantize(dequantize(q1))
    assert np.array_equal(q1.data, q2.data)
    assert q2.scale == pytest.approx(q1.scale, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 30),
                  elements=st.floats(-1e4, 1e4, allow_nan=False)))
def test_negation_symmetry(x):
    qp = quantize(x)
    qn = quantize(-x)
    assert np.array_equal(qp.data, -qn.data)


def _quantize_oracle(t):
    """The quantizer as first written, kept as the reference: codes and
    scale of symmetric per-tensor quantization, built from whole-tensor
    float64 temporaries."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("cannot quantize non-finite values")
    amax = float(np.max(np.abs(t))) if t.size else 0.0
    scale = amax / 127.0
    if scale == 0.0:
        scale = 1.0
    x = t / scale
    codes = np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), -127, 127)
    return codes.astype(np.int8), scale


_SPECIAL = st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.7976931348623157e308])
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(-1e-300, 1e-300), _SPECIAL)
# multiples of the smallest subnormal: amax / 127 rounds so coarsely that
# |t| / scale can pass 127.5
_SUBNORMAL = st.integers(-2000, 2000).map(lambda m: m * 5e-324)


@st.composite
def _tensors(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=12))
    kind = draw(st.sampled_from(["any", "ties", "subnormal"]))
    if kind == "ties":
        # (k + 0.5) * scale, with amax pinning the scale: t / scale lands on
        # or next to a tie, where t * (1 / scale) can round the other way
        amax = draw(st.one_of(st.just(127.0), st.floats(1e-30, 1e30)))
        k = draw(hnp.arrays(np.float64, shape, elements=st.integers(-127, 126)))
        x = (k + 0.5) * (amax / 127.0)
        x.flat[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from([amax, -amax]))
    else:
        x = draw(hnp.arrays(np.float64, shape,
                            elements=_FINITE if kind == "any" else _SUBNORMAL))
    if x.ndim == 2:
        x = draw(st.sampled_from([x, np.asfortranarray(x), x.T, x[:, ::2], x[::-1]]))
    return x


@settings(max_examples=300, deadline=None)
@given(_tensors())
def test_quantize_equals_the_reference_formula(x):
    before = x.copy()
    q = quantize(x)
    codes, scale = _quantize_oracle(x)
    assert np.array_equal(q.data, codes)
    assert q.scale == scale
    assert np.array_equal(x, before)
    assert np.array_equal(np.signbit(x), np.signbit(before))


@settings(max_examples=100, deadline=None)
@given(_tensors(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_non_finite_anywhere_is_rejected(x, bad, data):
    x = np.array(x)
    x.flat[data.draw(st.integers(0, x.size - 1))] = bad
    with pytest.raises(ValueError, match="non-finite"):
        quantize(x)


@st.composite
def _one_signed_tensors(draw):
    """Arrays all >= 0, all <= 0 or of mixed signs, on or next to .5 ties
    of their scale, with zeros of either sign: a tensor with no negative
    value takes the path without sign passes, -0.0 entries included."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=12))
    # amax at most 1 as often as above it: every value then lies in [-1, 1]
    amax = draw(st.one_of(st.just(127.0), st.floats(1e-30, 1.0), st.floats(1.0, 1e30)))
    k = draw(hnp.arrays(np.float64, shape, elements=st.integers(0, 126)))
    half = draw(hnp.arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.5])))
    x = (k + half) * (amax / 127.0)
    x.flat[draw(st.integers(0, x.size - 1))] = amax
    signs = draw(st.sampled_from([[1.0], [-1.0], [-1.0, 1.0]]))
    x *= draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(signs)))
    x[draw(hnp.arrays(np.bool_, shape))] = draw(st.sampled_from([0.0, -0.0]))
    return x


@settings(deadline=None)
@given(_one_signed_tensors())
def test_quantize_matches_the_signed_formula(x):
    q = quantize(x)
    codes, scale = _quantize_oracle(x)
    assert np.array_equal(q.data, codes)
    assert q.scale == scale


def test_requantize_multiplies_by_the_product_of_the_scales():
    # one rounding of w_scale * a_scale, then one of the product with acc:
    # (acc * w_scale) * a_scale rounds elsewhere and moves every quantized
    # logit in its last bits
    acc = np.random.default_rng(0).integers(-(1 << 24), 1 << 24, size=512).astype(np.int32)
    w_scale, a_scale = 0.7 / 127.0, 3.1 / 127.0
    want = acc.astype(np.float64) * (w_scale * a_scale)
    got = requantize_accum(acc, w_scale, a_scale)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert (acc.astype(np.float64) * w_scale * a_scale != want).any()
