"""Model zoo, serialization, conv lowering, and the execution engines."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from axfault import faults as fl
from axfault import multipliers as mul
from axfault import network as net
from axfault import training
from axfault.datasets import synth_blobs, synth_digits
from axfault.mitigation import capture_activations
from axfault.quantize import QTensor, quantize


def test_model_shapes_dense():
    m = net.desk_model("mp-tanh-desk")
    assert m.input_shape == (784,)
    assert m.shapes()[-1] == (10,)
    assert m.param_layers() == [0, 1, 2]
    assert m.gemm_weight_shape(0) == (64, 784)


def test_model_shapes_lenet():
    m = net.desk_model("lenet-desk")
    shapes = m.shapes()
    assert shapes[0] == (24, 24, 8)
    assert shapes[1] == (12, 12, 8)
    assert shapes[2] == (8, 8, 16)
    assert shapes[3] == (4, 4, 16)
    assert shapes[4] == (256,)
    assert shapes[-1] == (10,)
    assert m.gemm_weight_shape(0) == (8, 25)
    assert m.gemm_weight_shape(2) == (16, 200)


def test_weight_shapes_per_layer_kind():
    m = net.ModelSpec("s", (9, 9, 2), [
        net.conv2d(3, 2, 2, 5, stride=2, pad=1, activation="relu"),
        net.maxpool(2),
        net.flatten(),
        net.dense(20, 7),
    ])
    assert m.shapes()[0] == (5, 5, 5)
    assert m.weight_shape(0) == (3, 2, 2, 5)
    assert m.gemm_weight_shape(0) == (5, 12)
    assert m.weight_shape(3) == m.gemm_weight_shape(3) == (7, 20)
    for idx in (1, 2):
        for shape_of in (m.weight_shape, m.gemm_weight_shape):
            with pytest.raises(ValueError, match=f"layer {idx} has no weights"):
                shape_of(idx)


def test_desk_model_unknown_id():
    with pytest.raises(ValueError):
        net.desk_model("resnet-152")


def test_model_shape_validation():
    bad = net.ModelSpec("bad", (10,), [net.dense(12, 3)])
    with pytest.raises(ValueError):
        bad.shapes()


def test_model_json_round_trip():
    m = net.desk_model("lenet-desk")
    back = net.model_from_json(net.model_to_json(m))
    assert back.name == m.name
    assert back.input_shape == m.input_shape
    assert len(back.layers) == len(m.layers)
    for a, b in zip(back.layers, m.layers):
        assert a.kind == b.kind
        assert a.params == b.params
        assert a.activation == b.activation


_CONV = {"kind": "conv2d", "activation": "relu", "kh": 3, "kw": 3, "cin": 1, "cout": 2,
         "stride": 1, "pad": 0}


@pytest.mark.parametrize("shape, layer, match", [
    # a zero stride ended in a ZeroDivisionError, and a negative pad in a
    # broadcast error inside forward
    ([6, 6, 1], dict(_CONV, stride=0), "conv2d stride must be at least 1, got 0$"),
    ([6, 6, 1], dict(_CONV, pad=-1), "conv2d pad must be at least 0, got -1$"),
    ([6, 6, 1], {"kind": "maxpool", "k": 2, "stride": 0},
     "maxpool stride must be at least 1, got 0$"),
    # an unknown key was kept silently, and a bool read as the integer 1
    ([6, 6, 1], dict(_CONV, outt=5),
     r"conv2d layer: unknown parameters \['outt'\], missing parameters \[\]$"),
    ([6, 6, 1], {"kind": "maxpool", "k": 2},
     r"unknown parameters \[\], missing parameters \['stride'\]$"),
    ([6, 6, 1], {"kind": "dense", "in": True, "out": 3}, "dense in must be an integer, got True$"),
    ([6, 6, 1], dict(_CONV, kh=3.0), "conv2d kh must be an integer, got 3.0$"),
    # an input dim was read through int(): 6.7 as 6 and True as 1
    ([6.7, 6, 1], _CONV, "input dim must be an integer, got 6.7$"),
    ([6, 6, True], _CONV, "input dim must be an integer, got True$"),
    ([6, 0, 1], _CONV, "input dim must be at least 1, got 0$"),
], ids=["zero-stride", "negative-pad", "pool-stride", "unknown-key", "missing-key",
        "bool", "float", "float-input", "bool-input", "zero-input"])
def test_model_json_rejects_bad_layer_parameters(shape, layer, match):
    doc = {"name": "c", "input_shape": shape,
           "layers": [layer, {"kind": "flatten"}, {"kind": "dense", "in": 8, "out": 3}]}
    with pytest.raises(ValueError, match=match):
        net.model_from_json(json.dumps(doc))
    if shape != [6, 6, 1]:
        with pytest.raises(ValueError, match=match):
            net.ModelSpec("c", tuple(shape), [])


def test_layer_helpers_refuse_fractions_and_store_python_ints():
    # stride 1.5 used to be truncated to 1
    with pytest.raises(ValueError, match="conv2d stride must be an integer, got 1.5$"):
        net.conv2d(3, 3, 1, 2, stride=1.5)
    with pytest.raises(ValueError, match="maxpool stride must be at least 1, got 0$"):
        net.maxpool(2, stride=0)
    layer = net.conv2d(np.int64(3), 3, 1, 2, stride=np.int32(2))
    assert all(type(v) is int for v in layer.params.values())
    model = net.ModelSpec("c", (7, 7, 1), [layer, net.flatten(), net.dense(18, 3)])
    assert '"stride": 2' in net.model_to_json(model)
    assert net.maxpool(3).params == {"k": 3, "stride": 3}


def test_model_file_round_trip(tmp_path):
    m = net.desk_model("mp-tanh-desk")
    p = tmp_path / "m.json"
    net.save_model(m, p)
    assert net.load_model(p).gemm_weight_shape(2) == (10, 32)
    assert net.resolve_model(str(p)).name == m.name


def test_weights_file_round_trip(tmp_path):
    m = net.desk_model("lenet-desk")
    ws = training.init_weights(m, seed=3)
    p = tmp_path / "w.axdn"
    net.save_weights(ws, m, p)
    back = net.load_weights(m, p)
    assert set(back) == set(ws)
    for idx in ws:
        # float32 storage: round trip through f32, not exact f64
        assert np.array_equal(back[idx]["W"],
                              ws[idx]["W"].astype(np.float32).astype(np.float64))
        assert back[idx]["b"].shape == ws[idx]["b"].shape


def test_weights_file_header(tmp_path):
    m = net.desk_model("mp-tanh-desk")
    ws = training.init_weights(m, seed=0)
    p = tmp_path / "w.axdn"
    net.save_weights(ws, m, p)
    raw = p.read_bytes()
    assert raw[:4] == b"AXDN"
    count = int.from_bytes(raw[6:8], "little")
    assert count == 6
    # first tensor dims: 64 x 784 x 1 x 1
    dims = np.frombuffer(raw[8:24], dtype="<u4")
    assert list(dims) == [64, 784, 1, 1]


def test_weights_file_rejects_wrong_model(tmp_path):
    mp = net.desk_model("mp-tanh-desk")
    ws = training.init_weights(mp, seed=0)
    p = tmp_path / "w.axdn"
    net.save_weights(ws, mp, p)
    with pytest.raises(ValueError):
        net.load_weights(net.desk_model("lenet-desk"), p)
    # a tensor's size is checked before its payload is read
    raw = bytearray(p.read_bytes())
    raw[8:12] = (2**31).to_bytes(4, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"layer 0 tensor W has dims \(2147483648, 784, 1, 1\), "
                                         r"expected \(64, 784\)$"):
        net.load_weights(mp, p)
    p.write_bytes(b"NOPE" + p.read_bytes()[4:])
    with pytest.raises(ValueError):
        net.load_weights(mp, p)


def test_weights_file_rejects_permuted_dims(tmp_path):
    # a dense W written as (in, out) has the right size, and used to load
    # reshaped to (out, in): other weights, with no error
    m = net.desk_model("mp-tanh-desk")
    ws = training.init_weights(m, seed=0)
    p = tmp_path / "w.axdn"
    net.save_weights(ws, m, p)
    raw = bytearray(p.read_bytes())
    raw[8:24] = np.array([784, 64, 1, 1], dtype="<u4").tobytes()
    raw[24 : 24 + 4 * 784 * 64] = ws[0]["W"].T.astype("<f4").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"^weights file {re.escape(str(p))}: layer 0 "
                                         r"tensor W has dims \(784, 64, 1, 1\), "
                                         r"expected \(64, 784\)$"):
        net.load_weights(m, p)


def test_saving_weights_that_do_not_fit_the_model_writes_no_file(tmp_path):
    # a transposed W used to save cleanly and be refused only when loaded
    m = net.desk_model("lenet-desk")
    p = tmp_path / "w.axdn"
    for idx, key, bad, want in ((5, "W", lambda t: t.T, r"\(256, 64\), expected \(64, 256\)"),
                                (0, "W", lambda t: t.transpose(3, 0, 1, 2),
                                 r"\(8, 5, 5, 1\), expected \(5, 5, 1, 8\)"),
                                (6, "b", lambda t: t[:, None, None, None, None],
                                 r"\(10, 1, 1, 1, 1\), expected \(10,\)")):
        ws = training.init_weights(m, seed=0)
        ws[idx][key] = bad(ws[idx][key])
        with pytest.raises(ValueError, match=rf"^weights for {re.escape(str(p))}: layer {idx} "
                                             rf"tensor {key} has dims {want}$"):
            net.save_weights(ws, m, p)
        assert not p.exists()


@pytest.mark.parametrize("cut", [5, 10, 20, 8 + 16 + 4 * 1000, -1])
def test_weights_file_cut_short(tmp_path, cut):
    # a cut header used to raise struct.error and a cut payload numpy's
    # "buffer is smaller than requested size", neither naming the file
    m = net.desk_model("mp-tanh-desk")
    p = tmp_path / "w.axdn"
    net.save_weights(training.init_weights(m, seed=0), m, p)
    p.write_bytes(p.read_bytes()[:cut])
    with pytest.raises(ValueError, match=f"^weights file {re.escape(str(p))} is cut short in "):
        net.load_weights(m, p)


def test_weight_set_helpers():
    m = net.desk_model("mp-tanh-desk")
    ws = training.init_weights(m, seed=1)
    assert ws.param_count() == 784 * 64 + 64 + 64 * 32 + 32 + 32 * 10 + 10
    cp = ws.deep_copy()
    cp[0]["W"][0, 0] += 1
    assert cp[0]["W"][0, 0] != ws[0]["W"][0, 0]


# --- conv lowering ----------------------------------------------------------


def conv2d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride=1, pad=0) -> np.ndarray:
    """Nested-loop reference convolution, (H, W, C, B) float in/out.

    Deliberately naive; exists as an independent check of the im2col path.
    """
    H, W, C, B = x.shape
    kh, kw, cin, cout = w.shape
    assert cin == C
    if pad:
        xp = np.zeros((H + 2 * pad, W + 2 * pad, C, B))
        xp[pad : pad + H, pad : pad + W] = x
    else:
        xp = x
    hout = (H + 2 * pad - kh) // stride + 1
    wout = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((hout, wout, cout, B))
    for oh in range(hout):
        for ow in range(wout):
            patch = xp[oh * stride : oh * stride + kh, ow * stride : ow * stride + kw]
            for co in range(cout):
                out[oh, ow, co] = np.sum(
                    patch * w[:, :, :, co, None], axis=(0, 1, 2)
                ) + b[co]
    return out


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 0), (2, 1)])
def test_im2col_matches_direct_conv(rng, stride, pad):
    x = rng.normal(size=(9, 11, 3, 4))
    w = rng.normal(size=(3, 3, 3, 5))
    b = rng.normal(size=5)
    direct = conv2d_direct(x, w, b, stride=stride, pad=pad)
    cols = net.im2col(x, 3, 3, stride=stride, pad=pad)
    wmat = w.transpose(3, 0, 1, 2).reshape(5, -1)
    hout, wout = direct.shape[0], direct.shape[1]
    z = (wmat @ cols + b[:, None]).reshape(5, hout, wout, 4).transpose(1, 2, 0, 3)
    assert np.allclose(z, direct, atol=1e-12)


def test_im2col_column_order_hand_case():
    # single 2x2 input, 2x2 kernel: one output position, the column is the
    # kernel window flattened (kh, kw, cin)
    x = np.arange(4, dtype=np.float64).reshape(2, 2, 1, 1)
    cols = net.im2col(x, 2, 2)
    assert cols.shape == (4, 1)
    assert list(cols[:, 0]) == [0, 1, 2, 3]


def test_conv_direct_known_answer():
    x = np.ones((3, 3, 1, 1))
    w = np.ones((2, 2, 1, 1))
    b = np.zeros(1)
    out = conv2d_direct(x, w, b)
    assert out.shape == (2, 2, 1, 1)
    assert np.array_equal(out[:, :, 0, 0], np.full((2, 2), 4.0))


# --- engines ----------------------------------------------------------------


def _tiny_problem():
    train = synth_blobs(count=400, seed=1)
    model = net.ModelSpec("t", (8,), [net.dense(8, 16, "relu"),
                                      net.dense(16, 3)])
    ws = training.train(model, train,
                        training.HyperParams(lr=0.1, epochs=15, seed=2))
    test = synth_blobs(count=200, seed=2)
    return model, ws, test


def test_engines_agree_on_easy_data():
    model, ws, test = _tiny_problem()
    base = net.evaluate(model, ws, test)
    m = mul.exact_multiplier()
    sys_acc = net.evaluate(model, ws, test, net.ExecEnv(
        engine="systolic", multiplier=m, systolic=fl.SystolicConfig(n=8)))
    gpu_acc = net.evaluate(model, ws, test, net.ExecEnv(
        engine="gpu_tiles", multiplier=m))
    assert base >= 99.0
    assert abs(sys_acc - base) <= 2.0
    assert abs(gpu_acc - base) <= 2.0


def test_quantized_engines_match_each_other_exactly():
    # same quantization path, no faults: systolic and gpu tiles are the
    # same integer computation
    model, ws, test = _tiny_problem()
    m = mul.truncated_multiplier(5)
    a = net.evaluate(model, ws, test, net.ExecEnv(
        engine="systolic", multiplier=m, systolic=fl.SystolicConfig(n=16)))
    b = net.evaluate(model, ws, test, net.ExecEnv(
        engine="gpu_tiles", multiplier=m, tile=8))
    assert a == b


def test_forward_single_and_batch():
    model, ws, test = _tiny_problem()
    one = net.forward(model, ws, test.images[0])
    assert one["logits"].shape == (3,)
    assert isinstance(one["class"], int)
    many = net.forward(model, ws, test.images[:7])
    assert many["logits"].shape == (7, 3)
    assert many["class"].shape == (7,)
    assert many["class"][0] == one["class"]
    assert np.allclose(many["logits"][0], one["logits"])


def test_layer_filter_restricts_faults():
    model, ws, test = _tiny_problem()
    m = mul.exact_multiplier()
    fm = fl.random_fault_map(4, 50.0, fl.StuckAtFault(15, "sa1"), seed=1)
    cfg = fl.SystolicConfig(n=4)
    clean = net.evaluate(model, ws, test, net.ExecEnv(
        engine="systolic", multiplier=m, systolic=cfg))
    faulty = net.ExecEnv(engine="systolic", multiplier=m, systolic=cfg, fault_map=fm)
    assert net.evaluate(model, ws, test, faulty) < clean

    def accumulators(env):
        got = {}
        net.run_layers(model, ws, test.images.T, env,
                       lambda idx, record: got.__setitem__(idx, record["acc"]))
        return got

    ref = accumulators(replace(faulty, fault_map=None))
    for layer in model.param_layers():
        got = accumulators(replace(faulty, layer_filter=layer))
        for idx in range(layer):
            np.testing.assert_array_equal(got[idx], ref[idx])
        assert not np.array_equal(got[layer], ref[layer])


def test_layer_filter_outside_the_gemm_layers_is_rejected():
    # a filter on a maxpool, a flatten or no layer at all used to inject
    # nothing and report the clean accuracy
    model = net.ModelSpec("c", (6, 6, 1), [net.conv2d(3, 3, 1, 2, activation="relu"),
                                           net.maxpool(2), net.flatten(), net.dense(8, 3)])
    ws = training.init_weights(model, seed=0)
    data = (np.random.default_rng(0).random((5, 6, 6, 1)), np.zeros(5, dtype=int))
    m = mul.exact_multiplier()
    fm = fl.random_fault_map(4, 50.0, fl.StuckAtFault(15, "sa1"), seed=1)
    clean = net.ExecEnv(engine="systolic", multiplier=m, systolic=fl.SystolicConfig(n=4))
    _, plan = net.golden_pass(model, ws, data, clean, [0, 3])
    for bad in (1, 2, 99, -1):
        match = f"layer_filter {bad} is no dense or conv2d layer"
        for env in (replace(clean, fault_map=fm, layer_filter=bad),
                    replace(clean, layer_filter=bad)):
            with pytest.raises(ValueError, match=match):
                net.forward(model, ws, data[0], env)
            with pytest.raises(ValueError, match=match):
                net.evaluate(model, ws, data, env)
        # the float engine reads no layer filter at all
        with pytest.raises(ValueError, match="float engine does not read layer_filter"):
            net.ExecEnv(layer_filter=bad)
        with pytest.raises(ValueError, match=match):
            net.golden_pass(model, ws, data, replace(clean, layer_filter=bad), [0])
        with pytest.raises(ValueError, match=match):
            net.evaluate(model, ws, data, replace(clean, fault_map=fm, layer_filter=bad),
                         _plan=plan)


def test_identity_weight_map_is_transparent():
    model, ws, test = _tiny_problem()
    m = mul.truncated_multiplier(3)
    cfg = fl.SystolicConfig(n=8)
    ident = mul.WeightMapTable(np.arange(-128, 128, dtype=np.int16))
    plain = net.evaluate(model, ws, test, net.ExecEnv(
        engine="systolic", multiplier=m, systolic=cfg))
    mapped = net.evaluate(model, ws, test, net.ExecEnv(
        engine="systolic", multiplier=m, systolic=cfg, weight_map=ident))
    assert plain == mapped


def test_env_weight_map_equals_weights_remapped_beforehand():
    # a forward pass that skipped the env's weight map passed every test
    # that used the identity map
    model = net.ModelSpec("t", (8,), [net.dense(8, 16, "relu"), net.dense(16, 3)])
    ws = training.init_weights(model, seed=4)
    # truncated-k maps are the identity under uniform activations for k <= 7;
    # this one moves 95 codes and keeps -127 and 127
    m = mul.broken_carry_multiplier(2)
    wm = mul.build_weight_map(m, mul.uniform_activations())
    # weights on the grid of scale 2^-7, each layer holding a code of 127:
    # re-quantizing the remapped weights gives the remapped codes back at
    # the same scale
    remapped = ws.deep_copy()
    for i in model.param_layers():
        codes = quantize(ws[i]["W"]).data
        ws[i]["W"] = codes * 2.0 ** -7
        remapped[i]["W"] = wm.remap_codes(codes) * 2.0 ** -7
        q = quantize(remapped[i]["W"])
        assert q.scale == 2.0 ** -7 and np.array_equal(q.data, wm.remap_codes(codes))
    x = synth_blobs(count=32, seed=5).images
    for env in (net.ExecEnv("systolic", m, fl.SystolicConfig(n=4)),
                net.ExecEnv("gpu_tiles", m, tile=4)):
        mapped = net.forward(model, ws, x, replace(env, weight_map=wm))["logits"]
        assert np.array_equal(mapped, net.forward(model, remapped, x, env)["logits"])
        assert not np.array_equal(mapped, net.forward(model, ws, x, env)["logits"])


def test_gpu_tile_index_reduced_modulo_grid():
    model, ws, test = _tiny_problem()
    m = mul.exact_multiplier()
    f = fl.StuckAtFault(15, "sa1")
    # huge index: must be reduced per layer rather than rejected
    tf = fl.TileFaultSpec(tile_index=10**9 + 7, damaged_fraction=0.5,
                          fault=f, seed=3)
    acc = net.evaluate(model, ws, test, net.ExecEnv(
        engine="gpu_tiles", multiplier=m, tile=4, tile_fault=tf))
    assert 0.0 <= acc <= 100.0

    # layer 0 of 16 rows on 8 samples is a 4 x 2 grid of 4 x 4 blocks:
    # index k and k + 8 damage the same block, 0 and 1 two different ones
    x = test.images[:8]
    nblocks = (16 // 4) * (8 // 4)

    def logits(index):
        tf = fl.TileFaultSpec(tile_index=index, damaged_fraction=1.0, fault=f, seed=3)
        env = net.ExecEnv(engine="gpu_tiles", multiplier=m, tile=4, tile_fault=tf,
                          layer_filter=0)
        return net.forward(model, ws, x, env)["logits"]

    assert not np.array_equal(logits(0), logits(1))
    for k in (0, 1, 5):
        assert np.array_equal(logits(k), logits(k + nblocks))


def test_exec_env_validation():
    m = mul.exact_multiplier()
    with pytest.raises(ValueError):
        net.ExecEnv(engine="quantum")
    with pytest.raises(ValueError):
        net.ExecEnv(engine="systolic")
    with pytest.raises(ValueError):
        net.ExecEnv(engine="systolic", multiplier=m)
    # tile 0 with a tile fault used to divide by zero in the block count
    for tile in (0, -3, 2.0, True):
        with pytest.raises(ValueError, match="tile must be"):
            net.ExecEnv(engine="gpu_tiles", multiplier=m, tile=tile)
    # a layer filter True or 1.0 was scored as layer 1, and "1" failed only
    # in evaluate, as "layer_filter 1 is no dense or conv2d layer"
    for env in (net.ExecEnv("systolic", m, fl.SystolicConfig(n=4)), net.ExecEnv("gpu_tiles", m)):
        for bad in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=f"^layer_filter must be an integer, got {bad!r}$"):
                replace(env, layer_filter=bad)
        assert type(replace(env, layer_filter=np.uint8(1)).layer_filter) is int
    # gpu_tiles alone reads a tile, and fills in 16
    assert net.ExecEnv(engine="gpu_tiles", multiplier=m).tile == 16
    assert net.ExecEnv().tile is None

    # a field its engine does not read used to evaluate as if clean: a
    # gpu_tiles env with a full fault map scored the clean accuracy
    cfg = fl.SystolicConfig(n=4)
    fm = fl.random_fault_map(4, 100.0, fl.StuckAtFault(15, "sa1"), seed=1)
    tf = fl.TileFaultSpec(0, 0.5, fl.StuckAtFault(15, "sa1"), 1)
    wm = mul.build_weight_map(mul.truncated_multiplier(3), mul.uniform_activations())
    bases = {"float": net.ExecEnv(), "systolic": net.ExecEnv("systolic", m, cfg),
             "gpu_tiles": net.ExecEnv("gpu_tiles", m)}
    for engine, field, value in (
            ("float", "multiplier", m), ("float", "systolic", cfg), ("float", "fault_map", fm),
            ("float", "tile", 16), ("float", "tile_fault", tf), ("float", "layer_filter", 0),
            ("float", "weight_map", wm),
            ("systolic", "tile", 16), ("systolic", "tile_fault", tf),
            ("gpu_tiles", "systolic", cfg), ("gpu_tiles", "fault_map", fm)):
        with pytest.raises(ValueError, match=f"^the {engine} engine does not read {field}$"):
            replace(bases[engine], **{field: value})


def test_capture_histogram_counts():
    model, ws, test = _tiny_problem()
    m = mul.exact_multiplier()
    acts = capture_activations(model, ws, test, net.ExecEnv(
        engine="systolic", multiplier=m, systolic=fl.SystolicConfig(n=8)),
        sample_limit=50)
    # dense layers see in_features codes per sample: 8 + 16 per forward
    assert acts.counts.sum() == 50 * (8 + 16)

    # a conv layer histograms its lowered operand: kh*kw*cin codes for each
    # of its hout*wout output positions
    conv = net.ModelSpec("c", (9, 9, 2), [
        net.conv2d(3, 3, 2, 4, stride=2, pad=1, activation="relu"),
        net.conv2d(2, 2, 4, 3, activation="relu"),
        net.flatten(),
        net.dense(48, 3),
    ])
    assert conv.shapes()[:2] == [(5, 5, 4), (4, 4, 3)]
    cws = training.init_weights(conv, seed=1)
    images = np.random.default_rng(0).uniform(size=(6, 9, 9, 2))
    data = (images, np.zeros(6, dtype=np.int64))
    env = net.ExecEnv(engine="gpu_tiles", multiplier=m)
    acts = capture_activations(conv, cws, data, env)
    assert acts.counts.sum() == 6 * (3 * 3 * 2 * 5 * 5 + 2 * 2 * 4 * 4 * 4 + 48)

    # the observe hook hands each GEMM's int8 operand over as "cols"
    records = {}
    net.evaluate(conv, cws, data, env, observe=records.__setitem__)
    r0, r1 = records[0], records[1]
    assert np.array_equal(r0["q"].data, quantize(r0["X"]).data)
    assert np.array_equal(r0["cols"], net.im2col(r0["q"].data, 3, 3, stride=2, pad=1))
    assert r1["cols"].dtype == np.int8 and r1["cols"].shape == (2 * 2 * 4, 4 * 4 * 6)
    assert records[2]["cols"] is None and records[2]["acc"] is None
    assert np.array_equal(records[3]["cols"], records[3]["q"].data)
    assert records[3]["acc"].shape == (3, 6)


def _golden_setup():
    model, ws, test = _tiny_problem()
    m = mul.truncated_multiplier(9)
    return model, ws, test, net.ExecEnv(engine="gpu_tiles", multiplier=m)


def test_golden_pass_needs_a_fault_free_quantized_env():
    model, ws, test, clean = _golden_setup()
    m = clean.multiplier
    fm = fl.random_fault_map(4, 50.0, fl.StuckAtFault(15, "sa1"), seed=1)
    tf = fl.TileFaultSpec(tile_index=0, damaged_fraction=0.5,
                          fault=fl.StuckAtFault(15, "sa1"), seed=1)
    for env in (net.ExecEnv(),
                net.ExecEnv(engine="systolic", multiplier=m,
                            systolic=fl.SystolicConfig(n=4), fault_map=fm),
                net.ExecEnv(engine="gpu_tiles", multiplier=m, tile_fault=tf)):
        with pytest.raises(ValueError, match="without faults"):
            net.golden_pass(model, ws, test, env, [0])


@pytest.mark.parametrize("layers", [[1], [-1], [99]])
def test_golden_pass_layers_must_be_gemm_layers(layers):
    # a maxpool (layer 1) or layer -1 used to be charged state bytes and
    # kept nothing useful, and layer 99 raised IndexError
    model = net.ModelSpec("c", (6, 6, 1), [net.conv2d(3, 3, 1, 2, activation="relu"),
                                           net.maxpool(2), net.flatten(), net.dense(8, 3)])
    ws = training.init_weights(model, seed=0)
    data = (np.random.default_rng(0).random((5, 6, 6, 1)), np.zeros(5, dtype=int))
    env = net.ExecEnv(engine="gpu_tiles", multiplier=mul.exact_multiplier())
    with pytest.raises(ValueError, match=f"^layer {layers[0]} is no dense or conv2d layer"):
        net.golden_pass(model, ws, data, env, [0] + layers)


@pytest.fixture
def gemm_calls(monkeypatch):
    """(layer index, resumed from a kept accumulator) of every quantized
    GEMM step."""
    calls = []

    def spy(env, plan, model, idx, acodes, ascale, bias, clean=None, _real=net._gemm_layer):
        calls.append((idx, clean is not None))
        return _real(env, plan, model, idx, acodes, ascale, bias, clean)

    monkeypatch.setattr(net, "_gemm_layer", spy)
    return calls


def test_plan_of_other_eval_batches_is_not_resumed(gemm_calls):
    # golden states serve only the call they were kept for; another layer,
    # batch size, data object (a 65-sample slice, 64 + 1, and the whole
    # set; a dataset of the same length) or any sample limit, even one that
    # cuts nothing, runs from the input and gives the plain result
    model, ws, test, clean = _golden_setup()
    _, plan = net.golden_pass(model, ws, test, clean, [1], batch_size=64)
    tf = fl.TileFaultSpec(tile_index=1, damaged_fraction=0.5,
                          fault=fl.StuckAtFault(15, "sa1"), seed=1)
    cut = (test.images[:65], test.labels[:65])
    _, short = net.golden_pass(model, ws, cut, clean, [1], batch_size=64)
    other = synth_blobs(count=len(test.labels), seed=7)
    for p, layer, data, kwargs in ((plan, 0, test, dict(batch_size=64)),
                                   (plan, 1, test, dict(batch_size=100)),
                                   (plan, 1, test, dict(sample_limit=64 * 4, batch_size=64)),
                                   (plan, 1, test, dict(sample_limit=65, batch_size=64)),
                                   (short, 1, test, dict(batch_size=64)),
                                   (short, 1, cut, dict(sample_limit=65, batch_size=64)),
                                   (plan, 1, other, dict(batch_size=64))):
        env = replace(clean, tile_fault=tf, layer_filter=layer)
        want = net.evaluate(model, ws, data, env, **kwargs)
        gemm_calls.clear()
        assert net.evaluate(model, ws, data, env, _plan=p, **kwargs) == want
        assert not any(resumed for _, resumed in gemm_calls)
        assert gemm_calls[0] == (0, False)
    # the call it was kept for resumes
    gemm_calls.clear()
    env = replace(clean, tile_fault=tf, layer_filter=1)
    assert (net.evaluate(model, ws, test, env, batch_size=64, _plan=plan)
            == net.evaluate(model, ws, test, env, batch_size=64))
    assert gemm_calls[:4] == [(1, True)] * 4
    # and so does a plan kept for a slice, on that slice
    gemm_calls.clear()
    assert (net.evaluate(model, ws, cut, env, batch_size=64, _plan=short)
            == net.evaluate(model, ws, test, env, sample_limit=65, batch_size=64))
    assert gemm_calls[:2] == [(1, True)] * 2


def test_plan_of_other_operands_is_rejected():
    # states kept under one multiplier or weight map used to be resumed
    # under another, mixing its clean accumulators with this env's faults:
    # 26.0% here where the faulty run scores 100.0%
    model, ws, test = _tiny_problem()
    noisy = mul.from_table("noisy", np.random.default_rng(5).integers(
        -16129, 16130, mul.TABLE_SIZE).astype(np.int16))
    _, plan = net.golden_pass(model, ws, test, net.ExecEnv(engine="gpu_tiles",
                                                           multiplier=noisy), [0])
    fm = fl.random_fault_map(4, 25.0, fl.StuckAtFault(3, "sa1"), seed=1)
    env = net.ExecEnv(engine="systolic", multiplier=mul.exact_multiplier(),
                      systolic=fl.SystolicConfig(n=4), fault_map=fm, layer_filter=0)
    assert net.evaluate(model, ws, test, env) == 100.0
    with pytest.raises(ValueError, match="plan of multiplier 'noisy' cannot run"):
        net.evaluate(model, ws, test, env, _plan=plan)
    halved = mul.WeightMapTable(np.arange(-128, 128) // 2)
    with pytest.raises(ValueError, match="one weight map cannot run another"):
        net.evaluate(model, ws, test, replace(env, multiplier=noisy, weight_map=halved),
                     _plan=plan)
    other = ws.deep_copy()
    other[0]["W"][0, 0] += 1.0
    with pytest.raises(ValueError, match="one weight set cannot run another"):
        net.evaluate(model, other, test, replace(env, multiplier=noisy), _plan=plan)
    # equal operands in other objects resume
    twin = replace(env, multiplier=mul.from_table("twin", noisy.table.copy()))
    assert (net.evaluate(model, ws.deep_copy(), test, twin, _plan=plan)
            == net.evaluate(model, ws, test, twin))


def test_plan_of_other_biases_is_rejected():
    # the plan used to compare only W, so a resumed evaluate started from
    # activations computed with the old biases: 6.25% (the old weights'
    # figure) where the new weights score 10.94%
    model = net.desk_model("mp-tanh-desk")
    ws = training.init_weights(model, 3)
    data = synth_digits(64, seed=2)
    env = net.ExecEnv(engine="gpu_tiles", multiplier=mul.exact_multiplier())
    acc, plan = net.golden_pass(model, ws, data, env, [2])
    other = ws.deep_copy()
    other[0]["b"] += 0.7
    env = replace(env, layer_filter=2)
    assert net.evaluate(model, other, data, env) != acc
    with pytest.raises(ValueError, match="one weight set cannot run another"):
        net.evaluate(model, other, data, env, _plan=plan)


def test_fault_free_resume_equals_golden_accuracy(gemm_calls):
    model, ws, test, clean = _golden_setup()
    acc, plan = net.golden_pass(model, ws, test, clean, [0, 1], batch_size=64)
    assert acc == net.evaluate(model, ws, test, clean, batch_size=64)
    assert [len(plan.states[k]) for k in (0, 1)] == [4, 4]
    for env in (clean, net.ExecEnv(engine="systolic", multiplier=clean.multiplier,
                                   systolic=fl.SystolicConfig(n=4))):
        for layer in (0, 1):
            gemm_calls.clear()
            resumed = net.evaluate(model, ws, test, replace(env, layer_filter=layer),
                                   batch_size=64, _plan=plan)
            assert resumed == acc
            assert gemm_calls[0] == (layer, True)


def test_observe_on_a_resumed_evaluate_sees_the_full_pass_from_its_layer():
    # the golden pass keeps the codes entering the layer, not the floats,
    # so at the layer itself X is that QTensor
    model = net.ModelSpec("c", (6, 6, 1), [net.conv2d(3, 3, 1, 2, activation="relu"),
                                           net.maxpool(2), net.flatten(),
                                           net.dense(8, 3, "tanh")])
    ws = training.init_weights(model, seed=0)
    data = (np.random.default_rng(0).random((7, 6, 6, 1)), np.zeros(7, dtype=int))
    m = mul.truncated_multiplier(9)
    clean = net.ExecEnv(engine="systolic", multiplier=m, systolic=fl.SystolicConfig(n=2))
    _, plan = net.golden_pass(model, ws, data, clean, [0, 3], batch_size=3)
    fm = fl.random_fault_map(2, 50.0, fl.StuckAtFault(14, "sa1"), seed=1)
    for layer in (0, 3):
        env = replace(clean, fault_map=fm, layer_filter=layer)
        full, resumed = [], []
        net.evaluate(model, ws, data, env, batch_size=3,
                     observe=lambda idx, record: full.append((idx, record)))
        net.evaluate(model, ws, data, env, batch_size=3, _plan=plan,
                     observe=lambda idx, record: resumed.append((idx, record)))
        full = [(idx, record) for idx, record in full if idx >= layer]
        assert [idx for idx, _ in resumed] == [idx for idx, _ in full]
        for (idx, got), (_, want) in zip(resumed, full):
            assert got.keys() == want.keys()
            for key in got:
                a, b = got[key], want[key]
                if idx == layer and key == "X":
                    assert a is got["q"]
                elif isinstance(a, QTensor):
                    assert a.scale == b.scale and np.array_equal(a.data, b.data)
                else:
                    assert (a is None and b is None) or np.array_equal(a, b)


def test_evaluate_rejects_empty_data():
    model, ws, test = _tiny_problem()
    with pytest.raises(ValueError, match="at least one sample"):
        net.evaluate(model, ws, test.subset(0))
    with pytest.raises(ValueError, match="at least one sample"):
        net.evaluate(model, ws, test, sample_limit=0)


@pytest.mark.parametrize("sample_limit", [-5, -1, True, 2.5, "3"])
def test_evaluate_rejects_a_bad_sample_limit(sample_limit):
    # a negative limit used to slice from the end, scoring all samples but
    # the last five
    model, ws, test = _tiny_problem()
    with pytest.raises(ValueError, match="sample_limit must be"):
        net.evaluate(model, ws, test, sample_limit=sample_limit)


@pytest.mark.parametrize("batch_size", [2.5, True, "8"])
def test_evaluate_rejects_a_non_integer_batch_size(batch_size):
    # a float used to fail with a TypeError in the batch slicing
    model, ws, test = _tiny_problem()
    with pytest.raises(ValueError, match="batch_size must be an integer"):
        net.evaluate(model, ws, test, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_rejects_non_positive_batch_size(batch_size):
    # an empty batch loop used to score 0% in silence
    model, ws, test = _tiny_problem()
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        net.evaluate(model, ws, test, batch_size=batch_size)


_ENGINE_ENVS = {
    "float": lambda: net.ExecEnv(),
    "systolic": lambda: net.ExecEnv(engine="systolic", multiplier=mul.exact_multiplier(),
                                    systolic=fl.SystolicConfig(n=4)),
    "gpu_tiles": lambda: net.ExecEnv(engine="gpu_tiles", multiplier=mul.exact_multiplier()),
}


@pytest.mark.parametrize("engine", net.ENGINES)
def test_non_finite_weights_fail_on_every_engine(engine):
    model = net.ModelSpec("t", (8,), [net.dense(8, 16, "relu"), net.dense(16, 3)])
    ws = training.init_weights(model, seed=0)
    data = synth_blobs(count=20, seed=1)
    env = _ENGINE_ENVS[engine]()
    ws[1]["W"][0, 0] = np.nan
    with pytest.raises(ValueError, match="layer 1: non-finite"):
        net.evaluate(model, ws, data, env)
    ws[1]["W"][0, 0] = 0.0
    ws[1]["b"][0] = np.inf
    with pytest.raises(ValueError, match="layer 1: non-finite"):
        net.forward(model, ws, data.images[0], env)
    # the quantizer, which the quantized engines call, refuses them too
    with pytest.raises(ValueError, match="non-finite"):
        quantize(ws[1]["b"])


def test_evaluate_sample_limit():
    model, ws, test = _tiny_problem()
    a = net.evaluate(model, ws, test, sample_limit=10)
    r = net.forward(model, ws, test.images[:10])
    want = 100.0 * np.mean(r["class"] == test.labels[:10])
    assert a == want
