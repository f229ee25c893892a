"""Properties of whole quantized forward passes over random small models.

A campaign cell whose faults lie in one layer resumes the forward pass
there from the clean pass's kept state, and adds only its faults to the
kept accumulator. That must give the logits and the accuracy of running
the faulty pass from the input, bit for bit, on every engine, multiplier,
fault state and weight map.

Each evaluate builds the weight side of its GEMM layers (weight codes and
per-weight tables) once for all its eval batches, and the resumed runs
read the golden pass's. Neither may change a logit, and a golden plan
handed to an evaluate of other eval batches is not resumed from.

Two relations of whole passes need no reference. Bypassing the faulty MACs
is pruning the weights stationed on them, which ties the repair's masks in
the stored weight layout to the engine's stationing through the conv
lowering. And where every fault of a layer sits at one bit, the layer's
accumulator under sa1 minus that under sa0 counts, per output row, the
weights on faulty MACs, which checks the stuck bit, the stationing and
every fault route at once.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from axfault import faults as fl
from axfault import mitigation
from axfault import multipliers as mul
from axfault import network as net
from axfault import training

_RANDOM_LUT = mul.from_table(
    "lut-random",
    np.random.default_rng(23).integers(-32768, 32768, size=mul.TABLE_SIZE).astype(np.int16))
# truncated-3 reads its tables below 8 rows and runs matmuls from 8 rows on
MULTIPLIERS = st.sampled_from([mul.exact_multiplier(), mul.broken_carry_multiplier(2),
                               mul.truncated_multiplier(1), mul.truncated_multiplier(3),
                               _RANDOM_LUT])
ACTIVATIONS = st.sampled_from(net.ACTIVATIONS)
# the batch width from which a LUT's faults read change tables
# (faults._CHANGE_TABLE_BATCH): every GEMM, the conv GEMMs of several
# samples, or none of the widths these models reach
CHANGE_TABLE_BATCHES = st.sampled_from([1, 32, fl._CHANGE_TABLE_BATCH])


@contextlib.contextmanager
def change_table_batch(width):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fl, "_CHANGE_TABLE_BATCH", width)
        yield


@contextlib.contextmanager
def gemm_calls():
    """(layer index, resumed from a kept accumulator) of every quantized
    GEMM step run inside the block."""
    calls = []

    def spy(env, plan, model, idx, acodes, ascale, bias, clean=None, _real=net._gemm_layer):
        calls.append((idx, clean is not None))
        return _real(env, plan, model, idx, acodes, ascale, bias, clean)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net, "_gemm_layer", spy)
        yield calls


@st.composite
def models(draw):
    """Dense, conv2d (stride 1-2, pad 0-1), maxpool and flatten layers with
    1-3 GEMM layers, the last one dense."""
    convs = draw(st.integers(0, 2))
    denses = draw(st.integers(1, 3 - convs))
    layers = []
    if convs:
        shape = [draw(st.integers(3, 7)), draw(st.integers(3, 7)), draw(st.integers(1, 2))]
        input_shape = tuple(shape)
        for _ in range(convs):
            pad = draw(st.integers(0, 1))
            k = draw(st.integers(1, min(3, shape[0] + 2 * pad, shape[1] + 2 * pad)))
            stride = draw(st.integers(1, 2))
            cout = draw(st.integers(1, 9))
            layers.append(net.conv2d(k, k, shape[2], cout, stride, pad, draw(ACTIVATIONS)))
            shape = [(d + 2 * pad - k) // stride + 1 for d in shape[:2]] + [cout]
            if min(shape[:2]) >= 2 and draw(st.booleans()):
                layers.append(net.maxpool(2))
                shape = [d // 2 for d in shape[:2]] + [cout]
        layers.append(net.flatten())
        features = int(np.prod(shape))
    else:
        features = draw(st.integers(1, 20))
        input_shape = (features,)
    for i in range(denses):
        out = draw(st.integers(2, 4)) if i == denses - 1 else draw(st.integers(1, 12))
        layers.append(net.dense(features, out, draw(ACTIVATIONS)))
        features = out
    return net.ModelSpec("random", input_shape, layers)


@st.composite
def fault_maps(draw, n):
    fill = draw(st.sampled_from(["empty", "random", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    cells = [(i, j) for i in range(n) for j in range(n)
             if fill == "full" or (fill == "random" and rng.random() < 0.4)]
    return fl.FaultMap(n, {c: fl.StuckAtFault(int(rng.integers(16)),
                                              fl.FAULT_KINDS[rng.integers(2)])
                           for c in cells})


@st.composite
def envs(draw):
    """A faulty env of either engine and the fault-free env of the golden
    pass, also of either engine; both share multiplier and weight map."""
    m = draw(MULTIPLIERS)
    wm = None
    if draw(st.booleans()):
        codes = np.random.default_rng(draw(st.integers(0, 2**16))).integers(-128, 128, 256)
        wm = mul.WeightMapTable(codes)
    n = draw(st.integers(1, 4))
    tile = draw(st.integers(1, 4))
    systolic = net.ExecEnv(engine="systolic", multiplier=m, weight_map=wm,
                           systolic=fl.SystolicConfig(n, draw(st.sampled_from(fl.GEMM_MODES))))
    gpu = net.ExecEnv(engine="gpu_tiles", multiplier=m, weight_map=wm, tile=tile)
    golden = draw(st.sampled_from([systolic, gpu]))
    if draw(st.booleans()):
        return replace(systolic, fault_map=draw(fault_maps(n))), golden
    tf = fl.TileFaultSpec(tile_index=draw(st.integers(0, 40)),
                          damaged_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
                          fault=fl.StuckAtFault(draw(st.integers(0, 15)),
                                                draw(st.sampled_from(fl.FAULT_KINDS))),
                          seed=draw(st.integers(0, 2**16)))
    return replace(gpu, tile_fault=tf), golden


def _data(model, seed, count):
    """``count`` random samples with random labels."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(count, *model.input_shape)),
            rng.integers(0, model.n_classes, count))


def _lut_example():
    """A conv net with a LUT multiplier and a weight map, over three eval
    batches, resumed from a golden pass of the other engine."""
    model = net.ModelSpec("lut-example", (5, 5, 2), [
        net.conv2d(3, 3, 2, 4, stride=2, pad=1, activation="relu"), net.flatten(),
        net.dense(36, 7, "tanh"), net.dense(7, 3)])
    codes = np.random.default_rng(3).integers(-128, 128, 256)
    wm = mul.WeightMapTable(codes)
    fault = fl.StuckAtFault(9, "sa0")
    faulty = net.ExecEnv(engine="systolic", multiplier=_RANDOM_LUT, weight_map=wm,
                         systolic=fl.SystolicConfig(3),
                         fault_map=fl.FaultMap(3, {(0, 1): fault, (2, 2): fault}))
    golden = net.ExecEnv(engine="gpu_tiles", multiplier=_RANDOM_LUT, weight_map=wm, tile=2)
    return dict(model=model, env_pair=(faulty, golden), seed=5, count=8, batch_size=3,
                change_batch=1)


@example(**_lut_example())
@settings(max_examples=60, deadline=None)
@given(models(), envs(), st.integers(0, 2**16), st.integers(1, 9), st.integers(1, 9),
       CHANGE_TABLE_BATCHES)
def test_resumed_pass_equals_the_full_pass(model, env_pair, seed, count, batch_size,
                                           change_batch):
    with change_table_batch(change_batch):
        _check_resumed_pass(model, env_pair, seed, count, batch_size)


def _check_resumed_pass(model, env_pair, seed, count, batch_size):
    env, golden_env = env_pair
    ws = training.init_weights(model, seed)
    data = _data(model, seed, count)
    gemm_layers = model.param_layers()
    acc, plan = net.golden_pass(model, ws, data, golden_env, gemm_layers,
                                batch_size=batch_size)
    assert acc == net.evaluate(model, ws, data, golden_env, batch_size=batch_size)
    batches = net._eval_batches(data, None, batch_size)
    # one plan for every batch gives the logits of one plan per batch
    last = len(model.layers) - 1
    logits = []

    def keep(idx, record):
        if idx == last:
            logits.append(record["Y"])

    net.evaluate(model, ws, data, env, batch_size=batch_size, observe=keep)
    for (images, _), out in zip(batches, logits, strict=True):
        own = net.run_layers(model, ws, net._to_internal(model, images)[0], env)
        np.testing.assert_array_equal(out, own)
    other_map = mul.WeightMapTable(np.arange(-128, 128) // 2)
    if env.weight_map is not None:
        other_map = None
    # the same samples and batches, asked for in other ways
    other_calls = [dict(data=(data[0].copy(), data[1]), batch_size=batch_size),
                   dict(data=data, sample_limit=count, batch_size=batch_size),
                   dict(data=data, batch_size=batch_size + 1)]
    for layer in gemm_layers:
        faulty = replace(env, layer_filter=layer)
        for (images, _), (q, clean) in zip(batches, plan.states[layer], strict=True):
            kept = clean.copy()
            full = net.run_layers(model, ws, net._to_internal(model, images)[0], faulty)
            resumed = net.run_layers(model, ws, q, faulty, _start=layer, _clean=clean)
            np.testing.assert_array_equal(resumed, full)
            np.testing.assert_array_equal(clean, kept)
        plain = net.evaluate(model, ws, data, faulty, batch_size=batch_size)
        with gemm_calls() as calls:
            assert net.evaluate(model, ws, data, faulty, batch_size=batch_size,
                                _plan=plan) == plain
        # resumed: no GEMM before the layer, whose GEMMs start from the kept
        # accumulators
        assert min(idx for idx, _ in calls) == layer
        assert [resumed for idx, resumed in calls if idx == layer] == [True] * len(batches)
        for call in other_calls:
            want = net.evaluate(model, ws, env=faulty, **call)
            with gemm_calls() as calls:
                assert net.evaluate(model, ws, env=faulty, _plan=plan, **call) == want
            assert calls[0] == (gemm_layers[0], False)
            assert not any(resumed for _, resumed in calls)
        # the golden plan serves no other weight map
        with pytest.raises(ValueError, match="weight map"):
            net.evaluate(model, ws, data, replace(faulty, weight_map=other_map),
                         batch_size=batch_size, _plan=plan)


# --- whole-network relations -------------------------------------------------

# a fault map on an array of 1-4 MACs a side
FAULT_MAPS = st.integers(1, 4).flatmap(fault_maps)


def _observed(model, ws, data, env, layer, key, plan=None):
    """``key`` of layer ``layer``'s ``observe`` records in an evaluate of
    ``data`` (one eval batch), resumed from ``plan`` if it is given."""
    seen = []

    def keep(idx, record):
        if idx == layer:
            seen.append(record[key])

    net.evaluate(model, ws, data, env, observe=keep, _plan=plan)
    return seen[0]


def _systolic(env, fm, mode, layer=None):
    """A systolic env with ``env``'s multiplier and weight map and the faults
    of ``fm``."""
    return net.ExecEnv(engine="systolic", multiplier=env.multiplier, weight_map=env.weight_map,
                       systolic=fl.SystolicConfig(fm.n, mode), fault_map=fm, layer_filter=layer)


@settings(deadline=None)
@given(models(), envs(), FAULT_MAPS, st.integers(0, 2**16), st.integers(1, 9))
def test_bypass_is_pruning(model, env_pair, fm, seed, count):
    # exact, truncated-k and broken-carry-k multiply a zero weight to 0, and
    # so does a weight map that keeps code 0: bypassing a faulty MAC then
    # drops what its pruned weights add. Each layer's largest |W| sits on a
    # fault-free MAC, so that pruning moves no weight scale
    golden = env_pair[1]
    assume(golden.multiplier.kind != "lut")
    if golden.weight_map is not None:
        codes = golden.weight_map.map.copy()
        codes[128] = 0
        golden = replace(golden, weight_map=mul.WeightMapTable(codes))
    ws = training.init_weights(model, seed)
    rng = np.random.default_rng(seed)
    masks = mitigation.prune_masks(model, fm)
    pruned = ws.deep_copy()
    for idx, mask in masks.items():
        W = ws[idx]["W"]
        free = np.flatnonzero(~mask)
        if free.size:
            W.flat[rng.choice(free)] = 2 * np.abs(W).max()
        pruned[idx]["W"] = np.where(mask, 0.0, W)
    data = _data(model, seed, count)
    last = len(model.layers) - 1
    np.testing.assert_array_equal(
        _observed(model, ws, data, _systolic(golden, fm, "bypass"), last, "Y"),
        _observed(model, pruned, data, golden, last, "Y"))


@settings(deadline=None)
@given(models(), envs(), FAULT_MAPS, st.integers(0, 15), st.data(), st.integers(0, 2**16),
       st.integers(1, 9))
def test_sa1_minus_sa0_is_a_count(model, env_pair, cells, bit, data, seed, count):
    # with every fault at one bit, sa1 and sa0 differ in that bit of each
    # product on a faulty MAC alone, by 2^bit (-2^15 at the sign bit),
    # whatever the multiplier, weight map and activations: row r of the
    # accumulator moves by that times the weights of row r on faulty MACs.
    # Only the layer holds faults, so its input is the same in both passes
    golden = env_pair[1]
    layer = data.draw(st.sampled_from(model.param_layers()))
    ws = training.init_weights(model, seed)
    samples = _data(model, seed, count)
    n = cells.n
    acc = {kind: _observed(model, ws, samples, _systolic(
        golden, fl.FaultMap(n, {c: fl.StuckAtFault(bit, kind) for c in cells.entries}),
        "propagate", layer), layer, "acc") for kind in fl.FAULT_KINDS}
    rows, depth = model.gemm_weight_shape(layer)
    # weight (r, c) of the GEMM sits on MAC (r mod n, c mod n)
    faulty = np.array([[sum((r % n, c % n) in cells.entries for c in range(depth))]
                       for r in range(rows)])
    step = -(1 << 15) if bit == 15 else 1 << bit
    moved = acc["sa1"].astype(np.int64) - acc["sa0"]
    np.testing.assert_array_equal(moved, np.broadcast_to(step * faulty, moved.shape))


@settings(deadline=None)
@given(models(), envs(), FAULT_MAPS, st.sampled_from(fl.GEMM_MODES), st.data(),
       st.integers(0, 2**16), st.integers(1, 9), CHANGE_TABLE_BATCHES)
def test_faults_add_up(model, env_pair, cells, mode, data, seed, count, change_batch):
    # each product is formed on one MAC and the int32 sum is exact, so the
    # change that disjoint maps F1 and F2 make together to a layer's
    # accumulator is the sum of the changes each makes alone, whatever the
    # multiplier, mode and route. Only the layer holds faults, so its input
    # is the same in every pass. Resumed from the golden pass, a LUT's
    # faults read change tables or form their products; run from the input
    # they are folded into its tables
    golden = env_pair[1]
    layer = data.draw(st.sampled_from(model.param_layers()))
    ws = training.init_weights(model, seed)
    samples = _data(model, seed, count)
    plan = None
    if data.draw(st.booleans()):
        plan = net.golden_pass(model, ws, samples, golden, [layer])[1]
    first = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    n = cells.n
    maps = [{}, {}, cells.entries]
    for (c, f), one in zip(cells.entries.items(), first):
        maps[0 if one else 1][c] = f
    with change_table_batch(change_batch):
        acc = [_observed(model, ws, samples, _systolic(golden, fl.FaultMap(n, m), mode, layer),
                         layer, "acc", plan).astype(np.int64) for m in [{}] + maps]
    clean = acc[0]
    np.testing.assert_array_equal(acc[3] - clean, (acc[1] - clean) + (acc[2] - clean))
