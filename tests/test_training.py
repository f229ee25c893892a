"""SGD training, gradient checks, masked retraining."""

import math

import numpy as np
import pytest

from axfault import network as net
from axfault import training
from axfault.datasets import synth_blobs


def _mlp(act="relu"):
    return net.ModelSpec("t", (8,), [net.dense(8, 16, act), net.dense(16, 3)])


def test_init_weights_shapes_and_scale():
    m = net.desk_model("lenet-desk")
    ws = training.init_weights(m, seed=0)
    assert ws[0]["W"].shape == (5, 5, 1, 8)
    assert ws[0]["b"].shape == (8,)
    assert ws[5]["W"].shape == (64, 256)
    # Glorot bound for the first dense layer
    lim = np.sqrt(6.0 / (256 + 64))
    assert np.abs(ws[5]["W"]).max() <= lim
    assert not ws[5]["b"].any()


@pytest.mark.parametrize("seed", [0, 9])
def test_init_weights_match_glorot_reference(seed):
    # Glorot-uniform from the layer parameters, written out per layer kind:
    # a conv's fans count its kh x kw window, and the draws come from one
    # default_rng in layer order, W only (biases are zeros)
    m = net.desk_model("lenet-desk")
    rng = np.random.default_rng(seed)
    want = {}
    for idx, layer in enumerate(m.layers):
        p = layer.params
        if layer.kind == "conv2d":
            fan_in = p["kh"] * p["kw"] * p["cin"]
            fan_out = p["kh"] * p["kw"] * p["cout"]
            shape, units = (p["kh"], p["kw"], p["cin"], p["cout"]), p["cout"]
        elif layer.kind == "dense":
            fan_in, fan_out = p["in"], p["out"]
            shape, units = (p["out"], p["in"]), p["out"]
        else:
            continue
        a = np.sqrt(6.0 / (fan_in + fan_out))
        want[idx] = (rng.uniform(-a, a, size=shape), np.zeros(units))
    ws = training.init_weights(m, seed)
    assert sorted(ws) == sorted(want) == [0, 2, 5, 6]
    for idx, (w, b) in want.items():
        assert np.array_equal(ws[idx]["W"], w)
        assert np.array_equal(ws[idx]["b"], b)
    # both sides of the bound are reached, for conv and dense alike
    for idx, lim in ((0, np.sqrt(6.0 / (25 + 200))), (5, np.sqrt(6.0 / (256 + 64)))):
        assert -lim <= ws[idx]["W"].min() < -0.9 * lim
        assert 0.9 * lim < ws[idx]["W"].max() <= lim


def test_init_weights_deterministic():
    m = _mlp()
    a = training.init_weights(m, seed=4)
    b = training.init_weights(m, seed=4)
    c = training.init_weights(m, seed=5)
    assert np.array_equal(a[0]["W"], b[0]["W"])
    assert not np.array_equal(a[0]["W"], c[0]["W"])


@pytest.mark.parametrize("act", ["relu", "tanh", "softmax"])
def test_grad_check_dense(act):
    m = _mlp(act)
    ws = training.init_weights(m, seed=1)
    data = synth_blobs(count=10, seed=3)
    err = training.grad_check(m, ws, (data.images[0], int(data.labels[0])),
                              n_checks=80)
    assert err <= 1e-6


def test_grad_check_conv():
    m = net.ModelSpec("c", (8, 8, 1), [
        net.conv2d(3, 3, 1, 4, activation="relu"),
        net.maxpool(2),
        net.flatten(),
        net.dense(36, 3),
    ])
    ws = training.init_weights(m, seed=2)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(8, 8, 1))
    err = training.grad_check(m, ws, (x, 1), n_checks=80)
    assert err <= 1e-6

    # stride 2 and padding 1: the backward pass takes its output grid from
    # the same geometry as the forward pass
    m = net.ModelSpec("s", (9, 9, 2), [
        net.conv2d(3, 3, 2, 4, stride=2, pad=1, activation="tanh"),
        net.maxpool(2, stride=1),
        net.flatten(),
        net.dense(64, 3),
    ])
    assert m.shapes()[:2] == [(5, 5, 4), (4, 4, 4)]
    ws = training.init_weights(m, seed=3)
    x = rng.uniform(size=(9, 9, 2))
    err = training.grad_check(m, ws, (x, 2), n_checks=80)
    assert err <= 1e-6

    # a padded conv after the first parameter layer: its input gradient is
    # folded back by col2im and cropped of the padding, and every one of
    # the first conv's parameters reads it
    m = net.ModelSpec("p", (8, 8, 1), [
        net.conv2d(3, 3, 1, 3, activation="tanh"),
        net.conv2d(3, 3, 3, 4, stride=2, pad=1, activation="tanh"),
        net.flatten(),
        net.dense(36, 3),
    ])
    assert m.shapes()[:2] == [(6, 6, 3), (3, 3, 4)]
    ws = training.init_weights(m, seed=4)
    x = rng.uniform(size=(8, 8, 1))
    err = training.grad_check(m, ws, (x, 0), n_checks=300)
    assert err <= 1e-6


def test_blobs_trains_to_high_accuracy():
    # two gaussian blobs, one dense layer: should be almost perfectly
    # separable within a few epochs
    train = synth_blobs(n_classes=2, count=400, seed=1)
    test = synth_blobs(n_classes=2, count=200, seed=2)
    m = net.ModelSpec("lin", (8,), [net.dense(8, 2)])
    ws = training.train(m, train, training.HyperParams(lr=0.1, epochs=10, seed=0))
    assert net.evaluate(m, ws, test) >= 99.0


def test_training_is_deterministic():
    data = synth_blobs(count=300, seed=4)
    hp = training.HyperParams(lr=0.1, epochs=5, seed=7)
    a = training.train(_mlp(), data, hp)
    b = training.train(_mlp(), data, hp)
    for idx in a:
        assert np.array_equal(a[idx]["W"], b[idx]["W"])
        assert np.array_equal(a[idx]["b"], b[idx]["b"])
    c = training.train(_mlp(), data,
                       training.HyperParams(lr=0.1, epochs=5, seed=8))
    assert not np.array_equal(a[0]["W"], c[0]["W"])


@pytest.mark.parametrize("batch_size", [0, -4])
def test_hyperparams_reject_non_positive_batch_size(batch_size):
    # train used to run no step and return the initial weights
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        training.HyperParams(batch_size=batch_size)


_BAD_HYPERPARAMS = [
    ({"epochs": "3"}, "epochs must be an integer"),
    ({"epochs": 2.0}, "epochs must be an integer"),
    ({"epochs": True}, "epochs must be an integer"),
    ({"epochs": -1}, "epochs must be at least 0"),
    ({"batch_size": None}, "batch_size must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"seed": -1}, "seed must be at least 0"),
    ({"lr": None}, "lr must be a finite number"),
    ({"lr": "0.1"}, "lr must be a finite number"),
    ({"lr": float("nan")}, "lr must be a finite number"),
    ({"momentum": float("inf")}, "momentum must be a finite number"),
    ({"momentum": True}, "momentum must be a finite number"),
    ({"batch_size": 2.5}, "batch_size must be an integer"),
    ({"momentum": "0.9"}, "momentum must be a finite number"),
]


@pytest.mark.parametrize("bad, match", _BAD_HYPERPARAMS,
                         ids=[f"{k}={v!r}" for b, _ in _BAD_HYPERPARAMS
                              for k, v in b.items()])
def test_hyperparams_reject_wrong_types_and_ranges(bad, match):
    # campaign specs pass these straight from JSON; train used to fail
    # with a TypeError ("3" + 1) on every mitigated cell
    with pytest.raises(ValueError, match=match):
        training.HyperParams(**bad)


def test_hyperparams_accept_numpy_scalars_and_zero_epochs():
    hp = training.HyperParams(lr=np.float64(0.1), epochs=np.int64(0),
                              seed=np.int32(7), momentum=0)
    assert hp.epochs == 0


def test_loss_decreases():
    data = synth_blobs(count=300, seed=4)
    hist = []
    training.train(_mlp(), data,
                   training.HyperParams(lr=0.05, epochs=8, seed=1),
                   history=hist)
    assert len(hist) == 8
    assert hist[-1]["loss"] < hist[0]["loss"]


def test_early_stop(tmp_path):
    data = synth_blobs(count=300, seed=4)
    hist = []
    training.train(_mlp(), data,
                   training.HyperParams(lr=0.1, epochs=50, seed=1),
                   eval_data=data, stop_acc=95.0, history=hist,
                   log_path=tmp_path / "log.csv")
    assert len(hist) < 50
    assert hist[-1]["eval_acc"] >= 95.0
    lines = (tmp_path / "log.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,eval_acc"
    assert len(lines) == len(hist) + 1


def test_stop_acc_needs_eval_data():
    # the threshold used to be ignored: both epochs ran
    hist = []
    with pytest.raises(ValueError, match="stop_acc needs eval_data"):
        training.train(_mlp(), synth_blobs(count=50, seed=4),
                       training.HyperParams(epochs=2, seed=1), stop_acc=0.0, history=hist)
    assert hist == []


@pytest.mark.parametrize("stop_acc", ["50", True, math.nan, -math.inf],
                         ids=["str", "bool", "nan", "minus-inf"])
def test_stop_acc_must_be_a_number(stop_acc):
    # "50" used to train a whole epoch and then raise TypeError, True
    # stopped at 1% and NaN never stopped
    data = synth_blobs(count=40, seed=4)
    hist = []
    with pytest.raises(ValueError, match="^stop_acc must be a finite number"):
        training.train(_mlp(), data, training.HyperParams(epochs=2, seed=1),
                       eval_data=data, stop_acc=stop_acc, history=hist)
    assert hist == []


@pytest.mark.parametrize("stop_acc, epochs", [(None, 3), (math.inf, 3), (0.0, 1), (0, 1)],
                         ids=["none", "inf", "zero", "int-zero"])
def test_stop_acc_none_and_inf_run_every_epoch(stop_acc, epochs):
    # math.inf is the threshold never reached, as run_mitigation passes it
    data = synth_blobs(count=40, seed=4)
    hist = []
    training.train(_mlp(), data, training.HyperParams(epochs=3, seed=1),
                   eval_data=data, stop_acc=stop_acc, history=hist)
    assert len(hist) == epochs


def test_mask_pins_weights_to_zero():
    data = synth_blobs(count=300, seed=4)
    m = _mlp()
    ws = training.train(m, data, training.HyperParams(lr=0.1, epochs=3, seed=1))
    mask = {0: np.zeros((16, 8), dtype=bool)}
    mask[0][::2, ::3] = True
    out = training.train(m, data, training.HyperParams(lr=0.1, epochs=3, seed=1),
                         start_weights=ws, mask=mask)
    assert not out[0]["W"][mask[0]].any()
    assert out[1]["W"].any()
    # unmasked entries still moved
    assert not np.array_equal(out[0]["W"][~mask[0]], ws[0]["W"][~mask[0]])


def test_retrain_empty_mask_is_plain_resume():
    data = synth_blobs(count=200, seed=4)
    m = _mlp()
    ws = training.train(m, data, training.HyperParams(lr=0.1, epochs=2, seed=1))
    a = training.train(m, data, training.HyperParams(lr=0.1, epochs=2, seed=3),
                       start_weights=ws, mask={})
    b = training.train(m, data, training.HyperParams(lr=0.1, epochs=2, seed=3),
                       start_weights=ws)
    for idx in a:
        assert np.array_equal(a[idx]["W"], b[idx]["W"])


def test_start_weights_not_mutated():
    data = synth_blobs(count=200, seed=4)
    m = _mlp()
    ws = training.init_weights(m, seed=1)
    snap = ws.deep_copy()
    training.train(m, data, training.HyperParams(lr=0.1, epochs=2, seed=1),
                   start_weights=ws)
    for idx in ws:
        assert np.array_equal(ws[idx]["W"], snap[idx]["W"])


def test_empty_training_set_rejected():
    m = _mlp()
    data = synth_blobs(count=30, seed=1)
    empty = data.subset(0)
    with pytest.raises(ValueError):
        training.train(m, empty, training.HyperParams(epochs=1))
