"""Prune / masked-retrain / retune pipeline."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from axfault import faults as fl
from axfault import mitigation as mit
from axfault import multipliers as mul
from axfault import network as net
from axfault import training
from axfault.datasets import Dataset
from axfault.quantize import quantize


def _hp(epochs, seed=5, lr=0.1):
    return training.HyperParams(lr=lr, momentum=0.9, batch_size=64,
                                epochs=epochs, seed=seed)


def test_identity_run_reproduces_baseline(blobs_setup):
    # no faults, exact multiplier, no retraining: the pipeline must be a
    # no-op and acc_after must equal the baseline exactly
    s = blobs_setup
    fm = fl.FaultMap(8)
    cfg = fl.SystolicConfig(n=8)
    retuned, rep = mit.run_mitigation(
        s["model"], s["weights"], fm, cfg, mul.exact_multiplier(),
        s["train"], s["test"], _hp(0), acc_thresh=0.0)
    assert rep.acc_after == rep.baseline_acc
    assert rep.faulty_acc_before == rep.baseline_acc
    assert rep.epochs_used == 0
    assert all(v == 0 for v in rep.pruned_per_layer.values())


def test_identity_run_preserves_codes(blobs_setup):
    s = blobs_setup
    fm = fl.FaultMap(8)
    retuned, _ = mit.run_mitigation(
        s["model"], s["weights"], fm, fl.SystolicConfig(n=8),
        mul.exact_multiplier(), s["train"], s["test"], _hp(0), acc_thresh=0.0)
    for idx in s["weights"]:
        q0 = quantize(s["weights"][idx]["W"])
        q1 = quantize(retuned[idx]["W"])
        assert np.array_equal(q0.data, q1.data)
        assert q1.scale == pytest.approx(q0.scale, rel=1e-12)


def test_full_fault_map_leaves_bias_only_model(blobs_setup):
    s = blobs_setup
    f = fl.StuckAtFault(15, "sa1")
    fm = fl.FaultMap(4, {(i, j): f for i in range(4) for j in range(4)})
    cfg = fl.SystolicConfig(n=4)
    m = mul.exact_multiplier()
    retuned, rep = mit.run_mitigation(
        s["model"], s["weights"], fm, cfg, m,
        s["train"], s["test"], _hp(0), acc_thresh=0.0)
    for idx in retuned:
        assert not retuned[idx]["W"].any()
    bias_only = s["weights"].deep_copy()
    for idx in bias_only:
        bias_only[idx]["W"][:] = 0.0
    want = net.evaluate(s["model"], bias_only, s["test"], net.ExecEnv(
        engine="systolic", multiplier=m,
        systolic=fl.SystolicConfig(n=4, mode="bypass"), fault_map=fm))
    assert rep.acc_after == want


def test_prune_masks_match_geometry(blobs_setup):
    fm = fl.random_fault_map(4, 30.0, fl.StuckAtFault(8, "sa0"), seed=2)
    model = blobs_setup["model"]
    masks = mit.prune_masks(model, fm)
    assert set(masks) == {0, 1}
    for idx in masks:
        shape = model.gemm_weight_shape(idx)
        rows, cols = shape
        want = sum(len(range(i, rows, fm.n)) * len(range(j, cols, fm.n))
                   for i, j in fm.entries)
        assert masks[idx].sum() == want
        # dense masks are (out, in), same as the stored weights
        assert masks[idx].shape == shape


def test_prune_masks_conv_orientation():
    model = net.ModelSpec("c", (8, 8, 1), [
        net.conv2d(3, 3, 1, 4, activation="relu"),
        net.flatten(),
        net.dense(144, 3),
    ])
    fm = fl.FaultMap(2, {(0, 1): fl.StuckAtFault(3, "sa1")})
    masks = mit.prune_masks(model, fm)
    assert masks[0].shape == (3, 3, 1, 4)
    # stored layout (kh, kw, cin, cout) must agree with the GEMM layout
    # (cout, kh*kw*cin) cell for cell
    flat = fl.pruned_mask((4, 9), fm)
    assert np.array_equal(masks[0].transpose(3, 0, 1, 2).reshape(4, 9), flat)
    ws = training.init_weights(model, seed=1)
    # zero epochs: train only copies the start weights and pins the mask
    data = Dataset("zeros", np.zeros((1, 8, 8, 1)), np.zeros(1, dtype=np.int64))
    pruned = training.train(model, data, _hp(0), start_weights=ws, mask=masks)
    assert not pruned[0]["W"][masks[0]].any()
    assert np.array_equal(pruned[0]["W"][~masks[0]], ws[0]["W"][~masks[0]])
    assert pruned[0]["W"][~masks[0]].all()


@pytest.mark.parametrize("epochs", [0, 2])
def test_run_mitigation_zeroes_pruned_positions(blobs_setup, epochs):
    s = blobs_setup
    fm = fl.random_fault_map(4, 25.0, fl.StuckAtFault(15, "sa1"), seed=3)
    cfg = fl.SystolicConfig(n=4)
    m = mul.truncated_multiplier(3)
    retuned, rep = mit.run_mitigation(
        s["model"], s["weights"], fm, cfg, m, s["train"], s["test"],
        _hp(epochs), acc_thresh=100.0)
    masks = mit.prune_masks(s["model"], fm)
    assert rep.pruned_per_layer == {i: int(mk.sum()) for i, mk in masks.items()}
    for idx, mk in masks.items():
        assert mk.any()
        assert not retuned[idx]["W"][mk].any()
    if epochs == 0:
        # no training: the repair is the retuned, pruned input
        masked = s["weights"].deep_copy()
        for idx, mk in masks.items():
            masked[idx]["W"][mk] = 0.0
        table = mul.build_weight_map(m, mul.uniform_activations())
        want = mit.retune_weights(s["model"], masked, table, masks)
        for idx in want:
            for key in ("W", "b"):
                assert np.array_equal(retuned[idx][key], want[idx][key])
        assert rep.epochs_used == 0
    else:
        # blobs can reach 100% after one epoch and stop training there
        assert 1 <= rep.epochs_used <= epochs


def test_retune_exact_multiplier_is_identity(blobs_setup):
    s = blobs_setup
    table = mul.build_weight_map(mul.exact_multiplier(),
                                 mul.uniform_activations())
    out = mit.retune_weights(s["model"], s["weights"], table)
    for idx in out:
        assert np.array_equal(quantize(out[idx]["W"]).data,
                              quantize(s["weights"][idx]["W"]).data)


def test_retune_applies_code_substitution():
    model = net.ModelSpec("m", (2,), [net.dense(2, 2)])
    ws = training.init_weights(model, seed=0)
    ws[0]["W"] = np.array([[127.0, -127.0], [64.0, 0.0]])
    ws[0]["b"] = np.zeros(2)
    # handcrafted table: swap the extremes, move 64 to 63, move 0 to 5
    codes = np.arange(-128, 128, dtype=np.int16)
    codes[127 + 128] = -127
    codes[-127 + 128] = 127
    codes[64 + 128] = 63
    codes[0 + 128] = 5
    table = mul.WeightMapTable(codes)
    out = mit.retune_weights(model, ws, table)
    got = quantize(out[0]["W"]).data
    assert list(got.reshape(-1)) == [-127, 127, 63, 5]


def test_retune_rezeroes_masked_positions():
    model = net.ModelSpec("m", (2,), [net.dense(2, 2)])
    ws = training.init_weights(model, seed=0)
    ws[0]["W"] = np.array([[127.0, 0.0], [0.0, -64.0]])
    codes = np.arange(-128, 128, dtype=np.int16)
    codes[128] = 5  # table moves code 0 off zero
    table = mul.WeightMapTable(codes)
    mask = {0: np.array([[False, True], [False, False]])}
    out = mit.retune_weights(model, ws, table, mask)
    assert out[0]["W"][0, 1] == 0.0
    # unmasked zero code still moves
    assert out[0]["W"][1, 0] != 0.0


def test_acc_after_depends_on_coords_not_bits(blobs_setup):
    # bypass evaluation zeroes faulty products, so two maps with the same
    # coordinates but different stuck bits repair to identical accuracy
    s = blobs_setup
    coords = [(0, 1), (2, 2), (3, 0)]
    m = mul.truncated_multiplier(3)
    accs = []
    for fault in (fl.StuckAtFault(15, "sa1"), fl.StuckAtFault(2, "sa0")):
        fm = fl.FaultMap(4, {c: fault for c in coords})
        _, rep = mit.run_mitigation(
            s["model"], s["weights"], fm, fl.SystolicConfig(n=4), m,
            s["train"], s["test"], _hp(0), acc_thresh=0.0)
        accs.append(rep.acc_after)
    assert accs[0] == accs[1]


def test_mitigation_recovers_accuracy(blobs_setup):
    s = blobs_setup
    m = mul.truncated_multiplier(3)
    before, after = [], []
    for seed in range(1, 6):
        fm = fl.random_fault_map(8, 16.0, fl.StuckAtFault(15, "sa1"), seed=seed)
        _, rep = mit.run_mitigation(
            s["model"], s["weights"], fm, fl.SystolicConfig(n=8), m,
            s["train"], s["test"], _hp(6, seed=seed), acc_thresh=99.0)
        before.append(rep.faulty_acc_before)
        after.append(rep.acc_after)
        assert rep.epochs_used <= 6
    assert np.mean(after) >= np.mean(before)
    assert np.mean(after) >= 90.0


def test_empirical_activation_path(blobs_setup):
    s = blobs_setup
    fm = fl.random_fault_map(8, 10.0, fl.StuckAtFault(12, "sa0"), seed=1)
    _, rep = mit.run_mitigation(
        s["model"], s["weights"], fm, fl.SystolicConfig(n=8),
        mul.truncated_multiplier(4), s["train"], s["test"], _hp(2),
        acc_thresh=0.0, activations="empirical", capture_limit=100)
    assert 0.0 <= rep.acc_after <= 100.0


def test_capture_activations_histogram(blobs_setup):
    s = blobs_setup
    env = net.ExecEnv(engine="systolic", multiplier=mul.exact_multiplier(),
                      systolic=fl.SystolicConfig(n=8, mode="bypass"))
    acts = mit.capture_activations(s["model"], s["weights"], s["test"].subset(40), env)
    assert acts.counts.sum() == 40 * (8 + 16)


@pytest.mark.parametrize("activations", mit.ACTIVATION_SOURCES)
@pytest.mark.parametrize("capture_limit", [-5, 0, True, 2.5, "3"])
def test_a_bad_capture_limit_is_refused_before_any_work(blobs_setup, monkeypatch,
                                                         activations, capture_limit):
    # -5 and 0 were refused only after the whole retrain, as a sample_limit,
    # and with uniform activations every value passed unread
    s = blobs_setup
    calls = []
    monkeypatch.setattr(training, "train", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match="^capture_limit must be"):
        mit.run_mitigation(s["model"], s["weights"], fl.FaultMap(4), fl.SystolicConfig(n=4),
                           mul.exact_multiplier(), s["train"], s["test"], _hp(2),
                           activations=activations, capture_limit=capture_limit)
    assert calls == []


@pytest.mark.parametrize("capture_limit", [1, 37, None, 10**6])
def test_an_empirical_repair_captures_capture_limit_samples(blobs_setup, monkeypatch,
                                                             capture_limit):
    s = blobs_setup
    captured = []

    def spy(model, weights, data, env, _real=mit.capture_activations):
        captured.append(data)
        return _real(model, weights, data, env)

    monkeypatch.setattr(mit, "capture_activations", spy)
    mit.run_mitigation(s["model"], s["weights"], fl.FaultMap(4), fl.SystolicConfig(n=4),
                       mul.truncated_multiplier(3), s["train"], s["test"], _hp(0),
                       activations="empirical", capture_limit=capture_limit)
    [data] = captured
    n = len(s["train"])
    assert len(data) == (n if capture_limit is None else min(capture_limit, n))
    assert np.array_equal(data.images, s["train"].images[:len(data)])
    assert np.array_equal(data.labels, s["train"].labels[:len(data)])


def test_mismatched_n_rejected(blobs_setup):
    s = blobs_setup
    fm = fl.FaultMap(8)
    with pytest.raises(ValueError):
        mit.run_mitigation(s["model"], s["weights"], fm,
                           fl.SystolicConfig(n=4), mul.exact_multiplier(),
                           s["train"], s["test"], _hp(0), acc_thresh=0.0)


@pytest.mark.parametrize("activations", ["emprical", "", None, 3,
                                         mul.uniform_activations()])
def test_unknown_activation_source_rejected(blobs_setup, activations):
    # a misspelt source used to fall through to uniform activations
    s = blobs_setup
    with pytest.raises(ValueError, match="activations must be one of"):
        mit.run_mitigation(s["model"], s["weights"], fl.FaultMap(4),
                           fl.SystolicConfig(n=4), mul.exact_multiplier(),
                           s["train"], s["test"], _hp(0), acc_thresh=0.0,
                           activations=activations)


@pytest.mark.parametrize("kwargs, epochs_used", [
    ({}, 3), ({"acc_thresh": None}, 3), ({"acc_thresh": math.inf}, 3),
    ({"acc_thresh": 0.0}, 1), ({"acc_thresh": 50.0}, 1)],
    ids=["unset", "none", "inf", "zero", "fifty"])
def test_a_repair_without_a_threshold_runs_every_epoch(blobs_setup, kwargs, epochs_used):
    # the threshold used to default to 0.0, which the first epoch reaches
    s = blobs_setup
    fm = fl.random_fault_map(4, 25.0, fl.StuckAtFault(15, "sa1"), seed=3)
    _, rep = mit.run_mitigation(s["model"], s["weights"], fm, fl.SystolicConfig(n=4),
                                mul.truncated_multiplier(3), s["train"], s["test"],
                                _hp(3), **kwargs)
    assert rep.epochs_used == epochs_used
    assert rep.acc_thresh == kwargs.get("acc_thresh")
    if rep.acc_thresh is None or rep.acc_thresh == math.inf:
        assert rep.reached_thresh is False


def _repair_from_the_input(s, fm, cfg, m, hp, acc_thresh):
    """The repair and its report built step by step from public functions,
    every epoch scored as ``train`` scores it when given ``eval_data``."""
    masks = mit.prune_masks(s["model"], fm)
    history = []
    retrained = training.train(s["model"], s["train"], hp, start_weights=s["weights"],
                               mask=masks, eval_data=s["test"], stop_acc=acc_thresh,
                               history=history)
    table = mul.build_weight_map(m, mul.uniform_activations())
    retuned = mit.retune_weights(s["model"], retrained, table, masks)

    def acc(ws, mode, fault_map=None):
        env = net.ExecEnv(engine="systolic", multiplier=m,
                          systolic=replace(cfg, mode=mode), fault_map=fault_map)
        return net.evaluate(s["model"], ws, s["test"], env=env)

    after = acc(retuned, "bypass", fm)
    report = mit.MitigationReport(
        baseline_acc=acc(s["weights"], "bypass"),
        faulty_acc_before=acc(s["weights"], "propagate", fm), acc_after=after,
        pruned_per_layer={i: int(mk.sum()) for i, mk in masks.items()},
        epochs_used=len(history), multiplier_id=m.id,
        fault_summary=mit.fault_map_summary(fm), acc_thresh=acc_thresh,
        reached_thresh=acc_thresh is not None and after >= acc_thresh)
    return retuned, report


@pytest.mark.parametrize("kwargs, scored", [
    ({}, False), ({"acc_thresh": None}, False), ({"acc_thresh": math.inf}, False),
    ({"acc_thresh": 50.0}, True)],
    ids=["unset", "none", "inf", "fifty"])
def test_a_repair_scores_its_epochs_only_against_a_reachable_threshold(
        blobs_setup, monkeypatch, kwargs, scored):
    # every epoch used to be scored on the test set, though only a threshold
    # that can stop training reads the scores
    s = blobs_setup
    fm = fl.random_fault_map(4, 25.0, fl.StuckAtFault(15, "sa1"), seed=3)
    cfg, m = fl.SystolicConfig(n=4), mul.truncated_multiplier(3)
    want_ws, want = _repair_from_the_input(s, fm, cfg, m, _hp(3), kwargs.get("acc_thresh"))
    calls = []

    def spy(*args, _real=training.evaluate, **kw):
        calls.append(args)
        return _real(*args, **kw)

    monkeypatch.setattr(training, "evaluate", spy)
    retuned, rep = mit.run_mitigation(s["model"], s["weights"], fm, cfg, m, s["train"],
                                      s["test"], _hp(3), **kwargs)
    assert rep.epochs_used == (1 if scored else 3)
    assert len(calls) == (rep.epochs_used if scored else 0)
    assert rep.to_json() == want.to_json()
    for idx in want_ws:
        for key in ("W", "b"):
            assert np.array_equal(retuned[idx][key], want_ws[idx][key])


def test_report_serialization(tmp_path):
    rep = mit.MitigationReport(
        baseline_acc=97.5, faulty_acc_before=40.0, acc_after=95.0,
        pruned_per_layer={0: 12, 2: 3}, epochs_used=4,
        multiplier_id="truncated-3", fault_summary="x", acc_thresh=96.5,
        reached_thresh=False)
    assert rep.to_json() == """{
 "baseline_acc": 97.5,
 "faulty_acc_before": 40.0,
 "acc_after": 95.0,
 "pruned_per_layer": {
  "0": 12,
  "2": 3
 },
 "epochs_used": 4,
 "multiplier_id": "truncated-3",
 "fault_summary": "x",
 "acc_thresh": 96.5,
 "reached_thresh": false
}"""
    doc = json.loads(rep.to_json())
    assert doc["acc_after"] == 95.0
    assert doc["pruned_per_layer"] == {"0": 12, "2": 3}
    p = tmp_path / "rep.json"
    mit.save_report(rep, p)
    assert json.loads(p.read_text())["multiplier_id"] == "truncated-3"


def test_report_validates_percent_range():
    with pytest.raises(ValueError):
        mit.MitigationReport(baseline_acc=101.0, faulty_acc_before=0.0,
                             acc_after=0.0)
    with pytest.raises(ValueError):
        mit.MitigationReport(baseline_acc=90.0, faulty_acc_before=-2.0,
                             acc_after=0.0)
    # True was taken as 1%, and a string raised TypeError in the range test
    good = {"baseline_acc": 90.0, "faulty_acc_before": 40, "acc_after": np.float64(85.5)}
    rep = mit.MitigationReport(**good)
    assert [type(getattr(rep, name)) for name in good] == [float] * 3
    for name in good:
        for bad in (True, "90", None, float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
                mit.MitigationReport(**{**good, name: bad})
        with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 100\], got 100.5$"):
            mit.MitigationReport(**{**good, name: 100.5})


def test_fault_map_summary_strings():
    assert mit.fault_map_summary(fl.FaultMap(4)) == "0 faults on 4x4"
    fm = fl.FaultMap(4, {(0, 0): fl.StuckAtFault(3, "sa1"),
                         (1, 1): fl.StuckAtFault(3, "sa1"),
                         (2, 2): fl.StuckAtFault(0, "sa0")})
    s = mit.fault_map_summary(fm)
    assert s.startswith("3 faults on 4x4")
    assert "sa1@bit3 x2" in s
    assert "sa0@bit0 x1" in s
