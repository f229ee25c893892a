"""Plain SGD training for the model zoo, all in numpy float64.

This exists so faulty accelerators can be studied against known-provenance
weights and so mitigation can retrain with pruned positions pinned to zero.
The loss is always softmax cross-entropy on the final layer (a final
``softmax`` or ``none`` activation is folded into the loss for stability;
other final activations are backpropagated through).

Masked retraining follows the per-epoch discipline: masked entries are zeroed
before the first step, all weights move during an epoch, then masked entries
are forced back to exactly zero at the epoch boundary, so the returned
weights satisfy the mask at any epoch count, 0 included.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .faults import _check_int, _check_real
from .network import (
    ExecEnv,
    ModelSpec,
    WeightSet,
    _gemm_weights,
    _pool_windows,
    _stored_weights,
    _to_internal,
    col2im,
    evaluate,
    run_layers,
)


@dataclass
class HyperParams:
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        # settings also arrive from campaign spec JSON; a wrong type would
        # otherwise surface as a TypeError deep inside train
        for name, lo in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            setattr(self, name, _check_int(name, getattr(self, name), lo))
        self.lr = _check_real("lr", self.lr)
        self.momentum = _check_real("momentum", self.momentum)


def init_weights(model: ModelSpec, seed: int) -> WeightSet:
    """Glorot-uniform weights, zero biases, drawn in layer order. A conv
    layer's fans count its kernel window: kh*kw*cin in, kh*kw*cout out."""
    rng = np.random.default_rng(seed)
    ws = WeightSet()
    for idx in model.param_layers():
        shape = model.weight_shape(idx)
        units, fan_in = model.gemm_weight_shape(idx)
        window = math.prod(shape[:2]) if model.layers[idx].kind == "conv2d" else 1
        a = np.sqrt(6.0 / (fan_in + window * units))
        ws[idx] = {"W": rng.uniform(-a, a, size=shape), "b": np.zeros(units)}
    return ws


def _softmax_ce(S, labels):
    """Loss and dL/dS for scores S (classes, B)."""
    m = S.max(axis=0)
    Z = np.exp(S - m)
    denom = Z.sum(axis=0)
    batch = S.shape[1]
    cols = np.arange(batch)
    loss = float(np.mean(np.log(denom) + m - S[labels, cols]))
    probs = Z / denom
    dS = probs
    dS[labels, cols] -= 1.0
    return loss, dS / batch


def _act_backward(act: str, cache, dY):
    """Backward of ``network._activate``, softmax over axis -2 as there."""
    if act == "none":
        return dY
    if act == "relu":
        return dY * (cache["Z"] > 0)
    if act == "tanh":
        return dY * (1.0 - cache["Y"] ** 2)
    if act == "softmax":
        Y = cache["Y"]
        return Y * (dY - np.sum(dY * Y, axis=-2, keepdims=True))
    raise ValueError(act)


def _forward_loss(model: ModelSpec, ws: WeightSet, xb, yb):
    """Float forward pass and loss: (loss, dL/dscores, caches, fold).

    ``fold`` is true when the final activation is folded into the loss, so
    the scores are the last layer's pre-activation.
    """
    X, _ = _to_internal(model, xb)
    caches = []
    out = run_layers(model, ws, X, ExecEnv(), lambda _, record: caches.append(record))
    last = model.layers[-1]
    fold = last.kind == "dense" and last.activation in ("none", "softmax")
    scores = caches[-1]["Z"] if fold else out
    loss, dS = _softmax_ce(scores, np.asarray(yb, dtype=np.int64))
    return loss, dS, caches, fold


def _loss_and_grads(model: ModelSpec, ws: WeightSet, xb, yb):
    loss, d, caches, fold = _forward_loss(model, ws, xb, yb)
    shapes = model.shapes()
    grads = {}
    # no parameter sits below the first parameter layer, so the gradient of
    # its input is never formed
    first = min(model.param_layers(), default=len(caches))
    for idx in reversed(range(first, len(caches))):
        c, layer = caches[idx], model.layers[idx]
        p = layer.params
        if layer.kind in ("dense", "conv2d"):
            dZ = d if (fold and idx == len(caches) - 1) else _act_backward(layer.activation, c, d)
            if layer.kind == "conv2d":
                # (units, positions x batch), the layout of the GEMM's output
                dZ = dZ.transpose(2, 0, 1, 3).reshape(p["cout"], -1)
            grads[idx] = {"W": _stored_weights(layer, dZ @ c["cols"].T), "b": dZ.sum(axis=1)}
            if idx > first:
                d = _gemm_weights(layer, ws[idx]["W"]).T @ dZ
                if layer.kind == "conv2d":
                    d = col2im(d, c["X"].shape, shapes[idx][:2], p["kh"], p["kw"],
                               p["stride"], p["pad"])
        elif layer.kind == "maxpool":
            k, s = p["k"], p["stride"]
            win = _pool_windows(c["X"], p)
            arg = win.reshape(*win.shape[:4], k * k).argmax(axis=-1)
            hout, wout, C, B = arg.shape
            u, v = arg // k, arg % k
            oh = np.arange(hout)[:, None, None, None] * s + u
            ow = np.arange(wout)[None, :, None, None] * s + v
            ci = np.broadcast_to(np.arange(C)[None, None, :, None], arg.shape)
            bi = np.broadcast_to(np.arange(B)[None, None, None, :], arg.shape)
            dx = np.zeros(c["X"].shape)
            np.add.at(dx, (oh, ow, ci, bi), d)
            d = dx
        else:
            d = d.reshape(c["X"].shape)
    return loss, grads


def _zero_like(ws: WeightSet):
    return {i: {k: np.zeros_like(v) for k, v in t.items()} for i, t in ws.items()}


def _sgd_step(ws, vel, grads, hp: HyperParams):
    for idx, g in grads.items():
        for key in ("W", "b"):
            v = vel[idx][key]
            v *= hp.momentum
            # the gradients are this step's own, so they are scaled in place
            v -= np.multiply(g[key], hp.lr, out=g[key])
            ws[idx][key] += v


def _apply_mask(ws: WeightSet, mask) -> None:
    for idx, m in mask.items():
        ws[idx]["W"][m] = 0.0


def train(model: ModelSpec, data, hp: HyperParams, *, start_weights=None,
          mask=None, eval_data=None, stop_acc=None, log_path=None,
          history=None) -> WeightSet:
    """Minibatch SGD with momentum over ``data``; returns the trained WeightSet.

    ``mask`` (layer index -> bool array over W) pins entries to zero
    before the first step and at every epoch boundary. ``stop_acc`` stops
    early once float-engine accuracy on ``eval_data`` reaches the
    threshold; without ``eval_data`` it raises ``ValueError``, as it does
    for a ``stop_acc`` that is no finite number (``math.inf``, a threshold
    never reached, is kept). ``history``, when a list is passed, collects
    one dict per completed epoch.
    """
    if stop_acc is not None and stop_acc != math.inf:
        stop_acc = _check_real("stop_acc", stop_acc)
    if stop_acc is not None and eval_data is None:
        raise ValueError("stop_acc needs eval_data to score the epochs against")
    images, labels = data.images, data.labels
    n = len(images)
    if n == 0:
        raise ValueError("empty training set")
    ws = start_weights.deep_copy() if start_weights is not None else init_weights(model, hp.seed)
    if mask:
        _apply_mask(ws, mask)
    vel = _zero_like(ws)
    shuffle_rng = np.random.default_rng([hp.seed, 0xA5])
    rows = []
    for epoch in range(1, hp.epochs + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for i0 in range(0, n, hp.batch_size):
            sel = order[i0 : i0 + hp.batch_size]
            loss, grads = _loss_and_grads(model, ws, images[sel], labels[sel])
            total += loss * len(sel)
            _sgd_step(ws, vel, grads, hp)
        if mask:
            _apply_mask(ws, mask)
        row = {"epoch": epoch, "loss": total / n}
        if eval_data is not None:
            row["eval_acc"] = evaluate(model, ws, eval_data, ExecEnv())
        rows.append(row)
        if history is not None:
            history.append(dict(row))
        if stop_acc is not None and row["eval_acc"] >= stop_acc:
            break
    if log_path:
        with open(log_path, "w", newline="") as f:
            wtr = csv.writer(f)
            wtr.writerow(["epoch", "loss", "eval_acc"])
            for r in rows:
                wtr.writerow([r["epoch"], f"{r['loss']:.6f}",
                              "" if "eval_acc" not in r else f"{r['eval_acc']:.4f}"])
    return ws


def grad_check(model: ModelSpec, weights: WeightSet, sample, n_checks: int = 200,
               h: float = 1e-4, seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    Checks up to ``n_checks`` randomly chosen parameters on one sample.
    """
    x, y = sample
    xb = np.asarray(x)[None]
    yb = np.asarray([y])
    _, grads = _loss_and_grads(model, weights, xb, yb)

    slots = []
    for idx in sorted(weights):
        for key in ("W", "b"):
            slots.append((idx, key, weights[idx][key].size))
    total = sum(s for _, _, s in slots)
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_checks, total), replace=False)

    ws = weights.deep_copy()
    worst = 0.0
    for flat in np.sort(picks):
        off = int(flat)
        for idx, key, size in slots:
            if off < size:
                break
            off -= size
        t = ws[idx][key].reshape(-1)
        keep = t[off]
        t[off] = keep + h
        lp = _forward_loss(model, ws, xb, yb)[0]
        t[off] = keep - h
        lm = _forward_loss(model, ws, xb, yb)[0]
        t[off] = keep
        numeric = (lp - lm) / (2.0 * h)
        analytic = grads[idx][key].reshape(-1)[off]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, rel)
    return worst
