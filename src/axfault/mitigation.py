"""Repair pipeline for faulty approximate accelerators.

The sequence: derive the pruned positions from the fault map, retrain with
those positions pinned to zero from the first step, remap the surviving
weight codes so their approximate products track the exact ones, then score
inference with the broken MACs bypassed.
"""

from dataclasses import asdict, dataclass, field, replace
import json
import math

import numpy as np

from . import training
from .faults import FaultMap, SystolicConfig, _check_real, pruned_mask
from .multipliers import (
    ActivationSample,
    Multiplier,
    WeightMapTable,
    activations_from_codes,
    build_weight_map,
    uniform_activations,
)
from .network import ExecEnv, ModelSpec, WeightSet, _stored_weights, evaluate
from .quantize import quantize


# the named distributions a retuning map can be built against
ACTIVATION_SOURCES = ("uniform", "empirical")


def check_activations(activations) -> None:
    """Raise ``ValueError`` unless ``activations`` is one of
    ``ACTIVATION_SOURCES``."""
    if activations not in ACTIVATION_SOURCES:
        raise ValueError(f"activations must be one of {ACTIVATION_SOURCES}, "
                         f"got {activations!r}")


@dataclass
class MitigationReport:
    baseline_acc: float
    faulty_acc_before: float
    acc_after: float
    pruned_per_layer: dict = field(default_factory=dict)
    epochs_used: int = 0
    multiplier_id: str = ""
    fault_summary: str = ""
    acc_thresh: float | None = None
    reached_thresh: bool = False

    def __post_init__(self):
        for name in ("baseline_acc", "faulty_acc_before", "acc_after"):
            setattr(self, name, _check_real(name, getattr(self, name), 0, 100))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def save_report(report: MitigationReport, path) -> None:
    with open(path, "w") as f:
        f.write(report.to_json())
        f.write("\n")


def fault_map_summary(fm: FaultMap) -> str:
    by = {}
    for f in fm.entries.values():
        key = f"{f.kind}@bit{f.bit}"
        by[key] = by.get(key, 0) + 1
    parts = ", ".join(f"{k} x{v}" for k, v in sorted(by.items()))
    return f"{len(fm.entries)} faults on {fm.n}x{fm.n} ({parts})" if by else (
        f"0 faults on {fm.n}x{fm.n}"
    )


def prune_masks(model: ModelSpec, fm: FaultMap) -> dict:
    """Boolean mask per parameter layer, True where the weight would be
    stationed on a faulty MAC. Masks are shaped like the stored weights."""
    return {idx: _stored_weights(model.layers[idx],
                                 pruned_mask(model.gemm_weight_shape(idx), fm))
            for idx in model.param_layers()}


def retune_weights(model: ModelSpec, weights: WeightSet, table: WeightMapTable,
                   masks: dict | None = None) -> WeightSet:
    """Push every weight through the substitution table in code space.

    The returned floats are the remapped codes times the original layer
    scale, so a later quantize pass with an unchanged maximum recovers the
    remapped codes bit for bit. The table may move code 0, so pruned
    positions are re-zeroed afterwards.
    """
    out = weights.deep_copy()
    for idx in model.param_layers():
        q = quantize(out[idx]["W"])
        codes = table.remap_codes(q.data)
        w = codes.astype(np.float64) * q.scale
        if masks is not None and idx in masks:
            w[masks[idx]] = 0.0
        out[idx]["W"] = w
    return out


def capture_activations(model: ModelSpec, weights: WeightSet, data,
                        env: ExecEnv, sample_limit=None) -> ActivationSample:
    """Histogram the int8 activation operands of every GEMM in one
    fault-free ``evaluate`` pass (conv layers: their im2col columns)."""
    counts = np.zeros(256, dtype=np.uint64)

    def count(_, record):
        if record["q"] is not None:
            counts[:] += activations_from_codes(record["cols"]).counts

    evaluate(model, weights, data, env=env, sample_limit=sample_limit, observe=count)
    return ActivationSample(counts)


def _repair(model: ModelSpec, weights: WeightSet, fm: FaultMap, cfg: SystolicConfig,
            m: Multiplier, train_data, test_data, hp: training.HyperParams,
            acc_thresh: float | None, activations, capture_limit=None):
    """Prune, retrain, capture, retune and score one repair; returns
    (retuned WeightSet, accuracy after, prune masks, epochs used).

    Only a threshold that can stop training has the epochs scored on
    ``test_data``: with None or ``math.inf`` nothing reads those scores.
    ``campaign`` calls this directly, so a cell's repair runs the
    ``ExecEnv`` its ``evaluate`` ran, and reuses its two accuracies.
    """
    if fm.n != cfg.n:
        raise ValueError("fault map and systolic config disagree on n")
    check_activations(activations)
    masks = prune_masks(model, fm)
    # NaN is passed on, for train to refuse
    scored = acc_thresh is not None and acc_thresh != math.inf
    history = []
    retrained = training.train(model, train_data, hp, start_weights=weights, mask=masks,
                               eval_data=test_data if scored else None,
                               stop_acc=acc_thresh if scored else None, history=history)

    bypass_cfg = replace(cfg, mode="bypass")
    if activations == "empirical":
        clean_env = ExecEnv(engine="systolic", multiplier=m, systolic=bypass_cfg)
        acts = capture_activations(model, retrained, train_data, clean_env,
                                   sample_limit=capture_limit)
    else:
        acts = uniform_activations()
    table = build_weight_map(m, acts)
    retuned = retune_weights(model, retrained, table, masks)

    bypass_env = ExecEnv(engine="systolic", multiplier=m, systolic=bypass_cfg,
                         fault_map=fm)
    acc_after = evaluate(model, retuned, test_data, env=bypass_env)
    return retuned, acc_after, masks, len(history)


def run_mitigation(model: ModelSpec, weights: WeightSet, fm: FaultMap,
                   cfg: SystolicConfig, m: Multiplier, train_data, test_data,
                   hp: training.HyperParams, acc_thresh: float | None = None, *,
                   activations="uniform", capture_limit=None):
    """Full repair run; returns (retuned WeightSet, MitigationReport).

    Retraining stops after the first epoch whose float accuracy on
    ``test_data`` reaches ``acc_thresh``; with None or ``math.inf`` every
    one of ``hp.epochs`` runs unscored, and the report's ``reached_thresh``
    is False. ``activations``, one of ``ACTIVATION_SOURCES``, names the
    distribution the retuning map is built against: "uniform" weighs all
    codes equally, "empirical" harvests a histogram from a fault-free pass
    over ``train_data`` (at most ``capture_limit`` samples) with the
    repaired weights. With ``hp.epochs`` 0 the pruned weights go to
    retuning untrained. The repair itself is ``_repair``, which this wraps
    with the two accuracies before it; ``campaign`` calls ``_repair``
    directly, so a cell's repair runs the ``ExecEnv`` its ``evaluate`` ran,
    and reuses its two accuracies.
    """
    retuned, acc_after, masks, epochs_used = _repair(
        model, weights, fm, cfg, m, train_data, test_data, hp, acc_thresh,
        activations, capture_limit)
    clean_env = ExecEnv(engine="systolic", multiplier=m, systolic=replace(cfg, mode="bypass"))
    prop_env = ExecEnv(engine="systolic", multiplier=m,
                       systolic=replace(cfg, mode="propagate"), fault_map=fm)
    report = MitigationReport(
        baseline_acc=evaluate(model, weights, test_data, env=clean_env),
        faulty_acc_before=evaluate(model, weights, test_data, env=prop_env),
        acc_after=acc_after,
        pruned_per_layer={i: int(mk.sum()) for i, mk in masks.items()},
        epochs_used=epochs_used,
        multiplier_id=m.id,
        fault_summary=fault_map_summary(fm),
        acc_thresh=acc_thresh,
        reached_thresh=acc_thresh is not None and acc_after >= acc_thresh,
    )
    return retuned, report
