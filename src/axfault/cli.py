"""Command-line front end.

Every subcommand is batch-oriented and bit-reproducible, and failures exit
nonzero with a single "error: ..." line on stderr. A command that draws
random numbers takes them from --seed (default taken from $AXFAULT_SEED,
then 0); ``campaign run`` has no --seed, since each cell draws its fault
from its value of the spec's ``seeds`` axis as ``inject --seed`` does; on
gpu_tiles, ``inject`` without ``--tile-index`` damages the tile that the
seed picks, as a campaign cell does.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import campaign as camp
from . import datasets, mitigation, multipliers, network, training
from .faults import (
    FAULT_KINDS,
    GEMM_MODES,
    StuckAtFault,
    SystolicConfig,
    TileFaultSpec,
    _check_int,
    load_fault_map,
    random_fault_map,
    save_fault_map,
    seeded_tile_index,
)


def _default_seed() -> int:
    raw = os.environ.get("AXFAULT_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"AXFAULT_SEED must be an integer, got {raw!r}") from None


def _hp_from(args) -> training.HyperParams:
    return training.HyperParams(
        lr=args.lr, momentum=args.momentum, batch_size=args.batch_size,
        epochs=args.epochs, seed=args.seed,
    )


def _add_hp_flags(p, epochs=10):
    p.add_argument("--epochs", type=int, default=epochs)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=64)


def _add_seed(p):
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="PRNG seed (default $AXFAULT_SEED or 0)")


def _given(args, fill: bool, **defaults):
    """The options in ``defaults``, unset ones at their default, if ``fill``
    or the user set one; else None. Engine-specific options default to None,
    so what a user sets reaches ``ExecEnv``, which refuses what is not read."""
    values = {k: getattr(args, k) for k in defaults}
    if not fill and all(v is None for v in values.values()):
        return None
    return {k: defaults[k] if v is None else v for k, v in values.items()}


# the options that draw a fault map, and their defaults
_DRAW = {"n": 16, "percent": 16.0, "bit": 15, "kind": "sa1"}


def _fault_map(args, command: str):
    """The map in --fault-map, or the one that the draw options (unset ones
    at their defaults) draw from --seed; refuses both, naming ``command``."""
    draw = _given(args, args.fault_map is None, **_DRAW)
    if args.fault_map is None:
        return random_fault_map(draw["n"], draw["percent"],
                                StuckAtFault(draw["bit"], draw["kind"]), seed=args.seed)
    if draw is not None:
        raise ValueError(f"{command} takes --fault-map or the options that draw a map "
                         "(--n, --percent, --bit, --kind), not both")
    return load_fault_map(args.fault_map)


def _add_fault_flags(p):
    p.add_argument("--fault-map", help="saved fault map, or draw one:")
    p.add_argument("--n", type=int, help="drawn map's array size (default 16)")
    p.add_argument("--percent", type=float, help="faulty share, in %% (default 16)")
    p.add_argument("--bit", type=int, help="stuck product bit (default 15)")
    p.add_argument("--kind", choices=FAULT_KINDS, help="stuck-at kind (default sa1)")


def _scored_data(args):
    data, limit = datasets.parse_dataset_arg(args.data), args.sample_limit
    return data if limit is None else data.subset(_check_int("sample_limit", limit, 0))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_train(args) -> int:
    model = network.resolve_model(args.model)
    data = datasets.parse_dataset_arg(args.data)
    eval_data = datasets.parse_dataset_arg(args.eval_data) if args.eval_data else None
    hp = _hp_from(args)
    history = []
    w = training.train(model, data, hp, eval_data=eval_data,
                       stop_acc=args.stop_acc, log_path=args.log,
                       history=history)
    network.save_weights(w, model, args.out)
    acc_data = eval_data if eval_data is not None else data
    acc = network.evaluate(model, w, acc_data)
    print(f"epochs={len(history)}")
    print(f"accuracy={acc:.2f}")
    print(f"weights={args.out}")
    return 0


def _cmd_eval(args) -> int:
    # no fault, so neither the array size nor the tile changes the result
    mul = _given(args, args.engine != "float", multiplier="exact")
    env = network.ExecEnv(
        args.engine, mul and multipliers.parse_multiplier(mul["multiplier"]),
        SystolicConfig(16) if args.engine == "systolic" else None,
        weight_map=None if args.weight_map is None else
        multipliers.load_weight_map(args.weight_map),
    )
    model = network.resolve_model(args.model)
    w = network.load_weights(model, args.weights)
    acc = network.evaluate(model, w, _scored_data(args), env=env)
    print(f"accuracy={acc:.2f}")
    return 0


def _cmd_mul_info(args) -> int:
    m = multipliers.parse_multiplier(args.multiplier)
    em = multipliers.error_metrics(m)
    print(f"id={m.id}")
    print(f"mae_percent={em.mae_percent}")
    print(f"worst_case_abs={em.worst_case_abs}")
    print(f"error_count={em.error_count}")
    return 0


def _cmd_mul_gen_lut(args) -> int:
    m = multipliers.parse_multiplier(args.multiplier)
    multipliers.save_lut(m, args.out)
    print(f"lut={args.out}")
    return 0


def _cmd_mul_map(args) -> int:
    m = multipliers.parse_multiplier(args.multiplier)
    table = multipliers.build_weight_map(m, multipliers.uniform_activations())
    multipliers.save_weight_map(table, args.out)
    moved = int(np.sum(table.map != np.arange(-128, 128)))
    print(f"map={args.out}")
    print(f"remapped_codes={moved}")
    return 0


def _cmd_inject(args) -> int:
    # the systolic engine reads a fault map, saved or drawn, and the gpu_tiles
    # engine one damaged tile; ExecEnv refuses either on the other engine
    on_map = args.engine == "systolic" or any(
        getattr(args, k) is not None for k in ("fault_map", "n", "mode", "save_map"))
    fm = _fault_map(args, "inject") if on_map else None
    d = _given(args, True, **_DRAW)
    tf = None
    if not on_map or args.tile_index is not None:
        index = seeded_tile_index(args.seed) if args.tile_index is None else args.tile_index
        tf = TileFaultSpec(index, d["percent"] / 100.0, StuckAtFault(d["bit"], d["kind"]),
                           args.seed)
    env = network.ExecEnv(
        args.engine, multipliers.parse_multiplier(args.multiplier),
        None if fm is None else SystolicConfig(fm.n, args.mode or "propagate"), fm,
        args.tile, tf, args.layer,
        None if args.weight_map is None else multipliers.load_weight_map(args.weight_map),
    )
    if args.save_map:
        save_fault_map(fm, args.save_map)
    model = network.resolve_model(args.model)
    w = network.load_weights(model, args.weights)
    data = _scored_data(args)
    baseline, faulty = (network.evaluate(model, w, data, env=e)
                        for e in (replace(env, fault_map=None, tile_fault=None), env))
    print(f"baseline_acc={baseline:.2f}")
    print(f"faulty_acc={faulty:.2f}")
    print(f"acc_loss={baseline - faulty:.2f}")
    return 0


def _cmd_mitigate(args) -> int:
    fm = _fault_map(args, "mitigate")
    model = network.resolve_model(args.model)
    w = network.load_weights(model, args.weights)
    train_data = datasets.parse_dataset_arg(args.data)
    test_data = datasets.parse_dataset_arg(args.test_data)
    m = multipliers.parse_multiplier(args.multiplier)
    hp = _hp_from(args)
    retuned, report = mitigation.run_mitigation(
        model, w, fm, SystolicConfig(n=fm.n), m, train_data, test_data, hp,
        args.acc_thresh, activations=args.activations,
    )
    network.save_weights(retuned, model, args.out)
    if args.report:
        mitigation.save_report(report, args.report)
    print(f"baseline_acc={report.baseline_acc:.2f}")
    print(f"faulty_acc_before={report.faulty_acc_before:.2f}")
    print(f"acc_after={report.acc_after:.2f}")
    print(f"epochs_used={report.epochs_used}")
    print(f"weights={args.out}")
    return 0


def _energy_table(arg):
    if not arg:
        return None
    if arg == "illustrative":
        return camp.ILLUSTRATIVE_ENERGY_PJ
    with open(arg) as f:
        return json.load(f)


def _cmd_campaign_run(args) -> int:
    with open(args.spec) as f:
        spec = camp.CampaignSpec.from_json(f.read())
    model = network.resolve_model(spec.model_id)
    w = network.load_weights(model, args.weights)
    test_data = datasets.parse_dataset_arg(spec.dataset_id)
    train_data = (datasets.parse_dataset_arg(args.train_data)
                  if args.train_data else None)
    records = camp.run_campaign(
        spec, model, w, test_data, train_data=train_data,
        energy_table=_energy_table(args.energy), workers=args.workers,
        include_timing=args.timing,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "records.json")
    camp.save_records(records, path)
    failed = sum(1 for r in records if r.error is not None)
    print(f"records={len(records)}")
    print(f"failed={failed}")
    print(f"out={path}")
    return 0


def _cmd_campaign_report(args) -> int:
    records = camp.load_records(args.records)
    written = camp.emit_report(records, args.out,
                               energy_table=_energy_table(args.energy))
    for p in written:
        print(p)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``ValueError``, which ``main``
    reports as it does every other failure; subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="axfault",
        description="Fault injection and repair for int8 networks on "
                    "approximate-multiplier accelerators.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save weights")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--out", required=True)
    p.add_argument("--stop-acc", type=float)
    p.add_argument("--log")
    _add_hp_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="clean accuracy of saved weights on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--engine", choices=network.ENGINES, default="float")
    p.add_argument("--multiplier", help="default exact on the quantized engines")
    p.add_argument("--weight-map")
    p.add_argument("--sample-limit", type=int)
    p.set_defaults(func=_cmd_eval)

    mul = sub.add_parser("mul", help="approximate multiplier tools")
    msub = mul.add_subparsers(dest="mul_command", required=True)
    for name, fn in (("info", _cmd_mul_info), ("gen-lut", _cmd_mul_gen_lut),
                     ("map", _cmd_mul_map)):
        p = msub.add_parser(name)
        p.add_argument("--multiplier", required=True, help="multiplier id or LUT path")
        if name != "info":
            p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    p = sub.add_parser("inject", help="accuracy before and after a fault")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--multiplier", default="exact")
    p.add_argument("--engine", choices=network.QUANTIZED_ENGINES, default="systolic")
    p.add_argument("--weight-map")
    _add_fault_flags(p)
    p.add_argument("--mode", choices=GEMM_MODES, help="systolic (default propagate)")
    p.add_argument("--tile", type=int, help="gpu_tiles (default 16)")
    p.add_argument("--tile-index", type=int,
                   help="gpu_tiles damaged tile (default: drawn from --seed)")
    p.add_argument("--layer", type=int)
    p.add_argument("--sample-limit", type=int)
    p.add_argument("--save-map")
    _add_seed(p)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("mitigate", help="prune, retrain, retune, re-evaluate")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--data", required=True, help="training dataset spec")
    p.add_argument("--test-data", required=True)
    p.add_argument("--multiplier", default="exact")
    _add_fault_flags(p)
    p.add_argument("--acc-thresh", type=float,
                   help="stop retraining once this accuracy is reached "
                        "(default: run every epoch)")
    p.add_argument("--activations", choices=mitigation.ACTIVATION_SOURCES,
                   default="uniform")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    _add_hp_flags(p)
    _add_seed(p)
    p.set_defaults(func=_cmd_mitigate)

    cp = sub.add_parser("campaign", help="multi-axis sweeps")
    csub = cp.add_subparsers(dest="campaign_command", required=True)
    p = csub.add_parser("run")
    p.add_argument("--spec", required=True, help="campaign config (JSON)")
    p.add_argument("--weights", required=True)
    p.add_argument("--train-data", help="needed when the campaign config enables mitigation")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--energy", help='"illustrative" or a JSON table path')
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=_cmd_campaign_run)
    p = csub.add_parser("report")
    p.add_argument("--records", required=True, help="records.json path")
    p.add_argument("--out", required=True)
    p.add_argument("--energy")
    p.set_defaults(func=_cmd_campaign_report)

    return ap


def main(argv=None) -> int:
    try:
        # the parser reads $AXFAULT_SEED while it is built
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
