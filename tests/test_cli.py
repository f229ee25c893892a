"""End-to-end runs of the command-line interface.

Everything here drives cli.main() in-process on tiny synthetic data so the
whole file stays fast.
"""

import json
import re

import pytest

from axfault import campaign as camp
from axfault import cli, datasets, faults, mitigation, multipliers, network, training

MODEL_JSON = json.dumps({
    "name": "cli-blobs",
    "input_shape": [8],
    "layers": [
        {"kind": "dense", "activation": "relu", "in": 8, "out": 16},
        {"kind": "dense", "activation": "none", "in": 16, "out": 3},
    ],
})


@pytest.fixture
def model_path(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(MODEL_JSON)
    return str(p)


@pytest.fixture
def trained(tmp_path, model_path):
    out = str(tmp_path / "w.axdn")
    rc = cli.main(["train", "--model", model_path, "--data", "blobs:3:500:8:1",
                   "--out", out, "--epochs", "15", "--lr", "0.1"])
    assert rc == 0
    return {"model": model_path, "weights": out, "tmp": tmp_path}


def _kv(capsys):
    return _kv_of(capsys.readouterr().out)


def _kv_of(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["train", "--help"],
    ["eval", "--help"],
    ["mul", "--help"],
    ["mul", "info", "--help"],
    ["inject", "--help"],
    ["mitigate", "--help"],
    ["campaign", "--help"],
    ["campaign", "run", "--help"],
])
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 0


def test_train_then_eval(trained, capsys):
    capsys.readouterr()
    rc = cli.main(["eval", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:300:8:2"])
    assert rc == 0
    acc = float(_kv(capsys)["accuracy"])
    assert acc >= 95.0


def test_train_reports_epochs(tmp_path, model_path, capsys):
    out = str(tmp_path / "w2.axdn")
    rc = cli.main(["train", "--model", model_path, "--data", "blobs:3:300:8:1",
                   "--out", out, "--epochs", "2"])
    assert rc == 0
    kv = _kv(capsys)
    assert kv["epochs"] == "2"
    assert kv["weights"] == out


def test_eval_quantized_engine(trained, capsys):
    capsys.readouterr()
    rc = cli.main(["eval", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:300:8:2",
                   "--engine", "systolic", "--multiplier", "truncated-4"])
    assert rc == 0
    assert float(_kv(capsys)["accuracy"]) >= 90.0


def test_eval_offers_only_clean_options(trained, capsys):
    # without faults both quantized engines compute the same GEMM, so eval
    # used to take ten options that could not change its result
    with pytest.raises(SystemExit):
        cli.main(["eval", "--help"])
    assert re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M) == [
        "--model", "--weights", "--data", "--engine", "--multiplier", "--weight-map",
        "--sample-limit"]
    argv = ["eval", "--model", trained["model"], "--weights", trained["weights"],
            "--data", "blobs:3:300:8:2", "--multiplier", "truncated-4", "--engine", "systolic"]
    assert cli.main(argv) == 0
    accs = {_kv(capsys)["accuracy"]}
    assert cli.main([*argv[:-1], "gpu_tiles"]) == 0
    accs.add(_kv(capsys)["accuracy"])
    assert len(accs) == 1
    for option, value in (("--n", "8"), ("--fault-map", "fm.axfm"), ("--layer", "0")):
        assert cli.main(argv + [option, value]) == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {option} {value}\n"


@pytest.mark.parametrize("argv, message", [
    (["eval"], "the following arguments are required: --model, --weights, --data"),
    (["eval", "--model", "m", "--weights", "w", "--data", "d", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["eval", "--model", "m", "--weights", "w", "--data", "d", "--engine", "fpga"],
     "argument --engine: invalid choice: 'fpga' (choose from 'float', 'systolic', "
     "'gpu_tiles')"),
], ids=["missing", "unknown", "choice"])
def test_usage_errors_print_one_error_line(argv, message, capsys):
    # argparse used to print its usage block and a second, prefixed line
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_mul_info(capsys):
    rc = cli.main(["mul", "info", "--multiplier", "exact"])
    assert rc == 0
    kv = _kv(capsys)
    assert kv["id"] == "exact"
    assert kv["mae_percent"] == "0.0"
    assert kv["error_count"] == "0"


def test_mul_info_truncated(capsys):
    rc = cli.main(["mul", "info", "--multiplier", "truncated-4"])
    assert rc == 0
    kv = _kv(capsys)
    assert kv["id"] == "truncated-4"
    assert kv["mae_percent"] == "0.009918212890625"


def test_mul_gen_lut_and_reuse(tmp_path, capsys):
    lut = str(tmp_path / "bc2.axlut")
    rc = cli.main(["mul", "gen-lut", "--multiplier", "broken-carry-2", "--out", lut])
    assert rc == 0
    assert (tmp_path / "bc2.axlut").stat().st_size == 131072
    capsys.readouterr()
    rc = cli.main(["mul", "info", "--multiplier", lut])
    assert rc == 0
    assert _kv(capsys)["mae_percent"] == "0.2285527065396309"


def test_mul_map(tmp_path, capsys):
    out = str(tmp_path / "m.axwm")
    rc = cli.main(["mul", "map", "--multiplier", "exact", "--out", out])
    assert rc == 0
    kv = _kv(capsys)
    assert kv["remapped_codes"] == "0"
    assert (tmp_path / "m.axwm").stat().st_size == 264


@pytest.mark.parametrize("argv", [
    ["mul", "info"],
    ["mul", "info", "--family", "truncated", "--multiplier", "exact"],
    ["mul", "map", "--family", "truncated", "--k", "3", "--out", "m.axwm"],
], ids=["none", "family", "family-k"])
def test_mul_takes_only_multiplier(tmp_path, monkeypatch, argv, capsys):
    # no multiplier ended in an AttributeError traceback, and --family
    # silently overrode a --multiplier given beside it
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert ("required: --multiplier" in err) != ("unrecognized arguments: --family" in err)
    assert not (tmp_path / "m.axwm").exists()


def test_inject_zero_percent_is_lossless(trained, capsys):
    capsys.readouterr()
    rc = cli.main(["inject", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:300:8:2",
                   "--percent", "0", "--bit", "15", "--kind", "sa1",
                   "--n", "8"])
    assert rc == 0
    kv = _kv(capsys)
    assert kv["acc_loss"] == "0.00"
    assert kv["baseline_acc"] == kv["faulty_acc"]


def test_inject_saves_fault_map(trained, capsys):
    fmap = str(trained["tmp"] / "fm.txt")
    rc = cli.main(["inject", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:200:8:2",
                   "--percent", "25", "--bit", "15", "--kind", "sa1",
                   "--n", "8", "--seed", "3", "--save-map", fmap])
    assert rc == 0
    lines = open(fmap).read().splitlines()
    assert lines[:2] == ["n=8", "faults=16"]  # floor(64 * 0.25)
    assert len(lines) == 2 + 16


def test_inject_gpu_engine(trained, capsys):
    capsys.readouterr()
    rc = cli.main(["inject", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:200:8:2", "--engine", "gpu_tiles",
                   "--percent", "50", "--bit", "15", "--kind", "sa1",
                   "--tile", "4"])
    assert rc == 0
    kv = _kv(capsys)
    assert float(kv["faulty_acc"]) <= float(kv["baseline_acc"])


def test_mitigate_flow(trained, capsys):
    out = str(trained["tmp"] / "fixed.axdn")
    rep = str(trained["tmp"] / "rep.json")
    rc = cli.main(["mitigate", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:500:8:1",
                   "--test-data", "blobs:3:300:8:2",
                   "--multiplier", "truncated-3",
                   "--n", "8", "--percent", "16", "--bit", "15",
                   "--kind", "sa1", "--epochs", "4", "--lr", "0.1",
                   "--seed", "2", "--report", rep, "--out", out])
    assert rc == 0
    kv = _kv(capsys)
    assert float(kv["acc_after"]) >= float(kv["faulty_acc_before"])
    doc = json.loads(open(rep).read())
    assert doc["multiplier_id"] == "truncated-3"
    # repaired weights are loadable
    capsys.readouterr()
    rc = cli.main(["eval", "--model", trained["model"], "--weights", out,
                   "--data", "blobs:3:300:8:2"])
    assert rc == 0


def test_mitigate_without_a_threshold_runs_every_epoch(trained, capsys):
    # --acc-thresh defaulted to 0.0, which every epoch reaches, so a
    # repair stopped after epoch 1 whatever --epochs said
    rep = trained["tmp"] / "epochs.json"
    argv = ["mitigate", "--model", trained["model"], "--weights", trained["weights"],
            "--data", "blobs:3:200:8:1", "--test-data", "blobs:3:100:8:2",
            "--n", "8", "--epochs", "3", "--lr", "0.1", "--seed", "2",
            "--out", str(trained["tmp"] / "epochs.axdn")]
    assert cli.main(argv + ["--report", str(rep)]) == 0
    assert _kv(capsys)["epochs_used"] == "3"
    doc = json.loads(rep.read_text())
    assert doc["acc_thresh"] is None and doc["reached_thresh"] is False
    # a threshold given stops at the first epoch that reaches it
    assert cli.main(argv + ["--acc-thresh", "0"]) == 0
    assert _kv(capsys)["epochs_used"] == "1"


_DRAWS = [[], ["--n", "8", "--percent", "30", "--bit", "7", "--kind", "sa0"]]


@pytest.mark.parametrize("draw", _DRAWS, ids=["defaults", "given"])
def test_mitigate_with_saved_map_equals_drawn_map(trained, draw, capsys):
    # the options draw the map a saved fault map holds, with the same seed
    tmp = trained["tmp"]
    opts = {"--n": "16", "--percent": "16", "--bit": "15", "--kind": "sa1",
            **dict(zip(draw[::2], draw[1::2]))}
    fm = faults.random_fault_map(int(opts["--n"]), float(opts["--percent"]),
                                 faults.StuckAtFault(int(opts["--bit"]), opts["--kind"]),
                                 seed=2)
    faults.save_fault_map(fm, tmp / "fm.axfm")
    runs = []
    for given in (draw, ["--fault-map", str(tmp / "fm.axfm")]):
        out, rep = tmp / f"fixed{len(runs)}.axdn", tmp / f"rep{len(runs)}.json"
        rc = cli.main(["mitigate", "--model", trained["model"], "--weights", trained["weights"],
                       "--data", "blobs:3:200:8:1", "--test-data", "blobs:3:100:8:2",
                       "--multiplier", "truncated-3", "--epochs", "2", "--seed", "2",
                       *given, "--out", str(out), "--report", str(rep)])
        assert rc == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        runs.append((out.read_bytes(), rep.read_bytes(), printed))
    assert runs[0] == runs[1]
    summary = json.loads(runs[0][1])["fault_summary"]
    assert summary == mitigation.fault_map_summary(fm)


@pytest.mark.parametrize("option, value", [("--n", "8"), ("--percent", "30"),
                                           ("--bit", "7"), ("--kind", "sa0")])
def test_mitigate_refuses_draw_options_beside_fault_map(trained, option, value, capsys):
    # each used to be ignored: the saved map was repaired as it stood
    tmp = trained["tmp"]
    faults.save_fault_map(faults.random_fault_map(8, 16.0, faults.StuckAtFault(15, "sa1"),
                                                  seed=1), tmp / "fm.axfm")
    capsys.readouterr()
    for weights in (trained["weights"], str(tmp / "missing.axdn")):
        # refused before the model, weights or data are read
        rc = cli.main(["mitigate", "--model", trained["model"], "--weights", weights,
                       "--data", "blobs:3:200:8:1", "--test-data", "blobs:3:100:8:2",
                       "--fault-map", str(tmp / "fm.axfm"), option, value,
                       "--out", str(tmp / "fixed.axdn")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: mitigate takes --fault-map or the options that draw a map "
            "(--n, --percent, --bit, --kind), not both\n")
    assert not (tmp / "fixed.axdn").exists()


@pytest.mark.parametrize("option, value", [("--n", "8"), ("--percent", "30"),
                                           ("--bit", "7"), ("--kind", "sa0")])
def test_inject_refuses_draw_options_beside_fault_map(trained, option, value, capsys):
    # the same helper as mitigate's builds the map, and its error names inject
    tmp = trained["tmp"]
    faults.save_fault_map(faults.random_fault_map(8, 16.0, faults.StuckAtFault(15, "sa1"),
                                                  seed=1), tmp / "fm.axfm")
    capsys.readouterr()
    rc = cli.main(["inject", "--model", trained["model"], "--weights", str(tmp / "missing.axdn"),
                   "--data", "blobs:3:100:8:2", "--fault-map", str(tmp / "fm.axfm"),
                   option, value])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: inject takes --fault-map or the options that draw a map "
        "(--n, --percent, --bit, --kind), not both\n")


@pytest.mark.parametrize("draw, mode", [([], []),
                                        (["--n", "8", "--percent", "25"], ["--mode", "bypass"])],
                         ids=["defaults", "given"])
def test_inject_scores_a_saved_map_as_the_draw_that_saved_it(trained, draw, mode, capsys):
    # the array size comes from the map: a map saved at --n 8 used to fail
    # "fault map is 8x8 but array is 16x16" unless --n 8 was given again
    fm = str(trained["tmp"] / "fm.axfm")
    argv = ["inject", "--model", trained["model"], "--weights", trained["weights"],
            "--data", "blobs:3:300:8:2", "--seed", "3"]
    capsys.readouterr()
    assert cli.main(argv + draw + mode + ["--save-map", fm]) == 0
    drawn = capsys.readouterr().out
    assert float(_kv_of(drawn)["acc_loss"]) > 0
    assert cli.main(argv + mode + ["--fault-map", fm]) == 0
    assert capsys.readouterr().out == drawn
    # a map is the systolic engine's fault
    assert cli.main(argv + ["--engine", "gpu_tiles", "--fault-map", fm]) == 2
    assert capsys.readouterr().err == "error: the gpu_tiles engine does not read systolic\n"


@pytest.mark.parametrize("mul", ["truncated-3", "broken-carry-3", "truncated-8"])
def test_inject_scores_repaired_weights_as_mitigate_does(trained, mul, capsys):
    # the repair loop on the command line: save a fault, repair it, then
    # score the repair under that fault with the broken MACs bypassed
    tmp = trained["tmp"]
    fm, fixed = str(tmp / "fm.axfm"), str(tmp / "fixed.axdn")
    argv = ["--model", trained["model"], "--multiplier", mul]
    assert cli.main(["inject", *argv, "--weights", trained["weights"], "--data",
                     "blobs:3:100:8:2", "--n", "8", "--percent", "25", "--seed", "4",
                     "--save-map", fm]) == 0
    capsys.readouterr()
    assert cli.main(["mitigate", *argv, "--weights", trained["weights"],
                     "--data", "blobs:3:200:8:1", "--test-data", "blobs:3:100:8:2",
                     "--fault-map", fm, "--epochs", "2", "--seed", "2", "--out", fixed]) == 0
    repaired = _kv(capsys)
    assert cli.main(["inject", *argv, "--weights", fixed, "--data", "blobs:3:100:8:2",
                     "--fault-map", fm, "--mode", "bypass"]) == 0
    assert _kv(capsys)["faulty_acc"] == repaired["acc_after"]


def test_inject_gpu_tile_fault_is_tile_index_and_percent(trained, capsys):
    # spelled as a campaign cell spells it: the damaged share in percent
    model = network.resolve_model(trained["model"])
    w = network.load_weights(model, trained["weights"])
    data = datasets.parse_dataset_arg("blobs:3:300:8:2")
    m = multipliers.parse_multiplier("exact")
    env = network.ExecEnv("gpu_tiles", m, tile=4, tile_fault=faults.TileFaultSpec(
        1, 0.5, faults.StuckAtFault(15, "sa1"), 3))
    clean = network.evaluate(model, w, data, env=network.ExecEnv("gpu_tiles", m, tile=4))
    want = network.evaluate(model, w, data, env=env)
    assert want != clean
    capsys.readouterr()
    assert cli.main(["inject", "--model", trained["model"], "--weights", trained["weights"],
                     "--data", "blobs:3:300:8:2", "--engine", "gpu_tiles", "--tile", "4",
                     "--tile-index", "1", "--percent", "50", "--seed", "3"]) == 0
    kv = _kv(capsys)
    assert (kv["baseline_acc"], kv["faulty_acc"]) == (f"{clean:.2f}", f"{want:.2f}")


def test_inject_without_tile_index_damages_a_campaign_cells_tile(trained, monkeypatch):
    # a gpu_tiles campaign cell replays from the command line with its seed
    # alone: inject draws the damaged tile from --seed as the cell does
    spec = camp.CampaignSpec(model_id="m", dataset_id="d", multipliers=["exact"],
                             engines=["gpu_tiles"], fault_kinds=["sa0"], bits=[9],
                             percents=[30.0], layers=[1], array_sizes=[4], seeds=[5])
    [cell] = camp.cells_of(spec)
    want = camp._cell_env(cell, multipliers.exact_multiplier())
    envs = []

    def spy(model, weights, data, env, sample_limit=None):
        envs.append(env)
        return 50.0

    monkeypatch.setattr(network, "evaluate", spy)
    assert cli.main(["inject", "--model", trained["model"], "--weights", trained["weights"],
                     "--data", "blobs:3:20:8:2", "--engine", "gpu_tiles", "--tile", "4",
                     "--percent", "30", "--bit", "9", "--kind", "sa0", "--layer", "1",
                     "--seed", "5"]) == 0
    assert envs[1].tile_fault == want.tile_fault
    assert envs[1].tile_fault.tile_index == faults.seeded_tile_index(5) != 0
    assert (envs[1].tile, envs[1].layer_filter) == (want.tile, want.layer_filter)


def test_inject_scores_a_weight_mapped_model(trained, capsys):
    # eval took --weight-map but inject did not, so a retuned model could
    # not be scored under a fault
    tmp = trained["tmp"]
    wm, fm = str(tmp / "bc3.axwm"), str(tmp / "fm.axfm")
    assert cli.main(["mul", "map", "--multiplier", "broken-carry-3", "--out", wm]) == 0
    argv = ["--model", trained["model"], "--weights", trained["weights"],
            "--data", "blobs:3:300:8:2", "--multiplier", "broken-carry-3", "--weight-map", wm]
    capsys.readouterr()
    assert cli.main(["eval", *argv, "--engine", "systolic"]) == 0
    clean = _kv(capsys)["accuracy"]
    assert cli.main(["inject", *argv, "--n", "8", "--percent", "25", "--save-map", fm]) == 0
    kv = _kv(capsys)
    model = network.resolve_model(trained["model"])
    env = network.ExecEnv("systolic", multipliers.parse_multiplier("broken-carry-3"),
                          faults.SystolicConfig(8), faults.load_fault_map(fm),
                          weight_map=multipliers.load_weight_map(wm))
    want = network.evaluate(model, network.load_weights(model, trained["weights"]),
                            datasets.parse_dataset_arg("blobs:3:300:8:2"), env=env)
    assert (kv["baseline_acc"], kv["faulty_acc"]) == (clean, f"{want:.2f}")


def test_campaign_run_and_report(trained, capsys):
    spec = {
        "model_id": trained["model"],
        "dataset_id": "blobs:3:300:8:2",
        "multipliers": ["exact", "truncated-4"],
        "fault_kinds": ["sa1"],
        "bits": [15],
        "percents": [0.0, 16.0],
        "array_sizes": [8],
        "seeds": [1],
        "sample_limit": 150,
    }
    spec_path = trained["tmp"] / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = str(trained["tmp"] / "camp")
    rc = cli.main(["campaign", "run", "--spec", str(spec_path),
                   "--weights", trained["weights"], "--out", out_dir,
                   "--energy", "illustrative"])
    assert rc == 0
    kv = _kv(capsys)
    assert kv["records"] == "4"
    assert kv["failed"] == "0"

    rep_dir = str(trained["tmp"] / "rep")
    rc = cli.main(["campaign", "report", "--records", kv["out"],
                   "--out", rep_dir, "--energy", "illustrative"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "results.csv" in out and "summary.md" in out
    header = open(f"{rep_dir}/results.csv").readline().strip()
    assert header.startswith("model,dataset,engine,multiplier,mae_percent")


@pytest.mark.parametrize("spec", ['{"model_id": "m", "dataset_id": "d", '
                                  '"multipliers": ["exact"], "bogus": 1}',
                                  '[{"model_id": "m"}]',
                                  '{"model_id": "m", "dataset_id": "d", '
                                  '"multipliers": ["exact"], "percents": [null]}',
                                  # runnable but for the key, which used to be
                                  # dropped: the cells trained the default 10 epochs
                                  '{"model_id": "@model", "dataset_id": "blobs:3:300:8:2", '
                                  '"multipliers": ["exact"], "sample_limit": 20, '
                                  '"mitigation": {"epoch": 3}}',
                                  # runnable but for the type, which made every
                                  # mitigated cell record a TypeError
                                  '{"model_id": "@model", "dataset_id": "blobs:3:300:8:2", '
                                  '"multipliers": ["exact"], "sample_limit": 20, '
                                  '"mitigation": {"epochs": "3", "acc_thresh": 50}}',
                                  '{"model_id": "@model", "dataset_id": "blobs:3:300:8:2", '
                                  '"multipliers": ["exact"], "sample_limit": 20, '
                                  '"mitigation": {"epochs": 3, "acc_thresh": "high"}}'],
                         ids=["unknown-key", "list", "null-percent", "mitigation-key",
                              "mitigation-type", "acc-thresh-type"])
def test_campaign_run_rejects_malformed_spec(trained, spec, capsys):
    spec_path = trained["tmp"] / "bad-spec.json"
    spec_path.write_text(spec.replace("@model", trained["model"]))
    rc = cli.main(["campaign", "run", "--spec", str(spec_path),
                   "--weights", trained["weights"],
                   "--out", str(trained["tmp"] / "bad-camp")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_RECORD = {"cell_index": 0, "model": "m", "dataset": "d", "engine": "systolic",
           "multiplier": "exact", "mae_percent": 0.0, "fault_kind": "sa1", "bit": 15,
           "percent": 16.0, "layer": None, "array_size": 8, "seed": 1,
           "baseline_acc": 90.0, "faulty_acc": 80.0, "acc_loss": 10.0}


@pytest.mark.parametrize("doc, match", [
    ([{"cell_index": 0, "bogus": 1}],
     r"record 0: unknown fields \['bogus'\], missing fields \['acc_loss', "),
    ([_RECORD, {k: v for k, v in _RECORD.items() if k != "seed"}],
     r"record 1: unknown fields \[\], missing fields \['seed'\]$"),
    ({"records": [_RECORD]}, "must hold a JSON list of objects$"),
    ([dict(_RECORD, faulty_acc="80")],
     r"record 0: field 'faulty_acc' must be float or null, got '80'$"),
    ([_RECORD, dict(_RECORD, bit=True)], r"record 1: field 'bit' must be int, got True$"),
    ([dict(_RECORD, seed=1.0)], r"record 0: field 'seed' must be int, got 1.0$"),
    ([dict(_RECORD, model=None)], r"record 0: field 'model' must be str, got None$"),
    ([dict(_RECORD, baseline_acc=None)],
     r"record 0: field 'baseline_acc' must be float, got None$"),
    ([dict(_RECORD, layer="all")],
     r"record 0: field 'layer' must be int or null, got 'all'$"),
    # NaN used to be ranked, as "| 1 | exact | nan | 10.00 |"
    ([dict(_RECORD, faulty_acc=float("nan"))],
     r"record 0: field 'faulty_acc' must be float or null, got nan$"),
    ([_RECORD, dict(_RECORD, baseline_acc=float("-inf"))],
     r"record 1: field 'baseline_acc' must be float, got -inf$"),
], ids=["unknown-field", "missing-field", "object", "string-float", "bool-int",
        "float-int", "null-str", "null-float", "string-layer", "nan", "infinity"])
def test_campaign_report_rejects_malformed_records(tmp_path, doc, match, capsys):
    # each used to end in a TypeError traceback and exit 1
    path = tmp_path / "records.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["campaign", "report", "--records", str(path), "--out", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(match, err.strip())
    assert not (tmp_path / "rep").exists()


def test_campaign_report_reads_ints_and_nulls_where_fields_allow(tmp_path, capsys):
    # JSON may write a float field as an int; optional fields may be null
    path = tmp_path / "records.json"
    path.write_text(json.dumps([dict(_RECORD, faulty_acc=80, acc_loss=None,
                                     energy_pj=None)]))
    rc = cli.main(["campaign", "report", "--records", str(path), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert (tmp_path / "rep" / "summary.md").exists()


@pytest.mark.parametrize("table, match", [
    ([["exact", 1.0]], "must map multiplier ids to pJ per MAC, got list$"),
    ({"exact": -1}, "energy of 'exact' in pJ per MAC must be at least 5e-324, got -1.0$"),
], ids=["list", "negative"])
def test_campaign_rejects_bad_energy_table(trained, tmp_path, table, match, capsys):
    # a list used to read as no table, and -1 was ranked as -1.00 pJ/MAC
    energy = tmp_path / "energy.json"
    energy.write_text(json.dumps(table))
    records = tmp_path / "records.json"
    records.write_text(json.dumps([_RECORD]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"model_id": trained["model"], "dataset_id": "blobs:3:300:8:2",
                                "multipliers": ["exact"], "sample_limit": 20}))
    for argv in (["campaign", "report", "--records", str(records)],
                 ["campaign", "run", "--spec", str(spec), "--weights", trained["weights"]]):
        rc = cli.main(argv + ["--energy", str(energy), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(match, err.strip())
        assert not (tmp_path / "out").exists()


def test_campaign_run_has_no_seed_flag(trained, capsys):
    # cells take their seeds from the spec, so the flag did nothing
    spec_path = trained["tmp"] / "spec.json"
    spec_path.write_text(json.dumps({"model_id": trained["model"],
                                     "dataset_id": "blobs:3:300:8:2",
                                     "multipliers": ["exact"], "sample_limit": 20}))
    assert cli.main(["campaign", "run", "--seed", "3", "--spec", str(spec_path),
                     "--weights", trained["weights"], "--out", str(trained["tmp"] / "camp")]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed 3\n"


@pytest.mark.parametrize("command", [
    ["inject", "--engine", "gpu_tiles", "--percent", "50", "--tile", "4"],
    ["inject", "--percent", "50", "--bit", "15", "--kind", "sa1", "--n", "4"],
])
def test_layer_that_is_no_gemm_layer_fails(tmp_path, command, capsys):
    # lenet-desk's layer 1 is a maxpool: the run used to report clean accuracy
    model = network.desk_model("lenet-desk")
    weights = str(tmp_path / "lenet.axdn")
    network.save_weights(training.init_weights(model, seed=0), model, weights)
    rc = cli.main(command + ["--model", "lenet-desk", "--weights", weights,
                             "--data", "digits:8:1", "--layer", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "layer_filter 1" in err


@pytest.mark.parametrize("command", [
    ["inject", "--engine", "gpu_tiles", "--tile", "0", "--percent", "0"],
    ["inject", "--engine", "gpu_tiles", "--tile", "0", "--percent", "50", "--bit", "15",
     "--kind", "sa1"],
    ["eval", "--sample-limit", "-5"],
])
def test_bad_tile_or_sample_limit_fails(trained, command, capsys):
    # tile 0 with a damaged block divided by zero in the block count, and a
    # negative sample limit scored the samples before the last five
    capsys.readouterr()
    rc = cli.main(command + ["--model", trained["model"], "--weights", trained["weights"],
                             "--data", "blobs:3:8:8:2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("tile must be at least 1" in err) != ("sample_limit must be at least 0" in err)


@pytest.mark.parametrize("engine, option, value", [
    ("float", "--weight-map", "t3.axwm"),
])
def test_eval_rejects_options_its_engine_does_not_read(trained, engine, option, value,
                                                        capsys):
    # it used to be ignored: float printed the accuracy without the map
    tmp = trained["tmp"]
    assert cli.main(["mul", "map", "--multiplier", "truncated-3",
                     "--out", str(tmp / "t3.axwm")]) == 0
    value = str(tmp / value)
    argv = ["eval", "--model", trained["model"], "--weights", trained["weights"],
            "--data", "blobs:3:8:8:2", "--engine", engine]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(argv + [option, value]) == 2
    assert capsys.readouterr().err == f"error: the {engine} engine does not read weight_map\n"


_REFUSED = [
    (["inject", "--engine", "gpu_tiles", "--n", "4", "--mode", "propagate"], "systolic"),
    (["inject", "--engine", "gpu_tiles", "--n", "4"], "systolic"),
    (["inject", "--engine", "gpu_tiles", "--mode", "bypass"], "systolic"),
    (["inject", "--engine", "gpu_tiles", "--save-map", "fm.txt"], "systolic"),
    (["inject", "--engine", "systolic", "--tile", "4"], "tile"),
    (["inject", "--engine", "systolic", "--tile-index", "1"], "tile_fault"),
    (["eval", "--engine", "float", "--multiplier", "exact"], "multiplier"),
]


@pytest.mark.parametrize("argv, field", _REFUSED,
                         ids=["-".join(argv) for argv, _ in _REFUSED])
def test_options_with_defaults_are_refused_off_their_engine(trained, argv, field, capsys):
    # each had a default, so it could not be told from an unset option and
    # was ignored: inject --engine gpu_tiles gave the same faulty_acc with
    # --n 4 --mode propagate as with --n 16 --mode bypass
    argv = [str(trained["tmp"] / a) if a == "fm.txt" else a for a in argv]
    if argv[0] == "inject":
        argv = argv + ["--percent", "50", "--bit", "15", "--kind", "sa1"]
    capsys.readouterr()
    for weights in (trained["weights"], str(trained["tmp"] / "missing.axdn")):
        # the env is built before any file is read
        rc = cli.main(argv + ["--model", trained["model"], "--weights", weights,
                              "--data", "blobs:3:8:8:2"])
        assert rc == 2
        engine = argv[argv.index("--engine") + 1]
        assert capsys.readouterr().err == f"error: the {engine} engine does not read {field}\n"
    assert not (trained["tmp"] / "fm.txt").exists()


def test_error_exit_code_and_message(tmp_path, capsys):
    rc = cli.main(["eval", "--model", "no-such-model",
                   "--weights", str(tmp_path / "missing.axdn"),
                   "--data", "blobs"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("cut", [10, -3])
def test_eval_on_cut_weights_file(trained, cut, capsys):
    # a cut header used to end in a struct.error traceback
    short = trained["tmp"] / "short.axdn"
    with open(trained["weights"], "rb") as f:
        short.write_bytes(f.read()[:cut])
    capsys.readouterr()
    rc = cli.main(["eval", "--model", trained["model"], "--weights", str(short),
                   "--data", "blobs:3:8:8:2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "layer 0 tensor W" if cut == 10 else "layer 1 tensor b"
    assert captured.err == f"error: weights file {short} is cut short in {where}\n"


def test_error_on_bad_dataset(trained, capsys):
    rc = cli.main(["eval", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "landsat:full"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_train_rejects_non_positive_batch_size(tmp_path, model_path, capsys):
    out = tmp_path / "w.axdn"
    rc = cli.main(["train", "--model", model_path, "--data", "blobs:3:50:8:1",
                   "--out", str(out), "--epochs", "1", "--batch-size", "-4"])
    assert rc == 2
    assert "batch_size must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_stop_acc_needs_eval_data(tmp_path, model_path, capsys):
    # the threshold used to be ignored: every epoch ran
    out = tmp_path / "w.axdn"
    rc = cli.main(["train", "--model", model_path, "--data", "blobs:3:50:8:1",
                   "--out", str(out), "--epochs", "2", "--stop-acc", "90"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: stop_acc needs eval_data to score the epochs against\n"
    assert not out.exists()


def test_train_rejects_zero_stride(tmp_path, capsys):
    # used to end in a ZeroDivisionError traceback and exit 1
    model = json.loads(MODEL_JSON)
    model.update(input_shape=[6, 6, 1], layers=[
        {"kind": "conv2d", "activation": "relu", "kh": 3, "kw": 3, "cin": 1, "cout": 2,
         "stride": 0, "pad": 0},
        {"kind": "flatten"}, {"kind": "dense", "in": 32, "out": 3}])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "w.axdn"
    rc = cli.main(["train", "--model", str(path), "--data", "blobs:3:50:36:1",
                   "--out", str(out), "--epochs", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: conv2d stride must be at least 1, got 0\n"
    assert not out.exists()


def test_seed_env_default(trained, capsys, monkeypatch):
    def run(seed_env):
        if seed_env is None:
            monkeypatch.delenv("AXFAULT_SEED", raising=False)
        else:
            monkeypatch.setenv("AXFAULT_SEED", seed_env)
        fmap = trained["tmp"] / f"fm-{seed_env}.txt"
        rc = cli.main(["inject", "--model", trained["model"],
                       "--weights", trained["weights"],
                       "--data", "blobs:3:100:8:2",
                       "--percent", "25", "--bit", "15", "--kind", "sa1",
                       "--n", "8", "--save-map", str(fmap)])
        assert rc == 0
        return fmap.read_text()

    a = run("11")
    b = run("11")
    c = run("12")
    assert a == b
    assert a != c


def test_non_integer_seed_env_fails_loudly(trained, capsys, monkeypatch):
    monkeypatch.setenv("AXFAULT_SEED", "eleven")
    rc = cli.main(["inject", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:100:8:2",
                   "--percent", "25", "--bit", "15", "--kind", "sa1", "--n", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "AXFAULT_SEED" in err and "eleven" in err


def test_seed_flag_overrides_env(trained, capsys, monkeypatch):
    monkeypatch.setenv("AXFAULT_SEED", "11")
    fmap = trained["tmp"] / "fm-flag.txt"
    rc = cli.main(["inject", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:100:8:2",
                   "--percent", "25", "--bit", "15", "--kind", "sa1",
                   "--n", "8", "--seed", "12", "--save-map", str(fmap)])
    assert rc == 0
    monkeypatch.delenv("AXFAULT_SEED", raising=False)
    fmap2 = trained["tmp"] / "fm-flag2.txt"
    rc = cli.main(["inject", "--model", trained["model"],
                   "--weights", trained["weights"],
                   "--data", "blobs:3:100:8:2",
                   "--percent", "25", "--bit", "15", "--kind", "sa1",
                   "--n", "8", "--seed", "12", "--save-map", str(fmap2)])
    assert rc == 0
    assert fmap.read_text() == fmap2.read_text()
