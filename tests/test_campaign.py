"""Sweep grid construction, execution, determinism, energy, reporting."""

import csv
import io
import json
import math
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from axfault import campaign as cp
from axfault import faults as fl
from axfault import mitigation as mit
from axfault import multipliers as mul
from axfault import network as net
from axfault import training
from axfault.datasets import synth_blobs
from axfault.training import HyperParams, init_weights, train


def _tiny_spec(**kw):
    base = dict(model_id="blobs-mlp", dataset_id="blobs",
                multipliers=["exact", "truncated-4"],
                fault_kinds=["sa1"], bits=[15], percents=[16.0],
                array_sizes=[8], seeds=[1, 2], sample_limit=150)
    base.update(kw)
    return cp.CampaignSpec(**base)


@pytest.fixture(scope="module")
def blobs_assets():
    train_d = synth_blobs(count=500, seed=1)
    test_d = synth_blobs(count=300, seed=2)
    model = net.ModelSpec("blobs-mlp", (8,), [net.dense(8, 16, "relu"),
                                              net.dense(16, 3)])
    ws = train(model, train_d, HyperParams(lr=0.1, epochs=15, seed=3))
    return model, ws, train_d, test_d


def test_cells_cartesian_product_size():
    spec = cp.CampaignSpec(model_id="m", dataset_id="d",
                           multipliers=["exact", "truncated-2"],
                           bits=[15, 3], percents=[1.0, 16.0, 50.0],
                           seeds=[1, 2, 3, 4, 5])
    cells = cp.cells_of(spec)
    assert len(cells) == 2 * 2 * 3 * 5
    assert [c["cell_index"] for c in cells] == list(range(60))


def test_cells_canonical_order():
    spec = _tiny_spec(bits=[15, 3])
    cells = cp.cells_of(spec)
    # seed varies fastest, then array size, layer, percent, bit
    assert cells[0]["seed"] == 1 and cells[1]["seed"] == 2
    assert cells[0]["bit"] == 15 and cells[2]["bit"] == 3
    # multiplier changes slower than bit
    assert cells[0]["multiplier"] == cells[3]["multiplier"] == "exact"
    assert cells[4]["multiplier"] == "truncated-4"


def test_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(multipliers=[])
    with pytest.raises(ValueError):
        _tiny_spec(bits=[16])
    with pytest.raises(ValueError):
        _tiny_spec(percents=[101.0])
    with pytest.raises(ValueError):
        _tiny_spec(fault_kinds=["sa2"])
    with pytest.raises(ValueError):
        _tiny_spec(engines=["tpu"])
    with pytest.raises(ValueError):
        _tiny_spec(engines=["float"])
    with pytest.raises(ValueError):
        _tiny_spec(layers=[])
    # random_fault_map and TileFaultSpec would refuse it in every cell
    with pytest.raises(ValueError, match="seeds must be at least 0, got -1$"):
        _tiny_spec(seeds=[1, -1])
    # JSON that used to crash with TypeError or be coerced to other cells
    doc = json.loads(_tiny_spec().to_json())
    for bad, match in (
            ({"bogus": 1}, r"unknown keys \['bogus'\]"),
            ({"percents": [None]}, "percents must be a finite number, got None$"),
            ({"layers": "05"}, "layers must be a non-empty list"),
            ({"layers": [1.7]}, "layers must be an integer, got 1.7$"),
            ({"bits": [True]}, "bits must be an integer, got True$"),
            ({"seeds": ["1"]}, "seeds must be an integer, got '1'$"),
            ({"array_sizes": [0]}, "array_sizes must be at least 1, got 0$"),
            ({"multipliers": [None]}, "multipliers must be a string, got None$"),
            ({"sample_limit": "all"}, "sample_limit must be an integer, got 'all'$"),
            # misspelt repair settings used to be dropped: {"epoch": 3} trained 10
            ({"mitigation": {"epoch": 3}}, r"unknown mitigation keys \['epoch'\]"),
            ({"mitigation": {"activations": "emprical"}}, "activations must be one of"),
            # wrong types used to load, then every mitigated cell recorded a TypeError
            ({"mitigation": {"epochs": "3"}}, "epochs must be an integer"),
            ({"mitigation": {"lr": None}}, "lr must be a finite number"),
            ({"mitigation": {"batch_size": 0}}, "batch_size must be at least 1"),
            ({"mitigation": {"momentum": "0.9"}}, "momentum must be a finite number"),
            ({"mitigation": {"shuffle": False}}, r"unknown mitigation keys \['shuffle'\]"),
            ({"mitigation": {"acc_thresh": "50"}}, "acc_thresh must be a finite number"),
            ({"mitigation": {"acc_thresh": float("nan")}}, "acc_thresh must be a finite number"),
            ({"mitigation": {"acc_thresh": True}}, "acc_thresh must be a finite number")):
        with pytest.raises(ValueError, match=match):
            cp.CampaignSpec.from_json(json.dumps({**doc, **bad}))
    with pytest.raises(ValueError, match="must be a JSON object"):
        cp.CampaignSpec.from_json(json.dumps([doc]))
    with pytest.raises(ValueError, match=r"missing keys \['multipliers'\]"):
        cp.CampaignSpec.from_json(json.dumps({"model_id": "m", "dataset_id": "d"}))


def test_campaign_refuses_a_multiplier_spelt_other_than_its_id(blobs_assets, monkeypatch):
    # truncated_3 used to run as truncated-3 under other cell seeds, and
    # its cells recorded no energy_pj
    model, ws, _, test_d = blobs_assets
    ran = []
    monkeypatch.setattr(cp, "golden_pass", lambda *a, **k: ran.append("golden"))
    monkeypatch.setattr(cp, "_run_cell", lambda cell: ran.append(cell))
    spec = _tiny_spec(multipliers=["truncated_3"])
    with pytest.raises(ValueError, match="unknown multiplier 'truncated_3'"):
        cp.run_campaign(spec, model, ws, test_d, energy_table=cp.ILLUSTRATIVE_ENERGY_PJ)
    assert ran == []


def test_spec_keeps_its_axes_as_checked():
    # cells read the spec's values as they are: a percent 16 is the cell of
    # 16.0, and a numpy integer is an int
    spec = _tiny_spec(bits=(np.uint8(15), 3), percents=[16, np.float64(12.5)],
                      layers=(np.int64(0),), array_sizes=[np.int16(8)], seeds=[np.int32(2)],
                      sample_limit=np.uint8(150))
    assert spec.percents == [16.0, 12.5] and spec.bits == [15, 3]
    assert type(spec.sample_limit) is int
    for cell in cp.cells_of(spec):
        assert [type(cell[axis]) for axis in cp.AXES] == [str, str, str, int, float, int,
                                                          int, int]


def test_spec_json_round_trip():
    # every repair setting a spec may hold
    mitigation = {**asdict(HyperParams(epochs=3)), "acc_thresh": 50.0,
                  "activations": "empirical"}
    spec = _tiny_spec(layers=[0, 2], mitigation=mitigation)
    back = cp.CampaignSpec.from_json(spec.to_json())
    assert back == spec
    assert back.layer_values() == [0, 2]
    assert _tiny_spec().layer_values() == [None]


def test_cells_of_a_seed_share_one_fault_draw(tmp_path):
    # a cell draws its fault from its seed as inject --seed does, so two
    # multipliers (one a LUT) and two layers of a seed are scored under one
    # map, and its fault kinds and bits share the map's positions
    table = np.outer(np.arange(-128, 128), np.arange(-128, 128)) // 2
    lut = tmp_path / "half.axlut"
    mul.save_lut(mul.from_table("half", table.astype(np.int16).reshape(-1)), lut)
    spec = cp.CampaignSpec(model_id="m", dataset_id="d", multipliers=["exact", str(lut)],
                           engines=["systolic", "gpu_tiles"], fault_kinds=["sa0", "sa1"],
                           bits=[7, 15], percents=[16.0], layers=[0, 2],
                           array_sizes=[8], seeds=[5])
    cells = cp.cells_of(spec)
    assert len(cells) == 32
    positions, tiles = set(), set()
    for cell in cells:
        env = cp._cell_env(cell, mul.parse_multiplier(cell["multiplier"]))
        fault = fl.StuckAtFault(cell["bit"], cell["fault_kind"])
        if cell["engine"] == "systolic":
            assert env.fault_map == fl.random_fault_map(8, 16.0, fault, 5)
            positions.add(frozenset(env.fault_map.entries))
        else:
            assert env.tile_fault.fault == fault
            tiles.add(replace(env.tile_fault, fault=None))
    assert len(positions) == 1 and len(next(iter(positions))) == 10
    assert tiles == {fl.TileFaultSpec(int(np.random.default_rng(5).integers(1 << 30)),
                                      0.16, None, 5)}


def test_lut_records_do_not_depend_on_path(blobs_assets, tmp_path):
    # one table saved at two paths scores alike on both engines: nothing a
    # LUT cell computes (its multiplier, plans, fault draw and records, but
    # for the multiplier field) reads the path it was loaded from
    model, ws, _, test_d = blobs_assets
    table = np.random.default_rng(4).integers(-40, 41, size=(256, 256))
    table += np.outer(np.arange(-128, 128), np.arange(-128, 128))
    lut = mul.from_table("lut", table.astype(np.int16).reshape(-1))
    runs = []
    for path in (tmp_path / "a.axlut", tmp_path / "b" / "other.axlut"):
        path.parent.mkdir(exist_ok=True)
        mul.save_lut(lut, path)
        spec = _tiny_spec(multipliers=[str(path)], engines=["systolic", "gpu_tiles"],
                          bits=[15, 9], percents=[30.0])
        runs.append([dict(asdict(r), multiplier=None)
                     for r in cp.run_campaign(spec, model, ws, test_d)])
    assert runs[0] == runs[1]


# --- mac count and energy ----------------------------------------------------


def test_mac_count_dense_models():
    one = net.ModelSpec("d", (784,), [net.dense(784, 10)])
    assert cp.mac_count(one) == 7840
    mp = net.desk_model("mp-tanh-desk")
    assert cp.mac_count(mp) == 784 * 64 + 64 * 32 + 32 * 10


def test_mac_count_lenet_frozen():
    # conv1 5*5*1*8*24*24 = 115200, conv2 5*5*8*16*8*8 = 204800,
    # dense 256*64 = 16384, dense 64*10 = 640
    assert cp.mac_count(net.desk_model("lenet-desk")) == 337024


def test_energy_estimate_exact_values():
    one = net.ModelSpec("d", (784,), [net.dense(784, 10)])
    table = {"exact": 1.0, "truncated-4": 0.9}
    assert cp.energy_estimate(one, "exact", table) == 7840 * 1e-12
    assert cp.energy_estimate(one, "truncated-4", table) == 7840 * 0.9 * 1e-12
    # linear in the MAC count
    two = net.ModelSpec("d2", (784,), [net.dense(784, 10),
                                       net.dense(10, 10)])
    assert cp.energy_estimate(two, "exact", table) == (7840 + 100) * 1e-12


def test_energy_estimate_errors():
    one = net.ModelSpec("d", (4,), [net.dense(4, 2)])
    with pytest.raises(ValueError):
        cp.energy_estimate(one, "unknown-mult", {"exact": 1.0})
    with pytest.raises(ValueError):
        cp.energy_estimate(one, "exact", {"exact": 0.0})


def test_illustrative_energy_table_shape():
    t = cp.ILLUSTRATIVE_ENERGY_PJ
    assert t["exact"] == 1.0
    ks = [t[f"truncated-{k}"] for k in (1, 2, 3, 4, 6, 8)]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    bs = [t[f"broken-carry-{k}"] for k in (1, 2, 3)]
    assert all(a > b for a, b in zip(bs, bs[1:]))
    assert all(0 < v <= 1.0 for v in t.values())


_BAD_ENERGY_TABLES = [
    ([["exact", 1.0]], "must map multiplier ids to pJ per MAC, got list"),
    ({"exact": -1}, "energy of 'exact' in pJ per MAC must be at least 5e-324, got -1.0$"),
    ({"exact": 0.0}, "energy of 'exact' in pJ per MAC must be"),
    ({"exact": float("inf")}, "energy of 'exact' in pJ per MAC must be"),
    ({"exact": float("nan")}, "energy of 'exact' in pJ per MAC must be"),
    ({"exact": "1.0"}, "energy of 'exact' in pJ per MAC must be"),
    ({"exact": True}, "energy of 'exact' in pJ per MAC must be"),
    ({1: 1.0}, "keys must be multiplier ids"),
]


@pytest.mark.parametrize("table, match", _BAD_ENERGY_TABLES,
                         ids=["list", "negative", "zero", "inf", "nan", "string", "bool",
                              "int-key"])
def test_bad_energy_table_rejected(blobs_assets, table, match):
    # a list used to read as no table, a negative cost was ranked
    model, ws, _, test_d = blobs_assets
    with pytest.raises(ValueError, match=match):
        cp.run_campaign(_tiny_spec(seeds=[1]), model, ws, test_d, energy_table=table)
    with pytest.raises(ValueError, match=match):
        cp.summarize(PINNED_RECORDS, table)


def test_good_energy_tables_accepted():
    for table in (cp.ILLUSTRATIVE_ENERGY_PJ, {"exact": 1}, {}):
        assert "## Multiplier ranking by energy" in cp.summarize(PINNED_RECORDS, table)


# --- execution ---------------------------------------------------------------


def test_zero_percent_cells_match_baseline(blobs_assets):
    # a 0% gpu_tiles cell is a tile fault that damages no position
    model, ws, train_d, test_d = blobs_assets
    for layers in ("all", [0]):
        spec = _tiny_spec(percents=[0.0], seeds=[1], engines=["systolic", "gpu_tiles"],
                          layers=layers)
        records = cp.run_campaign(spec, model, ws, test_d)
        assert len(records) == 4
        for r in records:
            assert r.error is None
            assert r.faulty_acc == r.baseline_acc
            assert r.acc_loss == 0.0


def test_acc_loss_is_consistent(blobs_assets):
    model, ws, _, test_d = blobs_assets
    records = cp.run_campaign(_tiny_spec(), model, ws, test_d)
    for r in records:
        assert r.error is None
        assert r.acc_loss == pytest.approx(r.baseline_acc - r.faulty_acc)
        assert r.mae_percent == (0.0 if r.multiplier == "exact"
                                 else 0.009918212890625)


def test_worker_count_does_not_change_results(blobs_assets):
    model, ws, _, test_d = blobs_assets
    spec = _tiny_spec()
    seq = cp.run_campaign(spec, model, ws, test_d, workers=1)
    par = cp.run_campaign(spec, model, ws, test_d, workers=2)
    assert cp.records_to_csv(seq) == cp.records_to_csv(par)


def test_axis_reorder_preserves_cell_results(blobs_assets):
    model, ws, _, test_d = blobs_assets
    a = cp.run_campaign(_tiny_spec(), model, ws, test_d)
    b = cp.run_campaign(
        _tiny_spec(multipliers=["truncated-4", "exact"], seeds=[2, 1]),
        model, ws, test_d)
    key = lambda r: (r.multiplier, r.seed)
    accs_a = {key(r): r.faulty_acc for r in a}
    accs_b = {key(r): r.faulty_acc for r in b}
    assert accs_a == accs_b


def test_gpu_engine_cells(blobs_assets):
    model, ws, _, test_d = blobs_assets
    spec = _tiny_spec(engines=["gpu_tiles"], multipliers=["exact"],
                      percents=[0.0, 50.0], seeds=[1])
    records = cp.run_campaign(spec, model, ws, test_d)
    assert all(r.error is None for r in records)
    zero, fifty = records
    assert zero.faulty_acc == zero.baseline_acc
    assert fifty.faulty_acc <= zero.faulty_acc


@pytest.mark.parametrize("as_tuple", [False, True], ids=["dataset", "tuple"])
def test_mitigation_cells(blobs_assets, as_tuple):
    model, ws, train_d, test_d = blobs_assets
    if as_tuple:
        train_d = (train_d.images, train_d.labels)
        test_d = (test_d.images, test_d.labels)
    spec = _tiny_spec(multipliers=["truncated-4"], seeds=[1],
                      mitigation={"epochs": 2, "lr": 0.1, "seed": 4,
                                  "acc_thresh": 0.0})
    records = cp.run_campaign(spec, model, ws, test_d, train_data=train_d)
    assert records[0].error is None
    assert records[0].mitigated_acc is not None
    assert 0.0 <= records[0].mitigated_acc <= 100.0


def test_a_mitigation_without_a_threshold_repairs_every_epoch(blobs_assets, monkeypatch):
    # the spec's acc_thresh defaulted to 0.0, so every repair stopped after
    # its first epoch
    model, ws, train_d, test_d = blobs_assets
    epochs = []

    def spy(*args, _real=cp._repair, **kwargs):
        out = _real(*args, **kwargs)
        epochs.append(out[3])
        return out

    monkeypatch.setattr(cp, "_repair", spy)
    spec = _tiny_spec(multipliers=["truncated-4"], seeds=[1],
                      mitigation={"epochs": 3, "lr": 0.1})
    [rec] = cp.run_campaign(spec, model, ws, test_d, train_data=train_d)
    assert rec.error is None and rec.mitigated_acc is not None
    assert epochs == [3]


def test_a_mitigated_cell_reuses_its_two_accuracies(blobs_assets, monkeypatch):
    # the repair used to score the cell's baseline and faulty accuracy again:
    # 4 evaluate calls per cell, where the cell's own and the repaired one do
    # the work
    model, ws, train_d, test_d = blobs_assets
    calls = []
    for mod in (cp, mit, training):
        def spy(*args, _real=mod.evaluate, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(mod, "evaluate", spy)
    spec = _tiny_spec(multipliers=["truncated-4"], mitigation={"epochs": 0})
    records = cp.run_campaign(spec, model, ws, test_d, train_data=train_d)
    assert len(records) == 2 and len(calls) == 2 * len(records)
    monkeypatch.undo()
    test = (test_d.images[:spec.sample_limit], test_d.labels[:spec.sample_limit])
    for rec, cell in zip(records, cp.cells_of(spec)):
        env = cp._cell_env(cell, mul.parse_multiplier(cell["multiplier"]))
        _, rep = mit.run_mitigation(model, ws, env.fault_map, env.systolic, env.multiplier,
                                    train_d, test, HyperParams(epochs=0))
        assert rec.error is None
        assert (rec.baseline_acc, rec.faulty_acc, rec.mitigated_acc) == (
            rep.baseline_acc, rep.faulty_acc_before, rep.acc_after)


def test_resumed_cells_equal_direct_evaluation(blobs_assets, tmp_path, monkeypatch):
    # 300 samples are two eval batches (256 + 44); truncated-9 takes the
    # table path at 16 and 3 rows
    model, ws, _, test_d = blobs_assets
    assert len(test_d) == 300
    table = np.random.default_rng(6).integers(-60, 61, size=(256, 256))
    table += np.outer(np.arange(-128, 128), np.arange(-128, 128))
    lut = tmp_path / "noisy.axlut"
    mul.save_lut(mul.from_table("noisy", table.astype(np.int16).reshape(-1)), lut)
    spec = _tiny_spec(engines=["systolic", "gpu_tiles"],
                      multipliers=["exact", "truncated-9", str(lut)],
                      bits=[15, 9], percents=[30.0], layers=[0, 1],
                      array_sizes=[4, 8], seeds=[1], sample_limit=300)
    resumed = []

    def spy(*args, _real=net.run_layers, **kwargs):
        # a resumed cell starts each of its two eval batches at its layer
        if kwargs.get("_clean") is not None:
            resumed.append(kwargs["_start"])
        return _real(*args, **kwargs)

    monkeypatch.setattr(net, "run_layers", spy)
    runs = [cp.run_campaign(spec, model, ws, test_d, workers=w) for w in (1, 2)]
    assert len(resumed) == 2 * len(runs[0]) == 2 * 48
    for rec, cell in zip(runs[0], cp.cells_of(spec)):
        m = mul.parse_multiplier(cell["multiplier"])
        env = cp._cell_env(cell, m)
        assert rec.error is None
        assert rec.faulty_acc == net.evaluate(model, ws, test_d, env=env, sample_limit=300)
    assert len({r.faulty_acc for r in runs[0]}) > 5
    # room for layer 1 of the first two multipliers only: the cap is spent
    # first fit, in spec order, and each entry serves both engines
    layer1 = net._state_bytes(model, 1, 300)
    assert net._state_bytes(model, 0, 300) > 2 * layer1
    monkeypatch.setattr(cp, "_GOLDEN_BYTES", 2 * layer1)
    runs.append(cp.run_campaign(spec, model, ws, test_d))
    assert resumed[2 * 48:] == [1] * 2 * 16
    monkeypatch.setattr(cp, "_GOLDEN_BYTES", 0)
    runs.append(cp.run_campaign(spec, model, ws, test_d))
    assert len(resumed) == 2 * 64
    texts = [json.dumps([asdict(r) for r in run]) for run in runs]
    assert len(set(texts)) == 1


# --- per-weight table builds ------------------------------------------------


@pytest.fixture
def table_builds(monkeypatch):
    """(weight matrix shape, faults folded in) of every per-weight table
    build: one ``_weight_tables`` call, which builds a plan's tables of a
    layer, or the slabs that one GEMM call reads."""
    builds = []

    def spy(wq, tables, sel, _real=fl._weight_tables):
        builds.append((wq.shape, sel is not None))
        return _real(wq, tables, sel)

    monkeypatch.setattr(fl, "_weight_tables", spy)
    return builds


@pytest.fixture
def lenet_lut(tmp_path):
    model = net.desk_model("lenet-desk")
    rng = np.random.default_rng(8)
    data = (rng.random((6, 28, 28, 1)), rng.integers(0, 10, 6))
    path = tmp_path / "random.axlut"
    mul.save_lut(mul.from_table("random", rng.integers(-99, 100, mul.TABLE_SIZE)
                                .astype(np.int16)), path)
    shapes = [model.gemm_weight_shape(i) for i in model.param_layers()]
    return model, init_weights(model, 2), data, str(path), shapes


def test_resumed_cells_build_no_tables(lenet_lut, table_builds):
    # the golden pass builds each layer's tables once; every resumed cell
    # reads them for its later layers, and its faulty layer reads none
    model, ws, data, lut, shapes = lenet_lut
    spec = cp.CampaignSpec(model_id="lenet-desk", dataset_id="r", multipliers=[lut],
                           fault_kinds=["sa0", "sa1"], layers=[0, 2, 5, 6],
                           engines=["systolic", "gpu_tiles"], sample_limit=None)
    records = cp.run_campaign(spec, model, ws, data, workers=1)
    assert len(records) == 16 and all(r.error is None for r in records)
    assert table_builds == [(shape, False) for shape in shapes]


def test_cells_from_the_input_fold_only_their_faulty_layers(lenet_lut, table_builds):
    # with layers "all" no cell resumes: the systolic cell folds its faults
    # into tables of every layer, the gpu cell reads the golden pass's
    model, ws, data, lut, shapes = lenet_lut
    spec = cp.CampaignSpec(model_id="lenet-desk", dataset_id="r", multipliers=[lut],
                           engines=["systolic", "gpu_tiles"], sample_limit=None)
    records = cp.run_campaign(spec, model, ws, data, workers=1)
    assert [r.error for r in records] == [None, None]
    assert table_builds == ([(shape, False) for shape in shapes]
                            + [(shape, True) for shape in shapes])


def test_evaluate_builds_tables_once_per_layer(table_builds):
    model = net.desk_model("mp-tanh-desk")
    rng = np.random.default_rng(4)
    data = (rng.random((8, 784)), rng.integers(0, 10, 8))
    lut = mul.from_table("random", rng.integers(-99, 100, mul.TABLE_SIZE).astype(np.int16))
    env = net.ExecEnv(engine="systolic", multiplier=lut, systolic=fl.SystolicConfig(n=16))
    net.evaluate(model, init_weights(model, 1), data, env, batch_size=2)
    assert table_builds == [(model.gemm_weight_shape(i), False) for i in (0, 1, 2)]


def _kept_bytes(plan) -> int:
    return (sum(q.data.nbytes + acc.nbytes for states in plan.states.values()
                for q, acc in states)
            + sum(t.nbytes for t in plan._tables.values() if t is not None))


@pytest.mark.parametrize("room", [0, 100_000, 300_000, 1_000_000, 2_000_000, 10**9])
def test_golden_pass_spends_at_most_its_room(lenet_lut, room):
    # the states take the room first, first fit in layers order, then the
    # tables what is left, layer by layer; over 6 samples lenet-desk's
    # layers 0, 2, 5 and 6 keep 115, 31, 3.1 and 0.6 kB of states, and
    # their tables take 102 kB, 1.6 MB, 8.4 MB and 328 kB
    model, ws, data, lut, _ = lenet_lut
    env = net.ExecEnv(engine="gpu_tiles", multiplier=mul.load_lut(lut))
    _, plan = net.golden_pass(model, ws, data, env, [0, 2, 5, 6], room=room)
    kept = _kept_bytes(plan)
    assert kept <= room and plan.room == room - kept
    sizes = {layer: net._state_bytes(model, layer, 6) for layer in (0, 2, 5, 6)}
    left = room
    for layer, size in sizes.items():
        assert (layer in plan.states) == (size <= left)
        left -= size * (layer in plan.states)


def test_plan_without_room_for_its_tables_builds_them_per_call(lenet_lut, table_builds):
    # a LUT plan keeps only the tables that fit in its room; a layer
    # without them builds them on every GEMM, here every eval batch
    model, ws, data, lut, shapes = lenet_lut
    env = net.ExecEnv(engine="gpu_tiles", multiplier=mul.load_lut(lut))
    small = 2 * 256 * math.prod(shapes[0])
    _, plan = net.golden_pass(model, ws, data, env, [], batch_size=2, room=small)
    assert plan.room == 0
    assert [plan.tables(model, i) is not None for i in model.param_layers()] == \
        [True, False, False, False]
    table_builds.clear()
    net.evaluate(model, ws, data, env, batch_size=2, _plan=plan)
    assert table_builds == [(shape, False) for shape in shapes[1:]] * 3


@pytest.mark.parametrize("layers", [[1], [2], [0, 99], [-1]])
def test_layers_must_be_gemm_layers(layers):
    # layer 1 is a maxpool, layer 2 a flatten
    model = net.ModelSpec("conv", (6, 6, 1), [net.conv2d(3, 3, 1, 2, activation="relu"),
                                              net.maxpool(2), net.flatten(),
                                              net.dense(8, 3)])
    data = synth_blobs(count=20, dim=36, seed=1)
    spec = _tiny_spec(model_id="conv", layers=layers)
    with pytest.raises(ValueError, match="no dense or conv2d"):
        cp.run_campaign(spec, model, init_weights(model, 1), data)


def test_mitigation_of_layer_filtered_cells_is_rejected(blobs_assets):
    # mitigation prunes and retunes every layer, so its accuracy would not
    # belong to a cell whose faults sit in one layer
    model, ws, train_d, test_d = blobs_assets
    spec = _tiny_spec(multipliers=["exact"], seeds=[1], layers=[0],
                      mitigation={"epochs": 1})
    with pytest.raises(ValueError, match="mitigation"):
        cp.run_campaign(spec, model, ws, test_d, train_data=train_d)


def test_mitigation_without_train_data_fails_before_any_evaluate(blobs_assets, monkeypatch):
    # every golden pass and faulty evaluate used to run, and then each cell
    # recorded the error
    model, ws, _, test_d = blobs_assets
    calls = []
    monkeypatch.setattr(net, "evaluate", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cp, "evaluate", lambda *a, **k: calls.append(a))
    spec = _tiny_spec(multipliers=["exact"], seeds=[1],
                      mitigation={"epochs": 1})
    with pytest.raises(ValueError, match="mitigation requested but no training data supplied"):
        cp.run_campaign(spec, model, ws, test_d)
    assert calls == []


def test_energy_column_from_table(blobs_assets):
    model, ws, _, test_d = blobs_assets
    spec = _tiny_spec(seeds=[1])
    records = cp.run_campaign(spec, model, ws, test_d,
                              energy_table={"exact": 1.0, "truncated-4": 0.85})
    macs = cp.mac_count(model)
    by = {r.multiplier: r.energy_pj for r in records}
    assert by["exact"] == pytest.approx(macs)
    assert by["truncated-4"] == pytest.approx(macs * 0.85)


def test_timing_off_by_default(blobs_assets):
    model, ws, _, test_d = blobs_assets
    records = cp.run_campaign(_tiny_spec(seeds=[1]), model, ws, test_d)
    assert all(r.wall_time_ms is None for r in records)


# --- persistence and reporting ----------------------------------------------


def test_records_json_round_trip(blobs_assets, tmp_path):
    model, ws, _, test_d = blobs_assets
    spec = _tiny_spec(multipliers=["exact"], seeds=[1],
                      mitigation={"epochs": 1})
    # an empty training set fails each mitigated cell
    empty = (test_d.images[:0], test_d.labels[:0])
    records = cp.run_campaign(spec, model, ws, test_d, train_data=empty)
    p = tmp_path / "records.json"
    cp.save_records(records, p)
    back = cp.load_records(p)
    assert back == records
    assert back[0].error is not None  # preserved through the file


def test_csv_header_pinned(blobs_assets):
    assert cp.CSV_COLUMNS == (
        "model,dataset,engine,multiplier,mae_percent,fault_kind,bit,"
        "percent_faulty,layer,array_size,seed,baseline_acc,faulty_acc,"
        "acc_loss,mitigated_acc,energy_pj,wall_time_ms"
    )
    model, ws, _, test_d = blobs_assets
    records = cp.run_campaign(_tiny_spec(seeds=[1]), model, ws, test_d)
    text = cp.records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == cp.CSV_COLUMNS
    assert len(lines) == 1 + len(records)
    row = lines[1].split(",")
    assert row[8] == "all"           # layer axis collapsed
    assert row[14] == row[16] == ""  # no mitigation, no timing
    assert "np.float64" not in text


def test_csv_quotes_a_field_that_holds_a_comma():
    # a dataset of several CIFAR-10 batches, or a LUT path with a comma,
    # wrote one field more than the header has
    rec = replace(PINNED_RECORDS[2], dataset="cifar:/d/data_batch_1,/d/data_batch_2",
                  multiplier='/luts/a,"b".axlut')
    rows = list(csv.reader(io.StringIO(cp.records_to_csv([rec, PINNED_RECORDS[3]]))))
    assert rows[0] == cp.CSV_COLUMNS.split(",")
    assert rows[1][:4] == ["blobs-mlp", rec.dataset, "gpu_tiles", rec.multiplier]
    for r, row in zip((rec, PINNED_RECORDS[3]), rows[1:]):
        assert row == [cp._field_str(n, getattr(r, n)) for n in cp._CSV_FIELDS]


def _pinned_record(i, engine, mult, kind, bit, percent, layer, asize, seed, faulty, **kw):
    return cp.CampaignRecord(
        cell_index=i, model="blobs-mlp", dataset="blobs", engine=engine,
        multiplier=mult, mae_percent=0.0 if mult == "exact" else 0.09765625,
        fault_kind=kind, bit=bit, percent=percent, layer=layer, array_size=asize,
        seed=seed, baseline_acc=90.0, faulty_acc=faulty,
        acc_loss=None if faulty is None else 90.0 - faulty, **kw)


# hand-built, so the pinned bytes depend on no BLAS or training run; every
# axis splits the records differently
PINNED_RECORDS = [
    _pinned_record(0, "systolic", "exact", "sa1", 15, 16.0, None, 8, 1, 85.5,
                   energy_pj=1376.0),
    _pinned_record(1, "systolic", "exact", "sa0", 7, 12.5, None, 8, 1, 60.25,
                   energy_pj=1376.0, wall_time_ms=3.125),
    _pinned_record(2, "gpu_tiles", "exact", "sa1", 7, 16.0, 1, 4, 2, 88.0,
                   mitigated_acc=89.5),
    _pinned_record(3, "systolic", "truncated-4", "sa1", 15, 12.5, 1, 8, 2, 80.0 / 3),
    _pinned_record(4, "systolic", "truncated-4", "sa0", 15, 16.0, None, 4, 1, None,
                   error="ValueError: boom"),
    _pinned_record(5, "gpu_tiles", "truncated-4", "sa0", 7, 12.5, None, 8, 2, 40.0),
]


def test_csv_bytes_pinned():
    assert cp.records_to_csv(PINNED_RECORDS) == (
        "model,dataset,engine,multiplier,mae_percent,fault_kind,bit,percent_faulty,"
        "layer,array_size,seed,baseline_acc,faulty_acc,acc_loss,mitigated_acc,"
        "energy_pj,wall_time_ms\n"
        "blobs-mlp,blobs,systolic,exact,0.0,sa1,15,16.0,all,8,1,90.0,85.5,4.5,,1376.0,\n"
        "blobs-mlp,blobs,systolic,exact,0.0,sa0,7,12.5,all,8,1,90.0,60.25,29.75,,"
        "1376.0,3.125\n"
        "blobs-mlp,blobs,gpu_tiles,exact,0.0,sa1,7,16.0,1,4,2,90.0,88.0,2.0,89.5,,\n"
        "blobs-mlp,blobs,systolic,truncated-4,0.09765625,sa1,15,12.5,1,8,2,90.0,"
        "26.666666666666668,63.33333333333333,,,\n"
        "blobs-mlp,blobs,systolic,truncated-4,0.09765625,sa0,15,16.0,all,4,1,90.0,,,,,\n"
        "blobs-mlp,blobs,gpu_tiles,truncated-4,0.09765625,sa0,7,12.5,all,8,2,90.0,"
        "40.0,50.0,,,\n")


def test_summary_bytes_pinned():
    assert cp.summarize(PINNED_RECORDS) == """\
# Campaign summary

- records: 6 (1 failed)
- model: blobs-mlp, dataset: blobs

## Multiplier ranking by mean faulty accuracy

| rank | multiplier | mean faulty acc (%) | mean acc loss (pts) |
|---|---|---|---|
| 1 | exact | 77.92 | 12.08 |
| 2 | truncated-4 | 33.33 | 56.67 |

## Multiplier ranking by energy per inference

| rank | multiplier | energy (pJ/inference) |
|---|---|---|
| 1 | exact | 1376.0 |

## Mean faulty accuracy by engine

| multiplier | systolic | gpu_tiles |
|---|---|---|
| exact | 72.88 | 88.00 |
| truncated-4 | 26.67 | 40.00 |

## Mean faulty accuracy by fault_kind

| multiplier | sa1 | sa0 |
|---|---|---|
| exact | 86.75 | 60.25 |
| truncated-4 | 26.67 | 40.00 |

## Mean faulty accuracy by bit

| multiplier | 15 | 7 |
|---|---|---|
| exact | 85.50 | 74.12 |
| truncated-4 | 26.67 | 40.00 |

## Mean faulty accuracy by percent

| multiplier | 16 | 12.5 |
|---|---|---|
| exact | 86.75 | 60.25 |
| truncated-4 |  | 33.33 |

## Mean faulty accuracy by layer

| multiplier | all | 1 |
|---|---|---|
| exact | 72.88 | 88.00 |
| truncated-4 | 40.00 | 26.67 |

## Mean faulty accuracy by array_size

| multiplier | 8 | 4 |
|---|---|---|
| exact | 72.88 | 88.00 |
| truncated-4 | 33.33 |  |

## Mean faulty accuracy by seed

| multiplier | 1 | 2 |
|---|---|---|
| exact | 72.88 | 88.00 |
| truncated-4 |  | 33.33 |

"""
    # records without an energy column rank by the table's per-MAC costs
    text = cp.summarize([r for r in PINNED_RECORDS if r.energy_pj is None],
                        cp.ILLUSTRATIVE_ENERGY_PJ)
    assert """\
| rank | multiplier | energy (pJ/MAC) |
|---|---|---|
| 1 | truncated-4 | 0.85 |
| 2 | exact | 1.00 |
""" in text


def test_summary_contains_both_rankings(blobs_assets):
    model, ws, _, test_d = blobs_assets
    records = cp.run_campaign(_tiny_spec(), model, ws, test_d,
                              energy_table=cp.ILLUSTRATIVE_ENERGY_PJ)
    text = cp.summarize(records, cp.ILLUSTRATIVE_ENERGY_PJ)
    assert "## Multiplier ranking by mean faulty accuracy" in text
    assert "## Multiplier ranking by energy per inference" in text
    assert "truncated-4" in text


def test_summary_without_energy_says_so(blobs_assets):
    model, ws, _, test_d = blobs_assets
    records = cp.run_campaign(_tiny_spec(seeds=[1]), model, ws, test_d)
    text = cp.summarize(records)
    assert "No energy table supplied" in text


def test_emit_report_deterministic_bytes(blobs_assets, tmp_path):
    model, ws, _, test_d = blobs_assets
    records = cp.run_campaign(_tiny_spec(), model, ws, test_d,
                              energy_table=cp.ILLUSTRATIVE_ENERGY_PJ)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    w1 = cp.emit_report(records, d1, cp.ILLUSTRATIVE_ENERGY_PJ)
    w2 = cp.emit_report(records, d2, cp.ILLUSTRATIVE_ENERGY_PJ)
    assert [os.path.basename(p) for p in w1] == \
           [os.path.basename(p) for p in w2]
    for p1, p2 in zip(w1, w2):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()


def test_emit_report_chart_per_swept_axis(blobs_assets, tmp_path):
    model, ws, _, test_d = blobs_assets
    spec = _tiny_spec(bits=[3, 15])  # multiplier, bit, seed swept
    records = cp.run_campaign(spec, model, ws, test_d)
    written = cp.emit_report(records, tmp_path)
    names = {os.path.basename(p) for p in written}
    assert "results.csv" in names and "summary.md" in names
    charts = {n for n in names if n.endswith(".svg")}
    assert charts == {"chart_multiplier.svg", "chart_bit.svg",
                      "chart_seed.svg"}


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        cp.emit_report([], tmp_path)
