"""Sweep grid construction, execution, determinism, energy, reporting."""

import os
from dataclasses import asdict

import numpy as np
import pytest

from axfault import campaign as cp
from axfault import multipliers as mul
from axfault import network as net
from axfault.datasets import synth_blobs
from axfault.training import HyperParams, train


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


def test_spec_json_round_trip():
    spec = _tiny_spec(layers=[0, 2], mitigation={"epochs": 3})
    back = cp.CampaignSpec.from_json(spec.to_json())
    assert back == spec
    assert back.layer_values() == [0, 2]
    assert _tiny_spec().layer_values() == [None]


def _seed(c):
    return cp.cell_seed(c, mul.parse_multiplier(c["multiplier"]))


def test_cell_seed_depends_on_values_not_position():
    spec_a = _tiny_spec()
    spec_b = _tiny_spec(multipliers=["truncated-4", "exact"], seeds=[2, 1])
    seeds_a = {(c["multiplier"], c["seed"]): _seed(c) for c in cp.cells_of(spec_a)}
    seeds_b = {(c["multiplier"], c["seed"]): _seed(c) for c in cp.cells_of(spec_b)}
    assert seeds_a == seeds_b


def test_cell_seed_distinguishes_percent_format():
    c = cp.cells_of(_tiny_spec(percents=[16.0]))[0]
    d = dict(c, percent=16.5)
    assert _seed(c) != _seed(d)
    assert _seed(c) == _seed(dict(c))


def test_lut_cells_seeded_by_table_not_path(blobs_assets, tmp_path):
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


# --- execution ---------------------------------------------------------------


def test_zero_percent_cells_match_baseline(blobs_assets):
    model, ws, train_d, test_d = blobs_assets
    spec = _tiny_spec(multipliers=["exact"], percents=[0.0], seeds=[1])
    records = cp.run_campaign(spec, model, ws, test_d)
    assert len(records) == 1
    r = records[0]
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


def test_mitigation_cells(blobs_assets):
    model, ws, train_d, test_d = blobs_assets
    spec = _tiny_spec(multipliers=["truncated-4"], seeds=[1],
                      mitigation={"epochs": 2, "lr": 0.1, "seed": 4,
                                  "acc_thresh": 0.0})
    records = cp.run_campaign(spec, model, ws, test_d, train_data=train_d)
    assert records[0].error is None
    assert records[0].mitigated_acc is not None
    assert 0.0 <= records[0].mitigated_acc <= 100.0


def test_mitigation_without_train_data_records_error(blobs_assets):
    model, ws, _, test_d = blobs_assets
    spec = _tiny_spec(multipliers=["exact"], seeds=[1],
                      mitigation={"epochs": 1})
    records = cp.run_campaign(spec, model, ws, test_d)
    assert records[0].error is not None
    assert records[0].mitigated_acc is None


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
    records = cp.run_campaign(spec, model, ws, test_d)
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
