"""The benchmark's three workloads.

Every input comes from the workload seed: the digit sets, the training seed,
the fault maps, the tile fault, the campaign ``seeds`` axis and the ``lut``
table. A workload is one closed loop in one process (the sweep's campaign
pool aside): ``setup`` synthesizes the digits and trains the model,
``prepare`` builds the other inputs, ``iterate`` runs one pass of the loop
and returns the simulated statistics that go into the digest, and
``check_envs`` lists the configs whose GEMM calls are replayed against the
oracle.

The library is called through module attributes (``network.evaluate``, not
a name imported from it), so the traced run's patches see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

from axfault import campaign, datasets, faults, mitigation, multipliers, network, training

from tracing import eval_label

N_TRAIN = 800
N_TEST = 256
ARRAY = 16  # systolic array side and gpu tile side
FAULT = faults.StuckAtFault(15, "sa1")
FAULT_PERCENT = 16.0


def sub_seed(seed: int, tag: str) -> int:
    """Independent 31-bit seed for one input stream of the workload."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "big") >> 1


def write_lut(seed: int, path: str) -> str:
    """A seeded multiplier that matches no built-in family: the exact table
    plus noise on 30% of the products of two nonzero operands (a product
    with a zero operand stays 0, so zero padding and ReLU zeros stay exact)."""
    v = np.arange(-128, 128)
    table = np.outer(v, v)
    rng = np.random.default_rng(sub_seed(seed, "lut"))
    noise = rng.integers(-24, 25, size=table.shape) * (rng.random(table.shape) < 0.3)
    noise[128, :] = 0
    noise[:, 128] = 0
    m = multipliers.from_table("lut", (table + noise).astype(np.int16).reshape(-1))
    multipliers.save_lut(m, path)
    return path


def layer_macs(model) -> dict:
    """MACs per sample of each parameter layer."""
    shapes = model.shapes()
    macs = {}
    for idx in model.param_layers():
        p = model.layers[idx].params
        if model.layers[idx].kind == "dense":
            macs[idx] = p["in"] * p["out"]
        else:
            h, w, _ = shapes[idx]
            macs[idx] = p["kh"] * p["kw"] * p["cin"] * p["cout"] * h * w
    return macs


@dataclasses.dataclass
class Setup:
    model: network.ModelSpec
    weights: network.WeightSet
    train: datasets.Dataset
    test: datasets.Dataset


class Workload:
    model_id = "mp-tanh-desk"
    train_hp = {"epochs": 15}
    float_floor = 50.0  # percent; well above the 10% of an untrained net

    def __init__(self, seed: int, scratch: str, workers: int = 1):
        self.seed = seed
        self.scratch = scratch
        self.workers = workers
        self.s = None

    def setup(self) -> Setup:
        train = datasets.synth_digits(N_TRAIN, seed=sub_seed(self.seed, "train-digits"),
                                      split="train")
        test = datasets.synth_digits(N_TEST, seed=sub_seed(self.seed, "test-digits"),
                                     split="test")
        model = network.desk_model(self.model_id)
        hp = training.HyperParams(seed=sub_seed(self.seed, "train"), **self.train_hp)
        return Setup(model, training.train(model, train, hp), train, test)

    def prepare(self, s: Setup) -> None:
        self.s = s

    def prefix_mmacs_share(self) -> float:
        return 0.0


class MlpEval(Workload):
    """The aim-1 matrix on mp-tanh-desk: deep, narrow dense GEMMs."""

    # a float pass over the test set takes about a millisecond; repeat it so
    # its time is well above timer and scheduler noise
    FLOAT_REPEATS = 20

    def prepare(self, s):
        super().prepare(s)
        fm = faults.random_fault_map(ARRAY, FAULT_PERCENT, FAULT,
                                     seed=sub_seed(self.seed, "fault-map"))
        tf = faults.TileFaultSpec(tile_index=sub_seed(self.seed, "tile-index"),
                                  damaged_fraction=FAULT_PERCENT / 100.0, fault=FAULT,
                                  seed=sub_seed(self.seed, "tile-fault"))
        lut = multipliers.load_lut(
            write_lut(self.seed, os.path.join(self.scratch, "lut.bin")), "lut")
        mult = {mid: multipliers.parse_multiplier(mid)
                for mid in ("exact", "truncated-4", "broken-carry-2")}
        mult["lut"] = lut
        envs = [network.ExecEnv()]
        for mid in ("exact", "truncated-4", "broken-carry-2", "lut"):
            m = mult[mid]
            envs += [
                network.ExecEnv("systolic", m, faults.SystolicConfig(ARRAY)),
                network.ExecEnv("systolic", m, faults.SystolicConfig(ARRAY, "propagate"),
                                fault_map=fm),
                network.ExecEnv("systolic", m, faults.SystolicConfig(ARRAY, "bypass"),
                                fault_map=fm),
            ]
        for mid in ("exact", "truncated-4"):
            envs += [network.ExecEnv("gpu_tiles", mult[mid], tile=ARRAY),
                     network.ExecEnv("gpu_tiles", mult[mid], tile=ARRAY, tile_fault=tf)]
        self.envs = envs

    def iterate(self, ledger):
        s = self.s
        stats = {}
        seconds = {}
        samples = {}
        for env in self.envs:
            label = eval_label(env)
            for _ in range(self.FLOAT_REPEATS if env.engine == "float" else 1):
                t0 = time.perf_counter()
                acc = network.evaluate(s.model, s.weights, s.test, env)
                seconds[env.engine] = seconds.get(env.engine, 0.0) + time.perf_counter() - t0
                samples[env.engine] = samples.get(env.engine, 0) + len(s.test)
                ledger.op(0.0 <= acc <= 100.0, f"{label}: accuracy {acc} out of range")
            stats[label] = acc
        rates = {f"{e}_samples_per_s": samples[e] / seconds[e] for e in seconds}
        return stats, rates

    def check_envs(self):
        return [e for e in self.envs if e.engine != "float"], self.s.test.subset(32)


class LenetSweep(Workload):
    """A layer-filtered campaign on lenet-desk: shallow, very wide conv GEMMs."""

    model_id = "lenet-desk"
    # at lr 0.05 and batch 64, three epochs on 800 digits leave some seeds'
    # nets near chance; this setting trains every seed tried to 69% or more
    train_hp = {"lr": 0.03, "batch_size": 32, "epochs": 3}
    float_floor = 40.0
    SAMPLE_LIMIT = 64
    LAYERS = [0, 2, 5, 6]

    def prepare(self, s):
        super().prepare(s)
        self.lut_path = write_lut(self.seed, os.path.join(self.scratch, "lut.bin"))
        self.spec = campaign.CampaignSpec(
            model_id=self.model_id, dataset_id=s.test.id,
            multipliers=["exact", self.lut_path], fault_kinds=["sa0", "sa1"],
            bits=[15], percents=[FAULT_PERCENT], layers=self.LAYERS,
            array_sizes=[ARRAY], engines=["systolic", "gpu_tiles"],
            seeds=[sub_seed(self.seed, "campaign")], sample_limit=self.SAMPLE_LIMIT)
        self.report_dir = os.path.join(self.scratch, "report")
        self.n_cells = len(campaign.cells_of(self.spec))

    def iterate(self, ledger):
        s = self.s
        energy = campaign.ILLUSTRATIVE_ENERGY_PJ
        t0 = time.perf_counter()
        records = campaign.run_campaign(self.spec, s.model, s.weights, s.test,
                                        energy_table=energy, workers=self.workers,
                                        include_timing=True)
        campaign.emit_report(records, self.report_dir, energy)
        dt = time.perf_counter() - t0
        for r in records:
            ledger.op(r.error is None, f"cell {r.cell_index}: {r.error}")
        with open(os.path.join(self.report_dir, "results.csv")) as f:
            rows = sum(1 for _ in f) - 1
        ledger.op(rows == len(records) == self.n_cells,
                  f"report has {rows} rows for {len(records)} of {self.n_cells} cells")
        stats = []
        for r in records:
            d = dataclasses.asdict(r)
            del d["wall_time_ms"]
            if d["multiplier"] == self.lut_path:
                d["multiplier"] = "lut"
            stats.append(d)
        return stats, {"cells_per_s": len(records) / dt}

    def check_envs(self):
        lut = multipliers.load_lut(self.lut_path)
        envs = []
        for kind in ("sa0", "sa1"):
            fault = faults.StuckAtFault(15, kind)
            fm = faults.random_fault_map(ARRAY, FAULT_PERCENT, fault,
                                         seed=sub_seed(self.seed, f"check-map-{kind}"))
            tf = faults.TileFaultSpec(sub_seed(self.seed, f"check-index-{kind}"),
                                      FAULT_PERCENT / 100.0, fault,
                                      sub_seed(self.seed, f"check-tile-{kind}"))
            for m in (multipliers.exact_multiplier(), lut):
                envs += [network.ExecEnv("systolic", m, faults.SystolicConfig(ARRAY),
                                         fault_map=fm),
                         network.ExecEnv("gpu_tiles", m, tile=ARRAY, tile_fault=tf)]
        return envs, self.s.test.subset(2)

    def prefix_mmacs_share(self) -> float:
        """Share of the cells' MACs spent on layers before the filtered one."""
        macs = layer_macs(self.s.model)
        prefix = sum(sum(v for i, v in macs.items() if i < layer) for layer in self.LAYERS)
        return 100.0 * prefix / (len(self.LAYERS) * sum(macs.values()))


class MlpRepair(Workload):
    """Repeated run_mitigation on mp-tanh-desk: float training dominates."""

    REPAIR_EPOCHS = 20

    def prepare(self, s):
        super().prepare(s)
        self.fm = faults.random_fault_map(ARRAY, FAULT_PERCENT, FAULT,
                                          seed=sub_seed(self.seed, "fault-map"))
        self.m = multipliers.truncated_multiplier(3)
        self.cfg = faults.SystolicConfig(ARRAY)
        self.hp = training.HyperParams(lr=0.03, epochs=self.REPAIR_EPOCHS,
                                       seed=sub_seed(self.seed, "repair"))

    def iterate(self, ledger):
        s = self.s
        t0 = time.perf_counter()
        # an unreachable threshold, so every repair runs all its epochs
        _, rep = mitigation.run_mitigation(s.model, s.weights, self.fm, self.cfg, self.m,
                                           s.train, s.test, self.hp, math.inf,
                                           activations="empirical", capture_limit=N_TEST)
        dt = time.perf_counter() - t0
        ledger.op(rep.epochs_used == self.hp.epochs,
                  f"repair stopped after {rep.epochs_used} epochs")
        return json.loads(rep.to_json()), {"repair_s": dt}

    def check_envs(self):
        bypass = faults.SystolicConfig(ARRAY, "bypass")
        envs = [network.ExecEnv("systolic", self.m, self.cfg),
                network.ExecEnv("systolic", self.m, self.cfg, fault_map=self.fm),
                network.ExecEnv("systolic", self.m, bypass, fault_map=self.fm)]
        return envs, self.s.test.subset(32)


WORKLOADS = {"mlp-eval": MlpEval, "lenet-sweep": LenetSweep, "mlp-repair": MlpRepair}

# figures each workload prints besides the shared end-to-end metrics, as
# (name, unit); each is the median over the timed phase's iterations
DETAIL_METRICS = {
    "mlp-eval": [("float_samples_per_s", "samples/s"),
                 ("systolic_samples_per_s", "samples/s"),
                 ("gpu_tiles_samples_per_s", "samples/s")],
    "lenet-sweep": [("cells_per_s", "cells/s")],
    "mlp-repair": [("repair_s", "s")],
}
