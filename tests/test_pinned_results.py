"""Pins of what the quantized simulator computes.

Each env's logits on lenet-desk, with ``init_weights(1)`` and 64 images
drawn from a seeded generator, and the ``records.json`` bytes of three small
campaigns are hashed and compared with stored SHA-256 digests. A change
that moves any quantized result fails here, naming the env or campaign.
Only a change that alters results on purpose updates a digest, and its
CHANGES.md entry gives the cause.

Only quantized results are pinned: the float engine's and training's bits
depend on BLAS kernels and thread counts. The model is relu, and the
inputs are generator draws, because numpy's SIMD tanh, sin and cos may
differ in the last bit across CPUs. A mitigated cell runs 0 epochs, so it
trains nothing.
"""

import hashlib

import numpy as np
import pytest

from axfault import campaign as cp
from axfault import faults as fl
from axfault import multipliers as mul
from axfault.datasets import Dataset
from axfault.network import ExecEnv, desk_model, forward
from axfault.training import init_weights

MODEL = desk_model("lenet-desk")
WEIGHTS = init_weights(MODEL, 1)
_rng = np.random.default_rng(2024)
IMAGES = _rng.random((64, 28, 28, 1))
LABELS = _rng.integers(0, 10, 64)

# the exact products plus seeded noise in [-64, 64]: its weight-0 products
# are not all 0, so its bypass folds faults into its tables
SEEDED_LUT = mul.from_table("lut-seeded", (
    mul.exact_multiplier().table.astype(np.int32)
    + np.random.default_rng(7).integers(-64, 65, mul.TABLE_SIZE)).astype(np.int16))
MULTIPLIERS = (mul.exact_multiplier(), mul.truncated_multiplier(4),
               mul.broken_carry_multiplier(2), SEEDED_LUT)

# an 8 x 8 map with 16% of its MACs faulty: sign faults, which take the
# sign counts, and two others, whose products are formed
_F = fl.StuckAtFault
_FAULTS = (_F(15, "sa1"), _F(7, "sa0"), _F(3, "sa1"), _F(15, "sa0"))
FAULT_MAP = fl.FaultMap(8, {ij: _FAULTS[k % len(_FAULTS)] for k, ij in enumerate(
    sorted(fl.random_fault_map(8, 16.0, _FAULTS[0], seed=2).entries))})
TILE_FAULT = fl.TileFaultSpec(tile_index=5, damaged_fraction=0.4, fault=_F(13, "sa1"), seed=3)


def _envs():
    for m in MULTIPLIERS:
        yield f"{m.id}-clean", ExecEnv(engine="systolic", multiplier=m,
                                       systolic=fl.SystolicConfig(8))
        for mode in fl.GEMM_MODES:
            yield f"{m.id}-{mode}", ExecEnv(engine="systolic", multiplier=m,
                                            systolic=fl.SystolicConfig(8, mode),
                                            fault_map=FAULT_MAP)
        yield f"{m.id}-gpu-tile-fault", ExecEnv(engine="gpu_tiles", multiplier=m, tile=16,
                                                tile_fault=TILE_FAULT)


ENVS = dict(_envs())

LOGITS = {
    "broken-carry-2-bypass": "71bf22fac8ebc4ac8de3edac7089f24b2da24750ac3e859d6f7debd9695cf9ea",
    "broken-carry-2-clean": "480e943b742e885290267257b418ab2588b9af357be032733077ca74a8202c33",
    "broken-carry-2-gpu-tile-fault": "8370da1808a7f4c27b4f7b831959b2b6b1aec50af4d2d3485228eccc468bdd5a",
    "broken-carry-2-propagate": "5f306f1d1ed97a1e7eaff70c59377b852c429403ecb68939d7fbe156aa21b12d",
    "exact-bypass": "11e36a540d7a69a0337f67b2019a4c50d81df0c224565f818134b848f2399700",
    "exact-clean": "d5dece3b7ebaef5a728c3edc4b9d100c95ca02d495770f2f202c3955408b14a6",
    "exact-gpu-tile-fault": "8442d770d98e8ae059266336fff4f21c34cd7666be6c7fda0a027411d49da79e",
    "exact-propagate": "63049624fab1f264d76ed5f99f903ba804c0f3671882de5a64732bd12db30024",
    "lut-seeded-bypass": "10d7c9efba243603cae4a3a5530a6a1a2f9d7c0faa1245571fd0c115efa317e6",
    "lut-seeded-clean": "d56a50ea3463642b822e476acbe229b85bc20a861a812ec2b292076ee035b1a6",
    "lut-seeded-gpu-tile-fault": "ea8498aaf0bddb5b3e3fc1d434d98db2cadd8349d8bd3eeca368e752c658902c",
    "lut-seeded-propagate": "690c32f63c8b18acf37e61b5fa9d17585a84f37aad7bb2bdf2575684457c9ffe",
    "truncated-4-bypass": "b71074956274dbae10e8da1ca5e89636573bf86c0ec5f729fc9e9079feb70695",
    "truncated-4-clean": "adf77bac606a933c3d0856123743c0b5a20249e003c9d7dd96bebb8636ace8e2",
    "truncated-4-gpu-tile-fault": "2414338c59d609bc881921926d2fb3d0af1aa87f550a7c35acd1204fdd94f20e",
    "truncated-4-propagate": "ad7f040d0faf699d19f9e95bf7d6046a8cc2b442a7904240dd1b9f31f5a7d6b4",
}


def logits_digest(env: ExecEnv) -> str:
    logits = forward(MODEL, WEIGHTS, IMAGES, env)["logits"]
    return hashlib.sha256(np.ascontiguousarray(logits, dtype="<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ENVS))
def test_logits_are_pinned(name):
    assert logits_digest(ENVS[name]) == LOGITS[name]


# both engines, three multipliers (the LUT loaded from a file, as a spec
# names it), both kinds, two bits, two array sizes and two seeds, on
# layer 0 alone and on every layer; and one mitigated cell
CAMPAIGNS = {
    "layer-0": dict(layers=[0]),
    "all-layers": dict(layers="all"),
    "mitigated": dict(multipliers=["seeded.axlut"], fault_kinds=["sa1"], bits=[15],
                      array_sizes=[8], engines=["systolic"], seeds=[1],
                      mitigation={"epochs": 0}),
}

RECORDS = {
    "all-layers": "6212d66cc61660d27d9967b2cbe0d3882d9f7717014e0b31b97c53b6e1e304e2",
    "layer-0": "641e442c7a58c148f0e08762b9f5914dc0bd456af3b05925bd32b9995bd03a78",
    "mitigated": "637de8a7896c13f4a79392b15ecc592796d114cf661e1c05f1982a47fb2052e5",
}


def records_digest(name: str) -> str:
    """The SHA-256 of campaign ``name``'s ``records.json``, run in the
    working directory, which holds its LUT file: a record names the LUT by
    the path its spec gives."""
    mul.save_lut(SEEDED_LUT, "seeded.axlut")
    spec = cp.CampaignSpec(**{
        "model_id": "lenet-desk", "dataset_id": "rng-64",
        "multipliers": ["exact", "truncated-4", "seeded.axlut"],
        "fault_kinds": ["sa0", "sa1"], "bits": [15, 6], "percents": [25.0],
        "array_sizes": [4, 8], "engines": ["systolic", "gpu_tiles"], "seeds": [1, 2],
        "sample_limit": 16, **CAMPAIGNS[name]})
    data = Dataset("rng-64", IMAGES, LABELS)
    records = cp.run_campaign(spec, MODEL, WEIGHTS, data, train_data=data)
    assert all(r.error is None and r.wall_time_ms is None for r in records)
    cp.save_records(records, "records.json")
    with open("records.json", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_records_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert records_digest(name) == RECORDS[name]
