"""Self-tests of the benchmark: the GEMM oracle and the span arithmetic.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from axfault import faults, multipliers, network  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402


def _random_lut(rng):
    v = np.arange(-128, 128)
    table = np.outer(v, v) + rng.integers(-40, 41, size=(256, 256))
    return multipliers.from_table("lut", table.astype(np.int16).reshape(-1))


MULTIPLIERS = [multipliers.exact_multiplier(), multipliers.truncated_multiplier(4),
               multipliers.broken_carry_multiplier(2), _random_lut(np.random.default_rng(3))]


def _operands(rng, rows, depth, batch):
    return (rng.integers(-127, 128, size=(rows, depth)).astype(np.int8),
            rng.integers(-127, 128, size=(depth, batch)).astype(np.int8))


@pytest.mark.parametrize("m", MULTIPLIERS, ids=lambda m: m.id)
@pytest.mark.parametrize("mode", ["propagate", "bypass"])
@pytest.mark.parametrize("kind", ["sa0", "sa1"])
def test_oracle_matches_systolic_gemm(m, mode, kind):
    rng = np.random.default_rng(7)
    wq, aq = _operands(rng, 37, 53, 11)
    fm = faults.random_fault_map(8, 25.0, faults.StuckAtFault(rng.integers(16), kind), seed=5)
    cfg = faults.SystolicConfig(8, mode)
    out = faults.systolic_gemm(wq, aq, m, fm, cfg)
    bound = {"wq": wq, "aq": aq, "m": m, "fm": fm, "cfg": cfg}
    assert oracle.call_matches("systolic_gemm", bound, out, rng, k=11)
    cols = np.arange(11)
    assert np.array_equal(oracle.reference("systolic_gemm", bound, cols), out)


@pytest.mark.parametrize("m", MULTIPLIERS[:2] + MULTIPLIERS[3:], ids=lambda m: m.id)
@pytest.mark.parametrize("tile_index", [0, 5, 11])
def test_oracle_matches_gpu_tile_gemm_with_ragged_blocks(m, tile_index):
    rng = np.random.default_rng(11)
    wq, aq = _operands(rng, 21, 30, 45)  # 3 x 4 blocks of 8, ragged at both edges
    tf = faults.TileFaultSpec(tile_index, 0.4, faults.StuckAtFault(14, "sa1"), seed=9)
    out = faults.gpu_tile_gemm(wq, aq, m, tf, 8)
    bound = {"wq": wq, "aq": aq, "m": m, "tf": tf, "tile": 8}
    assert oracle.call_matches("gpu_tile_gemm", bound, out, rng, k=5)
    assert np.array_equal(oracle.reference("gpu_tile_gemm", bound, np.arange(45)), out)


def test_sampled_columns_hold_the_damaged_block():
    rng = np.random.default_rng(0)
    wq, aq = _operands(rng, 8, 4, 100)
    tf = faults.TileFaultSpec(9, 0.5, faults.StuckAtFault(15, "sa0"), seed=1)
    cols = oracle.sample_columns("gpu_tile_gemm", {"wq": wq, "aq": aq, "tf": tf, "tile": 8},
                                 rng, 3)
    assert set(range(72, 80)) <= set(cols.tolist())


def test_oracle_catches_one_wrong_product():
    rng = np.random.default_rng(2)
    m = multipliers.exact_multiplier()
    wq, aq = _operands(rng, 16, 24, 6)
    fm = faults.random_fault_map(4, 25.0, faults.StuckAtFault(3, "sa1"), seed=2)
    cfg = faults.SystolicConfig(4, "propagate")
    out = faults.systolic_gemm(wq, aq, m, fm, cfg)
    bound = {"wq": wq, "aq": aq, "m": m, "fm": fm, "cfg": cfg}
    assert oracle.call_matches("systolic_gemm", bound, out, rng)
    # the oracle's table differs in exactly the one product (a[0, 0], w[0, 0])
    wrong = m.table.copy()
    wrong[((int(aq[0, 0]) + 128) << 8) | (int(wq[0, 0]) + 128)] += 1
    assert not oracle.call_matches("systolic_gemm", bound, out, rng, table=wrong)


def test_oracle_catches_a_wrong_faulty_product():
    rng = np.random.default_rng(4)
    m = multipliers.exact_multiplier()
    wq, aq = _operands(rng, 8, 8, 4)
    fm = faults.FaultMap(4, {(1, 2): faults.StuckAtFault(0, "sa1")})
    cfg = faults.SystolicConfig(4, "propagate")
    out = faults.systolic_gemm(wq, aq, m, fm, cfg).astype(np.int64)
    bound = {"wq": wq, "aq": aq, "m": m, "fm": fm, "cfg": cfg}
    ref = oracle.reference("systolic_gemm", bound, np.arange(4))
    assert np.array_equal(ref, out)
    # the same call without the fault differs wherever bit 0 was clear
    clean = dict(bound, fm=None)
    assert not np.array_equal(oracle.reference("systolic_gemm", clean, np.arange(4)), out)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert tracing.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert tracing.covered([(2.0, 6.0), (3.0, 4.0)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, "timed"],
        ["b", 1.0, 4.0, 0, "timed"],
        ["c", 2.0, 3.0, 1, "timed"],
        ["b", 5.0, 6.5, 0, "timed"],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])
    table = tracing.layer_table([[tracing.LAYERS[0], 0.0, 2.0, -1, "setup"]])
    assert table[tracing.LAYERS[0]] == [1, 2.0, 2.0]
    assert all(table[layer] == [0, 0.0, 0.0] for layer in tracing.LAYERS[1:])


def test_tracer_records_nesting_and_counts_and_restores():
    model = network.desk_model("mp-tanh-desk")
    rng = np.random.default_rng(0)
    ws = network.WeightSet({i: {"W": rng.normal(size=model.gemm_weight_shape(i)) * 0.1,
                                "b": np.zeros(model.gemm_weight_shape(i)[0])}
                            for i in model.param_layers()})
    data = (rng.random((5, 784)), np.arange(5))
    fm = faults.random_fault_map(16, 16.0, faults.StuckAtFault(15, "sa1"), seed=1)
    env = network.ExecEnv("systolic", multipliers.exact_multiplier(),
                          faults.SystolicConfig(16), fault_map=fm)
    original = network.systolic_gemm
    tracer = tracing.Tracer()
    with tracer.tracing("timed"):
        network.evaluate(model, ws, data, env)
    assert network.systolic_gemm is original
    names = [s[0] for s in tracer.spans]
    assert names.count("network.evaluate") == 1
    assert names.count("faults.systolic_gemm") == 3
    assert all(s[3] == 0 for s in tracer.spans[1:])  # children of evaluate
    counts = {k: v for (_, k), v in tracer.counts.items()}
    assert counts["faults.systolic_gemm.mmacs"] == pytest.approx(5 * (784 * 64 + 64 * 32 + 32 * 10) / 1e6)
    brute = sum(5 for r in range(64) for c in range(784) if (r % 16, c % 16) in fm.entries)
    brute += sum(5 for r in range(32) for c in range(64) if (r % 16, c % 16) in fm.entries)
    brute += sum(5 for r in range(10) for c in range(32) if (r % 16, c % 16) in fm.entries)
    assert counts["faults.faulty_mmacs"] == pytest.approx(brute / 1e6)
    assert counts["network.evaluate.systolic.exact.propagate.samples"] == 5


def test_eval_label_names_engine_multiplier_and_state():
    m = multipliers.truncated_multiplier(4)
    fm = faults.random_fault_map(16, 16.0, faults.StuckAtFault(15, "sa1"), seed=1)
    tf = faults.TileFaultSpec(0, 0.16, faults.StuckAtFault(15, "sa1"), seed=1)
    assert tracing.eval_label(None) == "float"
    assert tracing.eval_label(network.ExecEnv("systolic", m, faults.SystolicConfig(16))) \
        == "systolic.truncated-4.clean"
    assert tracing.eval_label(network.ExecEnv(
        "systolic", m, faults.SystolicConfig(16, "bypass"), fault_map=fm)) \
        == "systolic.truncated-4.bypass"
    assert tracing.eval_label(network.ExecEnv("gpu_tiles", m, tile=16, tile_fault=tf)) \
        == "gpu_tiles.truncated-4.tile-fault"
