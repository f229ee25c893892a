"""Fault injection, approximate arithmetic, and repair for int8 networks.

The package simulates deterministic 8x8 multipliers (exact, truncated,
carry-broken, or arbitrary LUTs), injects permanent stuck-at faults into
weight-stationary systolic arrays and tiled GPU-style GEMMs, measures the
accuracy of quantized networks run through them, and repairs the damage by
pruning, masked retraining, and weight-code retuning.
"""

from .campaign import (
    ILLUSTRATIVE_ENERGY_PJ,
    CampaignRecord,
    CampaignSpec,
    emit_report,
    energy_estimate,
    mac_count,
    run_campaign,
)
from .datasets import (
    Dataset,
    load_cifar10_batches,
    load_idx,
    load_idx_pair,
    mnist_or_synthetic,
    save_idx,
    synth_blobs,
    synth_digits,
)
from .faults import (
    FaultMap,
    StuckAtFault,
    SystolicConfig,
    TileFaultSpec,
    apply_fault,
    gpu_tile_gemm,
    load_fault_map,
    pruned_mask,
    random_fault_map,
    save_fault_map,
    systolic_gemm,
)
from .mitigation import (
    MitigationReport,
    capture_activations,
    prune_masks,
    retune_weights,
    run_mitigation,
)
from .multipliers import (
    ActivationSample,
    ErrorMetrics,
    Multiplier,
    WeightMapTable,
    broken_carry_multiplier,
    build_weight_map,
    error_metrics,
    exact_multiplier,
    load_lut,
    load_weight_map,
    multiply,
    parse_multiplier,
    save_lut,
    save_weight_map,
    truncated_multiplier,
    uniform_activations,
)
from .network import (
    ExecEnv,
    LayerSpec,
    ModelSpec,
    WeightSet,
    conv2d,
    dense,
    desk_model,
    evaluate,
    flatten,
    forward,
    load_weights,
    maxpool,
    resolve_model,
    save_weights,
)
from .quantize import QTensor, dequantize, quantize, requantize_accum
from .training import (
    HyperParams,
    grad_check,
    init_weights,
    train,
)

__version__ = "0.1.0"
