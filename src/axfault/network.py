"""Small dense/conv networks with swappable execution engines.

A model is a list of layer specs (dense, conv2d, maxpool, flatten) plus an
input shape. Weights live in float64. ``run_layers`` is the one forward pass:
every engine runs it, and its one per-layer hook, ``observe``, feeds
training's backward pass, the golden pass and mitigation's activation
histogram. The quantized engines send dense and conv layers through
one GEMM step: symmetric int8 quantization, the integer multiply-accumulate
on a simulated accelerator (weight-stationary systolic array or tiled GPU
path), and requantization back to float, so non-GEMM layers always see
float activations. Conv and maxpool output sizes come from
``ModelSpec.shapes``.

Internal layouts are feature-major: dense activations are (features, batch),
conv activations are (H, W, C, batch). Convolutions are lowered to the same
GEMM path via im2col, which is what physically happens on the modeled
accelerators.

``forward`` and ``evaluate`` raise ``ValueError`` on non-finite weights or
biases (naming the layer), on a ``layer_filter`` that names no dense or
conv2d layer, and ``evaluate`` on an empty ``Dataset``, of which it scores
every sample (a prefix is ``Dataset.subset``).

Each ``evaluate`` quantizes and remaps the weights of a GEMM layer, and
builds the layer's fault-free per-weight product tables, once for all its
eval batches (``_GemmPlan``).

``golden_pass`` evaluates without faults and keeps in its plan, per eval
batch, the int8 input and int32 accumulator of chosen GEMM layers. An
``evaluate`` handed that plan, for the same data object and batch size,
whose faults lie in one of those layers, starts ``run_layers`` there and
adds only the faults to the kept accumulator. A
plan never changes what ``evaluate`` returns, only the work it does; a plan
kept for other weights or biases, another multiplier or another weight map
is refused. What a plan keeps is decided here alone: its byte allowance,
``room``, goes to the golden states first and then to the tables.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .faults import (FaultMap, SystolicConfig, TileFaultSpec, _check_int, _clean_tables,
                     gpu_tile_gemm, systolic_gemm)
from .multipliers import Multiplier, WeightMapTable
from .quantize import QTensor, quantize, requantize_accum

# each layer kind's parameters and the least value of each
_LAYER_PARAMS = {
    "dense": {"in": 1, "out": 1},
    "conv2d": {"kh": 1, "kw": 1, "cin": 1, "cout": 1, "stride": 1, "pad": 0},
    "maxpool": {"k": 1, "stride": 1},
    "flatten": {},
}
LAYER_KINDS = tuple(_LAYER_PARAMS)
ACTIVATIONS = ("none", "relu", "tanh", "softmax")
QUANTIZED_ENGINES = ("systolic", "gpu_tiles")
ENGINES = ("float",) + QUANTIZED_ENGINES
# cap on the entries of the per-weight product tables a plan keeps (32 MiB)
_TABLE_ENTRIES = 1 << 24
# the ExecEnv fields each engine reads besides ``engine``
_READS = {
    "float": (),
    "systolic": ("multiplier", "systolic", "fault_map", "layer_filter", "weight_map"),
    "gpu_tiles": ("multiplier", "tile", "tile_fault", "layer_filter", "weight_map"),
}


@dataclass
class LayerSpec:
    kind: str
    activation: str = "none"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        want = _LAYER_PARAMS[self.kind]
        unknown = sorted(set(self.params) - set(want))
        missing = sorted(set(want) - set(self.params))
        if unknown or missing:
            raise ValueError(f"{self.kind} layer: unknown parameters {unknown}, "
                             f"missing parameters {missing}")
        for name, lo in want.items():
            _check_int(f"{self.kind} {name}", self.params[name], lo)
        self.params = {k: int(v) for k, v in self.params.items()}


def dense(in_dim: int, out_dim: int, activation: str = "none") -> LayerSpec:
    return LayerSpec("dense", activation, {"in": in_dim, "out": out_dim})


def conv2d(kh, kw, cin, cout, stride=1, pad=0, activation="none") -> LayerSpec:
    return LayerSpec("conv2d", activation, {"kh": kh, "kw": kw, "cin": cin, "cout": cout,
                                            "stride": stride, "pad": pad})


def maxpool(k: int, stride: int | None = None) -> LayerSpec:
    return LayerSpec("maxpool", "none", {"k": k, "stride": k if stride is None else stride})


def flatten() -> LayerSpec:
    return LayerSpec("flatten", "none", {})


@dataclass
class ModelSpec:
    name: str
    input_shape: tuple
    layers: list

    def __post_init__(self):
        for d in self.input_shape:
            _check_int("input dim", d, 1)
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if len(self.input_shape) not in (1, 3):
            raise ValueError("input shape must be (features,) or (H, W, C)")

    def shapes(self) -> list:
        """Per-layer output shapes; raises on any inconsistency."""
        shape = self.input_shape
        out = []
        for i, layer in enumerate(self.layers):
            p = layer.params
            if layer.kind == "dense":
                if len(shape) != 1 or shape[0] != p["in"]:
                    raise ValueError(
                        f"layer {i}: dense expects ({p['in']},), got {shape}"
                    )
                shape = (p["out"],)
            elif layer.kind == "conv2d":
                if len(shape) != 3 or shape[2] != p["cin"]:
                    raise ValueError(f"layer {i}: conv2d input mismatch at {shape}")
                h = (shape[0] + 2 * p["pad"] - p["kh"]) // p["stride"] + 1
                w = (shape[1] + 2 * p["pad"] - p["kw"]) // p["stride"] + 1
                if h <= 0 or w <= 0:
                    raise ValueError(f"layer {i}: conv2d output collapses to {h}x{w}")
                shape = (h, w, p["cout"])
            elif layer.kind == "maxpool":
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: maxpool needs a conv-shaped input")
                h = (shape[0] - p["k"]) // p["stride"] + 1
                w = (shape[1] - p["k"]) // p["stride"] + 1
                if h <= 0 or w <= 0:
                    raise ValueError(f"layer {i}: maxpool output collapses")
                shape = (h, w, shape[2])
            else:
                shape = (int(np.prod(shape)),)
            if layer.kind in ("maxpool", "flatten") and layer.activation != "none":
                raise ValueError(f"layer {i}: {layer.kind} cannot carry an activation")
            out.append(shape)
        if len(out[-1]) != 1:
            raise ValueError("model must end in a 1-d output layer")
        return out

    @property
    def n_classes(self) -> int:
        return self.shapes()[-1][0]

    def param_layers(self) -> list:
        return [i for i, l in enumerate(self.layers) if l.kind in ("dense", "conv2d")]

    def weight_shape(self, idx: int) -> tuple:
        """Shape of the layer's stored weights ``W``: dense (out, in), conv2d
        (kh, kw, cin, cout)."""
        layer = self.layers[idx]
        p = layer.params
        if layer.kind == "dense":
            return (p["out"], p["in"])
        if layer.kind == "conv2d":
            return (p["kh"], p["kw"], p["cin"], p["cout"])
        raise ValueError(f"layer {idx} has no weights")

    def gemm_weight_shape(self, idx: int) -> tuple:
        """Shape of the weight matrix this layer presents to the GEMM engine:
        (units, fan-in); conv's (kh, kw, cin) become one axis, as in im2col."""
        shape = self.weight_shape(idx)
        if self.layers[idx].kind == "conv2d":
            return (shape[-1], math.prod(shape[:-1]))
        return shape


class WeightSet(dict):
    """layer_index -> {"W": ndarray, "b": ndarray} for parameterized layers."""

    def deep_copy(self) -> "WeightSet":
        return WeightSet(
            {i: {k: v.copy() for k, v in t.items()} for i, t in self.items()}
        )

    def param_count(self) -> int:
        return int(sum(t["W"].size + t["b"].size for t in self.values()))


# ---------------------------------------------------------------------------
# model serialization (structured text) and weight files (binary)


def model_to_json(model: ModelSpec) -> str:
    layers = []
    for l in model.layers:
        d = {"kind": l.kind, "activation": l.activation}
        d.update(l.params)
        layers.append(d)
    doc = {"name": model.name, "input_shape": list(model.input_shape), "layers": layers}
    return json.dumps(doc, indent=1)


def model_from_json(text: str) -> ModelSpec:
    doc = json.loads(text)
    layers = []
    for d in doc["layers"]:
        d = dict(d)
        kind = d.pop("kind")
        act = d.pop("activation", "none")
        layers.append(LayerSpec(kind, act, d))
    model = ModelSpec(doc["name"], tuple(doc["input_shape"]), layers)
    model.shapes()
    return model


def save_model(model: ModelSpec, path) -> None:
    with open(path, "w") as f:
        f.write(model_to_json(model) + "\n")


def load_model(path) -> ModelSpec:
    with open(path) as f:
        return model_from_json(f.read())


WEIGHTS_MAGIC = b"AXDN"
WEIGHTS_VERSION = 1


def _tensor_shape(model: ModelSpec, idx: int, key: str, dims, where: str) -> tuple:
    """The shape of layer ``idx``'s tensor ``key`` in ``model``: W's
    ``weight_shape``, b's (units,). Raises ``ValueError``, naming ``where``,
    the layer and the tensor, unless ``dims`` is that shape, or it padded
    with 1s to the four dims of a weights file."""
    shape = model.weight_shape(idx) if key == "W" else model.gemm_weight_shape(idx)[:1]
    if tuple(dims) not in (shape, shape + (1,) * (4 - len(shape))):
        raise ValueError(f"{where}: layer {idx} tensor {key} has dims {tuple(dims)}, "
                         f"expected {shape}")
    return shape


def save_weights(ws: WeightSet, model: ModelSpec, path) -> None:
    """Binary container: magic 'AXDN', u16 version, u16 tensor count, then
    per tensor four u32 little-endian dims (trailing dims padded with 1)
    followed by the row-major float32 payload. Raises ``ValueError``, before
    the file is opened, on a tensor that does not fit ``model``."""
    tensors = []
    for idx in model.param_layers():
        for key in ("W", "b"):
            t = np.asarray(ws[idx][key])
            shape = _tensor_shape(model, idx, key, t.shape, f"weights for {path}")
            tensors.append((shape + (1,) * (4 - len(shape)), t))
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<HH", WEIGHTS_VERSION, len(tensors)))
        for dims, t in tensors:
            f.write(struct.pack("<4I", *dims))
            f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_weights(model: ModelSpec, path) -> WeightSet:
    """Read a ``save_weights`` file for ``model``; raises ``ValueError``,
    naming ``path``, on a file that is cut short, runs on, or does not fit
    the model: each tensor's stored dims must be its shape padded with 1s,
    so a transposed tensor is refused, not read in the wrong order."""
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(size, what):
        nonlocal off
        if off + size > len(data):
            raise ValueError(f"weights file {path} is cut short in {what}")
        off += size
        return data[off - size : off]

    if take(4, "the header") != WEIGHTS_MAGIC:
        raise ValueError(f"weights file {path} has a bad magic")
    version, count = struct.unpack("<HH", take(4, "the header"))
    if version != WEIGHTS_VERSION:
        raise ValueError(f"weights file {path} has unsupported version {version}")
    pidx = model.param_layers()
    if count != 2 * len(pidx):
        raise ValueError(f"weights file {path} has {count} tensors, "
                         f"model needs {2 * len(pidx)}")
    ws = WeightSet()
    for idx in pidx:
        pair = {}
        for key in ("W", "b"):
            what = f"layer {idx} tensor {key}"
            dims = struct.unpack("<4I", take(16, what))
            shape = _tensor_shape(model, idx, key, dims, f"weights file {path}")
            arr = np.frombuffer(take(4 * math.prod(shape), what), dtype="<f4")
            pair[key] = arr.astype(np.float64).reshape(shape)
        ws[idx] = pair
    if off != len(data):
        raise ValueError(f"weights file {path} has trailing bytes")
    return ws


# ---------------------------------------------------------------------------
# desk-scale model zoo


def desk_model(model_id: str) -> ModelSpec:
    if model_id == "mp-tanh-desk":
        return ModelSpec(model_id, (784,), [
            dense(784, 64, "tanh"),
            dense(64, 32, "tanh"),
            dense(32, 10, "none"),
        ])
    if model_id == "lenet-desk":
        return ModelSpec(model_id, (28, 28, 1), [
            conv2d(5, 5, 1, 8, activation="relu"),
            maxpool(2),
            conv2d(5, 5, 8, 16, activation="relu"),
            maxpool(2),
            flatten(),
            dense(256, 64, "relu"),
            dense(64, 10, "none"),
        ])
    raise ValueError(f"unknown model id {model_id!r}")


def resolve_model(name_or_path: str) -> ModelSpec:
    try:
        return desk_model(name_or_path)
    except ValueError:
        return load_model(name_or_path)


# ---------------------------------------------------------------------------
# lowering helpers


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0) -> np.ndarray:
    """(H, W, C, B) -> (kh*kw*C, Hout*Wout*B), row index ordered (u, v, c).

    Works on any dtype; padding inserts zeros (which is also the zero code
    of the symmetric quantizer, so the int8 path pads exactly).
    """
    H, W, C, B = x.shape
    if pad:
        xp = np.zeros((H + 2 * pad, W + 2 * pad, C, B), dtype=x.dtype)
        xp[pad : pad + H, pad : pad + W] = x
    else:
        xp = x
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::stride, ::stride]
    # (Hout, Wout, C, B, kh, kw) -> (kh, kw, C, Hout, Wout, B)
    cols = win.transpose(4, 5, 2, 0, 1, 3)
    hout, wout = win.shape[0], win.shape[1]
    return np.ascontiguousarray(cols).reshape(kh * kw * C, hout * wout * B)


def col2im(cols: np.ndarray, x_shape, out_hw, kh, kw, stride=1, pad=0) -> np.ndarray:
    """Scatter-add inverse of im2col, for the conv backward pass.

    ``out_hw`` is the conv's (Hout, Wout) output grid, from ``ModelSpec.shapes``.
    """
    H, W, C, B = x_shape
    hout, wout = out_hw
    grid = cols.reshape(kh, kw, C, hout, wout, B)
    xp = np.zeros((H + 2 * pad, W + 2 * pad, C, B), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            xp[u : u + hout * stride : stride, v : v + wout * stride : stride] += (
                grid[u, v].transpose(1, 2, 0, 3)
            )
    if pad:
        return xp[pad : pad + H, pad : pad + W]
    return xp


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Softmax runs over axis -2: dense features or conv channels."""
    if name == "none":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "softmax":
        zs = z - z.max(axis=-2, keepdims=True)
        e = np.exp(zs)
        return e / e.sum(axis=-2, keepdims=True)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# execution environments and the forward pass


@dataclass
class ExecEnv:
    """How to execute the GEMMs of a forward pass.

    ``layer_filter`` restricts fault injection to one dense or conv2d layer
    index (0-based); the multiplier itself and any ``weight_map`` retuning
    always apply to every GEMM layer. ``tile`` defaults to 16 on gpu_tiles,
    and ``tile_fault.tile_index`` is reduced modulo each layer's number of
    blocks, so one spec can damage a block in every layer.

    Each engine reads only its fields in ``_READS`` (float none). Raises
    ``ValueError``, naming field and engine, for a field its engine does not
    read; also for a quantized engine without a multiplier, a systolic one
    without a ``SystolicConfig``, a ``tile`` that is no integer >= 1 and a
    ``layer_filter`` that is no integer.
    """

    engine: str = "float"
    multiplier: Multiplier | None = None
    systolic: SystolicConfig | None = None
    fault_map: FaultMap | None = None
    tile: int | None = None
    tile_fault: TileFaultSpec | None = None
    layer_filter: int | None = None
    weight_map: WeightMapTable | None = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        for f in fields(self)[1:]:
            if f.name not in _READS[self.engine] and getattr(self, f.name) is not None:
                raise ValueError(f"the {self.engine} engine does not read {f.name}")
        if self.engine in QUANTIZED_ENGINES and self.multiplier is None:
            raise ValueError("quantized engines need a multiplier")
        if self.engine == "systolic" and self.systolic is None:
            raise ValueError("systolic engine needs a SystolicConfig")
        if self.engine == "gpu_tiles":
            self.tile = _check_int("tile", 16 if self.tile is None else self.tile, 1)
        if self.layer_filter is not None:
            self.layer_filter = _check_int("layer_filter", self.layer_filter)


def _gemm_weights(layer: LayerSpec, W) -> np.ndarray:
    """The 2-d weight matrix a dense or conv2d layer presents to the GEMM;
    conv weights are lowered in im2col's (kh, kw, cin) order."""
    if layer.kind == "conv2d":
        return W.transpose(3, 0, 1, 2).reshape(layer.params["cout"], -1)
    return W


def _stored_weights(layer: LayerSpec, Wmat) -> np.ndarray:
    """Inverse of ``_gemm_weights``: a GEMM weight matrix, or a gradient or
    mask of its shape, in the layer's stored weight layout."""
    if layer.kind == "conv2d":
        p = layer.params
        return Wmat.reshape(p["cout"], p["kh"], p["kw"], p["cin"]).transpose(1, 2, 3, 0)
    return Wmat


class _GemmPlan:
    """The weight side of every quantized GEMM layer for one weight set,
    multiplier and weight map, each part built on its first use and then
    reused: per layer index, the int8 weight codes after ``weight_map`` and
    their scale, and, for a table multiplier, the fault-free per-weight
    product tables (``faults._clean_tables``) if they fit under
    ``_TABLE_ENTRIES`` and in ``room``, the bytes the plan may still spend;
    a layer without them builds them on every GEMM. ``evaluate`` builds one
    plan for all its eval batches; a campaign's golden pass fills one that
    its cells share.

    ``golden_pass`` keeps in it ``states[layer]``, per eval batch the
    ``QTensor`` entering the layer and its fault-free int32 accumulator,
    for the (data, batch size) in ``kept_for``.
    """

    def __init__(self, weights: WeightSet, env: ExecEnv, room):
        self.weights = weights
        self.multiplier = env.multiplier
        self.weight_map = env.weight_map
        self.room = room
        self._codes = {}
        self._tables = {}
        self.states = {}
        self.kept_for = None

    def check(self, weights: WeightSet, env: ExecEnv) -> None:
        """Raise ``ValueError`` unless the plan was built for ``weights``
        (every layer's ``W`` and ``b``) and for the multiplier and weight
        map of ``env`` (compared by content)."""
        m, wm = env.multiplier, env.weight_map
        if m is not self.multiplier and not np.array_equal(m.table, self.multiplier.table):
            raise ValueError(f"a plan of multiplier {self.multiplier.id!r} cannot run "
                             f"multiplier {m.id!r}")
        if wm is not self.weight_map and (
                wm is None or self.weight_map is None
                or not np.array_equal(wm.map, self.weight_map.map)):
            raise ValueError("a plan of one weight map cannot run another")
        if weights is not self.weights and (
                weights.keys() != self.weights.keys()
                or not all(np.array_equal(weights[i][k], self.weights[i][k])
                           for i in weights for k in ("W", "b"))):
            raise ValueError("a plan of one weight set cannot run another")

    def codes(self, model: ModelSpec, idx: int):
        """(int8 weight codes after ``weight_map``, weight scale) of layer
        ``idx``."""
        if idx not in self._codes:
            qw = quantize(_gemm_weights(model.layers[idx], self.weights[idx]["W"]))
            codes = qw.data
            if self.weight_map is not None:
                codes = self.weight_map.remap_codes(codes)
            self._codes[idx] = codes, qw.scale
        return self._codes[idx]

    def tables(self, model: ModelSpec, idx: int):
        """Fault-free per-weight tables of layer ``idx``, or None: kept
        only when their 256 entries per weight number at most
        ``_TABLE_ENTRIES`` and their bytes fit in ``room``."""
        if idx not in self._tables:
            wcodes = self.codes(model, idx)[0]
            entries = 256 * wcodes.size
            fits = entries <= _TABLE_ENTRIES and 2 * entries <= self.room
            t = self._tables[idx] = _clean_tables(wcodes, self.multiplier) if fits else None
            self.room -= 0 if t is None else t.nbytes
        return self._tables[idx]

    def states_for(self, layer, data, batch_size):
        """The golden states of ``layer`` if they were kept for this data
        object and batch size, else None."""
        kept = self.kept_for
        if kept is None or kept[0] is not data or kept[1] != batch_size:
            return None
        return self.states.get(layer)


def _gemm_layer(env: ExecEnv, plan: _GemmPlan, model: ModelSpec, idx: int, acodes, ascale,
                bias, clean=None):
    """The quantized GEMM step of dense and conv layers: the weight codes
    and tables from ``plan``, the engine, requantization. Returns the int32
    accumulator and the float output.

    ``acodes`` are int8 activation codes with scale ``ascale``. A conv layer
    quantizes its input before im2col and passes the lowered codes, because
    with stride > 1 the scale of the columns can differ from that of X.
    ``clean``, the layer's fault-free accumulator, is passed on to the
    engine, which then adds only the faults and reads no tables.
    """
    wcodes, wscale = plan.codes(model, idx)
    admitted = env.layer_filter in (None, idx)
    if env.engine == "systolic":
        fm = env.fault_map if admitted else None
        # faults on a table multiplier are folded into tables of their own
        fresh = clean is not None or (fm is not None and bool(fm.entries))
        tables = None if fresh else plan.tables(model, idx)
        acc = systolic_gemm(wcodes, acodes, env.multiplier, fm, env.systolic, clean, tables)
    else:
        tf = env.tile_fault if admitted else None
        if tf is not None:
            nblocks = (-(-wcodes.shape[0] // env.tile)) * (-(-acodes.shape[1] // env.tile))
            tf = replace(tf, tile_index=tf.tile_index % nblocks)
        tables = None if clean is not None else plan.tables(model, idx)
        acc = gpu_tile_gemm(wcodes, acodes, env.multiplier, tf, env.tile, clean, tables)
    return acc, requantize_accum(acc, wscale, ascale) + bias[:, None]


def _to_internal(model: ModelSpec, x):
    x = np.asarray(x, dtype=np.float64)
    ishape = model.input_shape
    single = x.shape == ishape or (
        x.ndim == 1 and int(np.prod(ishape)) == x.size
    )
    if single:
        x = x[None]
    if x.shape[1:] != ishape:
        if int(np.prod(x.shape[1:])) != int(np.prod(ishape)):
            raise ValueError(f"input shape {x.shape[1:]} does not match {ishape}")
        x = x.reshape(x.shape[0], *ishape)
    if len(ishape) == 1:
        return x.T, single
    return x.transpose(1, 2, 3, 0), single


def run_layers(model: ModelSpec, weights: WeightSet, X, env: ExecEnv, observe=None,
               _start=0, _clean=None, _plan=None):
    """Drive the layer stack on feature-major activations X.

    ``observe(idx, record)`` is called after each layer with its input
    ``X``, pre-activation ``Z``, output ``Y`` and GEMM activation operand
    ``cols`` (X, or conv's im2col columns); on the quantized engines
    ``cols`` holds int8 codes, ``q`` the ``QTensor`` entering the layer and
    ``acc`` the int32 accumulator. Keys that do not apply are None.

    ``_start`` resumes the pass at that layer; on a quantized engine X may
    then be the ``QTensor`` of codes entering it, and ``_clean`` its
    fault-free accumulator (see ``_gemm_layer``). ``_plan`` is the
    ``_GemmPlan`` of ``weights`` and ``env`` to read the weight side from;
    without it the call builds its own, which keeps no tables.
    """
    quant = env.engine != "float"
    if quant and _plan is None:
        _plan = _GemmPlan(weights, env, room=0)
    shapes = model.shapes()
    for idx in range(_start, len(model.layers)):
        layer = model.layers[idx]
        p = layer.params
        Z = cols = qx = acc = None
        clean = _clean if idx == _start else None
        if layer.kind in ("dense", "conv2d"):
            b = weights[idx]["b"]
            qx = (X if isinstance(X, QTensor) else quantize(X)) if quant else None
            cols = X if qx is None else qx.data
            if layer.kind == "conv2d":
                # zero padding is exact in code space
                cols = im2col(cols, p["kh"], p["kw"], p["stride"], p["pad"])
            if quant:
                acc, Z = _gemm_layer(env, _plan, model, idx, cols, qx.scale, b, clean)
            else:
                Z = _gemm_weights(layer, weights[idx]["W"]) @ cols + b[:, None]
            if layer.kind == "conv2d":
                Z = Z.reshape(p["cout"], *shapes[idx][:2], -1).transpose(1, 2, 0, 3)
            Y = _activate(layer.activation, Z)
        elif layer.kind == "maxpool":
            Y = _pool_windows(X, p).max(axis=(-2, -1))
        else:  # flatten
            Y = X.reshape(-1, X.shape[-1])
        if observe is not None:
            observe(idx, {"X": X, "Z": Z, "Y": Y, "cols": cols, "q": qx, "acc": acc})
        X = Y
    return X


def _pool_windows(X, p) -> np.ndarray:
    """(Hout, Wout, C, B, k, k) view of the maxpool windows over X."""
    k, s = p["k"], p["stride"]
    return sliding_window_view(X, (k, k), axis=(0, 1))[::s, ::s]


def _check_gemm_layer(model: ModelSpec, name: str, idx) -> None:
    if idx not in model.param_layers():
        raise ValueError(f"{name} {idx} is no dense or conv2d layer of {model.name}")


def _check_run(model: ModelSpec, weights: WeightSet, env: ExecEnv) -> None:
    if env.layer_filter is not None:
        _check_gemm_layer(model, "layer_filter", env.layer_filter)
    for idx in model.param_layers():
        if not all(np.isfinite(weights[idx][k]).all() for k in ("W", "b")):
            raise ValueError(f"layer {idx}: non-finite weights or biases")


def forward(model: ModelSpec, weights: WeightSet, x, env: ExecEnv | None = None) -> dict:
    """Run one input or a batch; returns {"logits": ..., "class": ...}.

    Batch input (B, *input_shape) gives logits (B, n_classes) and class
    (B,); a single input collapses both. Raises ``ValueError``, naming the
    layer, when a weight or bias is NaN or infinite, and when
    ``env.layer_filter`` names no dense or conv2d layer.
    """
    env = env or ExecEnv()
    _check_run(model, weights, env)
    X, single = _to_internal(model, x)
    logits = run_layers(model, weights, X, env).T
    cls = np.argmax(logits, axis=1)
    if single:
        return {"logits": logits[0], "class": int(cls[0])}
    return {"logits": logits, "class": cls}


def _eval_batches(data, batch_size: int) -> list:
    """The (images, labels) eval batches of ``data``, in order; ``ValueError``
    for no sample, or a ``batch_size`` that is no integer of at least 1."""
    _check_int("batch_size", batch_size, 1)
    # bench/test_bench.py still hands the traced evaluate an (images, labels) pair
    images, labels = data if isinstance(data, tuple) else (data.images, data.labels)
    if len(labels) == 0:
        raise ValueError("evaluate needs at least one sample")
    return [(images[i : i + batch_size], labels[i : i + batch_size])
            for i in range(0, len(labels), batch_size)]


def evaluate(model: ModelSpec, weights: WeightSet, data, env: ExecEnv | None = None, *,
             batch_size: int = 256, observe=None, _plan=None) -> float:
    """Top-1 accuracy in percent over every sample of the ``Dataset``
    ``data``; to score a prefix, pass ``data.subset(count)``.

    ``observe`` is passed to ``run_layers``. Every eval batch reads one
    ``_GemmPlan``: ``_plan`` (checked against ``weights`` and ``env``), or
    one built for this call, which keeps tables when there is more than
    one batch. If ``_plan`` holds golden states of layer L =
    ``env.layer_filter`` kept for this data object and batch size, each
    batch resumes at L: ``observe`` then sees layers L and later, with the
    ``QTensor`` entering L as ``X`` at L. A plan never changes the result.
    Raises ``ValueError`` as ``forward`` and ``_eval_batches`` do, and for
    a plan of other weights, another multiplier or weight map.
    """
    env = env or ExecEnv()
    batches = _eval_batches(data, batch_size)
    _check_run(model, weights, env)
    plan = None
    if env.engine != "float":
        plan = _plan or _GemmPlan(weights, env, room=math.inf if len(batches) > 1 else 0)
        plan.check(weights, env)
    states = plan and plan.states_for(env.layer_filter, data, batch_size)
    start = env.layer_filter if states else 0
    hits = 0
    for i, (images, labels) in enumerate(batches):
        X, clean = states[i] if states else (_to_internal(model, images)[0], None)
        out = run_layers(model, weights, X, env, observe, _start=start, _clean=clean,
                         _plan=plan)
        hits += int(np.sum(np.argmax(out, axis=0) == labels))
    return 100.0 * hits / sum(len(labels) for _, labels in batches)


def _state_bytes(model: ModelSpec, layer: int, samples: int) -> int:
    """Bytes of a layer's golden states: the int8 codes entering it and its
    int32 accumulator, over ``samples`` samples."""
    shapes = model.shapes()
    entering = shapes[layer - 1] if layer else model.input_shape
    return samples * (math.prod(entering) + 4 * math.prod(shapes[layer]))


def golden_pass(model: ModelSpec, weights: WeightSet, data, env: ExecEnv, layers,
                batch_size: int = 256, room=math.inf):
    """``evaluate`` over the ``Dataset`` ``data`` on a quantized ``env``
    without faults that keeps what a faulty ``evaluate`` needs to resume at
    each GEMM layer in ``layers``.

    Returns ``(accuracy, plan)``, ``plan`` a new ``_GemmPlan`` that spends
    ``room`` bytes first on the golden states of ``layers``, first fit in
    that order, kept for this data object and batch size, then on the
    tables, layer by layer; ``plan.room`` is what is left. Passing the plan
    as ``evaluate(..., _plan=plan)`` on that same object and batch size
    resumes. Raises ``ValueError`` for an ``env`` that is float or carries
    faults, and, naming it, for an entry of ``layers`` that is no dense or
    conv2d layer.
    """
    if env.engine == "float" or env.fault_map or env.tile_fault is not None:
        raise ValueError("a golden pass needs a quantized engine without faults")
    plan = _GemmPlan(weights, env, room)
    for layer in layers:
        _check_gemm_layer(model, "layer", layer)
        size = _state_bytes(model, layer, len(data))
        if layer not in plan.states and size <= plan.room:
            plan.states[layer] = []
            plan.room -= size

    def keep(idx, record):
        if idx in plan.states:
            plan.states[idx].append((record["q"], record["acc"]))

    acc = evaluate(model, weights, data, env, batch_size=batch_size, observe=keep, _plan=plan)
    plan.kept_for = data, batch_size
    return acc, plan
