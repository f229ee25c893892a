"""Span tracing for the benchmark's traced run (``--trace 1``).

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that records a span (name, start, end, parent, phase) and
the counts the benchmark derives from the call's arguments. Spans stay in
memory and are written out when the run ends. Per-layer metrics come from
the spans: total time, self time (a span minus the part of its interval its
child spans cover) and the counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

from oracle import damaged_block, tile_damage

# (module, attribute, layer name). The attribute is the name the caller
# resolves at call time: network imports systolic_gemm from faults, so the
# forward pass looks up axfault.network.systolic_gemm, and patching
# axfault.faults.systolic_gemm would miss every call. A function called from
# several modules is patched in each of them under one layer name.
SITES = (
    ("axfault.datasets", "synth_digits", "datasets.synth_digits"),
    ("axfault.training", "train", "training.train"),
    ("axfault.network", "quantize", "quantize.quantize"),
    ("axfault.mitigation", "quantize", "quantize.quantize"),
    ("axfault.network", "requantize_accum", "quantize.requantize_accum"),
    ("axfault.multipliers", "load_lut", "multipliers.load_lut"),
    ("axfault.mitigation", "build_weight_map", "multipliers.build_weight_map"),
    ("axfault.network", "systolic_gemm", "faults.systolic_gemm"),
    ("axfault.network", "gpu_tile_gemm", "faults.gpu_tile_gemm"),
    ("axfault.faults", "random_fault_map", "faults.random_fault_map"),
    ("axfault.campaign", "random_fault_map", "faults.random_fault_map"),
    ("axfault.network", "evaluate", "network.evaluate"),
    ("axfault.training", "evaluate", "network.evaluate"),
    ("axfault.mitigation", "evaluate", "network.evaluate"),
    ("axfault.campaign", "evaluate", "network.evaluate"),
    ("axfault.network", "im2col", "network.im2col"),
    ("axfault.mitigation", "run_mitigation", "mitigation.run_mitigation"),
    ("axfault.mitigation", "prune_masks", "mitigation.prune_masks"),
    ("axfault.mitigation", "retune_weights", "mitigation.retune_weights"),
    ("axfault.mitigation", "capture_activations", "mitigation.capture_activations"),
    ("axfault.campaign", "run_campaign", "campaign.run_campaign"),
    # one campaign cell; private, but it is the only boundary between the
    # parent's baseline evals and the cells' evals
    ("axfault.campaign", "_run_cell", "campaign.cell"),
    ("axfault.campaign", "emit_report", "campaign.emit_report"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SITES))


# ---------------------------------------------------------------------------
# counts derived from a call's arguments


def stationed_products(fm, rows: int, depth: int) -> int:
    """Weight positions of a rows x depth matrix that sit on faulty MACs."""
    if fm is None:
        return 0
    return sum(len(range(i, rows, fm.n)) * len(range(j, depth, fm.n))
               for i, j in fm.entries)


def damaged_outputs(tf, tile: int, rows: int, batch: int) -> int:
    block = damaged_block(tf, tile, rows, batch)
    if block is None:
        return 0
    rr, cc = block
    return sum(u < len(rr) and v < len(cc) for u, v in tile_damage(tf, tile))


def eval_label(env) -> str:
    """<engine>.<multiplier>.<state> of an evaluate call, or "float"."""
    if env is None or env.engine == "float":
        return "float"
    if env.engine == "systolic":
        faulty = env.fault_map is not None and len(env.fault_map) > 0
        state = env.systolic.mode if faulty else "clean"
    else:
        state = "tile-fault" if env.tile_fault is not None else "clean"
    return f"{env.engine}.{env.multiplier.id}.{state}"


def _gemm_counts(layer):
    def count(b, out, dt):
        rows, depth = b["wq"].shape
        batch = b["aq"].shape[1]
        if layer == "faults.systolic_gemm":
            faulty = batch * stationed_products(b["fm"], rows, depth)
        else:
            tile = b["tile"]
            yield layer + ".blocks", -(-rows // tile) * -(-batch // tile)
            faulty = depth * damaged_outputs(b["tf"], tile, rows, batch)
        yield layer + ".calls", 1
        yield layer + ".mmacs", rows * depth * batch / 1e6
        yield "faults.gemm_mmacs", rows * depth * batch / 1e6
        yield "faults.faulty_mmacs", faulty / 1e6
    return count


def _evaluate_counts(b, out, dt):
    data = b["data"]
    n = len(data[0]) if isinstance(data, tuple) else len(data)
    if b.get("sample_limit") is not None:
        n = min(n, b["sample_limit"])
    label = eval_label(b.get("env"))
    yield "network.evaluate.calls", 1
    yield f"network.evaluate.{label}.samples", n
    yield f"network.evaluate.{label}.s", dt


def _train_counts(b, out, dt):
    history = b.get("history")
    epochs = len(history) if history is not None else b["hp"].epochs
    data = b["data"]
    n = len(data[0]) if isinstance(data, tuple) else len(data)
    yield "training.train.sample_epochs", n * epochs


def _quantize_counts(b, out, dt):
    yield "quantize.quantize.calls", 1
    yield "quantize.quantize.melems", out.data.size / 1e6


def _im2col_counts(b, out, dt):
    yield "network.im2col.calls", 1
    yield "network.im2col.mbytes", out.nbytes / 1e6


def _cell_counts(b, out, dt):
    yield "campaign.cells", 1
    yield "campaign.cells_failed", int(out.error is not None)


COUNTERS = {
    "faults.systolic_gemm": _gemm_counts("faults.systolic_gemm"),
    "faults.gpu_tile_gemm": _gemm_counts("faults.gpu_tile_gemm"),
    "network.evaluate": _evaluate_counts,
    "training.train": _train_counts,
    "quantize.quantize": _quantize_counts,
    "network.im2col": _im2col_counts,
    "campaign.cell": _cell_counts,
}


# ---------------------------------------------------------------------------
# recording


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1, phase]
        self.counts = defaultdict(float)  # (phase, key) -> total
        self.phase = None
        self._stack = []

    @contextlib.contextmanager
    def tracing(self, phase: str):
        """Patch every site for the duration of the block."""
        patched = []
        for mod_name, attr, layer in SITES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            patched.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn))
        self.phase = phase
        try:
            yield self
        finally:
            self.phase = None
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def _wrap(self, layer, fn):
        sig = inspect.signature(fn)
        count = COUNTERS.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if count is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, v in count(bound, out, t1 - t0):
                    self.counts[self.phase, key] += v
            return out

        return traced

    def write(self, path, **meta) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        doc = dict(meta, spans=[[n, t0 - origin, t1 - origin, p, ph]
                          for n, t0, t1, p, ph in self.spans])
        with open(path, "w") as f:
            json.dump(doc, f)


# ---------------------------------------------------------------------------
# per-layer metrics


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Per span: its duration minus what its direct children cover."""
    children = defaultdict(list)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    return [t1 - t0 - covered(children[i], t0, t1)
            for i, (_, t0, t1, _, _) in enumerate(spans)]


def layer_table(spans) -> dict:
    """layer -> (calls, total s, self s) for every traced layer."""
    table = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for span, st in zip(spans, self_times(spans)):
        row = table[span[0]]
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += st
    return table


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall: float, iterations: int, overhead_pct: float,
                  prefix_mmacs_share: float, names) -> dict:
    """Values of the per-layer metrics ``names``.

    Times are shares (%) of ``wall``, the traced wall time (one set-up plus
    the traced iterations), so a layer a workload never calls reads 0. Counts
    are per iteration of the timed phase; rates use every traced call.
    """
    spans = tracer.spans
    table = layer_table(spans)
    timed = defaultdict(float)
    every = defaultdict(float)
    for (phase, key), v in tracer.counts.items():
        every[key] += v
        if phase == "timed":
            timed[key] += v

    def share(seconds):
        return 100.0 * _ratio(seconds, wall)

    baselines = sum(s[2] - s[1] for s in spans
                    if s[0] == "network.evaluate" and s[3] >= 0
                    and spans[s[3]][0] == "campaign.run_campaign")

    def eval_seconds(engine):
        return sum(v for k, v in every.items()
                   if k.startswith(f"network.evaluate.{engine}.") and k.endswith(".s"))

    values = {
        "trace.wall_s": wall,
        "trace.overhead_pct": overhead_pct,
        "training.train.samples_per_s": _ratio(every["training.train.sample_epochs"],
                                               table["training.train"][1]),
        "faults.faulty_mmacs": timed["faults.faulty_mmacs"] / iterations,
        "faults.faulty_mac_share": 100.0 * _ratio(every["faults.faulty_mmacs"],
                                                  every["faults.gemm_mmacs"]),
        "campaign.baselines.share": share(baselines),
        "campaign.prefix_mmacs_share": prefix_mmacs_share,
    }
    for layer, (_, total, self_s) in table.items():
        values[layer + ".share"] = share(total)
        values[layer + ".self_share"] = share(self_s)
    for key in ("quantize.quantize.calls", "quantize.quantize.melems",
                "network.evaluate.calls", "network.im2col.calls",
                "network.im2col.mbytes", "campaign.cells", "campaign.cells_failed"):
        values[key] = timed[key] / iterations
    for gemm, engine in (("faults.systolic_gemm", "systolic"),
                         ("faults.gpu_tile_gemm", "gpu_tiles")):
        for key in (".calls", ".mmacs", ".blocks"):
            values[gemm + key] = timed[gemm + key] / iterations
        values[gemm + ".mmacs_per_s"] = _ratio(every[gemm + ".mmacs"], table[gemm][1])
        values[gemm + ".eval_share"] = 100.0 * _ratio(table[gemm][2], eval_seconds(engine))

    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.startswith("network.evaluate.") and name.endswith(".samples_per_s"):
            label = name[len("network.evaluate."):-len(".samples_per_s")]
            out[name] = _ratio(every[f"network.evaluate.{label}.samples"],
                               every[f"network.evaluate.{label}.s"])
        else:
            raise KeyError(f"no per-layer metric named {name!r}")
    return out
