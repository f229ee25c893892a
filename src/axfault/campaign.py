"""Sweep orchestration: run the fault axes as a Cartesian product, collect
accuracy and energy numbers, and render reports.

Determinism contract: a cell's randomness is seeded from a hash of its own
axis values, never from execution order or worker id, so the same spec
yields the same records at any worker count.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
import hashlib
import json
import math
import os
import time

import numpy as np

from . import charts
from .faults import (FAULT_KINDS, StuckAtFault, SystolicConfig, TileFaultSpec,
                     random_fault_map)
from .mitigation import run_mitigation
from .multipliers import Multiplier, error_metrics, parse_multiplier
from .network import QUANTIZED_ENGINES, ExecEnv, evaluate
from .training import HyperParams

# Axis names in canonical record order. Records are emitted in the
# product order of these axes no matter how execution was scheduled.
AXES = ("engine", "multiplier", "fault_kind", "bit", "percent", "layer",
        "array_size", "seed")

CSV_COLUMNS = ("model,dataset,engine,multiplier,mae_percent,fault_kind,bit,"
               "percent_faulty,layer,array_size,seed,baseline_acc,faulty_acc,"
               "acc_loss,mitigated_acc,energy_pj,wall_time_ms")

# Illustrative per-MAC energies in picojoules. These are placeholder
# relative numbers for demos and tests, not measurements: the mildest
# approximation costs the most, deeper truncation costs less.
ILLUSTRATIVE_ENERGY_PJ = {
    "exact": 1.00,
    "truncated-1": 0.97,
    "truncated-2": 0.93,
    "truncated-3": 0.89,
    "truncated-4": 0.85,
    "truncated-6": 0.78,
    "truncated-8": 0.70,
    "broken-carry-1": 0.92,
    "broken-carry-2": 0.86,
    "broken-carry-3": 0.80,
}


@dataclass
class CampaignSpec:
    model_id: str
    dataset_id: str
    multipliers: list
    fault_kinds: list = field(default_factory=lambda: ["sa1"])
    bits: list = field(default_factory=lambda: [15])
    percents: list = field(default_factory=lambda: [16.0])
    layers: object = "all"
    array_sizes: list = field(default_factory=lambda: [16])
    engines: list = field(default_factory=lambda: ["systolic"])
    seeds: list = field(default_factory=lambda: [1])
    mitigation: dict | None = None
    sample_limit: int | None = 2000

    def __post_init__(self):
        for name in ("multipliers", "fault_kinds", "bits", "percents",
                     "array_sizes", "engines", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"axis {name} must be non-empty")
        for b in self.bits:
            if not 0 <= int(b) <= 15:
                raise ValueError("bits must lie in 0..15")
        for p in self.percents:
            if not 0.0 <= float(p) <= 100.0:
                raise ValueError("percents must lie in [0, 100]")
        for k in self.fault_kinds:
            if k not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        for e in self.engines:
            if e not in QUANTIZED_ENGINES:
                raise ValueError(f"unknown engine {e!r}")
        if self.layers != "all" and not self.layers:
            raise ValueError("layers must be 'all' or a non-empty list")

    def layer_values(self) -> list:
        return [None] if self.layers == "all" else [int(i) for i in self.layers]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @staticmethod
    def from_json(text: str) -> "CampaignSpec":
        return CampaignSpec(**json.loads(text))


@dataclass
class CampaignRecord:
    cell_index: int
    model: str
    dataset: str
    engine: str
    multiplier: str
    mae_percent: float
    fault_kind: str
    bit: int
    percent: float
    layer: int | None
    array_size: int
    seed: int
    baseline_acc: float
    faulty_acc: float | None
    acc_loss: float | None
    mitigated_acc: float | None = None
    energy_pj: float | None = None
    wall_time_ms: float | None = None
    error: str | None = None


def cells_of(spec: CampaignSpec) -> list:
    """Cartesian product of the axes, in canonical order, with indices."""
    out = []
    idx = 0
    for engine in spec.engines:
        for mult in spec.multipliers:
            for kind in spec.fault_kinds:
                for bit in spec.bits:
                    for percent in spec.percents:
                        for layer in spec.layer_values():
                            for asize in spec.array_sizes:
                                for seed in spec.seeds:
                                    out.append({
                                        "cell_index": idx,
                                        "engine": engine,
                                        "multiplier": mult,
                                        "fault_kind": kind,
                                        "bit": int(bit),
                                        "percent": float(percent),
                                        "layer": layer,
                                        "array_size": int(asize),
                                        "seed": int(seed),
                                    })
                                    idx += 1
    return out


def cell_seed(cell: dict, m: Multiplier) -> int:
    """Per-cell PRNG seed hashed from the axis values themselves.

    Hashing values rather than the enumeration index keeps a cell's
    randomness stable when other axis lists grow or get reordered. A LUT
    multiplier ``m`` enters by its table's content, not by the file path
    that names it, so one table draws the same fault maps at any path.
    """
    layer = "all" if cell["layer"] is None else str(cell["layer"])
    mult = cell["multiplier"]
    if m.kind == "lut":
        mult = "lut:" + hashlib.sha256(m.table.astype("<i2").tobytes()).hexdigest()
    key = "|".join([
        cell["engine"], mult, cell["fault_kind"],
        str(cell["bit"]), repr(cell["percent"]), layer,
        str(cell["array_size"]), str(cell["seed"]),
    ])
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# MAC counting and energy


def mac_count(model) -> int:
    """Multiply-accumulate count of one forward pass, from layer geometry:
    each GEMM's weight matrix times its number of output positions."""
    shapes = model.shapes()
    return sum(math.prod(model.gemm_weight_shape(idx)) * math.prod(shapes[idx][:-1])
               for idx in model.param_layers())


def energy_estimate(model, multiplier_id: str, table: dict) -> float:
    """Joules per inference: MAC count times the per-op energy."""
    if multiplier_id not in table:
        raise ValueError(f"no energy entry for multiplier {multiplier_id!r}")
    pj = float(table[multiplier_id])
    if pj <= 0:
        raise ValueError("per-op energy must be positive")
    return mac_count(model) * pj * 1e-12


# ---------------------------------------------------------------------------
# cell execution

_ASSETS: dict = {}


def _init_worker(payload):
    global _ASSETS
    _ASSETS = payload


def _cell_env(cell, m, cseed):
    layer = cell["layer"]
    fault = StuckAtFault(cell["bit"], cell["fault_kind"])
    if cell["engine"] == "systolic":
        n = cell["array_size"]
        fm = random_fault_map(n, cell["percent"], fault, seed=cseed)
        return ExecEnv(engine="systolic", multiplier=m,
                       systolic=SystolicConfig(n=n, mode="propagate"),
                       fault_map=fm, layer_filter=layer), fm
    tile = cell["array_size"]
    tf = None
    if cell["percent"] > 0:
        rng = np.random.default_rng(cseed)
        tf = TileFaultSpec(tile_index=int(rng.integers(1 << 30)),
                           damaged_fraction=cell["percent"] / 100.0,
                           fault=fault, seed=cseed)
    return ExecEnv(engine="gpu_tiles", multiplier=m, tile=tile,
                   tile_fault=tf, layer_filter=layer), None


def _run_cell(cell: dict) -> CampaignRecord:
    a = _ASSETS
    spec = a["spec"]
    t0 = time.perf_counter() if a["include_timing"] else None
    rec = CampaignRecord(
        cell_index=cell["cell_index"],
        model=spec.model_id,
        dataset=spec.dataset_id,
        engine=cell["engine"],
        multiplier=cell["multiplier"],
        mae_percent=a["mae"][cell["multiplier"]],
        fault_kind=cell["fault_kind"],
        bit=cell["bit"],
        percent=cell["percent"],
        layer=cell["layer"],
        array_size=cell["array_size"],
        seed=cell["seed"],
        baseline_acc=a["baselines"][(cell["engine"], cell["multiplier"])],
        faulty_acc=None,
        acc_loss=None,
    )
    try:
        m = a["multipliers"][cell["multiplier"]]
        cseed = cell_seed(cell, m)
        env, fm = _cell_env(cell, m, cseed)
        rec.faulty_acc = evaluate(a["model"], a["weights"], a["test"],
                                  env=env, sample_limit=spec.sample_limit)
        rec.acc_loss = rec.baseline_acc - rec.faulty_acc
        if spec.mitigation is not None and cell["engine"] == "systolic":
            rec.mitigated_acc = _mitigate_cell(a, cell, m, fm)
        if a["energy"] is not None and cell["multiplier"] in a["energy"]:
            rec.energy_pj = mac_count(a["model"]) * float(
                a["energy"][cell["multiplier"]]
            )
    except Exception as e:  # noqa: BLE001 - a bad cell must not kill the sweep
        rec.error = f"{type(e).__name__}: {e}"
    if t0 is not None:
        rec.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    return rec


def _mitigate_cell(a, cell, m, fm) -> float:
    if a["train"] is None:
        raise ValueError("mitigation requested but no training data supplied")
    cfgd = dict(a["spec"].mitigation)
    acc_thresh = float(cfgd.pop("acc_thresh", 0.0))
    activations = cfgd.pop("activations", "uniform")
    hp = HyperParams(**{k: v for k, v in cfgd.items()
                        if k in HyperParams.__dataclass_fields__})
    test = a["test"]
    if a["spec"].sample_limit is not None:
        test = test.subset(a["spec"].sample_limit)
    _, rep = run_mitigation(a["model"], a["weights"], fm,
                            SystolicConfig(n=cell["array_size"]), m,
                            a["train"], test, hp, acc_thresh,
                            activations=activations)
    return rep.acc_after


def run_campaign(spec: CampaignSpec, model, weights, test_data,
                 train_data=None, energy_table=None, workers: int = 1,
                 include_timing: bool = False) -> list:
    """Execute every cell; returns records in canonical axis order.

    ``workers`` > 1 fans cells out to a process pool; results are
    identical to the sequential run because each cell's randomness is
    self-contained and records are ordered by cell index afterwards.
    """
    mults = {mid: parse_multiplier(mid) for mid in spec.multipliers}
    mae = {mid: error_metrics(m).mae_percent for mid, m in mults.items()}
    baselines = {}
    for engine in spec.engines:
        for mid, m in mults.items():
            if engine == "systolic":
                env = ExecEnv(engine="systolic", multiplier=m,
                              systolic=SystolicConfig(n=spec.array_sizes[0]))
            else:
                env = ExecEnv(engine="gpu_tiles", multiplier=m,
                              tile=spec.array_sizes[0])
            baselines[(engine, mid)] = evaluate(
                model, weights, test_data, env=env,
                sample_limit=spec.sample_limit,
            )
    payload = {
        "spec": spec,
        "model": model,
        "weights": weights,
        "test": test_data,
        "train": train_data,
        "multipliers": mults,
        "mae": mae,
        "baselines": baselines,
        "energy": energy_table,
        "include_timing": include_timing,
    }
    cells = cells_of(spec)
    if workers <= 1:
        _init_worker(payload)
        records = [_run_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(payload,)) as pool:
            records = list(pool.map(_run_cell, cells,
                                    chunksize=max(1, len(cells) // (4 * workers))))
    records.sort(key=lambda r: r.cell_index)
    return records


# ---------------------------------------------------------------------------
# persistence and reporting


def save_records(records, path) -> None:
    with open(path, "w") as f:
        json.dump([asdict(r) for r in records], f, indent=1)
        f.write("\n")


def load_records(path) -> list:
    with open(path) as f:
        return [CampaignRecord(**d) for d in json.load(f)]


def _cell_str(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def records_to_csv(records) -> str:
    lines = [CSV_COLUMNS]
    for r in records:
        lines.append(",".join([
            r.model, r.dataset, r.engine, r.multiplier,
            _cell_str(r.mae_percent), r.fault_kind, str(r.bit),
            _cell_str(r.percent), "all" if r.layer is None else str(r.layer),
            str(r.array_size), str(r.seed), _cell_str(r.baseline_acc),
            _cell_str(r.faulty_acc), _cell_str(r.acc_loss),
            _cell_str(r.mitigated_acc), _cell_str(r.energy_pj),
            _cell_str(r.wall_time_ms),
        ]))
    return "\n".join(lines) + "\n"


def _axis_values(records, axis):
    seen = []
    for r in records:
        v = getattr(r, axis)
        if v not in seen:
            seen.append(v)
    return seen


def _mean(vals):
    vals = [v for v in vals if v is not None]
    return sum(vals) / len(vals) if vals else None


def _mean_faulty(records, **match):
    sel = [r.faulty_acc for r in records
           if all(getattr(r, k) == v for k, v in match.items())]
    return _mean(sel)


def _axis_label(axis, v):
    if axis == "layer":
        return "all" if v is None else str(v)
    if isinstance(v, float) and v == int(v):
        return str(int(v))
    return str(v)


def summarize(records, energy_table=None) -> str:
    """Markdown summary: rankings over multipliers, then per-axis tables."""
    ok = [r for r in records if r.error is None]
    mults = _axis_values(records, "multiplier")
    lines = ["# Campaign summary", ""]
    lines.append(f"- records: {len(records)} ({len(records) - len(ok)} failed)")
    lines.append(f"- model: {records[0].model}, dataset: {records[0].dataset}")
    lines.append("")

    lines.append("## Multiplier ranking by mean faulty accuracy")
    lines.append("")
    lines.append("| rank | multiplier | mean faulty acc (%) | mean acc loss (pts) |")
    lines.append("|---|---|---|---|")
    ranked = []
    for mid in mults:
        acc = _mean_faulty(ok, multiplier=mid)
        loss = _mean([r.acc_loss for r in ok if r.multiplier == mid])
        ranked.append((mid, acc, loss))
    ranked.sort(key=lambda t: (-(t[1] if t[1] is not None else -1), t[0]))
    for i, (mid, acc, loss) in enumerate(ranked, 1):
        a = "" if acc is None else f"{acc:.2f}"
        l = "" if loss is None else f"{loss:.2f}"
        lines.append(f"| {i} | {mid} | {a} | {l} |")
    lines.append("")

    lines.append("## Multiplier ranking by energy per inference")
    lines.append("")
    per = {}
    unit = "pJ/inference"
    for r in ok:
        if r.energy_pj is not None:
            per.setdefault(r.multiplier, r.energy_pj)
    if not per and energy_table:
        # Records carry no energy column; fall back to the raw per-MAC
        # costs, which rank multipliers the same way for a fixed model.
        per = {mid: float(energy_table[mid]) for mid in mults
               if mid in energy_table}
        unit = "pJ/MAC"
    if per:
        digits = 1 if unit == "pJ/inference" else 2
        lines.append(f"| rank | multiplier | energy ({unit}) |")
        lines.append("|---|---|---|")
        for i, (mid, e) in enumerate(sorted(per.items(), key=lambda t: (t[1], t[0])), 1):
            lines.append(f"| {i} | {mid} | {e:.{digits}f} |")
    else:
        lines.append("No energy table supplied; energy ranking unavailable.")
    lines.append("")

    for axis in AXES:
        vals = _axis_values(records, axis)
        if len(vals) < 2 or axis == "multiplier":
            continue
        lines.append(f"## Mean faulty accuracy by {axis}")
        lines.append("")
        lines.append("| multiplier | " + " | ".join(_axis_label(axis, v) for v in vals) + " |")
        lines.append("|---" * (len(vals) + 1) + "|")
        for mid in mults:
            row = [mid]
            for v in vals:
                acc = _mean_faulty(ok, multiplier=mid, **{axis: v})
                row.append("" if acc is None else f"{acc:.2f}")
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines) + "\n"


def emit_report(records, out_dir, energy_table=None) -> list:
    """Write results.csv, summary.md, and one chart per swept axis.

    Returns the list of paths written. Output bytes depend only on the
    records (and energy table), never on wall time or worker count.
    """
    if not records:
        raise ValueError("no records to report")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "results.csv")
    with open(path, "w") as f:
        f.write(records_to_csv(records))
    written.append(path)

    path = os.path.join(out_dir, "summary.md")
    with open(path, "w") as f:
        f.write(summarize(records, energy_table))
    written.append(path)

    ok = [r for r in records if r.error is None]
    mults = _axis_values(records, "multiplier")
    for axis in AXES:
        vals = _axis_values(records, axis)
        if len(vals) < 2:
            continue
        cats = [_axis_label(axis, v) for v in vals]
        if axis == "multiplier":
            series = [("faulty accuracy",
                       [_mean_faulty(ok, multiplier=v) for v in vals])]
            svg = charts.bar_chart(cats, series, "Mean faulty accuracy by multiplier")
        else:
            series = [(mid, [_mean_faulty(ok, multiplier=mid, **{axis: v})
                             for v in vals]) for mid in mults]
            svg = charts.line_chart(cats, series,
                                    f"Mean faulty accuracy by {axis}")
        path = os.path.join(out_dir, f"chart_{axis}.svg")
        with open(path, "w") as f:
            f.write(svg)
        written.append(path)
    return written
