"""Sweep orchestration: run the fault axes as a Cartesian product, collect
accuracy and energy numbers, and render reports.

Determinism contract: a cell draws its fault from its ``seed`` value alone,
never from execution order or worker id, so the same spec yields the same
records at any worker count. A cell draws its fault as ``axfault inject
--seed`` does: a systolic cell its map, a gpu_tiles cell its damaged tile
(``faults.seeded_tile_index``) and the positions in it. Every multiplier
and layer of one seed is scored under one fault map, and the fault kinds
and bits of a seed share its positions, so two cells of a seed differ only
in the axis that tells them apart (common random numbers).

``run_campaign`` cuts the test ``Dataset`` to ``spec.sample_limit`` once;
the golden passes, every cell's ``evaluate`` and every repair score that
one object. A cell's repair (``mitigation._repair``) runs the ``ExecEnv``
its ``evaluate`` ran, and reuses its two accuracies: the golden pass's
baseline and the cell's own faulty accuracy are not scored again.

Golden-run reuse: without faults both engines compute the same GEMMs, so
one clean pass per multiplier (``network.golden_pass``) gives the baseline
accuracy of every engine. It fills one plan per multiplier, which every
cell of that multiplier passes to its one ``evaluate`` call. The plan holds
each GEMM layer's weight codes and, for a table multiplier, its fault-free
per-weight product tables, so a cell builds tables only for the layer whose
faults it folds into them. It also keeps, per eval batch, the int8
activations entering every layer of ``spec.layers`` and that layer's
fault-free int32 accumulator; a layer-filtered cell resumes the forward
pass there and adds only its own faults to the kept accumulator. Records
are byte-identical to evaluating each cell from the input. The kept state
does not depend on the engine, array or tile size, so one entry serves
every ``engines`` and ``array_sizes`` value. ``_GOLDEN_BYTES`` caps it and
the tables together; each golden pass spends what the ones before it left,
and ``golden_pass`` decides what fits. A (multiplier, layer) entry that
does not fit, and every cell with ``layers: "all"``, is evaluated from the
input; a layer without tables builds them per GEMM. Workers inherit the
plans from the parent process.

``AXES`` is the one declaration of the axes: cells, the record fields they
fill and the report's per-axis tables all follow it, and the CSV columns
follow the record fields.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, asdict
import csv
import io
import itertools
import json
import math
import os
import time
import typing

from . import charts
from .faults import (FAULT_KINDS, StuckAtFault, SystolicConfig, TileFaultSpec, _check_int,
                     _check_real, random_fault_map, seeded_tile_index)
from .mitigation import _repair, check_activations
from .multipliers import error_metrics, parse_multiplier
from .network import QUANTIZED_ENGINES, ExecEnv, evaluate, golden_pass
from .training import HyperParams

# The campaign's axes in canonical order, the only place that order is
# written. Each names a CampaignRecord field; a spec lists the axis' values
# under its plural (layers through ``layer_values``). Cells and the report's
# per-axis tables follow this tuple, so records come out in its product
# order by construction, however execution was scheduled.
AXES = ("engine", "multiplier", "fault_kind", "bit", "percent", "layer",
        "array_size", "seed")

# Cap on the golden-pass state a campaign keeps for its layer-filtered cells,
# and then on the per-weight tables of its plans.
# lenet-desk with layers 0, 2, 5 and 6 at the default 2000 samples keeps
# 50 MB per multiplier, whatever the engines: 46 MB of accumulators, 37 MB
# of them conv layer 0's, and 4.5 MB of activation codes. Its tables take
# 10 MB per table multiplier.
_GOLDEN_BYTES = 1 << 28

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


# the repair settings a spec's ``mitigation`` object may hold
_MITIGATION_KEYS = {*HyperParams.__dataclass_fields__, "acc_thresh", "activations"}


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
        # stored as the checks return them, so cells_of reads them as they
        # are: the CSV writes ``repr(percent)``, and a percent given as 16
        # must be the cell of 16.0
        for name in ("model_id", "dataset_id"):
            _check_str(name, getattr(self, name))
        for name in ("multipliers", "fault_kinds", "engines"):
            setattr(self, name, _check_axis(name, getattr(self, name), _check_str))
        self.bits = _check_axis("bits", self.bits, _check_int, 0, 15)
        self.percents = _check_axis("percents", self.percents, _check_real, 0, 100)
        self.array_sizes = _check_axis("array_sizes", self.array_sizes, _check_int, 1)
        self.seeds = _check_axis("seeds", self.seeds, _check_int, 0)
        for k in self.fault_kinds:
            if k not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        for e in self.engines:
            if e not in QUANTIZED_ENGINES:
                raise ValueError(f"unknown engine {e!r}")
        if self.layers != "all":
            self.layers = _check_axis("layers", self.layers, _check_int)
        if self.mitigation is not None:
            if not isinstance(self.mitigation, dict):
                raise ValueError("mitigation must be an object or null")
            unknown = sorted(set(self.mitigation) - _MITIGATION_KEYS)
            if unknown:
                raise ValueError(f"unknown mitigation keys {unknown}; "
                                 f"allowed: {sorted(_MITIGATION_KEYS)}")
            _repair_settings(self.mitigation)
        if self.sample_limit is not None:
            self.sample_limit = _check_int("sample_limit", self.sample_limit, 1)

    def layer_values(self) -> list:
        return [None] if self.layers == "all" else self.layers

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @staticmethod
    def from_json(text: str) -> "CampaignSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a campaign spec must be a JSON object")
        unknown = sorted(set(doc) - set(CampaignSpec.__dataclass_fields__))
        missing = [k for k in ("model_id", "dataset_id", "multipliers") if k not in doc]
        if unknown or missing:
            raise ValueError(f"campaign spec: unknown keys {unknown}, missing keys {missing}")
        return CampaignSpec(**doc)


def _repair_settings(mitigation: dict):
    """(HyperParams, acc_thresh, activations) from a spec's ``mitigation``
    object, an unset or null ``acc_thresh`` None (every epoch runs);
    ``ValueError`` for a setting of the wrong type or range."""
    cfg = dict(mitigation)
    acc_thresh = cfg.pop("acc_thresh", None)
    acc_thresh = None if acc_thresh is None else _check_real("acc_thresh", acc_thresh)
    activations = cfg.pop("activations", "uniform")
    check_activations(activations)
    return HyperParams(**cfg), acc_thresh, activations


def _check_axis(name, values, check, *bounds) -> list:
    """``values``, a non-empty list, each passed through ``check(name, v,
    *bounds)``. JSON null, strings, booleans and fractions for integers
    would otherwise crash a cell or be coerced to another one."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"{name} must be a non-empty list")
    return [check(name, v, *bounds) for v in values]


def _check_str(name, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


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


# the record fields results.csv writes, in record order
_CSV_FIELDS = [f.name for f in fields(CampaignRecord) if f.name not in ("cell_index", "error")]
CSV_COLUMNS = ",".join("percent_faulty" if n == "percent" else n for n in _CSV_FIELDS)


def cells_of(spec: CampaignSpec) -> list:
    """Cartesian product of the axes, in ``AXES`` order, with indices."""
    lists = [spec.layer_values() if axis == "layer" else getattr(spec, axis + "s")
             for axis in AXES]
    return [{"cell_index": i, **dict(zip(AXES, values))}
            for i, values in enumerate(itertools.product(*lists))]


# ---------------------------------------------------------------------------
# MAC counting and energy


def mac_count(model) -> int:
    """Multiply-accumulate count of one forward pass, from layer geometry:
    each GEMM's weight matrix times its number of output positions."""
    shapes = model.shapes()
    return sum(math.prod(model.gemm_weight_shape(idx)) * math.prod(shapes[idx][:-1])
               for idx in model.param_layers())


def _check_energy_table(table) -> None:
    """Raise ``ValueError`` unless ``table`` is None or maps multiplier ids
    to finite, positive per-MAC energies in picojoules."""
    if table is None:
        return
    if not isinstance(table, dict):
        raise ValueError(f"an energy table must map multiplier ids to pJ per MAC, "
                         f"got {type(table).__name__}")
    for mid, pj in table.items():
        if not isinstance(mid, str):
            raise ValueError(f"energy table keys must be multiplier ids, got {mid!r}")
        # the least positive float, so that no MAC is free
        _check_real(f"energy of {mid!r} in pJ per MAC", pj, math.ulp(0.0))


def energy_estimate(model, multiplier_id: str, table: dict) -> float:
    """Joules per inference: MAC count times the per-op energy."""
    _check_energy_table(table)
    if multiplier_id not in table:
        raise ValueError(f"no energy entry for multiplier {multiplier_id!r}")
    return mac_count(model) * float(table[multiplier_id]) * 1e-12


# ---------------------------------------------------------------------------
# cell execution

_ASSETS: dict = {}


def _init_worker(payload):
    global _ASSETS
    _ASSETS = payload


def _cell_env(cell, m) -> ExecEnv:
    """The ``ExecEnv`` of ``cell``, its fault drawn from its seed alone."""
    layer, seed = cell["layer"], cell["seed"]
    fault = StuckAtFault(cell["bit"], cell["fault_kind"])
    if cell["engine"] == "systolic":
        n = cell["array_size"]
        return ExecEnv(engine="systolic", multiplier=m,
                       systolic=SystolicConfig(n=n, mode="propagate"),
                       fault_map=random_fault_map(n, cell["percent"], fault, seed),
                       layer_filter=layer)
    tf = TileFaultSpec(tile_index=seeded_tile_index(seed),
                       damaged_fraction=cell["percent"] / 100.0, fault=fault, seed=seed)
    return ExecEnv(engine="gpu_tiles", multiplier=m, tile=cell["array_size"],
                   tile_fault=tf, layer_filter=layer)


def _run_cell(cell: dict) -> CampaignRecord:
    a = _ASSETS
    spec = a["spec"]
    t0 = time.perf_counter() if a["include_timing"] else None
    mid = cell["multiplier"]
    rec = CampaignRecord(**cell, model=spec.model_id, dataset=spec.dataset_id,
                         mae_percent=a["mae"][mid], baseline_acc=a["baselines"][mid],
                         faulty_acc=None, acc_loss=None)
    try:
        env = _cell_env(cell, a["multipliers"][mid])
        rec.faulty_acc = evaluate(a["model"], a["weights"], a["test"], env=env,
                                  _plan=a["plans"][mid])
        rec.acc_loss = rec.baseline_acc - rec.faulty_acc
        if a["repair"] is not None and env.engine == "systolic":
            _, rec.mitigated_acc, _, _ = _repair(a["model"], a["weights"], env.fault_map,
                                                 env.systolic, env.multiplier, a["train"],
                                                 a["test"], *a["repair"])
        if a["energy"] is not None and mid in a["energy"]:
            rec.energy_pj = a["macs"] * float(a["energy"][mid])
    except Exception as e:  # noqa: BLE001 - a bad cell must not kill the sweep
        rec.error = f"{type(e).__name__}: {e}"
    if t0 is not None:
        rec.wall_time_ms = (time.perf_counter() - t0) * 1000.0
    return rec


def run_campaign(spec: CampaignSpec, model, weights, test_data,
                 train_data=None, energy_table=None, workers: int = 1,
                 include_timing: bool = False) -> list:
    """Execute every cell; returns records in canonical axis order.

    ``workers`` > 1 fans cells out to a process pool; results are
    identical to the sequential run because each cell's randomness is
    self-contained, and the pool returns records in cell order.

    Raises ``ValueError`` for an ``energy_table`` that
    ``_check_energy_table`` refuses, when ``spec.mitigation`` is set without
    ``train_data`` or for layer-filtered cells (mitigation repairs every
    layer), and, through ``golden_pass``, when a ``spec.layers`` entry is
    no dense or conv2d layer of ``model``.
    """
    _check_energy_table(energy_table)
    layers = list(dict.fromkeys(i for i in spec.layer_values() if i is not None))
    if spec.mitigation is not None and train_data is None:
        raise ValueError("mitigation requested but no training data supplied")
    if spec.mitigation is not None and layers:
        raise ValueError("mitigation needs layers 'all': it repairs every layer")
    mults = {mid: parse_multiplier(mid) for mid in spec.multipliers}
    mae = {mid: error_metrics(m).mae_percent for mid, m in mults.items()}
    test = test_data if spec.sample_limit is None else test_data.subset(spec.sample_limit)
    room = _GOLDEN_BYTES
    baselines, plans = {}, {}
    for mid, m in mults.items():
        # the clean pass of either engine serves both
        env = ExecEnv(engine="gpu_tiles", multiplier=m)
        baselines[mid], plans[mid] = golden_pass(model, weights, test, env, layers, room=room)
        room = plans[mid].room
    payload = dict(spec=spec, model=model, weights=weights, test=test, train=train_data,
                   multipliers=mults, mae=mae, baselines=baselines, plans=plans,
                   repair=None if spec.mitigation is None else _repair_settings(spec.mitigation),
                   energy=energy_table, macs=mac_count(model), include_timing=include_timing)
    cells = cells_of(spec)
    if workers <= 1:
        _init_worker(payload)
        return [_run_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(payload,)) as pool:
        return list(pool.map(_run_cell, cells,
                             chunksize=max(1, len(cells) // (4 * workers))))


# ---------------------------------------------------------------------------
# persistence and reporting


def save_records(records, path) -> None:
    with open(path, "w") as f:
        json.dump([asdict(r) for r in records], f, indent=1)
        f.write("\n")


def _value_fits(v, types) -> bool:
    """Whether JSON value ``v`` fits a record field typed ``types``: an int
    fits a float field, a bool, NaN or infinity none, None only a field that
    allows it."""
    if v is None:
        return type(None) in types
    if isinstance(v, bool) or isinstance(v, float) and not math.isfinite(v):
        return False
    return isinstance(v, types) or isinstance(v, int) and float in types


def load_records(path) -> list:
    """The records ``save_records`` wrote; ``ValueError`` for a file that
    holds no list of records with exactly the record fields, each holding
    a value of its field's type."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, list) or not all(isinstance(d, dict) for d in doc):
        raise ValueError(f"{path}: a records file must hold a JSON list of objects")
    types = {f.name: typing.get_args(f.type) or (f.type,) for f in fields(CampaignRecord)}
    required = {f.name for f in fields(CampaignRecord) if f.default is MISSING}
    for i, d in enumerate(doc):
        unknown, missing = sorted(set(d) - set(types)), sorted(required - set(d))
        if unknown or missing:
            raise ValueError(f"{path}: record {i}: unknown fields {unknown}, "
                             f"missing fields {missing}")
        for name, v in d.items():
            if not _value_fits(v, types[name]):
                want = " or ".join("null" if t is type(None) else t.__name__
                                   for t in types[name])
                raise ValueError(f"{path}: record {i}: field {name!r} must be "
                                 f"{want}, got {v!r}")
    return [CampaignRecord(**d) for d in doc]


def _field_str(name, v) -> str:
    """A record field as the CSV writes it: floats by repr, a None layer as
    "all", any other None as empty."""
    if v is None:
        return "all" if name == "layer" else ""
    return repr(v) if isinstance(v, float) else str(v)


def records_to_csv(records) -> str:
    """results.csv: ``CSV_COLUMNS``, then one row per record, a field that
    holds a comma (a dataset of several CIFAR-10 batches) quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS.split(","))
    writer.writerows([_field_str(n, getattr(r, n)) for n in _CSV_FIELDS] for r in records)
    return out.getvalue()


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
    if isinstance(v, float) and v == int(v):
        return str(int(v))
    return _field_str(axis, v)


def _axis_tables(records):
    """(axis, labels, series) for each axis that takes two or more values,
    in ``AXES`` order: the mean faulty accuracy at each value, one series
    per multiplier, or for the multiplier axis one series of its own."""
    ok = [r for r in records if r.error is None]
    mults = _axis_values(records, "multiplier")
    for axis in AXES:
        vals = _axis_values(records, axis)
        if len(vals) < 2:
            continue
        if axis == "multiplier":
            series = [("faulty accuracy", [_mean_faulty(ok, multiplier=v) for v in vals])]
        else:
            series = [(mid, [_mean_faulty(ok, multiplier=mid, **{axis: v}) for v in vals])
                      for mid in mults]
        yield axis, [_axis_label(axis, v) for v in vals], series


def summarize(records, energy_table=None) -> str:
    """Markdown summary: rankings over multipliers, then per-axis tables."""
    _check_energy_table(energy_table)
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

    for axis, labels, series in _axis_tables(records):
        if axis == "multiplier":
            continue
        lines += [f"## Mean faulty accuracy by {axis}", "",
                  "| multiplier | " + " | ".join(labels) + " |",
                  "|---" * (len(labels) + 1) + "|"]
        for mid, accs in series:
            cells = ["" if acc is None else f"{acc:.2f}" for acc in accs]
            lines.append("| " + " | ".join([mid] + cells) + " |")
        lines.append("")
    return "\n".join(lines) + "\n"


def emit_report(records, out_dir, energy_table=None) -> list:
    """Write results.csv, summary.md, and one chart per swept axis.

    Returns the list of paths written. Output bytes depend only on the
    records (and energy table), never on wall time or worker count.
    """
    if not records:
        raise ValueError("no records to report")
    texts = {"results.csv": records_to_csv(records),
             "summary.md": summarize(records, energy_table)}
    for axis, labels, series in _axis_tables(records):
        chart = charts.bar_chart if axis == "multiplier" else charts.line_chart
        texts[f"chart_{axis}.svg"] = chart(labels, series, f"Mean faulty accuracy by {axis}")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in texts.items():
        written.append(os.path.join(out_dir, name))
        with open(written[-1], "w") as f:
            f.write(text)
    return written
