"""Benchmark of the axfault simulator's host time.

    python3 bench/run.py --workload mlp-eval --seed 1 --seconds 10 --trace 0

Runs one workload from a checkout of the repository (the library is
imported from ``src/``), checks its outputs and prints, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
listed in BENCHMARK.json, ``--trace 1`` the per-layer ones. Files go to
``.bench_out/`` in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
# one BLAS thread per process: the sweep runs two worker processes, and the
# benchmark targets two cores
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Ledger:
    """Operations attempted and the descriptions of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def run(self, what: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation; an exception is a failure."""
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - every failure is counted, not raised
            self.op(False, f"{what}: {type(e).__name__}: {e}")
            return None
        self.op(True, what)
        return out

    def check(self, what: str, fn, *args, **kwargs) -> bool:
        """One operation that passes when ``fn`` returns true."""
        try:
            ok = bool(fn(*args, **kwargs))
        except Exception as e:  # noqa: BLE001 - every failure is counted, not raised
            return self.op(False, f"{what}: {type(e).__name__}: {e}")
        return self.op(ok, what)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def weights_digest(weights) -> str:
    h = hashlib.sha256()
    for idx in sorted(weights):
        for key in ("W", "b"):
            h.update(weights[idx][key].tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of its worker processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024 / 1e6  # Linux reports KiB


def environment(np, nproc: int, workers: int) -> dict:
    blas = {"name": "unknown", "version": "unknown"}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name", "unknown"), "version": dep.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"],
            "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
            "campaign_workers": workers}


class Calibration:
    """A fixed numpy kernel that does not use the library, timed next to every
    iteration.

    On a shared host the CPU's speed drifts (on a 2-vCPU VM, by 10-30% over
    tens of seconds), and the drift slows every kernel about alike. An
    iteration's wall time divided by the kernel's time around it cancels most
    of the drift but keeps every change in the library's own cost. The kernel mixes what the simulator
    spends its time on: int16 products summed in int32, a table gather, a
    float matmul and interpreted Python.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0xCA11B)
        self.np = np
        self.a = rng.integers(-127, 128, size=(784, 64), dtype=np.int8)
        self.w = rng.integers(-127, 128, size=(64, 784), dtype=np.int8)
        self.table = rng.integers(-32768, 32768, size=65536).astype(np.int16)
        self.idx = rng.integers(0, 65536, size=(64, 784, 16)).astype(np.int32)
        self.f = rng.random((256, 256))

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(8):
            p = (self.a[None].astype(np.int32) * self.w[:, :, None].astype(np.int32))
            p.astype(np.int16).sum(axis=1, dtype=np.int32)
            self.table[self.idx].sum(axis=1, dtype=np.int32)
            self.f @ self.f
            sum(i * i for i in range(20000))
        return time.perf_counter() - t0


@dataclasses.dataclass
class Iteration:
    wall: float  # s
    norm: float  # wall / the calibration kernel's time around it
    digest: str
    rates: dict
    stats: object


def timed_loop(wl, seconds: float, ledger, calibrate) -> list:
    """Run iterations until ``seconds`` have passed (at least one)."""
    done = []
    end = time.perf_counter() + seconds
    before = calibrate()
    while True:
        t0 = time.perf_counter()
        out = ledger.run(f"{type(wl).__name__} iteration", wl.iterate, ledger)
        dt = time.perf_counter() - t0
        after = calibrate()
        if out is not None:
            done.append(Iteration(dt, 2.0 * dt / (before + after), digest(out[0]),
                                  out[1], out[0]))
        before = after
        if time.perf_counter() >= end:
            return done


def check_outputs(wl, iterations, ledger, network, oracle, np) -> None:
    """Replay the workload's GEMM configs against the oracle and compare the
    digests of all iterations."""
    s = wl.s
    envs, data = wl.check_envs()
    rng = np.random.default_rng(wl.seed)
    for env in envs:
        with oracle.recording(network) as calls:
            ledger.run("check evaluate", network.evaluate, s.model, s.weights, data, env)
        ledger.op(bool(calls), "check evaluate made no GEMM call")
        for kind, bound, out in calls:
            ledger.check(f"{kind} ({bound['m'].id}) output differs from the oracle",
                         oracle.call_matches, kind, bound, out, rng)
    for it in iterations[1:]:
        ledger.op(it.digest == iterations[0].digest,
                  "an iteration's statistics differ from the first's")


def set_up(wl, ledger, tracer=None) -> list:
    """Set the workload up, three times (once when traced); a repeat must
    train the same weights. Returns the set-up wall times."""
    times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.tracing("setup") if tracer else contextlib.nullcontext():
            s = wl.setup()
        times.append(time.perf_counter() - t0)
        if wl.s is None:
            wl.prepare(s)
        else:
            ledger.op(weights_digest(s.weights) == weights_digest(wl.s.weights),
                      "a repeated set-up trained other weights")
    return times


def median_of(iterations, field: str) -> float:
    return statistics.median(getattr(it, field) for it in iterations)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import axfault
    except ImportError as e:
        print(f"error: cannot import axfault from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(axfault.__file__).startswith(SRC + os.sep):
        print(f"error: axfault was imported from {axfault.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np
    from axfault import network

    import oracle
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    traced = args.trace == 1
    # spans from inside the pool's workers are not collected, so the traced
    # run sweeps in-process
    workers = 1 if traced else min(2, nproc)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    ledger = Ledger()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch, workers)
        print("env " + json.dumps(environment(np, nproc, workers)))
        tracer = tracing.Tracer() if traced else None
        setup_s = set_up(wl, ledger, tracer)
        s = wl.s
        acc = ledger.run("float accuracy", network.evaluate, s.model, s.weights, s.test)
        ledger.op(acc is not None and acc >= wl.float_floor,
                  f"float accuracy {acc} below the floor {wl.float_floor}")

        calibrate = Calibration(np)
        if traced:
            plain = timed_loop(wl, args.seconds / 2, ledger, calibrate)
            with tracer.tracing("timed"):
                iterations = timed_loop(wl, args.seconds / 2, ledger, calibrate)
        else:
            iterations = timed_loop(wl, args.seconds, ledger, calibrate)
        if not iterations or (traced and not plain):
            print("error: no iteration completed: " + "; ".join(ledger.failures[:5]),
                  file=sys.stderr)
            return 1
        check_outputs(wl, iterations, ledger, network, oracle, np)
        with open(os.path.join(OUT_DIR, f"stats-{args.workload}-s{args.seed}.json"), "w") as f:
            json.dump(iterations[0].stats, f, indent=1, sort_keys=True)
        print(f"iterations {args.workload} n={len(iterations)} "
              f"wall_s={[round(it.wall, 4) for it in iterations]} "
              f"norm={[round(it.norm, 3) for it in iterations]}")

        if traced:
            overhead = 100.0 * (median_of(iterations, "norm") / median_of(plain, "norm") - 1.0)
            # the calibration kernel runs between traced iterations; leave it out
            wall = setup_s[0] + sum(it.wall for it in iterations)
            specs = bench["per_layer"]
            values = tracing.layer_metrics(tracer, wall, len(iterations), overhead,
                                           wl.prefix_mmacs_share(),
                                           [m["name"] for m in specs])
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.json"),
                         workload=args.workload, seed=args.seed, wall_s=wall)
            for layer, (calls, total, self_s) in tracing.layer_table(tracer.spans).items():
                print(f"layer {layer} calls={calls} total_s={total:.6f} self_s={self_s:.6f}")
        else:
            specs = bench["end_to_end"]
            values = {"setup_s": statistics.median(setup_s),
                      "iteration_norm": median_of(iterations, "norm"),
                      "peak_rss_mb": peak_rss_mb()}
            print(f"metric {args.workload} iteration_s {median_of(iterations, 'wall'):.6g} s")
            for name, unit in workloads.DETAIL_METRICS[args.workload]:
                v = statistics.median(it.rates[name] for it in iterations)
                print(f"metric {args.workload} {name} {v:.6g} {unit}")
        ratio = len(ledger.failures) / ledger.attempted
        print(f"metric {args.workload} fail_ratio {ratio:.6g} "
              f"({len(ledger.failures)}/{ledger.attempted})")
        for what in ledger.failures[:20]:
            print(f"failure {what}")
        print(f"digest {args.workload} seed={args.seed} {iterations[0].digest}")
        for m in specs:
            print(f"metric {args.workload} {m['name']} {values[m['name']]:.6g} {m['unit']}")
        result = {"correct": not ledger.failures, "attempted": ledger.attempted,
                  "failed": len(ledger.failures),
                  "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                              for m in specs}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
