"""Paired benchmark runs of two revisions, in ABBA order.

    python tools/abba.py PARENT [CHANGE] [--workloads a,b] [--pairs 10]
        [--seconds 20] > BENCH.json

Exports PARENT and CHANGE (default: the tracked and staged files of the
working tree) with ``git archive`` into two fresh sibling directories whose
paths have equal length, since the checkout's path alone moves some
figures. For each workload it then runs ``bench/run.py --trace 0`` pairs,
one process per run: pair i runs seed ``SEED`` + i on both sides, the
parent first in even pairs and the change first in odd ones. It writes one
JSON document to standard output with the keys ``what``, ``parent``,
``change``, ``command``, ``method``, ``host``, ``env``, ``summary`` and
``runs``. Per workload, ``summary`` gives the pair count,
whether each pair's two digests were equal, the failed operations of all
runs, and per end-to-end metric of BENCHMARK.json each side's median, q1,
q3, min and max, the pairs in which the change read lower, the median
change in percent and the parent's IQR. A metric whose parent IQR is
wider than its bound (a share of the parent's median) is marked
``unresolved``, unless every run of the change reads better than every run
of the parent. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SEED = 101  # the seed of pair 0


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def resolve(rev: str | None) -> str:
    """The commit of ``rev``; for None, one that holds the working tree's
    tracked and staged files (HEAD when they are unchanged)."""
    if rev is None:
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", rev + "^{commit}")


def export(commit: str, dest: str) -> None:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def order(pair: int) -> tuple:
    """The sides of ``pair`` in the order they run: ABBA."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(copy: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` process in ``copy``: its failed count, metrics,
    digest line and env; a run that exits nonzero or prints no result
    counts as one failure with no metrics."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    found = {key: next((ln for ln in lines if ln.startswith(key + " ")), None)
             for key in ("env", "digest")}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"failed": 1, "metrics": {}, "digest": None, "env": None,
                "error": f"exit {proc.returncode}: {tail}"}
    return {"failed": result["failed"], "metrics": result["metrics"],
            "digest": found["digest"],
            "env": json.loads(found["env"][4:]) if found["env"] else None}


def _stats(values) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {k: round(v, 4) for k, v in
            (("median", median), ("q1", q1), ("q3", q3),
             ("min", min(values)), ("max", max(values)))}


def metric_summary(pairs: list, bound: float, better: str) -> dict:
    """Summary of one metric over ``pairs`` of (parent, change) values."""
    sides = {side: [p[i] for p in pairs] for i, side in enumerate(SIDES)}
    out = {side: _stats(v) for side, v in sides.items()}
    parent, change = (statistics.median(sides[s]) for s in SIDES)
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    sign = 1 if better == "lower" else -1
    all_better = (max(sign * v for v in sides["change"])
                  < min(sign * v for v in sides["parent"]))
    out.update({
        "change_lower_in_pairs": f"{sum(c < p for p, c in pairs)} of {len(pairs)}",
        "median_change_pct": round(100.0 * (change / parent - 1.0), 1),
        "parent_iqr": round(iqr, 4),
        "unresolved": iqr > bound * abs(parent) and not all_better,
    })
    return out


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload, the ``summary`` entry of ``runs`` (the records this
    script writes), for the metrics ``end_to_end`` (BENCHMARK.json's list)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        full = [p for _, p in sorted(by_pair.items()) if set(p) == set(SIDES)]
        metrics = {}
        for m in end_to_end:
            pairs = [tuple(p[s]["metrics"][m["name"]]["value"] for s in SIDES)
                     for p in full if all(m["name"] in p[s]["metrics"] for s in SIDES)]
            if pairs:
                metrics[m["name"]] = metric_summary(pairs, m["bound"], m["better"])
        summary[workload] = {
            "seeds": sorted({r["seed"] for p in by_pair.values() for r in p.values()}),
            "pairs": len(full),
            "digests_equal": all(p["parent"]["digest"] is not None
                                 and p["parent"]["digest"] == p["change"]["digest"]
                                 for p in full),
            "failed": sum(r["failed"] for p in by_pair.values() for r in p.values()),
            "metrics": metrics,
        }
    return summary


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the revision compared against")
    p.add_argument("change", nargs="?",
                   help="the revision measured (default: the working tree)")
    p.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    work = tempfile.mkdtemp(prefix="abba-")
    copies = {side: os.path.join(work, side) for side in SIDES}  # equal-length names
    runs, env = [], None
    try:
        for side in SIDES:
            export(commits[side], copies[side])
        for workload in workloads:
            for pair in range(args.pairs):
                seed = SEED + pair
                for side in order(pair):
                    r = run_once(copies[side], workload, seed, seconds)
                    run_env = r.pop("env")
                    env = env or run_env
                    runs.append({"workload": workload, "seed": seed, "pair": pair,
                                 "side": side, **r})
                    print(f"{workload} pair {pair} {side}: failed {r['failed']} "
                          + " ".join(f"{k}={v['value']:.4g}"
                                     for k, v in r["metrics"].items()),
                          file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    change = args.change or "the working tree"
    doc = {
        "what": f"bench/run.py runs of {args.parent} against {change}",
        "parent": commits["parent"],
        "change": commits["change"] if args.change else f"{change} ({commits['change']})",
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "method": "written by tools/abba.py: each side ran from its own fresh `git archive` "
                  "copy, in sibling directories of equal path length, each run in its own "
                  "process; pairs alternate order (ABBA): in even pairs (0, 2, ...) the "
                  f"parent ran first, in odd pairs the change; pair i ran seed {SEED} + i "
                  "on both sides; quartiles are inclusive",
        "host": f"{len(os.sched_getaffinity(0))} cores, "
                f"{os.sysconf('SC_PAGE_SIZE') * os.sysconf('SC_PHYS_PAGES') / 2**30:.0f} GB",
        "env": env,
        "summary": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    sys.stdout.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
