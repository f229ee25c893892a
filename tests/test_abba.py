"""tools/abba.py: the ABBA order, the summary of paired runs and the
parsing of one bench/run.py process."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("abba", os.path.join(ROOT, "tools", "abba.py"))
abba = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abba)

END_TO_END = [{"name": "iteration_norm", "bound": 0.2, "better": "lower"},
              {"name": "peak_rss_mb", "bound": 0.1, "better": "lower"}]


def _run(workload, pair, side, norm, rss, digest="d", failed=0):
    return {"workload": workload, "seed": 101 + pair, "pair": pair, "side": side,
            "failed": failed, "digest": digest,
            "metrics": {"iteration_norm": {"value": norm, "unit": "calib"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_pairs_alternate_which_side_runs_first():
    assert [abba.order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"),
        ("parent", "change"), ("change", "parent")]


def test_summary_of_synthetic_runs():
    # parent norms 1.0, 1.1, 1.2, 1.3 (median 1.15, inclusive quartiles
    # 1.075 and 1.225); the change reads 10% lower in three pairs of four
    norms = [(1.0, 0.9), (1.1, 0.99), (1.2, 1.08), (1.3, 1.4)]
    runs = [_run("w", i, side, v, 100.0 + i)
            for i, pair in enumerate(norms) for side, v in zip(abba.SIDES, pair)]
    out = abba.summarize(runs, END_TO_END)["w"]
    assert (out["seeds"], out["pairs"], out["digests_equal"], out["failed"]) == \
        ([101, 102, 103, 104], 4, True, 0)
    norm = out["metrics"]["iteration_norm"]
    assert norm["parent"] == {"median": 1.15, "q1": 1.075, "q3": 1.225,
                              "min": 1.0, "max": 1.3}
    assert norm["change"]["median"] == pytest.approx(1.035)
    assert norm["change_lower_in_pairs"] == "3 of 4"
    assert norm["median_change_pct"] == -10.0
    assert norm["parent_iqr"] == 0.15
    assert norm["unresolved"] is False  # 0.15 is 13% of 1.15, inside the 20% bound
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == "0 of 4" and rss["median_change_pct"] == 0.0


def test_a_wide_parent_spread_is_unresolved_unless_the_change_always_reads_better():
    wide = [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 2.0)]  # parent IQR 1.0 of 1.5
    runs = [_run("w", i, s, v, 1.0) for i, p in enumerate(wide)
            for s, v in zip(abba.SIDES, p)]
    assert abba.summarize(runs, END_TO_END)["w"]["metrics"]["iteration_norm"]["unresolved"]
    better = [(1.0, 0.5), (2.0, 0.6), (1.0, 0.5), (2.0, 0.6)]
    runs = [_run("w", i, s, v, 1.0) for i, p in enumerate(better)
            for s, v in zip(abba.SIDES, p)]
    assert not abba.summarize(runs, END_TO_END)["w"]["metrics"]["iteration_norm"]["unresolved"]
    # a higher-is-better metric reads better the other way
    up = [{"name": "iteration_norm", "bound": 0.2, "better": "higher"}]
    assert abba.summarize(runs, up)["w"]["metrics"]["iteration_norm"]["unresolved"]


def test_failures_digests_and_incomplete_pairs():
    crashed = {"workload": "w", "seed": 102, "pair": 1, "side": "parent", "failed": 1,
               "digest": None, "metrics": {}, "error": "exit 1: boom"}
    runs = [_run("w", 0, "parent", 1.0, 1.0, failed=2), _run("w", 0, "change", 1.0, 1.0),
            _run("w", 1, "change", 1.0, 1.0), crashed,
            _run("w", 2, "parent", 1.0, 1.0),  # its change never ran
            _run("v", 0, "parent", 1.0, 1.0, "a"), _run("v", 0, "change", 1.0, 1.0, "b")]
    out = abba.summarize(runs, END_TO_END)
    assert list(out) == ["w", "v"]
    w = out["w"]
    assert (w["pairs"], w["failed"], w["seeds"]) == (2, 3, [101, 102, 103])
    assert w["digests_equal"] is False  # the crashed run has no digest
    assert w["metrics"]["iteration_norm"]["change_lower_in_pairs"] == "0 of 1"
    assert out["v"]["digests_equal"] is False


def test_summary_reproduces_the_hand_built_bench_27():
    with open(os.path.join(ROOT, "BENCH_27.json")) as f:
        doc = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    out = abba.summarize(doc["runs"], end_to_end)
    for workload, ref in doc["summary"].items():
        for key in ("seeds", "pairs", "digests_equal", "failed"):
            assert out[workload][key] == ref[key]
        for name, metric in ref["metrics"].items():
            assert {k: out[workload]["metrics"][name][k] for k in metric} == metric
    # the one its CHANGES line calls unresolved: parent IQR 38% of the median
    assert [(w, n) for w, s in out.items() for n, m in s["metrics"].items()
            if m["unresolved"]] == [("mlp-repair", "setup_s")]


def _fake_bench(tmp_path, body):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(body)
    return str(tmp_path)


def test_run_once_reads_the_last_line_and_the_digest(tmp_path):
    copy = _fake_bench(tmp_path, """\
import json, sys
print('env ' + json.dumps({"nproc": 2}))
print('digest w seed=' + sys.argv[4] + ' abc')
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}))
""")
    assert abba.run_once(copy, "w", 7, 1.0) == {
        "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}},
        "digest": "digest w seed=7 abc", "env": {"nproc": 2}}


def test_run_once_counts_a_crash_as_one_failure(tmp_path):
    copy = _fake_bench(tmp_path, "import sys\nprint('partial')\nsys.exit('error: no data')\n")
    out = abba.run_once(copy, "w", 1, 1.0)
    assert out == {"failed": 1, "metrics": {}, "digest": None, "env": None,
                   "error": "exit 1: error: no data"}


def test_pairs_below_one_are_refused(capsys):
    with pytest.raises(SystemExit):
        abba.parse_args(["HEAD", "--pairs", "0"])
    assert "--pairs must be at least 1" in capsys.readouterr().err
