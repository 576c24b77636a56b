"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import REFERENCE, ROOT, WORKLOADS, Scenario, Workload  # noqa: E402

RTOKEN = Scenario("rtoken-change", ("--protocol", "rtoken", "--change", "--goals", "all"),
                  REFERENCE / "rtoken.json")


def test_self_time_subtracts_direct_children():
    recs = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert spans.self_times(recs) == {
        "a": [1, 10.0, 3.0],
        "b": [2, 7.0, 6.0],
        "c": [1, 1.0, 1.0],
    }


def test_recursive_span_counts_inclusive_time_once():
    recs = [["e", 0.0, 5.0, -1], ["x", 1.0, 4.0, 0], ["e", 2.0, 3.0, 1]]
    assert spans.self_times(recs) == {"e": [2, 5.0, 3.0], "x": [1, 3.0, 2.0]}


def test_reference_clock_scales_gaps_and_stands_still_in_samples():
    # calibration loops of 0.5, 1.0 and 0.5 s against a 1-s reference:
    # speeds 2, 1 and 2; the gap before a sample runs at its speed
    clock = speed.reference_clock(
        [(1.0, 1.5, 0.5), (3.0, 4.0, 1.0), (5.0, 5.5, 0.5)],
        reference=1.0, smooth=0,
    )
    assert clock(0.0) == -2.0
    assert clock(1.0) == clock(1.5) == 0.0
    assert clock(3.0) == clock(4.0) == 1.5
    assert clock(5.0) == clock(5.5) == 3.5
    assert clock(6.5) == 5.5
    # smoothing takes the median speed of the neighbouring samples, so one
    # slow loop does not slow the clock; a sample the main thread did not
    # run through takes no main-thread time
    smooth = speed.reference_clock(
        [(0.0, 0.0, 1.0), (2.0, 2.0, 5.0), (3.0, 3.0, 1.0)],
        reference=1.0, smooth=1,
    )
    assert smooth(2.0) - smooth(0.0) == 2.0


def test_missing_hook_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import revlab.goals

    monkeypatch.delattr(revlab.goals, "_minimal_prefix")
    monkeypatch.delattr(revlab.knowledge, "synthesize")
    tracer = spans.Tracer("t")
    tracer.install()
    tracer.uninstall()
    summary = tracer.summary()
    assert {"goals.minimal_prefix", "knowledge.synthesize",
            "knowledge.synth_results"} <= set(summary["absent"])
    assert "knowledge.synth_results" not in summary["counts"]
    values = harness.layer_values(harness.combine([{
        "spans": {"cli.run": [1, 2.0, 0.5]},
        "counts": {},
        "stats": {},
        "absent": sorted(tracer.absent | {"explorer.canonicalize"}),
        "verdict_s": 2.0, "build_s": 0.001, "parse_config_s": 0.002,
    }]))
    for gone in ("goals.minimal_prefix.calls", "explorer.canonicalize.calls",
                 "explorer.dedup_hit_ratio", "explorer.bound_fires"):
        assert gone not in values
    # a hook that exists but was never called reads 0
    assert values["goals.replay.calls"] == 0


def test_wrong_expectation_and_crash_count_as_failures(tmp_path):
    wrong = json.loads(RTOKEN.expect.read_text())
    wrong["verdicts"]["g2"] = "no-counterexample-within-bounds"
    (tmp_path / "wrong.json").write_text(json.dumps(wrong))
    good = WORKLOADS["paper-matrix"].scenarios[0]
    bad = Scenario("rtoken-wrong", RTOKEN.args, tmp_path / "wrong.json")
    crash = Scenario("crash", ("--vehicles", "0"), good.expect)
    run = harness.Run(Workload("t", (good, bad, crash)), seed=0, seconds=0)
    assert run.rep("timed") is None
    assert run.attempted == 3
    assert sorted(f.split()[0] for f in run.failures) == ["crash", "rtoken-wrong"]
    assert any("g2 expected no-counterexample-within-bounds" in f for f in run.failures)
    assert not run.correct


def test_traced_matches_untraced_and_counters_repeat_across_hash_seeds(tmp_path):
    untraced, error = harness.run_child("timed", RTOKEN, 0, 120)
    assert error is None
    first = None
    for seed in (0, 1, 12345):
        traced, error = harness.run_child("traced", RTOKEN, seed, 120,
                                          tmp_path / f"{seed}.json")
        assert error is None
        assert traced["verdicts"] == untraced["verdicts"]
        assert traced["stats"] == untraced["stats"]
        exact = harness.exact_values(harness.layer_values(harness.combine([traced])))
        assert exact == (first or exact)
        first = exact
    assert first["explorer.states"] == untraced["stats"]["states_explored"]
    written = json.loads((tmp_path / "0.json").read_text())
    assert written["scenario"] == "rtoken-change"
    assert len(written["spans"]) > first["rewriting.fire.calls"]


def test_bound_fires_counted_only_at_the_step_bound(tmp_path):
    def fires(*args):
        sc = Scenario("s", args, RTOKEN.expect)
        got, error = harness.run_child("traced", sc, 0, 60)
        assert error is None
        return got["counts"]["explorer.bound_fires"], got["stats"]["truncated_traces"]

    assert fires("--protocol", "plain", "--change") == (0, 0)
    bound_fires, truncated = fires("--protocol", "plain", "--change", "--max-steps", "3")
    assert bound_fires >= truncated > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_names()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
