"""The benchmark's layer hooks still find what they measure.

perfbench/ wraps module attributes of revlab by name.  A renamed or removed
attribute is reported as absent and its metrics drop out of the result line,
so every per-layer metric that BENCHMARK.json names must come out of one
traced run of a fast scenario.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import revlab.explorer as ex  # noqa: E402
from revlab import Bounds, build_protocol, explore, initial_state  # noqa: E402

# Needs an untraced run beside the traced one.
UNTRACED_ONLY = {"trace.overhead_s"}


def _keyed_in_process(spec, monkeypatch) -> int:
    """The canonicalize calls of an in-process search of spec at default bounds."""
    calls = []
    canonical = ex.canonicalize

    def counting(*args, **kwargs):
        calls.append(None)
        return canonical(*args, **kwargs)

    monkeypatch.setattr(ex, "canonicalize", counting)
    explore(spec, initial_state(spec, 1), Bounds())
    return len(calls)


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    cmd = [sys.executable, str(BENCH / "child.py"), "traced", "plain-change", "--",
           "--protocol", "plain", "--change", "--goals", "all"]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                          cwd=ROOT, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit_code"] == 0
    values = harness.layer_values(harness.combine([result]))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["per_layer"]} - UNTRACED_ONLY
    assert sorted(wanted - values.keys()) == []
    stats = result["stats"]
    # the search keys only states that can repeat, so count its keys directly
    plain = build_protocol("plain", change_enabled=True)
    assert values["explorer.canonicalize.calls"] == _keyed_in_process(plain, monkeypatch) > 0
    # Without the search's cache of enabled lists, each expanded state asks
    # every rule within its bounds: 148 calls for 20 states and 8 rules here.
    # Most answers are reused, so fewer than half of that bound are left.
    rules = len(plain.rules)
    assert values["rewriting.enabled_instances.calls"] < stats["states_explored"] * rules / 2
