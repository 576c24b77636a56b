"""Run a workload's scenarios in fresh interpreters and turn them into metrics.

Every scenario run is its own `python3 child.py` process: revlab keeps
process-global tables (interned terms, pattern variables), so a second run
in one process would start warm and inherit its predecessor's memory.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, Scenario, Workload

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SPANS_DIR = ROOT / ".bench_build" / "perfbench" / "spans"
# Children cache bytecode here whatever the environment says, so that
# set-up time never includes compiling revlab.
PYCACHE_DIR = ROOT / ".bench_build" / "perfbench" / "pycache"

# A run must end within 180 s; no child may outlive this.
HARD_LIMIT_S = 170.0
# Set-up measurements per repetition: every timed scenario measures its own
# set-up, and probes that stop once ready make up the rest.
SETUP_PER_REP = 4
SETUP_FIRST = 8

LAYERS = ("cli", "protocols", "goals", "explorer", "rewriting", "knowledge",
          "recheck", "report")

# Per-layer metrics of the traced run: (name, unit, kind, source).  kind
# "self"/"incl"/"calls" read span totals, "count" a tracer counter, "stat"
# revlab's own report stats, "setup" a set-up phase timing, and "ratio"
# divides two metrics named earlier in this table.
LAYER_METRICS = (
    ("knowledge.synthesize.self_s", "s", "self", "knowledge.synthesize"),
    ("knowledge.synthesize.calls", "count", "calls", "knowledge.synthesize"),
    ("knowledge.synth_results", "count", "count", "knowledge.synth_results"),
    ("knowledge.can_derive.self_s", "s", "self", "knowledge.can_derive"),
    ("knowledge.can_derive.calls", "count", "calls", "knowledge.can_derive"),
    ("knowledge.observe.self_s", "s", "self", "knowledge.observe"),
    ("knowledge.observe.calls", "count", "calls", "knowledge.observe"),
    ("rewriting.enabled_instances.self_s", "s", "self", "rewriting.enabled_instances"),
    ("rewriting.enabled_instances.calls", "count", "calls", "rewriting.enabled_instances"),
    ("rewriting.instances", "count", "count", "rewriting.instances"),
    ("rewriting.guard_checks", "count", "count", "rewriting.guard_checks"),
    ("rewriting.guard_pass_ratio", "ratio", "ratio",
     ("rewriting.instances", "rewriting.guard_checks")),
    ("rewriting.fire.self_s", "s", "self", "rewriting.fire"),
    ("rewriting.fire.calls", "count", "calls", "rewriting.fire"),
    ("explorer.explore.incl_s", "s", "incl", "explorer.explore"),
    ("explorer.explore.self_s", "s", "self", "explorer.explore"),
    ("explorer.canonicalize.self_s", "s", "self", "explorer.canonicalize"),
    ("explorer.canonicalize.calls", "count", "calls", "explorer.canonicalize"),
    ("explorer.states", "count", "stat", "states_explored"),
    ("explorer.traces", "count", "stat", "traces"),
    ("explorer.truncated_traces", "count", "stat", "truncated_traces"),
    ("explorer.dedup_hits", "count", "stat", "dedup_hits"),
    ("explorer.dedup_hit_ratio", "ratio", "ratio",
     ("explorer.dedup_hits", "explorer.canonicalize.calls")),
    ("explorer.bound_fires", "count", "count", "explorer.bound_fires"),
    ("explorer.bound_fire_share", "ratio", "ratio",
     ("explorer.bound_fires", "rewriting.fire.calls")),
    ("explorer.rule_bound_refusals", "count", "count", "explorer.rule_bound_refusals"),
    ("terms.interned", "count", "count", "terms.interned"),
    ("goals.evaluate.self_s", "s", "self", "goals.evaluate"),
    # Evidence work is absent from otoken-reveals, so its times would read
    # a constant 0 there: the result line carries call counts and the
    # layer report prints the times.
    ("goals.minimal_prefix.calls", "count", "calls", "goals.minimal_prefix"),
    ("goals.replay.calls", "count", "calls", "goals.replay"),
    ("recheck.holds.calls", "count", "calls", "recheck.holds"),
    ("report.check_replay.calls", "count", "calls", "report.check_replay"),
    ("report.build_document.incl_s", "s", "incl", "report.build_document"),
    ("protocols.build_s", "s", "setup", "build_s"),
    ("cli.parse_config_s", "s", "setup", "parse_config_s"),
)
SHARE_METRICS = tuple(f"layer.{layer}.self_share" for layer in LAYERS)
OVERHEAD_METRIC = "trace.overhead_s"


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    return (
        [(name, unit) for name, unit, _, _ in LAYER_METRICS]
        + [(name, "%") for name in SHARE_METRICS]
        + [(OVERHEAD_METRIC, "s")]
    )


def run_child(mode: str, scenario: Scenario, hash_seed: int, timeout: float,
              spans_file: Path | None = None):
    """One scenario in a fresh interpreter: (result dict, None) or (None, error)."""
    cmd = [sys.executable, str(CHILD), mode, scenario.id]
    if spans_file is not None:
        cmd.append(str(spans_file))
    cmd += ["--", *scenario.args]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), REVLAB_WORKERS="1",
               PYTHONPYCACHEPREFIX=str(PYCACHE_DIR))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit status {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"


def verdict_error(scenario: Scenario, result: dict):
    """Why a finished run does not count as correct, or None."""
    if result["exit_code"] != 0:
        return f"revlab exit code {result['exit_code']}"
    expected = scenario.expected_verdicts()
    got = result["verdicts"]
    if got != expected:
        wrong = sorted(
            g for g in set(got) | set(expected) if got.get(g) != expected.get(g)
        )
        return "verdicts differ from " + scenario.expect.name + ": " + ", ".join(
            f"{g} expected {expected.get(g)} got {got.get(g)}" for g in wrong
        )
    return None


class Run:
    """One benchmark run of a workload: its seed, clock and bookkeeping."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.hash_seed = seed % 2**32
        self.order = workload.ordered(seed)
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []  # scenario runs that failed
        self.errors: list[str] = []  # benchmark errors: determinism, set-up
        self._outcomes: dict = {}  # scenario id -> first verdicts and stats
        self._probes = 0
        self._slowest = 0.0

    @property
    def correct(self) -> bool:
        return not self.failures and not self.errors

    @property
    def failed_share(self) -> float:
        """Failed scenario runs over those attempted."""
        return len(self.failures) / self.attempted

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def more(self, rep_s: float) -> bool:
        """Whether another repetition as long as the slowest so far fits."""
        self._slowest = max(self._slowest, rep_s)
        return self.elapsed() + self._slowest <= self.seconds

    def _timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - self.elapsed())

    def scenario(self, scenario: Scenario, mode: str, spans_file=None):
        """Run and check one scenario; the child's result, or None on failure."""
        self.attempted += 1
        result, error = run_child(mode, scenario, self.hash_seed,
                                  self._timeout(), spans_file)
        if error is None:
            error = verdict_error(scenario, result)
        if error is not None:
            self.failures.append(f"{scenario.id} ({mode}): {error}")
            return None
        # Verdicts and explorer stats are exact: every run of a scenario,
        # traced or not, must repeat the first one.
        outcome = {"verdicts": result["verdicts"], "stats": result["stats"]}
        first = self._outcomes.setdefault(scenario.id, outcome)
        if outcome != first:
            self.errors.append(
                f"{scenario.id} ({mode}): verdicts or stats differ between runs: "
                f"{first} vs {outcome}"
            )
        return result

    def rep(self, mode: str, spans_dir=None):
        """Every scenario once, in seed order; None when any of them failed."""
        results = []
        for sc in self.order:
            spans_file = None if spans_dir is None else spans_dir / f"{sc.id}.json"
            results.append(self.scenario(sc, mode, spans_file))
        return None if None in results else results

    def probe(self):
        """Set-up time of a fresh interpreter, cycling through the scenarios."""
        sc = self.order[self._probes % len(self.order)]
        self._probes += 1
        result, error = run_child("setup", sc, self.hash_seed, self._timeout())
        if error is not None:
            self.errors.append(f"{sc.id} (setup): {error}")
            return None
        return result["setup_s"]


def median_of(values):
    return statistics.median(values) if values else None


def timed(run: Run) -> dict:
    """Untraced repetitions for the run's seconds: end-to-end metrics."""
    run.probe()  # fills the bytecode caches before anything is timed
    setup = [run.probe() for _ in range(SETUP_FIRST)]
    verdict, wall, rss = [], [], []
    while True:
        began = time.monotonic()
        results = run.rep("timed")
        if results is not None:
            verdict.append(sum(r["verdict_s"] for r in results))
            wall.append(sum(r["verdict_wall_s"] for r in results))
            rss.append(max(r["peak_rss_mb"] for r in results))
            setup += [r["setup_s"] for r in results]
        setup += [run.probe() for _ in range(SETUP_PER_REP - len(run.order))]
        if not results or not run.more(time.monotonic() - began):
            break
    setup = [s for s in setup if s is not None]
    samples = {"verdict_s": verdict, "peak_rss_mb": rss, "setup_s": setup}
    units = {"verdict_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    return {
        "metrics": {
            k: (statistics.median(v), units[k]) for k, v in samples.items() if v
        },
        "samples": samples,
        "verdict_wall_s": wall,
        "reps": len(verdict),
    }


def combine(results) -> dict:
    """Sum one traced repetition's scenarios into workload totals."""
    spans: dict = {}
    counts: dict = {}
    stats: dict = {}
    absent: set = set()
    for r in results:
        for name, row in r["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for src, dst in ((r["counts"], counts), (r["stats"], stats)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        absent.update(r["absent"])
    return {
        "spans": spans,
        "counts": counts,
        "stats": stats,
        "absent": absent,
        "verdict_s": sum(r["verdict_s"] for r in results),
        "build_s": sum(r["build_s"] for r in results),
        "parse_config_s": sum(r["parse_config_s"] for r in results),
    }


def layer_values(totals: dict) -> dict:
    """Per-layer metric values of one traced repetition; absent ones left out."""
    values: dict = {}
    spans, absent = totals["spans"], totals["absent"]
    column = {"calls": 0, "incl": 1, "self": 2}
    for name, _, kind, src in LAYER_METRICS:
        if kind in column:
            if src not in absent:
                values[name] = spans.get(src, [0, 0.0, 0.0])[column[kind]]
        elif kind == "count":
            if src in totals["counts"]:
                values[name] = totals["counts"][src]
        elif kind == "stat":
            if src in totals["stats"]:
                values[name] = totals["stats"][src]
        elif kind == "setup":
            values[name] = totals[src]
        elif kind == "ratio":
            num, den = src
            if values.get(num) is not None and values.get(den):
                values[name] = values[num] / values[den]
    root = spans.get("cli.run")
    if root and "cli.run" not in absent:
        for layer, metric in zip(LAYERS, SHARE_METRICS):
            own = sum(row[2] for n, row in spans.items()
                      if n.split(".")[0] == layer)
            values[metric] = 100.0 * own / root[1]
    return values


def exact_values(values: dict) -> dict:
    """The values that must repeat exactly: counters, calls and ratios."""
    units = dict(per_layer_names())
    return {k: v for k, v in values.items() if units.get(k) in ("count", "ratio")}


def traced(run: Run) -> dict:
    """Alternating untraced and traced repetitions: per-layer metrics."""
    spans_dir = SPANS_DIR / run.workload.name
    spans_dir.mkdir(parents=True, exist_ok=True)
    run.probe()
    plain, reps = [], []
    while True:
        began = time.monotonic()
        untraced = run.rep("timed")
        if untraced is not None:
            plain.append(sum(r["verdict_s"] for r in untraced))
        results = run.rep("traced", spans_dir)
        if results is not None:
            reps.append(combine(results))
        if untraced is None or results is None or not run.more(
            time.monotonic() - began
        ):
            break
    per_rep = [layer_values(t) for t in reps]
    for i, values in enumerate(per_rep[1:], start=2):
        if exact_values(values) != exact_values(per_rep[0]):
            run.errors.append(f"traced repetition {i}: counters differ from the first")
    units = dict(per_layer_names())
    metrics = {}
    for name in units:
        got = [v[name] for v in per_rep if name in v]
        if got:
            metrics[name] = (statistics.median(got), units[name])
    traced_s = median_of([t["verdict_s"] for t in reps])
    if traced_s is not None and plain:
        metrics[OVERHEAD_METRIC] = (traced_s - statistics.median(plain), "s")
    spans = {}
    for name in sorted({n for t in reps for n in t["spans"]}):
        rows = [t["spans"].get(name, [0, 0.0, 0.0]) for t in reps]
        spans[name] = [rows[0][0]] + [
            statistics.median(row[i] for row in rows) for i in (1, 2)
        ]
    return {
        "metrics": metrics,
        "spans": spans,
        "verdict_s": {"traced": traced_s, "untraced": median_of(plain)},
        "reps": len(reps),
    }
