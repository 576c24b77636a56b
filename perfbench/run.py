"""revlab benchmark: time-to-verdict, memory, set-up and per-layer cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Workloads are defined in workloads.py.  Each
scenario runs through revlab.cli.parse_config and revlab.cli.run in a fresh
interpreter (PYTHONHASHSEED = seed, REVLAB_WORKERS = 1) and must reproduce
its expected verdict matrix; a crash, a non-zero exit code, a timeout or a
differing verdict counts as a failed run.

Times are reference-speed seconds: each child samples its CPU's speed with a
fixed calibration loop and rescales its main thread's CPU time (speed.py),
because the speed of a shared host's CPU swings by up to 2x within seconds.

--trace 0 repeats the workload for S seconds and reports the end-to-end
metrics as medians over repetitions.  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, a layer-share table
and the tracing overhead; raw spans go to .bench_build/perfbench/spans/.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  `--workload all` runs both modes on every workload, repeats the
traced run with the next seed to check that every counter is the same, and
prints one table.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys

import harness
from workloads import ROOT, WORKLOADS

def result_line(run: harness.Run, metrics: dict) -> str:
    return json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def report_problems(run: harness.Run) -> None:
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in run.errors:
        print(f"ERROR {line}", file=sys.stderr)


def print_timed(run: harness.Run, got: dict) -> None:
    samples = got["samples"]
    print(f"workload {run.workload.name}  seed {run.seed}  "
          f"{got['reps']} repetitions  {run.elapsed():.1f} s")
    for name, (value, unit) in got["metrics"].items():
        print(f"  {name:<14} {value:12.4f} {unit:<3} "
              f"(median of {len(samples[name])})")
    print(f"  {'failed_share':<14} {run.failed_share:12.4f} {'':<3} "
          f"({len(run.failures)} of {run.attempted} scenario runs)")
    wall = got["verdict_wall_s"]
    if wall:
        print(f"  verdict_s on the wall clock: median {statistics.median(wall):.4f} s, "
              f"from {min(wall):.4f} to {max(wall):.4f} s")


def print_traced(run: harness.Run, got: dict) -> None:
    spans, metrics = got["spans"], got["metrics"]
    root = spans.get("cli.run", [0, 0.0, 0.0])[1] or float("nan")
    print(f"workload {run.workload.name}  seed {run.seed}  traced  "
          f"{got['reps']} traced repetitions (medians)")
    print("  layer shares of self time within cli.run:")
    for layer, metric in zip(harness.LAYERS, harness.SHARE_METRICS):
        if metric in metrics:
            print(f"    {layer:<10} {metrics[metric][0]:6.1f} %")
    print("  spans by self time:        calls      incl_s      self_s   share")
    for name, (calls, incl, own) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        print(f"    {name:<26} {calls:7d} {incl:11.4f} {own:11.4f} "
              f"{100 * own / root:6.1f} %")
    times = got["verdict_s"]
    if harness.OVERHEAD_METRIC in metrics:
        overhead = metrics[harness.OVERHEAD_METRIC][0]
        print(f"  tracing overhead: traced {times['traced']:.3f} s - untraced "
              f"{times['untraced']:.3f} s = {overhead:+.3f} s "
              f"({100 * overhead / times['untraced']:+.1f} %)")
    print("  per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<36} {value:14.6g} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool, show=True):
    run = harness.Run(WORKLOADS[name], seed, seconds)
    got = harness.traced(run) if trace else harness.timed(run)
    if show:
        (print_traced if trace else print_timed)(run, got)
    report_problems(run)
    return run, got


def run_all(seed: int, seconds: float) -> int:
    ok = True
    rows = []
    for name in WORKLOADS:
        run, got = run_one(name, seed, seconds, trace=False)
        rows.append((name, got["metrics"], run.failed_share))
        ok = ok and run.correct
        print()
        counters = []
        for trace_seed in (seed, seed + 1):
            run, got = run_one(name, trace_seed, seconds, trace=True,
                               show=trace_seed == seed)
            ok = ok and run.correct
            counters.append(harness.exact_values(
                {k: v for k, (v, _) in got["metrics"].items()}
            ))
        if counters[0] != counters[1]:
            ok = False
            print(f"ERROR {name}: counters differ between seeds {seed} and "
                  f"{seed + 1}", file=sys.stderr)
        print()
    print(f"{'workload':<16} {'verdict_s':>12} {'peak_rss_mb':>14} "
          f"{'setup_s':>10} {'failed_share':>13}")
    for name, metrics, share in rows:
        cells = [
            f"{metrics[m][0]:.4f} {metrics[m][1]}" if m in metrics else "absent"
            for m in ("verdict_s", "peak_rss_mb", "setup_s")
        ]
        print(f"{name:<16} {cells[0]:>12} {cells[1]:>14} {cells[2]:>10} "
              f"{share:>13.4f}")
    print("all workloads correct; counters repeat across seeds" if ok
          else "some workload FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "revlab" / "__init__.py").is_file():
        print(f"error: no revlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run, got = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(result_line(run, got["metrics"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
