"""Run one revlab scenario in this fresh interpreter and report on stdout.

    python3 child.py {setup|timed|traced} SCENARIO_ID [SPANS_FILE] -- ARGS...

ARGS are revlab command-line arguments.  `setup` stops once the scenario is
ready to run; `timed` also runs it through revlab.cli.run; `traced` does the
same with every layer hooked and writes its spans to SPANS_FILE.  The last
stdout line is one JSON object.  Its times and the spans are the main
thread's CPU time in reference-speed seconds (see speed.py), except the
*_wall_s times, which are read off the wall clock.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from speed import SpeedMeter  # noqa: E402

_METER = SpeedMeter().start()
_STARTED = time.thread_time()
_STARTED_WALL = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402


def main(argv) -> int:
    split = argv.index("--")
    mode, scenario, *rest = argv[:split]
    scenario_args = argv[split + 1 :]
    sys.path.insert(0, str(SRC))

    from revlab import cli, protocols

    t_parse = time.thread_time()
    config = cli.parse_config(scenario_args)
    t_build = time.thread_time()
    spec = protocols.build_protocol(
        config.protocol,
        change_enabled=config.change_enabled,
        reveals_enabled=config.reveals_enabled,
    )
    t_init = time.thread_time()
    protocols.initial_state(spec, config.n_vehicles)
    ready = time.thread_time()
    out = {"setup_wall_s": time.perf_counter() - _STARTED_WALL}
    tracer = None
    if mode != "setup":
        if mode == "traced":
            from spans import Tracer

            tracer = Tracer(scenario)
            tracer.install()
        started_wall, started = time.perf_counter(), time.thread_time()
        doc, code = cli.run(config)
        finished = time.thread_time()
        out["verdict_wall_s"] = time.perf_counter() - started_wall
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["exit_code"] = code
        out["verdicts"] = {r["goal"]: r["outcome"] for r in doc["results"]}
        # Counters only: timings in the stats differ from run to run.
        out["stats"] = {
            k: v for k, v in doc["stats"].items() if type(v) is int
        }
        if tracer is not None:
            tracer.uninstall()
    _METER.stop()
    clock = _METER.clock()
    out["setup_s"] = clock(ready) - clock(_STARTED)
    out["parse_config_s"] = clock(t_build) - clock(t_parse)
    out["build_s"] = clock(t_init) - clock(t_build)
    if mode != "setup":
        out["verdict_s"] = clock(finished) - clock(started)
    if tracer is not None:
        for span in tracer.spans:
            span[1], span[2] = clock(span[1]), clock(span[2])
        out.update(tracer.summary())
        if rest:
            tracer.write(rest[0])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
