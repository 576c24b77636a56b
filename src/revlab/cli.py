"""Command-line front end: configure a scenario, run it, report verdicts.

Exit codes: 0 = ran successfully, 1 = verdicts differ from an --expect
reference matrix, 2 = usage error or internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import NamedTuple

from .explorer import Bounds
from .goals import CHANGE_GOALS, GOAL_IDS, EvidenceCheckError, run_all
from .protocols import PROTOCOLS, build_protocol
from .report import (
    ReplayMismatchError,
    build_document,
    compare_with_reference,
    render_text,
    to_json,
)

USAGE_EXIT = 2
INTERNAL_EXIT = 2
MISMATCH_EXIT = 1


class ExpectFileError(RuntimeError):
    """The --expect reference matrix cannot be read."""


class ScenarioConfig(NamedTuple):
    protocol: str = "plain"
    goals: tuple = ()  # empty = all applicable
    change_enabled: bool = False
    reveals_enabled: bool = False
    bounds: Bounds = Bounds()
    n_vehicles: int = 1
    output: str = "text"
    trace_render: str = "none"
    deterministic: bool = False
    expect: str | None = None


_CHOICES = {"output": ("text", "json"), "trace_render": ("none", "msc")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    from . import __version__

    p = _Parser(prog="revlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"revlab {__version__}")
    p.add_argument("--protocol", choices=PROTOCOLS, default=None)
    p.add_argument(
        "--goals",
        default=None,
        help="comma-separated goal ids (g1..g7) or 'all'",
    )
    p.add_argument("--change", action="store_true", default=None,
                   help="enable the pseudonym-change rule")
    p.add_argument("--reveals", action="store_true", default=None,
                   help="enable key-reveal rules")
    p.add_argument("--vehicles", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-changes", type=int, default=None)
    p.add_argument("--fresh-budget", dest="adversary_fresh_budget", type=int,
                   default=None, metavar="FRESH_BUDGET",
                   help="adversary fresh-name budget")
    p.add_argument("--synthesis-depth", type=int, default=None)
    p.add_argument("--max-sessions", type=int, default=None)
    p.add_argument("--output", choices=_CHOICES["output"], default=None)
    p.add_argument("--trace", dest="trace_render", choices=_CHOICES["trace_render"],
                   default=None)
    p.add_argument("--deterministic", action="store_true", default=None,
                   help="zero out timing so output is byte-reproducible")
    p.add_argument("--expect", default=None, metavar="FILE",
                   help="reference verdict matrix; exit 1 on mismatch")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="JSON config file; explicit flags override it")
    return p


# Config-file keys and the check each value must pass.
_CONFIG_FIELDS = {
    "protocol": (str, "a protocol name"),
    "goals": ((str, list, type(None)), "a comma-separated string or a list of goal ids"),
    "change_enabled": (bool, "true or false"),
    "reveals_enabled": (bool, "true or false"),
    "bounds": (dict, "an object of bound values"),
    "n_vehicles": (int, "an integer >= 1"),
    "output": (str, "'text' or 'json'"),
    "trace_render": (str, "'none' or 'msc'"),
    "deterministic": (bool, "true or false"),
    "expect": ((str, type(None)), "a file path or null"),
}
def _read_config(path: str, parser: _Parser) -> dict:
    """Load a JSON config file; any unknown key or mistyped value is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config file {path} must hold a JSON object")
    for key, value in cfg.items():
        if key not in _CONFIG_FIELDS:
            parser.error(
                f"config file {path}: unknown key {key!r}; "
                f"valid: {', '.join(_CONFIG_FIELDS)}"
            )
        kind, wanted = _CONFIG_FIELDS[key]
        if (
            not isinstance(value, kind)
            # bool is an int subclass: true must not pass as a vehicle count
            or (kind is int and isinstance(value, bool))
            or value not in _CHOICES.get(key, (value,))
        ):
            parser.error(f"config file {path}: {key} must be {wanted}, got {value!r}")
    valid = Bounds().as_dict()
    unknown = sorted(set(cfg.get("bounds", {})) - set(valid))
    if unknown:
        parser.error(
            f"config file {path}: unknown bound(s) {', '.join(unknown)}; "
            f"valid: {', '.join(valid)}"
        )
    return cfg


def parse_config(argv, parser: _Parser | None = None) -> ScenarioConfig:
    parser = parser or _build_parser()
    ns = parser.parse_args(argv)
    file_cfg = _read_config(ns.config, parser) if ns.config else {}

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    protocol = pick(ns.protocol, "protocol", "plain")
    if protocol not in PROTOCOLS:
        parser.error(f"invalid protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}")
    change = pick(ns.change, "change_enabled", False)
    reveals = pick(ns.reveals, "reveals_enabled", False)
    goals_raw = pick(ns.goals, "goals", None)
    goals = _parse_goals(goals_raw, change, parser)
    file_bounds = {**Bounds().as_dict(), **file_cfg.get("bounds", {})}
    try:
        # each bound's flag stores under the Bounds field name
        bounds = Bounds(
            **{f: pick(getattr(ns, f), None, v) for f, v in file_bounds.items()}
        )
    except ValueError as exc:
        parser.error(str(exc))
    n_vehicles = pick(ns.vehicles, "n_vehicles", 1)
    if n_vehicles < 1:
        parser.error("--vehicles must be >= 1")
    return ScenarioConfig(
        protocol=protocol,
        goals=goals,
        change_enabled=change,
        reveals_enabled=reveals,
        bounds=bounds,
        n_vehicles=n_vehicles,
        output=pick(ns.output, "output", "text"),
        trace_render=pick(ns.trace_render, "trace_render", "none"),
        deterministic=pick(ns.deterministic, "deterministic", False),
        expect=ns.expect or file_cfg.get("expect"),
    )


def _parse_goals(raw, change_enabled: bool, parser: _Parser) -> tuple:
    if raw is None or raw == "all" or raw == "":
        return ()
    if isinstance(raw, str):
        wanted = tuple(g.strip().lower() for g in raw.split(",") if g.strip())
    else:
        wanted = tuple(str(g).lower() for g in raw)
    bad = [g for g in wanted if g not in GOAL_IDS]
    if bad:
        parser.error(
            f"invalid goal name(s): {', '.join(bad)}; valid: {', '.join(GOAL_IDS)}"
        )
    need_change = [g for g in wanted if g in CHANGE_GOALS]
    if need_change and not change_enabled:
        parser.error(
            f"goal(s) {', '.join(need_change)} require --change "
            "(pseudonym-change rule disabled)"
        )
    return wanted


def run(config: ScenarioConfig) -> tuple[dict, int]:
    """Execute a scenario; returns (report document, exit code)."""
    spec = build_protocol(
        config.protocol,
        change_enabled=config.change_enabled,
        reveals_enabled=config.reveals_enabled,
    )
    started = time.monotonic()
    result = run_all(
        spec,
        config.bounds,
        goals=config.goals or None,
        n_vehicles=config.n_vehicles,
    )
    elapsed = time.monotonic() - started
    doc = build_document(
        result,
        elapsed,
        deterministic=config.deterministic,
        trace_render=config.trace_render,
    )
    code = 0
    if config.expect:
        try:
            with open(config.expect, "r", encoding="utf-8") as fh:
                reference = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ExpectFileError(f"cannot read reference matrix {config.expect}: {exc}")
        if not isinstance(reference, dict) or not isinstance(reference.get("verdicts"), dict):
            raise ExpectFileError(
                f"reference matrix {config.expect} has no \"verdicts\" object"
            )
        mismatches = compare_with_reference(doc, reference)
        if mismatches:
            doc["expect_mismatches"] = mismatches
            code = MISMATCH_EXIT
    return doc, code


def main(argv=None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        doc, code = run(config)
    except ExpectFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (EvidenceCheckError, ReplayMismatchError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    if config.output == "json":
        sys.stdout.write(to_json(doc))
    else:
        sys.stdout.write(render_text(doc))
        for line in doc.get("expect_mismatches", []):
            print(f"expect mismatch: {line}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
