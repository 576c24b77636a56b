"""Command-line front end: configure a scenario, run it, report verdicts.

Exit codes: 0 = ran successfully, 1 = verdicts differ from an --expect
reference matrix, 2 = usage error or internal invariant violation.
"""

from __future__ import annotations

import json
import sys
import time

from . import __version__
from .explorer import Bounds
from .goals import CHANGE_GOALS, GOAL_IDS, EvidenceCheckError, run_all
from .protocols import PROTOCOLS, build_protocol
from .records import Record, _new
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


class ScenarioConfig(Record):
    """One run's settings; empty goals means every applicable goal."""

    __slots__ = ()

    def __new__(
        cls, protocol="plain", goals=(), change_enabled=False, reveals_enabled=False,
        bounds=Bounds(), n_vehicles=1, output="text", trace_render="none",
        deterministic=False, expect=None,
    ):
        return _new(cls, (
            protocol, goals, change_enabled, reveals_enabled, bounds, n_vehicles, output,
            trace_render, deterministic, expect,
        ))


# Each flag once: its name, the field it fills (a ScenarioConfig field, a
# Bounds field, or "config"), the type of its value (int, str, or None for a
# switch that sets True), the words it accepts (empty: any) and its help.
_FLAGS = (
    ("--protocol", "protocol", str, PROTOCOLS, "protocol model to check"),
    ("--goals", "goals", str, (), "comma-separated goal ids (g1..g7) or 'all'"),
    ("--change", "change_enabled", None, (), "enable the pseudonym-change rule"),
    ("--reveals", "reveals_enabled", None, (), "enable key-reveal rules"),
    ("--vehicles", "n_vehicles", int, (), "number of vehicles (default 1)"),
    ("--max-steps", "max_steps", int, (), "steps per trace (default 14)"),
    ("--max-changes", "max_changes", int, (), "pseudonym changes per vehicle (default 1)"),
    ("--fresh-budget", "adversary_fresh_budget", int, (),
     "adversary fresh-name budget (default 1)"),
    ("--synthesis-depth", "synthesis_depth", int, (),
     "depth of adversary-built terms (default 4)"),
    ("--max-sessions", "max_sessions", int, (),
     "misbehaviour reports per trace (default 1)"),
    ("--output", "output", str, ("text", "json"), "report format"),
    ("--trace", "trace_render", str, ("none", "msc"), "how to draw evidence traces"),
    ("--deterministic", "deterministic", None, (),
     "zero out timing so output is byte-reproducible"),
    ("--expect", "expect", str, (), "reference verdict matrix; exit 1 on mismatch"),
    ("--config", "config", str, (), "JSON config file; explicit flags override it"),
)
_HELP = ("--help", None, None, (), "show this help and exit")
_VERSION = ("--version", None, None, (), "show revlab's version and exit")
# Every name a token can give in full; a long name may also be shortened to
# any prefix that no other long name shares.
_NAMES = {"-h": _HELP, "--help": _HELP, "--version": _VERSION}
_NAMES.update((row[0], row) for row in _FLAGS)
_FLAG_OF = {row[1]: row[0] for row in _FLAGS}


def _invocation(row) -> str:
    name, _, kind, choices, _ = row
    if choices:
        return f"{name} {{{','.join(choices)}}}"
    return name if kind is None else f"{name} {name[2:].upper().replace('-', '_')}"


def _usage() -> str:
    line, lines = "usage: revlab", []
    for word in ("[-h]", "[--version]", *(f"[{_invocation(row)}]" for row in _FLAGS)):
        if len(line) + 1 + len(word) > 78:
            lines.append(line)
            line = " " * 13
        line += " " + word
    return "\n".join([*lines, line]) + "\n"


def _help() -> str:
    rows = [("-h, --help", _HELP[4]), (_VERSION[0], _VERSION[4])]
    rows += [(_invocation(row), row[4]) for row in _FLAGS]
    options = [
        f"  {flag:<20}  {text}" if len(flag) <= 20 else f"  {flag}\n{'':24}{text}"
        for flag, text in rows
    ]
    return "\n".join([_usage(), __doc__.strip(), "", "options:", *options]) + "\n"


def _usage_error(message: str):
    sys.stderr.write(f"{_usage()}error: {message}\n")
    raise SystemExit(USAGE_EXIT)


def _is_negative_number(token: str) -> bool:
    whole, dot, frac = token[1:].partition(".")
    if dot:
        return frac.isdecimal() and (whole == "" or whole.isdecimal())
    return whole.isdecimal()


def _lookup(token: str):
    """The flag row a token names and the value attached to it with '=';
    (None, None) for an unknown option; None for a token that is a value."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, attached = token.partition("=")
    row = _NAMES.get(name)
    if row is None and name.startswith("--") and len(name) > 2:
        found = [full for full in _NAMES if full.startswith(name)]
        if len(found) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(found)}")
        row = _NAMES[found[0]] if found else None
    if row is not None:
        return row, (attached if eq else None)
    if " " in token or _is_negative_number(token):
        return None
    return None, None


def _read_flags(argv) -> dict:
    """Read argv into {field: value}; the last occurrence of a flag wins.

    Every token is looked up before any is acted on, so an ambiguous prefix
    is an error even after -h.  A flag's value is the text after '=' or the
    next token, which must not start with '-' unless it is a negative
    number (or holds a space).  Unknown options and stray values are
    reported together after the last flag.
    """
    found = [_lookup(token) for token in argv]
    values, unknown, i = {}, [], 0
    while i < len(argv):
        token, (row, attached) = argv[i], found[i] or (None, None)
        i += 1
        if row is None:
            unknown.append(token)
            continue
        name, field, kind, choices, _ = row
        if kind is None:
            if attached is not None:
                _usage_error(f"argument {name}: ignored explicit argument {attached!r}")
            if row is _HELP:
                sys.stdout.write(_help())
                raise SystemExit(0)
            if row is _VERSION:
                print(f"revlab {__version__}")
                raise SystemExit(0)
            values[field] = True
            continue
        if attached is None:
            if i == len(argv) or found[i] is not None:
                _usage_error(f"argument {name}: expected one argument")
            attached = argv[i]
            i += 1
        try:
            value = kind(attached)
        except ValueError:
            _usage_error(f"argument {name}: invalid int value: {attached!r}")
        if choices and value not in choices:
            _usage_error(
                f"argument {name}: invalid choice: {value!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )
        values[field] = value
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return values


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
_CHOICES = {field: choices for _, field, _, choices, _ in _FLAGS if choices}


def _read_config(path: str) -> dict:
    """Load a JSON config file; any unknown key or mistyped value is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8 or bad JSON; RecursionError: nested too deep
        _usage_error(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        _usage_error(f"config file {path} must hold a JSON object")
    for key, value in cfg.items():
        if key not in _CONFIG_FIELDS:
            _usage_error(
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
            _usage_error(f"config file {path}: {key} must be {wanted}, got {value!r}")
    valid = Bounds().as_dict()
    unknown = sorted(set(cfg.get("bounds", {})) - set(valid))
    if unknown:
        _usage_error(
            f"config file {path}: unknown bound(s) {', '.join(unknown)}; "
            f"valid: {', '.join(valid)}"
        )
    return cfg


def parse_config(argv) -> ScenarioConfig:
    """Build a run's settings from argv and the --config file it names;
    flags override the file, and the file overrides the defaults.  An error
    about a value names the flag or the file it came from."""
    flags = _read_flags(argv)
    path = flags.get("config")
    file_cfg = _read_config(path) if path else {}
    cfg = {**file_cfg, **flags}

    def origin(field: str) -> str:
        return f"argument {_FLAG_OF[field]}" if field in flags else f"config file {path}"

    cfg["goals"] = _parse_goals(
        cfg.get("goals"), cfg.get("change_enabled", False), origin("goals")
    )
    bounds = dict(file_cfg.get("bounds", {}))
    bounds.update((f, flags[f]) for f in Bounds._fields if f in flags)
    for field, value in bounds.items():
        try:
            Bounds(**{field: value})  # checks this one value
        except ValueError as exc:
            _usage_error(f"{origin(field)}: {exc}")
    cfg["bounds"] = Bounds(**bounds)
    n_vehicles = cfg.get("n_vehicles", 1)
    if n_vehicles < 1:
        _usage_error(
            f"{origin('n_vehicles')}: n_vehicles must be an integer >= 1, "
            f"got {n_vehicles!r}"
        )
    cfg["expect"] = flags.get("expect") or file_cfg.get("expect")
    return ScenarioConfig(**{f: cfg[f] for f in ScenarioConfig._fields if f in cfg})


def _parse_goals(raw, change_enabled: bool, origin: str = "goals") -> tuple:
    """The goal ids raw names; origin says where raw came from, for errors."""
    if raw is None or raw == "all" or raw == "":
        return ()
    if isinstance(raw, str):
        wanted = tuple(g.strip().lower() for g in raw.split(",") if g.strip())
    else:
        wanted = tuple(str(g).lower() for g in raw)
    bad = [g for g in wanted if g not in GOAL_IDS]
    if bad:
        _usage_error(
            f"{origin}: invalid goal name(s): {', '.join(bad)}; "
            f"valid: {', '.join(GOAL_IDS)}"
        )
    need_change = [g for g in wanted if g in CHANGE_GOALS]
    if need_change and not change_enabled:
        _usage_error(
            f"{origin}: goal(s) {', '.join(need_change)} require --change "
            "(pseudonym-change rule disabled)"
        )
    return wanted


def _read_expect(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ExpectFileError(f"cannot read reference matrix {path}: {exc}")
    if not isinstance(reference, dict) or not isinstance(reference.get("verdicts"), dict):
        raise ExpectFileError(f"reference matrix {path} has no \"verdicts\" object")
    return reference


def run(config: ScenarioConfig) -> tuple[dict, int]:
    """Execute a scenario; returns (report document, exit code).

    The --expect file is read first, so a bad one fails before the search.
    """
    reference = _read_expect(config.expect) if config.expect else None
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
    if reference is not None:
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
