"""Report documents: machine-readable results and ASCII message charts."""

from __future__ import annotations

import json

from . import __version__
from .explorer import ReplayMismatchError, Trace, digest, replay
from .goals import (
    BOUNDED_DISCLAIMER,
    NO_COUNTEREXAMPLE,
    RunResult,
)
from .protocols import ProtocolSpec, agent_names, initial_state
from .terms import render

SCHEMA_VERSION = 1


def serialize_trace(trace: Trace) -> dict:
    return {
        "steps": [
            {
                "rule": s.rule_id,
                "binding": {ident: render(t) for ident, t in s.binding},
                "inputs": [
                    {
                        "term": render(t),
                        "synthesized": bool(synth),
                        "derivation": deriv,
                    }
                    for t, synth, deriv in zip(
                        s.inputs, s.input_synthesized, s.input_derivations
                    )
                ],
                "generated": [render(f) for f in s.generated],
                "outputs": [render(t) for t in s.outputs],
                "events": [
                    {
                        "label": e.label,
                        "args": [render(a) for a in e.args],
                        "time": e.time,
                    }
                    for e in s.events
                ],
            }
            for s in trace.steps
        ],
        "truncated": trace.truncated,
        "terminal": digest(trace.terminal_state),
    }


def build_document(
    result: RunResult,
    elapsed: float,
    deterministic: bool = False,
    trace_render: str = "none",
) -> dict:
    """Assemble the report; evidence traces are replay-checked first.

    Goals often share an evidence trace; each distinct one is replay-checked
    and serialized once, and its entries share the result.
    """
    serialized: dict = {}  # evidence trace -> its replay-checked serialization
    goals_out = []
    for goal in sorted(result.verdicts):
        v = result.verdicts[goal]
        entry: dict = {
            "goal": goal,
            "mode": v.mode,
            "outcome": v.outcome,
            "bounds": (v.bounds or result.bounds).as_dict(),
            "evidence": None,
            "explanation": v.explanation,
        }
        if v.mode == "all-traces" and v.outcome == NO_COUNTEREXAMPLE:
            entry["disclaimer"] = BOUNDED_DISCLAIMER
        if v.evidence is not None:
            if v.evidence not in serialized:
                serialized[v.evidence] = serialize_trace(_check_replay(result, v.evidence))
            entry["evidence"] = serialized[v.evidence]
            if trace_render == "msc":
                entry["msc"] = render_msc(
                    v.evidence, agent_names(result.n_vehicles), result.spec
                )
        goals_out.append(entry)
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "revlab", "version": __version__},
        "config": {
            "protocol": result.spec.name,
            "change_enabled": result.spec.change_enabled,
            "reveals_enabled": result.spec.reveals_enabled,
            "n_vehicles": result.n_vehicles,
            "goals": sorted(result.verdicts),
            "bounds": result.bounds.as_dict(),
        },
        "disclaimer": (
            "all-traces verdicts are bounded-exhaustive: "
            + BOUNDED_DISCLAIMER
        ),
        "results": goals_out,
        "stats": {
            "traces": len(result.traces),
            "truncated_traces": result.traces.truncated_count,
            "states_explored": result.traces.states_explored,
            "dedup_hits": result.traces.dedup_hits,
            "elapsed_s": 0.0 if deterministic else round(elapsed, 3),
        },
    }


def _check_replay(result: RunResult, trace: Trace) -> Trace:
    """The trace, replayed; a minimized prefix gets its terminal state here."""
    init = initial_state(result.spec, result.n_vehicles)
    final = replay(result.spec, init, trace, result.bounds)
    if trace.terminal_state is None:
        return trace._replace(terminal_state=final)
    if final != trace.terminal_state:
        raise ReplayMismatchError("replayed terminal state differs from recorded one")
    return trace


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_text(doc: dict) -> str:
    lines = [
        f"revlab {doc['tool']['version']} - protocol {doc['config']['protocol']}"
        + (" (pseudonym change enabled)" if doc["config"]["change_enabled"] else ""),
        f"bounds: {doc['config']['bounds']}",
        f"traces: {doc['stats']['traces']} maximal"
        f" ({doc['stats']['truncated_traces']} truncated),"
        f" states explored: {doc['stats']['states_explored']}",
        "",
    ]
    for entry in doc["results"]:
        line = f"{entry['goal'].upper():4} {entry['mode']:13} {entry['outcome']}"
        if entry.get("disclaimer"):
            line += f"  [{entry['disclaimer']}]"
        lines.append(line)
        if entry.get("explanation"):
            lines.append(f"     {entry['explanation']}")
        if entry.get("evidence"):
            ev = entry["evidence"]
            lines.append(f"     evidence: {len(ev['steps'])} steps"
                         + (" (truncated)" if ev["truncated"] else ""))
            for s in ev["steps"]:
                marks = [i["term"] for i in s["inputs"] if i["synthesized"]]
                extra = f"  forged-in: {', '.join(marks)}" if marks else ""
                events = ", ".join(e["label"] for e in s["events"])
                lines.append(f"       - {s['rule']}: {events}{extra}")
        if entry.get("msc"):
            lines.append("")
            lines.append(entry["msc"])
    lines.append("")
    lines.append(doc["disclaimer"])
    return "\n".join(lines) + "\n"


# --- message sequence chart --------------------------------------------------

_COL = 26


def render_msc(trace: Trace, agents, spec: ProtocolSpec) -> str:
    """ASCII message-sequence chart: one column per agent plus the adversary.

    Each step sits in the column of the agent bound to its rule's actor.
    Released messages flow to the adversary-controlled network; delivered
    inputs are drawn from their original sender when relayed verbatim and
    from the adversary when synthesized.
    """
    columns = [render(a) for a in agents] + ["ADVERSARY"]
    pos = {c: i for i, c in enumerate(columns)}
    released: dict = {}
    lines = [_cells(columns, columns)]
    if not trace.steps:
        return "\n".join(lines)
    for i, step in enumerate(trace.steps):
        actor = _actor_column(step, spec.rule(step.rule_id).actor, columns)
        lines.append(_cells(columns, {actor: f"[{step.rule_id}@{i}]"}))
        if step.generated:
            gen = ", ".join(render(f) for f in step.generated)
            lines.append(_cells(columns, {"ADVERSARY": f"gen-fresh {gen}"}))
        for term, synth in zip(step.inputs, step.input_synthesized):
            if synth:
                src, mark = "ADVERSARY", "forged"
            else:
                src, mark = released.get(term, "ADVERSARY"), "relayed"
            if src == actor:
                src = "ADVERSARY"
            lines += _arrow(columns, pos[src], pos[actor], mark, render(term))
        for e in step.events:
            lines.append(_cells(columns, {actor: f"{e.label}{_clip_args(e.args)}"}))
        for term in step.outputs:
            released.setdefault(term, actor)
            lines += _arrow(columns, pos[actor], pos["ADVERSARY"], "out", render(term))
    return "\n".join(lines)


def _actor_column(step, ident: str, columns) -> str:
    t = dict(step.binding).get(ident)
    if t is not None and render(t) in columns:
        return render(t)
    return columns[0]


def _clip(s: str, n: int = 40) -> str:
    return s if len(s) <= n else s[: n - 3] + "..."


def _clip_args(args) -> str:
    if not args:
        return "()"
    return "(" + _clip(", ".join(render(a) for a in args), 48) + ")"


def _cells(columns, content) -> str:
    if isinstance(content, list):
        values = {c: c for c in columns}
    else:
        values = content
    row = []
    for c in columns:
        row.append(_clip(values.get(c, "|"), _COL - 2).center(_COL))
    return "".join(row).rstrip()


def _arrow(columns, src: int, dst: int, mark: str, message: str) -> list:
    lo, hi = sorted((src, dst))
    width = (hi - lo) * _COL
    head = "<" if dst < src else ""
    tail = ">" if dst > src else ""
    room = width - 2 - len(head) - len(tail)
    body = f" {_clip(mark, room - 2)} ".center(room, "-")
    arrow = " " * (lo * _COL + _COL // 2) + head + body + tail
    label = " " * (lo * _COL + _COL // 2 + 2) + f"{mark}: {_clip(message, 90)}"
    return [arrow.rstrip(), label.rstrip()]


# --- reference matrices -------------------------------------------------------


def compare_with_reference(doc: dict, reference: dict) -> list:
    """Mismatches between a run's outcomes and a reference verdict matrix.

    Only goals evaluated by this run are compared, so a single-goal run can
    be checked against a full matrix.
    """
    mismatches = []
    ref_verdicts = reference.get("verdicts", {})
    got = {entry["goal"]: entry["outcome"] for entry in doc["results"]}
    shared = sorted(set(ref_verdicts) & set(got))
    if not shared:
        return ["no goals in common with the reference matrix"]
    for goal in shared:
        if got[goal] != ref_verdicts[goal]:
            mismatches.append(
                f"{goal}: expected {ref_verdicts[goal]}, got {got[goal]}"
            )
    return mismatches
