"""The seven correctness and authentication goals and their verdicts.

Each goal's pattern is written once, as a monitor in monitors.py; the
per-trace predicates here fold it over a trace's steps.

G1 and G5 are exists-trace goals (a witness execution must be found); the
rest are all-traces goals (a single violating trace is a counterexample).
All-traces passes are bounded-exhaustive verdicts, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from . import monitors, recheck
from .explorer import Bounds, Trace, TraceSet, explore
from .explorer import replay  # noqa: F401  (revlab.goals.replay stays importable)
from .monitors import WEAK_REVEALS
from .protocols import ProtocolSpec, initial_state
from .terms import Fresh, render

GOAL_IDS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")
EXISTS_GOALS = frozenset({"g1", "g5"})
CHANGE_GOALS = frozenset({"g5", "g6", "g7"})

WITNESS_FOUND = "witness-found"
NO_WITNESS = "no-witness-within-bounds"
COUNTEREXAMPLE_FOUND = "counterexample-found"
NO_COUNTEREXAMPLE = "no-counterexample-within-bounds"

BOUNDED_DISCLAIMER = "no counterexample within bounds"


class EvidenceCheckError(RuntimeError):
    """The independent re-evaluation rejected an evidence trace."""


@dataclass(frozen=True)
class GoalVerdict:
    goal: str
    mode: str  # "exists-trace" | "all-traces"
    outcome: str
    evidence: Optional[Trace] = None
    explanation: Optional[str] = None
    bounds: Optional[Bounds] = None

    @property
    def passed(self) -> bool:
        return self.outcome in (WITNESS_FOUND, NO_COUNTEREXAMPLE)


def _mode(goal: str) -> str:
    return "exists-trace" if goal in EXISTS_GOALS else "all-traces"


# --- guard predicates ------------------------------------------------------


def reveal_guard_weak(events, vehicle, upto: int) -> bool:
    """Whether the vehicle's keys were revealed (RevealLtk / RevealSKPSi).

    Scoped to timepoints up to `upto`: every prefix of an explored trace is
    itself a valid execution, so a compromise after the anchor event cannot
    excuse a pattern that already occurred.
    """
    return any(
        e.label in WEAK_REVEALS and e.args[0] is vehicle and e.time <= upto
        for e in events
    )


# --- per-trace predicates: each goal's monitor folded over the steps ----------


def g1_witness(trace: Trace) -> bool:
    """Core messages all delivered, in order, for one consistent run."""
    return monitors.holds("g1", trace.steps)


def g2_violation(trace: Trace) -> bool:
    """Accepted confirmation with no matching receive: weak agreement broken."""
    return monitors.holds("g2", trace.steps)


def g3_violation(trace: Trace) -> bool:
    """Commit without an earlier Running on the same message."""
    return monitors.holds("g3", trace.steps)


def g4_violation(trace: Trace) -> bool:
    """Agreement plus message order: receive must precede acceptance."""
    return monitors.holds("g4", trace.steps)


def g5_witness(trace: Trace) -> bool:
    """Revocation still confirmable after the pseudonym changed."""
    return monitors.holds("g5", trace.steps)


def g6_violation(trace: Trace) -> bool:
    """Confirmation sent although no matching request was ever issued."""
    return monitors.holds("g6", trace.steps)


def g7_violation(trace: Trace) -> bool:
    """Acceptance by the RA although the vehicle never processed a request."""
    return monitors.holds("g7", trace.steps)


_PREDICATES: dict[str, Callable[[Trace], bool]] = {
    "g1": g1_witness,
    "g2": g2_violation,
    "g3": g3_violation,
    "g4": g4_violation,
    "g5": g5_witness,
    "g6": g6_violation,
    "g7": g7_violation,
}


# --- verdict construction ---------------------------------------------------


def _evaluate(goal: str, traces: TraceSet) -> GoalVerdict:
    """Verdict of one goal over a sorted trace set; the least hit is evidence."""
    pred = _PREDICATES[goal]
    hit = next((t for t in traces.traces if pred(t)), None)
    if goal in EXISTS_GOALS:
        if hit is not None:
            return GoalVerdict(goal, _mode(goal), WITNESS_FOUND, evidence=hit)
        return GoalVerdict(goal, _mode(goal), NO_WITNESS)
    if hit is not None:
        return GoalVerdict(goal, _mode(goal), COUNTEREXAMPLE_FOUND, evidence=hit)
    note = f"checked {len(traces)} maximal traces"
    if traces.truncated_count:
        note += f" ({traces.truncated_count} truncated at the step bound)"
    return GoalVerdict(goal, _mode(goal), NO_COUNTEREXAMPLE, explanation=note)


def applicable_goals(spec: ProtocolSpec) -> tuple:
    if spec.change_enabled:
        return GOAL_IDS
    return tuple(g for g in GOAL_IDS if g not in CHANGE_GOALS)


@dataclass(frozen=True)
class RunResult:
    spec: ProtocolSpec
    bounds: Bounds
    n_vehicles: int
    traces: TraceSet
    verdicts: dict  # goal id -> GoalVerdict


def run_all(
    spec: ProtocolSpec,
    bounds: Bounds,
    goals: Optional[Iterable[str]] = None,
    n_vehicles: int = 1,
    trace_set: Optional[TraceSet] = None,
) -> RunResult:
    """Explore once, evaluate the requested goals, re-check all evidence.

    Every witness and counterexample is re-validated by an independently
    written evaluator; a disagreement raises EvidenceCheckError.
    """
    wanted = tuple(goals) if goals is not None else applicable_goals(spec)
    for g in wanted:
        if g not in GOAL_IDS:
            raise ValueError(f"unknown goal {g!r}")
        if g in CHANGE_GOALS and not spec.change_enabled:
            raise ValueError(f"goal {g} needs the pseudonym-change rule enabled")
    if trace_set is None:
        trace_set = explore(spec, initial_state(spec, n_vehicles), bounds)
    verdicts = {}
    for g in wanted:
        v = _evaluate(g, trace_set)
        if v.evidence is not None:
            v = replace(v, evidence=_minimal_prefix(v.evidence, g))
        if g == "g5" and v.outcome == NO_WITNESS:
            v = replace(v, explanation=_explain_g5_failure(trace_set))
        v = replace(v, bounds=bounds)
        _recheck_verdict(v)
        verdicts[g] = v
    return RunResult(
        spec=spec,
        bounds=bounds,
        n_vehicles=n_vehicles,
        traces=trace_set,
        verdicts=verdicts,
    )


def _minimal_prefix(trace: Trace, goal: str) -> Trace:
    """Shortest prefix of the trace on which the goal's pattern already holds.

    The pattern formulas are preserved under extension, so a violating or
    witnessing prefix stands for every continuation.  A shorter prefix has
    no recorded terminal state: the report's replay supplies it.
    """
    k = monitors.hit_length(goal, trace.steps)
    if k is None or k == len(trace.steps):
        return trace
    return Trace(steps=trace.steps[:k], terminal_state=None, truncated=False)


def _recheck_verdict(v: GoalVerdict) -> None:
    if v.evidence is None:
        return
    holds = recheck.holds(v.goal, v.evidence.events)
    expected = v.outcome in (WITNESS_FOUND, COUNTEREXAMPLE_FOUND)
    if holds != expected:
        raise EvidenceCheckError(
            f"{v.goal}: evidence trace rejected by independent re-evaluation"
        )


def _explain_g5_failure(traces: TraceSet) -> str:
    """Diagnose why no revoke-after-change witness exists.

    Looks, in each run's G5 monitor state, for a reported pseudonym that was
    changed away after which the receive rule stayed silent for its token.
    """
    g5 = monitors.MONITORS["g5"]
    for trace in traces:
        pair = monitors.g5_unanswered_change(g5.fold(trace.steps))
        if pair is not None:
            vj, t1 = pair
            return (
                "no witness: CHANGE_PSEUDONYM consumed the active-pseudonym "
                f"fact CanChange({render(vj)}, _, {render(t1)}), so rule "
                "OSR_REQ_RECV is disabled for the reported pseudonym "
                f"{render(t1)} and no confirmation for it can follow the change"
            )
    return "no witness within bounds"


def secrecy_violations(trace_set: TraceSet, depth: int = 4) -> list:
    """Secret fresh values that became adversary-derivable, across all traces.

    Knowledge grows monotonically along a trace, so checking each terminal
    state covers every explored prefix.
    """
    from .knowledge import can_derive
    from .protocols import SECRET_FRESH_VARS

    bad = []
    for trace in trace_set:
        k = trace.terminal_state.knowledge
        revealed = any(
            e.label in ("RevealLtk", "RevealSKPSi", "VjSKPSiReveal")
            for e in trace.events
        )
        if revealed:
            continue
        for step in trace.steps:
            for ident, f in _fresh_allocations(step):
                if ident in SECRET_FRESH_VARS and can_derive(k, f, depth) is not None:
                    bad.append((trace, step.rule_id, ident, f))
    return bad


def _fresh_allocations(step):
    for ident, t in step.binding:
        if ident in step.fresh_idents and isinstance(t, Fresh):
            yield ident, t
