"""The seven correctness and authentication goals as trace predicates.

G1 and G5 are exists-trace goals (a witness execution must be found); the
rest are all-traces goals (a single violating trace is a counterexample).
All-traces passes are bounded-exhaustive verdicts, never proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from . import recheck
from .explorer import Bounds, Trace, TraceSet, explore, replay
from .protocols import ProtocolSpec, initial_state
from .terms import Fresh, Name, render

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


def _is_vehicle(agent) -> bool:
    return isinstance(agent, Name) and agent.label.startswith("V") and agent.label[1:].isdigit()


# --- guard predicates ------------------------------------------------------


_WEAK_REVEALS = frozenset({"RevealLtk", "RevealSKPSi"})
_COMPROMISES = _WEAK_REVEALS | {"VjSKPSiReveal", "VehicleCompromised"}


def _revealed(labels, events, vehicle, upto: int) -> bool:
    return any(
        e.label in labels and e.args[0] is vehicle and e.time <= upto
        for e in events
    )


def reveal_guard_weak(events, vehicle, upto: int) -> bool:
    """Whether the vehicle's keys were revealed (RevealLtk / RevealSKPSi).

    Scoped to timepoints up to `upto`: every prefix of an explored trace is
    itself a valid execution, so a compromise after the anchor event cannot
    excuse a pattern that already occurred.
    """
    return _revealed(_WEAK_REVEALS, events, vehicle, upto)


def compromise_guard(events, vehicle, upto: int) -> bool:
    """Any compromise event for the vehicle at or before the anchor time."""
    return _revealed(_COMPROMISES, events, vehicle, upto)


# --- per-trace predicates ---------------------------------------------------


def g1_witness(trace: Trace) -> bool:
    """Core messages all delivered, in order, for one consistent run."""
    events = trace.events
    for rep in events:
        if rep.label != "Reported":
            continue
        vj, t = rep.args
        chain = (
            ("OsrReqMsgSentTo", lambda e: e.args[1] is vj and e.args[2] is t),
            ("OsrReqMsgRecvBy", lambda e: e.args[0] is vj and e.args[2] is t),
            ("OsrConfSentBy", lambda e: e.args[0] is vj and e.args[2] is t),
            ("OsrConfAcceptedBy", lambda e: e.args[1] is vj and e.args[2] is t),
        )
        pos = _position_after(events, rep)
        ok = True
        for label, fits in chain:
            pos = _find_from(events, pos, label, fits)
            if pos is None:
                ok = False
                break
        if ok:
            return True
    return False


def _position_after(events, ev) -> int:
    return events.index(ev) + 1


def _find_from(events, start, label, fits) -> Optional[int]:
    for i in range(start, len(events)):
        if events[i].label == label and fits(events[i]):
            return i + 1
    return None


def _accepted_without_receive(trace: Trace, guard) -> bool:
    """An RA acceptance with no earlier matching receive by the vehicle.

    guard(events, vehicle, time) excuses a vehicle compromised by then.
    """
    events = trace.events
    for acc in events:
        if acc.label != "OsrConfAcceptedBy":
            continue
        ra, vj, t = acc.args
        if guard(events, vj, acc.time):
            continue
        got = any(
            e.label == "OsrReqMsgRecvBy"
            and e.args[0] is vj
            and e.args[1] is ra
            and e.args[2] is t
            and e.time < acc.time
            for e in events
        )
        if not got:
            return True
    return False


def g2_violation(trace: Trace) -> bool:
    """Accepted confirmation with no matching receive: weak agreement broken."""
    return _accepted_without_receive(trace, reveal_guard_weak)


def g3_violation(trace: Trace) -> bool:
    """Commit without an earlier Running on the same message."""
    events = trace.events
    for acc in events:
        if acc.label != "Commit":
            continue
        a, b, m = acc.args
        if any(
            reveal_guard_weak(events, x, acc.time) for x in (a, b) if _is_vehicle(x)
        ):
            continue
        got = any(
            e.label == "Running"
            and e.args[0] is a
            and e.args[1] is b
            and e.args[2] is m
            and e.time < acc.time
            for e in events
        )
        if not got:
            return True
    return False


def g4_violation(trace: Trace) -> bool:
    """Agreement plus message order: receive must precede acceptance."""
    return g3_violation(trace) or g2_violation(trace)


def g5_witness(trace: Trace) -> bool:
    """Revocation still confirmable after the pseudonym changed."""
    events = trace.events
    for rep in events:
        if rep.label != "Reported":
            continue
        vj, t1 = rep.args
        for chg in events:
            if (
                chg.label == "ChangePseudonymForVehicle"
                and chg.args[0] is vj
                and chg.args[1] is t1
                and rep.time < chg.time
            ):
                for e in events:
                    if (
                        e.label == "OsrConfSentBy"
                        and e.args[0] is vj
                        and e.args[2] is t1
                        and chg.time < e.time
                        and not compromise_guard(events, vj, e.time)
                    ):
                        return True
    return False


def g6_violation(trace: Trace) -> bool:
    """Confirmation sent although no matching request was ever issued."""
    events = trace.events
    for sent in events:
        if sent.label != "OsrConfSentBy":
            continue
        vj, ra, t = sent.args
        if compromise_guard(events, vj, sent.time):
            continue
        got = any(
            e.label == "OsrReqMsgSentTo"
            and e.args[0] is ra
            and e.args[1] is vj
            and e.args[2] is t
            and e.time < sent.time
            for e in events
        )
        if not got:
            return True
    return False


def g7_violation(trace: Trace) -> bool:
    """Acceptance by the RA although the vehicle never processed a request."""
    return _accepted_without_receive(trace, compromise_guard)


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
            v = replace(
                v,
                evidence=_minimal_prefix(
                    v.evidence, _PREDICATES[g], spec, bounds, n_vehicles
                ),
            )
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


def _minimal_prefix(
    trace: Trace, pred, spec: ProtocolSpec, bounds: Bounds, n_vehicles: int
) -> Trace:
    """Shortest prefix of the trace on which the predicate already holds.

    The pattern formulas are preserved under extension, so a violating or
    witnessing prefix stands for every continuation; the prefix is replayed
    to obtain its own terminal state.
    """
    for k in range(1, len(trace.steps) + 1):
        partial = Trace(
            steps=trace.steps[:k],
            terminal_state=trace.terminal_state,
            truncated=False,
        )
        if pred(partial):
            if k == len(trace.steps):
                return trace
            final = replay(spec, initial_state(spec, n_vehicles), partial, bounds)
            return Trace(steps=partial.steps, terminal_state=final, truncated=False)
    return trace


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

    Looks for runs where the reported pseudonym was changed away and the
    receive rule then stayed silent for the reported token.
    """
    for trace in traces:
        events = trace.events
        for rep in events:
            if rep.label != "Reported":
                continue
            vj, t1 = rep.args
            changed = next(
                (
                    c
                    for c in events
                    if c.label == "ChangePseudonymForVehicle"
                    and c.args[0] is vj
                    and c.args[1] is t1
                    and c.time > rep.time
                ),
                None,
            )
            if changed is None:
                continue
            recv_after = any(
                e.label == "OsrConfSentBy"
                and e.args[2] is t1
                and e.time > changed.time
                for e in events
            )
            if not recv_after:
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
