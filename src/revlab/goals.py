"""The seven correctness and authentication goals and their verdicts.

Each goal's pattern is written once, as a monitor in monitors.py.  The
explorer advances every monitor along each path and records the final
states on each trace (Trace.watch), so a verdict, and the G5 diagnosis, is
read from those states; only evidence minimization folds a monitor again.

G1 and G5 are exists-trace goals (a witness execution must be found); the
rest are all-traces goals (a single violating trace is a counterexample).
All-traces passes are bounded-exhaustive verdicts, never proofs.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import monitors, recheck
from .explorer import Bounds, Trace, TraceSet, explore
from .explorer import replay  # noqa: F401  (revlab.goals.replay stays importable)
from .protocols import ProtocolSpec, initial_state
from .records import Record, _new
from .terms import render

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


class GoalVerdict(Record):
    """Outcome of one goal; mode is "exists-trace" or "all-traces"."""

    __slots__ = ()

    def __new__(cls, goal, mode, outcome, evidence=None, explanation=None):
        return _new(cls, (goal, mode, outcome, evidence, explanation))

    @property
    def passed(self) -> bool:
        return self.outcome in (WITNESS_FOUND, NO_COUNTEREXAMPLE)


def _mode(goal: str) -> str:
    return "exists-trace" if goal in EXISTS_GOALS else "all-traces"


# --- verdict construction ---------------------------------------------------


def _evaluate(goal: str, traces: TraceSet) -> GoalVerdict:
    """Verdict of one goal over a sorted trace set; the least hit is evidence."""
    hit = next((t for t in traces.traces if monitors.holds_in(goal, t.watch)), None)
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


class RunResult(Record):
    """One search and its verdicts; verdicts maps a goal id to its GoalVerdict."""

    __slots__ = ()

    def __new__(cls, spec, bounds, n_vehicles, traces, verdicts):
        return _new(cls, (spec, bounds, n_vehicles, traces, verdicts))


def run_all(
    spec: ProtocolSpec,
    bounds: Bounds,
    goals: Iterable[str] | None = None,
    n_vehicles: int = 1,
    trace_set: TraceSet | None = None,
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
            v = v._replace(evidence=_minimal_prefix(v.evidence, g))
        if g == "g5" and v.outcome == NO_WITNESS:
            v = v._replace(explanation=_explain_g5_failure(trace_set))
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
    witnessing prefix stands for every continuation.  A shorter prefix
    records neither its terminal state nor its monitor states; the report's
    replay supplies the terminal state.
    """
    k = monitors.hit_length(goal, trace.steps)
    if k is None or k == len(trace.steps):
        return trace
    return Trace(steps=trace.steps[:k], terminal_state=None, truncated=False)


def _recheck_verdict(v: GoalVerdict) -> None:
    if v.evidence is None:
        return
    holds = recheck.holds(v.goal, v.evidence.steps)
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
    for trace in traces:
        pair = monitors.g5_unanswered_change(trace.watch[monitors.INDEX["g5"]])
        if pair is not None:
            vj, t1 = pair
            return (
                "no witness: CHANGE_PSEUDONYM consumed the active-pseudonym "
                f"fact CanChange({render(vj)}, _, {render(t1)}), so rule "
                "OSR_REQ_RECV is disabled for the reported pseudonym "
                f"{render(t1)} and no confirmation for it can follow the change"
            )
    return "no witness within bounds"
