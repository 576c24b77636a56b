"""Bounded exhaustive exploration of the labelled transition system.

Depth-first search with an explicit stack over immutable states.  Each
stack entry carries, besides the state and its steps, every goal monitor's
state (monitors.py) and the rule budgets used so far.  Branches reaching a
state already seen at the same depth, equal modulo a fresh-name bijection
that also maps the monitor states and budget usage onto each other, are
explored once: their futures are isomorphic and every goal judges them
alike.  Children are expanded in Step.key order, so of the merged prefixes
the lexicographically least is kept, and the least violating or witnessing
trace in Trace.key order is never pruned.  Every all-traces verdict
downstream is a bounded-exhaustive statement, never a proof.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, permutations

from . import monitors
from .protocols import ProtocolSpec
from .rewriting import Fact, Instance, Rule, SystemState, enabled_instances, fire
from .terms import App, Fresh, Name, Term, Var, sort_key, substitute


class ReplayMismatchError(ValueError):
    """A recorded trace does not re-fire to the same steps and state."""


@dataclass(frozen=True)
class Bounds:
    """Search bounds replacing unbounded proof search."""

    max_steps: int = 14
    max_changes: int = 1  # pseudonym changes per vehicle
    adversary_fresh_budget: int = 1
    synthesis_depth: int = 4
    max_sessions: int = 1  # misbehaviour reports per trace

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{f.name} must be an integer >= 0, got {value!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Step:
    """One fired rule instance inside a trace."""

    rule_id: str
    binding: tuple  # sorted (ident, Term) pairs
    inputs: tuple  # ground network-input terms
    input_synthesized: tuple  # per input: built by the adversary vs replayed
    input_derivations: tuple
    generated: tuple  # adversary gen_fresh names minted for this step
    events: tuple  # Event values, time == step index
    outputs: tuple = ()  # ground terms released to the network
    fresh_idents: tuple = ()  # binding idents the rule allocated fresh

    def key(self):
        return (
            self.rule_id,
            tuple((i, sort_key(t)) for i, t in self.binding),
            tuple(sort_key(t) for t in self.inputs),
        )


@dataclass(frozen=True)
class Trace:
    """Maximal (or bound-truncated) execution with its terminal state.

    A minimized evidence prefix has no recorded terminal state (None); the
    report's replay supplies it.
    """

    steps: tuple
    terminal_state: SystemState | None
    truncated: bool = False

    @property
    def events(self) -> tuple:
        return tuple(e for s in self.steps for e in s.events)

    def key(self):
        return (len(self.steps), tuple(s.key() for s in self.steps))


@dataclass(frozen=True)
class TraceSet:
    traces: tuple
    bounds: Bounds
    states_explored: int = 0
    dedup_hits: int = 0

    def __iter__(self):
        return iter(self.traces)

    def __len__(self):
        return len(self.traces)

    @property
    def truncated_count(self) -> int:
        return sum(1 for t in self.traces if t.truncated)


def explore(
    spec: ProtocolSpec,
    init: SystemState,
    bounds: Bounds,
    dedup: bool = True,
) -> TraceSet:
    """Enumerate all maximal traces within bounds, deterministically.

    Traces hitting max_steps with enabled rules remaining are truncated and
    flagged.  The result is sorted, so it is a pure function of the inputs.
    """
    init = _start_state(init, bounds)
    rules = sorted(spec.rules, key=lambda r: r.id)
    traces: list[Trace] = []
    seen: set[str] = set()
    explored = 0
    dedup_hits = 0
    stack: list[tuple] = [(init, (), monitors.start(), {})]
    while stack:
        state, steps, watch, usage = stack.pop()
        if dedup:
            digest = _dedup_key(state, watch, usage)
            if digest in seen:
                dedup_hits += 1
                continue
            seen.add(digest)
        explored += 1
        if len(steps) < bounds.max_steps:
            children = _children(state, usage, rules, bounds)
            truncated = False
        else:
            children = []
            # at the step bound: flag the leaf when rules could still fire
            truncated = _any_enabled(state, usage, rules, bounds)
        if not children:
            traces.append(
                Trace(steps=steps, terminal_state=state, truncated=truncated)
            )
            continue
        # reversed so the lexicographically least child is expanded first
        for child_state, step, child_usage in reversed(children):
            stack.append(
                (child_state, steps + (step,), monitors.advance_all(watch, step), child_usage)
            )
    traces.sort(key=Trace.key)
    return TraceSet(
        traces=tuple(traces),
        bounds=bounds,
        states_explored=explored,
        dedup_hits=dedup_hits,
    )


def _children(state, usage, rules, bounds):
    """(child state, step, budget usage after it) for every instance in bounds."""
    out = []
    for rule in rules:
        if not _within_rule_bounds(rule, None, usage, bounds):
            continue
        for inst in enabled_instances(state, rule, bounds.synthesis_depth):
            if not _within_rule_bounds(rule, inst, usage, bounds):
                continue
            child, events = fire(state, rule, inst)
            subst = inst.subst
            step = Step(
                rule_id=rule.id,
                binding=inst.binding,
                inputs=inst.inputs,
                input_synthesized=inst.synthesized,
                input_derivations=inst.input_derivations,
                generated=inst.new_names,
                events=events,
                outputs=tuple(substitute(subst, t) for t in rule.network_out),
                fresh_idents=tuple(ident for ident, _ in inst.fresh_alloc),
            )
            child_usage = usage
            if rule.budget:
                key = _budget_key(rule, inst)
                child_usage = {**usage, key: usage.get(key, 0) + 1}
            out.append((child, step, child_usage))
    return out


def _any_enabled(state, usage, rules, bounds) -> bool:
    """Whether some rule instance could still fire within the rule bounds."""
    return any(
        _within_rule_bounds(rule, inst, usage, bounds)
        for rule in rules
        if _within_rule_bounds(rule, None, usage, bounds)
        for inst in enabled_instances(state, rule, bounds.synthesis_depth)
    )


def _within_rule_bounds(rule: Rule, inst: Instance | None, usage: dict, bounds: Bounds) -> bool:
    """Whether inst may fire given the budget usage; with inst None, whether any may.

    usage counts the firings of each budgeted rule per _budget_key.
    """
    if not rule.budget:
        return True
    limit = getattr(bounds, rule.budget)
    if inst is None and rule.budget_per:
        return limit > 0
    return usage.get(_budget_key(rule, inst), 0) < limit


def _budget_key(rule: Rule, inst: Instance | None) -> tuple:
    """The rule and, for a per-binding budget, the binding its cap applies to."""
    if not rule.budget_per:
        return rule.id, None
    return rule.id, dict(inst.binding).get(rule.budget_per)


def replay(spec: ProtocolSpec, init: SystemState, trace: Trace, bounds: Bounds):
    """Re-fire a trace's steps from the initial state; returns the final state.

    Raises ReplayMismatchError when any step is not reproducible, so a
    successful replay certifies the recorded steps are a valid execution.
    """
    state = _start_state(init, bounds)
    for i, step in enumerate(trace.steps):
        rule = spec.rule(step.rule_id)
        found = next(
            (
                inst
                for inst in enabled_instances(state, rule, bounds.synthesis_depth)
                if inst.binding == step.binding and inst.inputs == step.inputs
            ),
            None,
        )
        if found is None:
            raise ReplayMismatchError(f"step {i} ({step.rule_id}) is not enabled on replay")
        state, events = fire(state, rule, found)
        if tuple(e.key() for e in events) != tuple(e.key() for e in step.events):
            raise ReplayMismatchError(f"step {i} ({step.rule_id}) emitted different events")
    return state


def _start_state(init: SystemState, bounds: Bounds) -> SystemState:
    """The initial state with the adversary's fresh-name budget set."""
    budget = bounds.adversary_fresh_budget
    return replace(init, knowledge=init.knowledge.with_budget(budget))


# ---------------------------------------------------------------------------
# Canonicalization: digests invariant under fresh-name bijections.


# Tied groups larger than this are assigned in raw id order; realistic
# states never produce such symmetry, and soundness (equal digest implies
# isomorphism) is unaffected either way.
_GROUP_LIMIT = 6


def canonicalize(state: SystemState, history: tuple = (), monitor=()) -> str:
    """Canonical digest of a state, optionally with its event history and
    monitor facts.

    Fresh names are renamed so that two states equal modulo a fresh-name
    bijection yield the same digest; equal digests reconstruct the same
    state up to renaming.  History events are position-fixed, so their
    names canonicalize by first occurrence.  Monitor facts are one more
    section of the state, renamed together with it.  The leftover names
    are ordered by iterative signature refinement: at each round the
    pending name with the least occurrence signature is fixed next, and
    names whose signatures tie are ordered by exhaustively minimizing the
    loosely rendered digest.
    """
    events, base = _compile_history(history)
    sections = [
        ("lin", [_compile_fact(f) for f in state.linear]),
        ("per", [_compile_fact(f) for f in state.persistent]),
        ("kn", [_compile(t) for t in state.knowledge.basis]),
        ("gen", [_compile(t) for t in state.knowledge.generated]),
    ]
    if monitor:
        sections.append(("mon", [_compile_fact(f) for f in monitor]))
    tagged_items = [(key, c) for key, items in sections for c in items]

    def full_render(slot) -> str:
        parts = [f"budget:{state.knowledge.budget}"]
        parts += ["ev " + _assemble(c, slot) for c in events]
        for key, items in sections:
            rendered = sorted(_assemble(c, slot) for c in items)
            parts.append(key + "{" + ";".join(rendered) + "}")
        return "|".join(parts)

    renaming = dict(base)
    pending = list(dict.fromkeys(
        fid for _, (_, fids) in tagged_items for fid in fids if fid not in base
    ))
    # a signature only changes when a name it sits next to gets renamed
    occurs = {fid: [] for fid in pending}
    for item in tagged_items:
        for fid in set(item[1][1]) & occurs.keys():
            occurs[fid].append(item)
    sigs: dict = {}
    stale = pending
    while pending:
        for fid in stale:
            sigs[fid] = _signature(fid, occurs[fid], renaming)
        least = min(sigs[fid] for fid in pending)
        group = [fid for fid in pending if sigs[fid] == least]
        if len(group) == 1 or len(group) > _GROUP_LIMIT:
            chosen = tuple(sorted(group))
        else:
            chosen = min(
                permutations(group),
                key=lambda perm: full_render(_loose(_extended(renaming, perm))),
            )
        renaming = _extended(renaming, chosen)
        pending = [f for f in pending if f not in renaming]
        fixed = set(chosen)
        stale = [f for f in pending if any(not fixed.isdisjoint(c[1]) for _, c in occurs[f])]
    return full_render(renaming.__getitem__)


def canonical_events(events) -> tuple:
    """Event sequence rendered with per-trace canonical fresh renaming."""
    compiled, renaming = _compile_history(events)
    return tuple(_assemble(c, renaming.__getitem__) for c in compiled)


def _compile_history(events):
    """Compiled events and their fresh names' slot texts, by first occurrence."""
    compiled = [_compile_event(e) for e in events]
    renaming: dict[int, str] = {}
    for _, fids in compiled:
        for fid in fids:
            renaming.setdefault(fid, f"~c{len(renaming)}")
    return compiled, renaming


def _extended(renaming: dict, perm) -> dict:
    trial = dict(renaming)
    for fid in perm:
        trial[fid] = f"~c{len(trial)}"
    return trial


def _loose(renaming: dict):
    """Slot renderer that writes ~? for names not renamed yet."""
    return lambda fid: renaming.get(fid, "~?")


def _signature(fid: int, occurrences, renaming: dict) -> tuple:
    """Occurrence signature of a pending name: the sorted contexts it sits in.

    occurrences are the (section, compiled item) pairs that contain fid.

    Pure function of bijection-invariant data (section tags, literal
    structure, already-assigned canonical ids), so isomorphic states yield
    identical signatures for corresponding names.
    """
    def slot(f: int) -> str:
        return "~#" if f == fid else renaming.get(f, "~?")

    return tuple(sorted(section + ":" + _assemble(c, slot) for section, c in occurrences))


def _dedup_key(state: SystemState, watch: tuple, usage: dict) -> str:
    """Depth, state, monitor states and budget usage, canonicalized together."""
    used = [
        Fact(f"{rule_id}#{count}", () if value is None else (value,))
        for (rule_id, value), count in usage.items()
    ]
    facts = [*chain.from_iterable(watch), *used]
    return f"step:{state.step}|" + canonicalize(state, monitor=facts)


_compiled: dict = {}  # interned term, Fact or Event -> its compiled rendering


def _compile(t: Term) -> tuple:
    """A term's rendering split around its fresh names: (parts, fids).

    parts has one more entry than fids; fid i is rendered between parts i
    and i + 1, so any renaming of the fresh names is a join away.
    """
    got = _compiled.get(t)
    if got is not None:
        return got
    if isinstance(t, Fresh):
        out = ("", ""), (t.fid,)
    elif isinstance(t, Name):
        out = (t.label,), ()
    elif isinstance(t, Var):
        out = (f"?{t.ident}",), ()
    else:
        assert isinstance(t, App)
        out = _compile_seq(f"({t.sym} ", t.args, " ", ")")
    _compiled[t] = out
    return out


def _compile_fact(f) -> tuple:
    got = _compiled.get(f)
    if got is None:
        head = f"{'!' if f.persistent else ''}{f.name}("
        got = _compiled[f] = _compile_seq(head, f.args, ",", ")")
    return got


def _compile_event(e) -> tuple:
    got = _compiled.get(e)
    if got is None:
        got = _compiled[e] = _compile_seq(f"{e.label}(", e.args, ", ", f")@{e.time}")
    return got


def _compile_seq(head: str, terms, sep: str, tail: str) -> tuple:
    """Compiled head + sep.join(terms) + tail."""
    parts = [head]
    fids: list[int] = []
    for i, t in enumerate(terms):
        t_parts, t_fids = _compile(t)
        parts[-1] += sep + t_parts[0] if i else t_parts[0]
        parts += t_parts[1:]
        fids += t_fids
    parts[-1] += tail
    return tuple(parts), tuple(fids)


def _assemble(compiled, slot) -> str:
    """Join a compiled rendering, writing slot(fid) in each fresh-name gap."""
    parts, fids = compiled
    if not fids:
        return parts[0]
    out = [parts[0]]
    for fid, part in zip(fids, parts[1:]):
        out += (slot(fid), part)
    return "".join(out)
