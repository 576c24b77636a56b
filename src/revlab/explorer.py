"""Bounded exhaustive exploration of the labelled transition system.

Depth-first search with an explicit stack over immutable states.  Each
stack entry carries, besides the state and its steps, every goal monitor's
state (monitors.py) and the rule budgets used so far.  Branches reaching a
state already seen at the same depth, equal modulo a renaming that also maps
the monitor states and budget usage onto each other, are explored once:
their futures are isomorphic and every goal judges them alike.  The
renaming is a fresh-name bijection together with a permutation of the
vehicles.  Vehicles are a scalarset (Ip & Dill, Better verification through
symmetry, 1996): no rule names one, the initial state treats them alike and
every monitor is symmetric in the vehicle, so a state with V1 and V2
swapped has the mirrored futures.  explore decides once, from the initial
state and the rules, which names are interchangeable: its vehicles, when
there are two or more and no rule names one.

Children are expanded in Step.key order, so DFS visits the paths of one
depth in that order, and a merged prefix P' always has a kept prefix
P < P'.  The continuation from P mirrored by the renaming gives a trace
with the same goal profile, and Trace.key compares the prefix first, so
that trace is smaller than the original.  So the least violating or
witnessing trace in Trace.key order is never pruned.  Nor is the first
trace whose G5 monitor state holds an unanswered change, which
goals._explain_g5_failure reads from it, so its diagnosis names the same
vehicle.  Every all-traces verdict downstream is a bounded-exhaustive
statement, never a proof.

Dedup mode also leaves out children that cannot reach a key first.  A twin
is a child equal to an earlier sibling's child, in state, monitor states and
budget usage alike: it is fired but not pushed.  An instance in the node's
sleep set is not fired at all (Godefroid, Partial-order methods for the
verification of concurrent systems, LNCS 1032, 1996).  Siblings are visited
in Step.key order, and child i inherits the entries of the node's sleep set
and of its earlier siblings, slept and twin ones included, that are
independent of its own instance (_independent).  An instance is known across
states by its rule, consumed facts, inputs and binding without the rule's
fresh variables.  Two instances are independent when their consumed facts
are disjoint, neither mints adversary names, neither has a network output
while the other has a network input (synthesis is not known to be monotone
in the knowledge), they do not share a budget key and not both are visible.
A step is visible when it emits a label that some monitor reads
(monitors.LABELS).  Monitor.advance skips a step with no label it reads and
monitor facts carry no times, so moving an invisible step never reorders
visible events: independent steps commute up to the dedup key.

Invariant: explore returns the same traces and states_explored with these
cuts as without them; only dedup_hits falls.  The search without them first
reaches each key by the path that is least in Trace.key order: a path cut
by dedup at a prefix has a kept smaller prefix, and the renamed rest of the
path from there reaches the same key by a smaller path.  A slept or twin
transition on a least path would likewise give a smaller path to the same
key.  A slept instance was an earlier sibling, and so less in Step.key
order, at an ancestor, and commutes with every step taken since: taking it
at the ancestor, then those steps, reaches the same key.  A twin's earlier
sibling reaches the very same child.  So no least path is cut, every key is
first visited by the same path as before, and the leaves, truncation flags
and evidence are all unchanged.  A node whose enabled instances are all
slept is not a leaf: it records no trace and pushes no child.

Two savings in dedup mode change nothing that is pushed.  Enabled lists are
cached for one search (InstanceCache), keyed on what enabled_instances
reads: the rule, the linear and persistent facts its premises name, the
adversary knowledge for a rule with a network input, and next_fresh for a
rule with fresh variables or a network input.  States that agree on these
have equal lists.  And the instances of a node that share their rule,
consumed facts, minted names and the values of the variables in the rule's
conclusions, network outputs and per-binding budget form a twin group:
these fix the child state and the budget usage, so only the group's first
instance is fired.  Each of the others builds its own step, whose events may
differ (rtoken's Commit carries the whole signed confirmation), and advances
the monitors on it, so the twin test stays exact: a group member whose
monitor states differ from every earlier sibling's is pushed.

Seen states are keyed by canonicalize, an exact canonical form made of
integers (colour refinement, then individualization where names stay tied;
McKay & Piperno, Practical graph isomorphism II, 2014).  The search has
no automorphism pruning: the cells it meets are nearly all pairs, which
pruning cannot shrink (rtoken with three vehicles: 937 tied pairs and 11
tied triples in one search).  The key's ints depend on the order in which
shapes were first seen, so it decides equality only.  digest renders
states as canonical text, modulo fresh names only, for the report and the
tests.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count, permutations
from typing import NamedTuple

from . import knowledge as kn
from . import monitors
from .protocols import ProtocolSpec, is_vehicle
from .rewriting import (
    Fact,
    Instance,
    Rule,
    SystemState,
    _guards_hold,
    emitted,
    enabled_instances,
    fire,
)
from .terms import (
    App,
    Fresh,
    Name,
    Term,
    Var,
    fresh,
    render,
    sort_key,
    substitute,
    subterms,
    variables,
)


class ReplayMismatchError(ValueError):
    """A recorded trace does not re-fire to the same steps and state."""


class _BoundsFields(NamedTuple):
    max_steps: int = 14
    max_changes: int = 1  # pseudonym changes per vehicle
    adversary_fresh_budget: int = 1
    synthesis_depth: int = 4
    max_sessions: int = 1  # misbehaviour reports per trace


class Bounds(_BoundsFields):
    """Search bounds replacing unbounded proof search.

    Construction, _replace included, rejects a bound that is not an
    integer >= 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def as_dict(self) -> dict:
        return self._asdict()


class Step(NamedTuple):
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


class Trace(NamedTuple):
    """Maximal (or bound-truncated) execution with its terminal state.

    watch holds every goal monitor's state after the steps, in
    monitors.advance_all order; the goal verdicts are read from it.  A
    minimized evidence prefix has neither (None); the report's replay
    supplies its terminal state.
    """

    steps: tuple
    terminal_state: SystemState | None
    truncated: bool = False
    watch: tuple | None = None

    @property
    def events(self) -> tuple:
        return tuple(e for s in self.steps for e in s.events)

    def key(self):
        return (len(self.steps), tuple(s.key() for s in self.steps))


class TraceSet:
    """The sorted traces of one search, with its bounds and counters.

    Frozen, and equal by value.  Not a tuple: iterating it and its length
    are over the traces.
    """

    __slots__ = ("traces", "bounds", "states_explored", "dedup_hits")

    def __init__(
        self, traces: tuple, bounds: Bounds, states_explored: int = 0, dedup_hits: int = 0
    ):
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "states_explored", states_explored)
        object.__setattr__(self, "dedup_hits", dedup_hits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return self.traces, self.bounds, self.states_explored, self.dedup_hits

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"TraceSet({fields})"

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
    Without dedup, every child is pushed: the plain, unpruned search.
    """
    init = _start_state(init, bounds)
    rules = sorted(spec.rules, key=lambda r: r.id)
    # the step-bound check asks only whether any instance exists, so rules
    # without input synthesis go first; the answer does not depend on order
    leaf_rules = sorted(rules, key=lambda r: bool(r.network_in))
    flags = {rule.id: _flags(rule) for rule in rules}
    fixes = {rule.id: _fixing_vars(rule) for rule in rules}
    cache = InstanceCache(rules, bounds.synthesis_depth) if dedup else None
    vehicles = _interchangeable(init, rules)
    traces: list[Trace] = []
    seen: set[tuple] = set()
    memo: dict = {}  # canonicalize's item rows, kept for this search only
    explored = 0
    dedup_hits = 0
    stack: list[tuple] = [(init, (), monitors.start(), {}, ())]
    while stack:
        state, steps, watch, usage, sleep = stack.pop()
        if dedup:
            key = _dedup_key(state, watch, usage, memo, vehicles)
            if key in seen:
                dedup_hits += 1
                continue
            seen.add(key)
        explored += 1
        if len(steps) < bounds.max_steps:
            enabled = _enabled(state, usage, rules, bounds, cache)
            truncated = False
        else:
            enabled = []
            # at the step bound: flag the leaf when rules could still fire
            truncated = _any_enabled(state, usage, leaf_rules, bounds, cache)
        if not enabled:
            traces.append(Trace(steps, state, truncated, watch))
            continue
        if dedup:
            children = _pruned(state, watch, usage, enabled, sleep, flags, fixes)
        else:
            children = [
                (child, step, monitors.advance_all(watch, step), child_usage, ())
                for child, step, child_usage in _children(state, usage, enabled)
            ]
        # reversed so the lexicographically least child is expanded first
        for child, step, child_watch, child_usage, child_sleep in reversed(children):
            stack.append((child, steps + (step,), child_watch, child_usage, child_sleep))
    traces.sort(key=Trace.key)
    return TraceSet(
        traces=tuple(traces),
        bounds=bounds,
        states_explored=explored,
        dedup_hits=dedup_hits,
    )


def _enabled(state, usage, rules, bounds, cache=None) -> list:
    """(rule, instance) for every instance within the rule bounds, in Step.key order."""
    return [
        (rule, inst)
        for rule in rules
        if _within_rule_bounds(rule, None, usage, bounds)
        for inst in _instances(state, rule, bounds, cache)
        if _within_rule_bounds(rule, inst, usage, bounds)
    ]


def _instances(state, rule, bounds, cache) -> list:
    """enabled_instances of rule in state, from the cache when one is given."""
    if cache is None:
        return enabled_instances(state, rule, bounds.synthesis_depth)
    return cache.instances(state, rule)


class InstanceCache:
    """enabled_instances results of one search, keyed on what a call reads.

    A call reads the rule, the linear facts its premises name (in state
    order, so multiplicities count), the persistent facts they name, the
    adversary knowledge when the rule has a network input, and next_fresh
    when the rule has fresh variables or a network input.  States that
    agree on these get equal lists.  A miss calls enabled_instances.
    """

    def __init__(self, rules, depth: int):
        self.depth = depth
        self.reads = {rule.id: _reads(rule) for rule in rules}
        self.lists: dict = {}

    def instances(self, state: SystemState, rule: Rule) -> list:
        linear, persistent, receives, numbered = self.reads[rule.id]
        k = state.knowledge
        key = (
            rule.id,
            tuple(f for f in state.linear if f.name in linear),
            frozenset(f for f in state.persistent if f.name in persistent) if persistent else None,
            (k.basis, k.generated, k.budget) if receives else None,
            state.next_fresh if numbered else None,
        )
        got = self.lists.get(key)
        if got is None:
            got = self.lists[key] = enabled_instances(state, rule, self.depth)
        return got


def _reads(rule: Rule) -> tuple:
    """What enabled_instances reads of a state for rule: the names of its
    linear and of its persistent premises, whether it reads the knowledge,
    and whether it reads next_fresh."""
    linear = frozenset(p.name for p in rule.premises if not p.persistent)
    persistent = frozenset(p.name for p in rule.premises if p.persistent)
    receives = bool(rule.network_in)
    return linear, persistent, receives, receives or bool(rule.fresh_vars)


def _child(state, usage, rule, inst) -> tuple:
    """(child state, step, budget usage after it) of firing one instance."""
    child, events = fire(state, rule, inst)
    outputs = tuple(substitute(inst.subst, t) for t in rule.network_out)
    step = _step(rule, inst, events, outputs)
    child_usage = usage
    if rule.budget:
        key = _budget_key(rule, inst)
        child_usage = {**usage, key: usage.get(key, 0) + 1}
    return child, step, child_usage


def _step(rule: Rule, inst: Instance, events: tuple, outputs: tuple) -> Step:
    """The step that records firing inst, with its events and outputs."""
    return Step(
        rule_id=rule.id,
        binding=inst.binding,
        inputs=inst.inputs,
        input_synthesized=inst.synthesized,
        input_derivations=inst.input_derivations,
        generated=inst.new_names,
        events=events,
        outputs=outputs,
        fresh_idents=tuple(ident for ident, _ in inst.fresh_alloc),
    )


def _children(state, usage, enabled) -> list:
    """(child state, step, budget usage after it) for every (rule, instance) enabled."""
    return [_child(state, usage, rule, inst) for rule, inst in enabled]


def _pruned(state, watch, usage, enabled, sleep, flags, fixes) -> list:
    """The children worth pushing: (state, step, monitor states, usage, sleep set).

    Instances in the sleep set are not fired, and a twin of an earlier
    sibling is not pushed.  Only the first instance of each twin group is
    fired; the others take its child state and usage and build only their
    own steps.  Each child's sleep set holds the entries of sleep and of its
    earlier siblings, slept and twin ones included, that are independent of
    its own instance.
    """
    asleep = {move.ident for move in sleep}
    done = list(sleep)
    made = {}  # twin group -> (child state, usage, outputs) of its first instance
    twins = set()
    out = []
    for rule, inst in enabled:
        move = Move(rule, inst, flags[rule.id])
        if move.ident in asleep:
            continue
        fixed = fixes[rule.id]
        group = (
            rule.id,
            inst.consumed,
            inst.new_names,
            tuple(pair for pair in inst.binding if pair[0] in fixed),
        )
        if group in made:
            child, child_usage, outputs = made[group]
            step = _step(rule, inst, emitted(rule, inst.subst, state.step), outputs)
        else:
            child, step, child_usage = _child(state, usage, rule, inst)
            made[group] = child, child_usage, step.outputs
        child_watch = monitors.advance_all(watch, step)
        twin = (child, child_watch, frozenset(child_usage.items()))
        if twin not in twins:
            twins.add(twin)
            child_sleep = tuple(m for m in done if _independent(m, move))
            out.append((child, step, child_watch, child_usage, child_sleep))
        done.append(move)
    return out


def _fixing_vars(rule: Rule) -> frozenset:
    """The variables that, with the consumed facts and the minted names, fix
    an instance's child state and budget usage: those of the conclusions,
    the network outputs and the per-binding budget."""
    found = {rule.budget_per} if rule.budget_per else set()
    for t in (*(a for f in rule.conclusions for a in f.args), *rule.network_out):
        found |= variables(t)
    return frozenset(found)


class Move:
    """An enabled instance as sleep sets see it.

    ident names the instance across states: its rule, consumed facts,
    binding without the rule's fresh variables, and inputs.  flags are the
    rule's (receives, sends, visible), from _flags.
    """

    __slots__ = ("ident", "consumed", "budget", "mints", "receives", "sends", "visible")

    def __init__(self, rule: Rule, inst: Instance, flags: tuple):
        binding = tuple(pair for pair in inst.binding if pair[0] not in rule.fresh_vars)
        self.ident = (rule.id, inst.consumed, binding, inst.inputs)
        self.consumed = frozenset(inst.consumed)
        self.budget = _budget_key(rule, inst) if rule.budget else None
        self.mints = bool(inst.new_names)  # mints adversary names
        self.receives, self.sends, self.visible = flags


def _flags(rule: Rule) -> tuple:
    """Whether a rule has a network input, has a network output, and emits
    a label that some monitor reads."""
    visible = any(label in monitors.LABELS for label, _ in rule.events)
    return bool(rule.network_in), bool(rule.network_out), visible


def _independent(a: Move, b: Move) -> bool:
    """Whether firing a and b in either order reaches the same dedup key."""
    return (
        a.consumed.isdisjoint(b.consumed)
        and not (a.mints or b.mints)
        and not (a.sends and b.receives or a.receives and b.sends)
        and (a.budget is None or a.budget != b.budget)
        and not (a.visible and b.visible)
    )


def _any_enabled(state, usage, rules, bounds, cache=None) -> bool:
    """Whether some rule instance could still fire within the rule bounds."""
    return any(
        _within_rule_bounds(rule, inst, usage, bounds)
        for rule in rules
        if _within_rule_bounds(rule, None, usage, bounds)
        for inst in _instances(state, rule, bounds, cache)
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

    Each step's instance is rebuilt from its binding and checked against
    the state (_rebuilt), not looked up among the enabled instances.
    Raises ReplayMismatchError when any step is not reproducible, so a
    successful replay certifies the recorded steps are a valid execution.
    """
    state = _start_state(init, bounds)
    for i, step in enumerate(trace.steps):
        rule = spec.rule(step.rule_id)
        try:
            inst = _rebuilt(state, rule, step, bounds.synthesis_depth)
        except ReplayMismatchError as why:
            raise ReplayMismatchError(
                f"step {i} ({step.rule_id}) is not enabled on replay: {why}"
            ) from None
        state, events = fire(state, rule, inst)
        if tuple(e.key() for e in events) != tuple(e.key() for e in step.events):
            raise ReplayMismatchError(f"step {i} ({step.rule_id}) emitted different events")
    return state


def _rebuilt(state: SystemState, rule: Rule, step: Step, depth: int):
    """The step's instance of rule in state; ReplayMismatchError says why there is none.

    The binding must bind exactly the rule's variables, its fresh ones to
    the next fresh ids; the premises under it must be in the state, linear
    ones as a multiset; the adversary names the step minted must be the
    next ids; each input must be its network-input pattern under the
    binding and derivable within depth once those names are minted; and
    the guards must hold.
    """
    subst = dict(step.binding)
    wanted = set(rule.fresh_vars)
    for t in (*(a for p in rule.premises for a in p.args), *rule.network_in):
        wanted |= variables(t)
    if subst.keys() != wanted or len(subst) != len(step.binding):
        raise ReplayMismatchError("the binding does not bind the rule's variables")
    fresh_alloc = tuple(
        (ident, fresh(state.next_fresh + i, origin=f"{rule.id}:{ident}"))
        for i, ident in enumerate(rule.fresh_vars)
    )
    if any(subst[ident] is not f for ident, f in fresh_alloc):
        raise ReplayMismatchError("fresh names drifted")
    consumed = []
    for p in rule.premises:
        f = Fact(p.name, tuple(substitute(subst, a) for a in p.args), p.persistent)
        if f.persistent and f not in state.persistent:
            raise ReplayMismatchError(f"{f.render()} is not in the state")
        if not f.persistent:
            consumed.append(f)
    if Counter(consumed) - Counter(state.linear):
        raise ReplayMismatchError("a consumed fact is not in the state")
    k = state.knowledge
    for fid, f in enumerate(step.generated, state.next_fresh + len(fresh_alloc)):
        minted = kn.gen_fresh(k, fid)
        if minted is None or minted[1] is not f:
            raise ReplayMismatchError("adversary names drifted")
        k = minted[0]
    if len(step.inputs) != len(rule.network_in):
        raise ReplayMismatchError("wrong number of inputs")
    derivations = []
    for pattern, term in zip(rule.network_in, step.inputs):
        if substitute(subst, pattern) is not term:
            raise ReplayMismatchError(f"input {render(term)} does not match its pattern")
        derivation = kn.can_derive(k, term, depth)
        if derivation is None:
            raise ReplayMismatchError(f"input {render(term)} is not derivable")
        derivations.append(derivation)
    if not _guards_hold(rule.guards, subst):
        raise ReplayMismatchError("a guard fails")
    return Instance(
        rule_id=rule.id,
        binding=step.binding,
        consumed=tuple(consumed),
        inputs=step.inputs,
        input_costs=tuple(d.cost for d in derivations),
        input_derivations=step.input_derivations,
        new_names=step.generated,
        fresh_alloc=fresh_alloc,
    )


def _interchangeable(init: SystemState, rules) -> frozenset:
    """The vehicle names of the initial state when dedup may permute them.

    Permuting is sound when no rule names a vehicle, the initial state
    treats them alike and every monitor is symmetric in the vehicle.  The
    monitors are, and the rules are checked here: a rule that names a
    vehicle empties the set.  One vehicle has no symmetry to use, and then
    the set is empty too.
    """
    terms = chain(
        (a for f in (*init.linear, *init.persistent) for a in f.args),
        init.knowledge.basis,
    )
    found = frozenset(s for t in terms for s in subterms(t) if is_vehicle(s))
    if len(found) < 2 or any(
        is_vehicle(s) for rule in rules for t in _rule_terms(rule) for s in subterms(t)
    ):
        return frozenset()
    return found


def _rule_terms(rule: Rule):
    """Every term pattern a rule is written with."""
    yield from (a for f in (*rule.premises, *rule.conclusions) for a in f.args)
    yield from chain.from_iterable(rule.guards)
    yield from (a for _, args in rule.events for a in args)
    yield from rule.network_in
    yield from rule.network_out


def _start_state(init: SystemState, bounds: Bounds) -> SystemState:
    """The initial state with the adversary's fresh-name budget set."""
    budget = bounds.adversary_fresh_budget
    return init._replace(knowledge=init.knowledge.with_budget(budget))


# ---------------------------------------------------------------------------
# Digests: texts invariant under fresh-name bijections.


# Tied groups larger than this are assigned in raw id order, so isomorphic
# states with more than this many tied names can get different digests.
# Equal digests still imply isomorphism, and dedup keys on canonicalize, so
# such a split only changes report text.
_GROUP_LIMIT = 6


def digest(state: SystemState) -> str:
    """Canonical text digest of a state.

    Fresh names are renamed so that two states equal modulo a fresh-name
    bijection yield the same digest; equal digests reconstruct the same
    state up to renaming.  The names are ordered by iterative signature
    refinement: at each round the pending name with the least occurrence
    signature is fixed next, and names whose signatures tie are ordered by
    exhaustively minimizing the loosely rendered digest.  The report prints
    it as a trace's terminal digest; dedup keys on canonicalize instead.
    """
    sections = [
        ("lin", [_compile_fact(f) for f in state.linear]),
        ("per", [_compile_fact(f) for f in state.persistent]),
        ("kn", [_compile(t) for t in state.knowledge.basis]),
        ("gen", [_compile(t) for t in state.knowledge.generated]),
    ]
    tagged_items = [(key, c) for key, items in sections for c in items]

    def full_render(slot) -> str:
        parts = [f"budget:{state.knowledge.budget}"]
        for key, items in sections:
            rendered = sorted(_assemble(c, slot) for c in items)
            parts.append(key + "{" + ";".join(rendered) + "}")
        return "|".join(parts)

    renaming: dict = {}
    pending = list(dict.fromkeys(fid for _, (_, fids) in tagged_items for fid in fids))
    # a signature only changes when a name it sits next to gets renamed
    occurs = {fid: [] for fid in pending}
    for item in tagged_items:
        for fid in set(item[1][1]):
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


# ---------------------------------------------------------------------------
# Dedup keys: exact canonical forms of integers, by colour refinement.


# A shape with k renameable names takes k + 1 ids: its own, then the slot
# ids of its k positions.
_ids = count()
_shapes: dict = {}  # (section, literal parts, name pattern) -> shape id


def canonicalize(
    state: SystemState, monitor=(), memo: dict | None = None, vehicles: frozenset = frozenset()
) -> tuple:
    """Exact canonical key of a state and its monitor facts, a flat int tuple.

    Two keys are equal exactly when the states are at the same step, have
    the same fresh budget and are equal modulo a renaming that also maps the
    monitor facts onto each other: a fresh-name bijection together with a
    permutation of the names in vehicles (a scalarset; Ip & Dill, Better
    verification through symmetry, 1996).  Each fact, knowledge term,
    generated name and monitor fact is an item, and its shape is a small int
    for its section, its literal text and the pattern in which its
    renameable names repeat: (7, 3, 7) has the pattern (0, 1, 0), and a
    vehicle's position is marked negative, so no slot is filled by both a
    vehicle and a fresh name.  A name's first colour is the multiset of the
    (shape, position) slots it fills; it carries the name's class, so
    vehicles and fresh names start in different cells and are never mapped
    onto each other.  Colours are refined by the colours of the names they
    share items with until the partition is stable (1-WL); while a cell is
    tied, its members are individualized in turn and the least result is
    kept (_least_certificate), so the result never depends on fresh ids or
    on which vehicle is which.  The key is the step, the budget, the sorted
    ground shapes and the sorted rows (shape, colours of its names); a shape
    fixes its row's length and classes, so a key reads back as one state up
    to renaming.  Shape ids follow first-seen order in the process: keys are
    compared, never printed.  With vehicles empty, vehicle names are
    literal text like any other name.

    memo caches each item's row per section, the rows of the per section
    per persistent set, and those of the kn and gen sections per knowledge;
    a caller that keys many states, as a search does, passes the same dict
    to every call with the same vehicles.
    """
    if memo is None:
        memo = {}
    k = state.knowledge
    pers = memo.setdefault("per sets", {})
    per = pers.get(state.persistent)
    if per is None:
        per = pers[state.persistent] = _rows(memo, "per", state.persistent, vehicles)
    kns = memo.setdefault("kn sets", {})
    kn = kns.get((k.basis, k.generated))
    if kn is None:
        basis = _rows(memo, "kn", k.basis, vehicles)
        generated = _rows(memo, "gen", k.generated, vehicles)
        kn = kns[k.basis, k.generated] = basis[0] + generated[0], basis[1] + generated[1]
    lin = _rows(memo, "lin", state.linear, vehicles)
    mon = _rows(memo, "mon", monitor, vehicles)
    ground = lin[0] + per[0] + kn[0] + mon[0]
    rows = lin[1] + per[1] + kn[1] + mon[1]
    filled: dict = {}
    for shape, names in rows:
        for slot, x in enumerate(names, shape + 1):
            filled.setdefault(x, []).append(slot)
    colour, classes = _ranked({x: tuple(sorted(s)) for x, s in filled.items()})
    if classes == len(colour):
        cert = _certificate(rows, colour)
    else:
        links: dict = {x: [] for x in colour}
        for shape, names in rows:
            for slot, x in enumerate(names, shape + 1):
                links[x].append((slot, names))
        cert = _least_certificate(rows, links, colour, classes)
    ground.sort()
    return (state.step, k.budget, *ground, *chain.from_iterable(cert))


def _rows(memo: dict, section: str, items, vehicles: frozenset) -> tuple:
    """The shapes of a section's ground items and the rows of the others."""
    known = memo.setdefault(section, {})
    ground, rows = [], []
    for item in items:
        row = known.get(item)
        if row is None:
            row = known[item] = _item(section, item, vehicles)
        if row[1]:
            rows.append(row)
        else:
            ground.append(row[0])
    return ground, rows


def _item(section: str, item, vehicles: frozenset) -> tuple:
    """(shape, distinct renameable names by first occurrence) of an item.

    A fresh name is its fid; a vehicle is its Name term.
    """
    compiled = _compile if isinstance(item, Term) else _compile_fact
    parts, names = compiled(item, vehicles)
    local = tuple(dict.fromkeys(names))
    pattern = tuple(local.index(x) if type(x) is int else ~local.index(x) for x in names)
    key = (section, parts, pattern)
    shape = _shapes.get(key)
    if shape is None:
        shape = _shapes[key] = next(_ids)
        for _ in local:
            next(_ids)
    return shape, names if len(local) == len(names) else local


def _ranked(signatures: dict) -> tuple:
    """Each name's rank among the distinct signatures, and their number."""
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
    return {x: rank[sig] for x, sig in signatures.items()}, len(rank)


def _refined(links, colour: dict, classes: int) -> tuple:
    """Colours refined by their neighbours' colours until the partition is stable.

    links maps each name to its (slot, names of the item) occurrences.
    Ranks keep the order of the colours they refine.  A name alone in its
    colour cannot be split, and its colour alone places it among the ranks,
    so its neighbours are not read.
    """
    while True:
        sizes = Counter(colour.values())
        colour, refined = _ranked({
            x: (c, tuple(sorted(
                (slot, tuple(map(colour.__getitem__, names))) for slot, names in links[x]
            ))) if sizes[c] > 1 else (c,)
            for x, c in colour.items()
        })
        if refined == classes:
            return colour, classes
        classes = refined


def _certificate(rows, colour) -> list:
    """The sorted rows (shape, colours of its names) under a discrete colouring."""
    return sorted((shape, *map(colour.__getitem__, names)) for shape, names in rows)


def _least_certificate(rows, links, colour: dict, classes: int) -> list:
    """The least certificate over every individualization below this colouring.

    At each node the colouring is refined, and each member of the least
    tied cell is individualized in turn.
    """
    colour, classes = _refined(links, colour, classes)
    if classes == len(colour):
        return _certificate(rows, colour)
    sizes = Counter(colour.values())
    cell = min(c for c, n in sizes.items() if n > 1)
    # individualizing x: it alone keeps the lower half of its cell's colour
    return min(
        _least_certificate(
            rows, links, {f: 2 * k + (f != x) for f, k in colour.items()}, classes + 1
        )
        for x, c in colour.items()
        if c == cell
    )


def _dedup_key(
    state: SystemState, watch: tuple, usage: dict, memo=None, vehicles: frozenset = frozenset()
) -> tuple:
    """Depth, state, monitor states and budget usage, canonicalized together."""
    used = [
        Fact(f"{rule_id}#{fired}", () if value is None else (value,))
        for (rule_id, value), fired in usage.items()
    ]
    facts = [*chain.from_iterable(watch), *used]
    return canonicalize(state, monitor=facts, memo=memo, vehicles=vehicles)


_compiled: dict = {}  # interned term or Fact -> its compiled rendering
_slotted: dict = {}  # (term or Fact, names cut out as slots) -> its compiled rendering


def _compile(t: Term, slots: frozenset = frozenset()) -> tuple:
    """A term's rendering split around its fresh names: (parts, ids).

    parts has one more entry than ids; the name with id i is rendered
    between parts i and i + 1, so any renaming is a join away.  A fresh
    name's id is its fid; a name in slots is cut out too, with itself as id.
    """
    memo, key = (_slotted, (t, slots)) if slots else (_compiled, t)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(t, Fresh):
        out = ("", ""), (t.fid,)
    elif t in slots:
        out = ("", ""), (t,)
    elif isinstance(t, Name):
        out = (t.label,), ()
    elif isinstance(t, Var):
        out = (f"?{t.ident}",), ()
    else:
        assert isinstance(t, App)
        out = _compile_seq(f"({t.sym} ", t.args, " ", ")", slots)
    memo[key] = out
    return out


def _compile_fact(f, slots: frozenset = frozenset()) -> tuple:
    memo, key = (_slotted, (f, slots)) if slots else (_compiled, f)
    got = memo.get(key)
    if got is None:
        head = f"{'!' if f.persistent else ''}{f.name}("
        got = memo[key] = _compile_seq(head, f.args, ",", ")", slots)
    return got


def _compile_seq(head: str, terms, sep: str, tail: str, slots=frozenset()) -> tuple:
    """Compiled head + sep.join(terms) + tail."""
    parts = [head]
    fids: list = []
    for i, t in enumerate(terms):
        t_parts, t_fids = _compile(t, slots)
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
