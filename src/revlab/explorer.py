"""Bounded exhaustive exploration of the labelled transition system.

A search over immutable states, one depth at a time.  Every transition
adds one to state.step, which the dedup key includes, so a state can only
merge with states of its own depth (a progress measure, as in the
sweep-line method: Christensen, Kristensen & Mailund, TACAS 2001).  A layer
is an insertion-ordered dict mapping each (state, monitor states) pair of
one depth to the steps and sleep set of the first path that reached it;
the monitor states are every goal monitor's (monitors.py).  The rule budgets
spent so far are part of the state (SystemState.used): fire counts them,
and the search and replay both check them with _within_rule_bounds.
Branches reaching a state already seen at the same depth, equal modulo a
renaming that also maps the monitor states onto each other, are explored
once: their futures are isomorphic and every goal judges them alike.  The
renaming is a fresh-name bijection together with a permutation of the
vehicles.  Vehicles are a scalarset (Ip & Dill, Better verification through
symmetry, 1996): no rule names one, the initial state treats them alike and
every monitor is symmetric in the vehicle, so a state with V1 and V2
swapped has the mirrored futures.  explore decides once, from the initial
state and the rules, which names are interchangeable: its vehicles, when
there are two or more and no rule names one.

Expanding a layer in dict order, and each node's children in Step.key
order, inserts the paths of the next depth in Trace.key order (depth-first
pre-order restricted to one depth).  So the first path to insert a pair is
its least path; a later one is a dedup hit and is dropped.  dedup_hits
counts every fired child that is not expanded.  The leaves come out in
Trace.key order, and a merged prefix P' always has a kept prefix P < P'.
The continuation from P mirrored by the renaming gives a trace with the
same goal profile, and Trace.key compares the prefix first, so that trace
is smaller than the original.  So the least violating or witnessing trace
in Trace.key order is never pruned.  Nor is the first trace whose G5
monitor state holds an unanswered change, which goals._explain_g5_failure
reads from it, so its diagnosis names the same vehicle.  Every all-traces
verdict downstream is a bounded-exhaustive statement, never a proof.

The search also leaves out children that cannot reach a key first.  An
instance in the node's sleep set is not fired at all (Godefroid,
Partial-order methods for the verification of concurrent systems, LNCS
1032, 1996).  Siblings are visited in Step.key order, and child i inherits
the entries of the node's sleep set and of its earlier siblings, slept ones
included, that are independent of its own instance (_independent).  An
instance is known across states by its rule, consumed facts, inputs and
binding without the rule's fresh variables.  Two instances are independent
when their consumed facts are disjoint, neither mints adversary names,
neither has a network output while the other has a network input
(synthesis is not known to be monotone in the knowledge), they do not share
a budget key and not both are visible.  A step is visible when it emits a
label that some monitor reads (monitors.LABELS).  Monitor.advance skips a
step with no label it reads and monitor facts carry no times, so moving an
invisible step never reorders visible events: independent steps commute up
to the dedup key.

Invariant: explore returns the same traces and states_explored with sleep
sets as without them; only dedup_hits falls.  The search without them
first reaches each key by the path that is least in Trace.key order: a
path cut by dedup at a prefix has a kept smaller prefix, and the renamed
rest of the path from there reaches the same key by a smaller path.  A
slept transition on a least path would likewise give a smaller path to the
same key.  A slept instance was an earlier sibling, and so less in
Step.key order, at an ancestor, and commutes with every step taken since:
taking it at the ancestor, then those steps, reaches the same key.  So no
least path is cut, every key is first visited by the same path as before,
and the leaves, truncation flags and evidence are all unchanged.  A node
whose enabled instances are all slept is not a leaf: it records no trace
and has no child.

Three savings change no child.  A rule is looked up only when the state
holds a fact of every name its premises name (InstanceCache.held): a
premise whose name is missing matches no fact, so the skipped rule's list
would be empty (the Rete and TREAT idea of matching against an index of
what is present: Forgy, AI 1982; Miranker, AAAI 1987).  Enabled lists are
cached for one search (InstanceCache), keyed on everything
enabled_instances reads, so a hit returns the very list a call would; the
key's slice of the persistent facts, and the fact names a persistent set
holds, are taken once per persistent set.  And firing an instance is split
in two (rewriting.effect): the facts, outputs, events and budget key it
produces read only its rule and binding, so they are built once per search
for each (rule, binding) and kept in effects; fire applies them to the
state and checks them against it.  Every instance outside the sleep set is
fired, even where siblings make the same child (rtoken's RA cannot tell
who signed a confirmation, so it has one instance per signing key): such a
fire reuses its effect and costs little, and the layer keeps the first of
those children.

Seen states are keyed by canonical.canonicalize, on the state, its spent
budgets included, together with its monitor states (_dedup_key).  A pair of
a layer is keyed only when it could repeat an earlier one, and the search
stays exact.  Each pair gets a canonical.shape_signature: its step, its
budget and the sorted shapes of its items.  A renaming keeps every shape,
so equal keys have equal signatures, and a pair whose signature no explored
pair has is new.  seen, rebuilt per layer, holds that pair alone under its
signature.  Once a second pair has the same signature, both are keyed, and
from then on every pair with that signature is keyed and checked against
the keys held there.  So a pair is a hit exactly when an explored pair has
its key, as when every pair was keyed.

A child shares most parts of its parent by identity: the persistent set,
the knowledge, the monitor states and the spent budgets.  Each view of such
a part is derived once per search and looked up by the part's value: the
monitor and budget facts per (monitor states, spent budgets) pair
(_monitor_facts), and canonicalize's rows and shape ids per persistent set,
per knowledge and per monitor tuple.  A lookup returns what a fresh
derivation would, as with hash-consed terms (Filliatre & Conchon,
Type-safe modular hash-consing, ML 2006).

explore pauses CPython's cyclic garbage collector while it searches, and
turns it back on afterwards only if it was on.  The search builds only
acyclic data: interned terms, tuples, frozensets, dicts of those and the
records here, none of which refers back to its holder.  Reference counting
frees all of it, so the collector's passes over the growing seen set and
memos find nothing to free and only cost time (tests pin that a collection
after a search finds no unreachable object).  For the same reason, before
turning the collector back on, explore moves every tracked object into the
oldest generation (gc.freeze, then gc.unfreeze), so that the first young
collection after the search does not walk what the search made.  It does
so only when nothing is frozen, since gc.unfreeze would also thaw the
objects a caller froze.
"""

from __future__ import annotations

import gc
from itertools import chain

from . import knowledge as kn
from . import monitors
from .canonical import canonicalize, shape_signature
from .protocols import ProtocolSpec, is_vehicle
from .records import Record, _new
from .rewriting import (
    Fact,
    Instance,
    Rule,
    StaleInstanceError,
    SystemState,
    _guards_hold,
    budget_key,
    effect,
    enabled_instances,
    fire,
)
from .terms import render, sort_key, substitute, subterms, variables


class ReplayMismatchError(ValueError):
    """A recorded trace does not re-fire to the same steps and state."""


class Bounds(Record):
    """Search bounds replacing unbounded proof search.

    max_changes caps the pseudonym changes per vehicle, max_sessions the
    misbehaviour reports per trace.  Construction, _replace included,
    rejects a bound that is not an integer >= 0.
    """

    __slots__ = ()

    def __new__(
        cls, max_steps=14, max_changes=1, adversary_fresh_budget=1, synthesis_depth=4,
        max_sessions=1,
    ):
        values = (max_steps, max_changes, adversary_fresh_budget, synthesis_depth,
                  max_sessions)
        for name, value in zip(cls._fields, values):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        return _new(cls, values)


class Step(Record):
    """One fired rule instance inside a trace.

    binding holds sorted (ident, Term) pairs; inputs the ground
    network-input terms; input_derivations the adversary's
    knowledge.Derivation of each input; generated the adversary's gen_fresh
    names minted for this step; events the Event records it emitted, its
    effect's tuple itself, whose timepoint is the step's index in its
    trace; outputs the ground terms released to the network.
    """

    __slots__ = ()

    def __new__(
        cls, rule_id, binding, inputs, input_derivations, generated, events, outputs=(),
    ):
        return _new(
            cls, (rule_id, binding, inputs, input_derivations, generated, events, outputs)
        )

    @property
    def input_synthesized(self) -> tuple:
        """Per input, whether the adversary built it rather than replayed it."""
        return tuple(d.cost > 0 or bool(self.generated) for d in self.input_derivations)

    def key(self):
        return (
            self.rule_id,
            tuple((i, sort_key(t)) for i, t in self.binding),
            tuple(sort_key(t) for t in self.inputs),
        )


class Trace(Record):
    """Maximal (or bound-truncated) execution with its terminal state.

    watch holds every goal monitor's state after the steps, in
    monitors.advance_all order; the goal verdicts are read from it.  A
    minimized evidence prefix has neither (None); the report's replay
    supplies its terminal state.
    """

    __slots__ = ()

    def __new__(cls, steps, terminal_state, truncated=False, watch=None):
        return _new(cls, (steps, terminal_state, truncated, watch))

    def key(self):
        return (len(self.steps), tuple(s.key() for s in self.steps))


class TraceSet:
    """The sorted traces of one search, with its counters.

    Frozen, and equal by value.  Not a tuple: iterating it and its length
    are over the traces.
    """

    __slots__ = ("traces", "states_explored", "dedup_hits")

    def __init__(self, traces: tuple, states_explored: int = 0, dedup_hits: int = 0):
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "states_explored", states_explored)
        object.__setattr__(self, "dedup_hits", dedup_hits)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return self.traces, self.states_explored, self.dedup_hits

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


def explore(spec: ProtocolSpec, init: SystemState, bounds: Bounds) -> TraceSet:
    """Enumerate all maximal traces within bounds, deterministically.

    Traces hitting max_steps with enabled rules remaining are truncated and
    flagged.  The result is sorted, so it is a pure function of the inputs.
    The cyclic garbage collector is paused meanwhile (module docstring).
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _search(spec, init, bounds)
    finally:
        if collecting:
            if not gc.get_freeze_count():  # promote, unwalked (module docstring)
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _search(spec: ProtocolSpec, init: SystemState, bounds: Bounds) -> TraceSet:
    """explore's search, one depth at a time (module docstring)."""
    init = _start_state(init, bounds)
    rules = sorted(spec.rules, key=lambda r: r.id)
    # the step-bound check asks only whether any instance exists, so rules
    # without input synthesis go first; the answer does not depend on order
    leaf_rules = sorted(rules, key=lambda r: bool(r.network_in))
    flags = {rule.id: _flags(rule) for rule in rules}
    cache = InstanceCache(rules, bounds.synthesis_depth)
    vehicles = _interchangeable(init, rules)
    traces: list[Trace] = []
    memo: dict = {}  # monitor facts and canonicalize's rows, for this search only
    effects: dict = {}  # (rule id, binding) -> the effect of firing it
    explored = 0
    dedup_hits = 0
    # (state, monitor states) -> (steps, sleep set) of the first path to it
    layer: dict = {(init, monitors.start()): ((), ())}
    while layer:
        seen: dict = {}  # shape signature -> its one explored pair, or their keys
        following: dict = {}
        for pair, (steps, sleep) in layer.items():
            if _keyed_before(pair, seen, memo, vehicles):
                dedup_hits += 1
                continue
            explored += 1
            state, watch = pair
            if len(steps) < bounds.max_steps:
                enabled = list(_enabled(state, rules, bounds, cache))
                truncated = False
            else:
                enabled = []
                # at the step bound: flag the leaf when rules could still fire
                truncated = next(_enabled(state, leaf_rules, bounds, cache), None) is not None
            if not enabled:
                traces.append(Trace(steps, state, truncated, watch))
                continue
            dedup_hits += _expand(
                state, steps, watch, sleep, enabled, flags, effects, following
            )
        layer = following
    return TraceSet(traces=tuple(traces), states_explored=explored, dedup_hits=dedup_hits)


def _keyed_before(pair: tuple, seen: dict, memo: dict, vehicles: frozenset) -> bool:
    """Whether an explored pair had pair's dedup key; records pair otherwise.

    seen maps a shape signature to the one explored pair that has it, or,
    once a second pair has it, to the keys of those pairs.  Only pairs
    whose signature repeats are keyed (module docstring).
    """
    sig = shape_signature(pair[0], _monitor_facts(*pair, memo), memo, vehicles)
    keys = seen.get(sig)
    if keys is None:
        seen[sig] = pair
        return False
    if not isinstance(keys, set):
        keys = seen[sig] = {_dedup_key(*keys, memo, vehicles)}
    key = _dedup_key(*pair, memo, vehicles)
    if key in keys:
        return True
    keys.add(key)
    return False


def _dedup_key(
    state: SystemState, watch: tuple, memo=None, vehicles: frozenset = frozenset()
) -> tuple:
    """Depth, state, spent budgets and monitor states, canonicalized together."""
    if memo is None:
        memo = {}
    facts = _monitor_facts(state, watch, memo)
    return canonicalize(state, monitor=facts, memo=memo, vehicles=vehicles)


def _monitor_facts(state: SystemState, watch: tuple, memo: dict) -> tuple:
    """The monitor facts and a fact per spent budget, which the key reads as
    monitor facts; built once per (monitor states, spent budgets) in memo."""
    built = memo.setdefault("monitor facts", {})
    key = (watch, state.used)
    facts = built.get(key)
    if facts is None:
        used = (
            Fact(f"{rule_id}#{fired}", () if value is None else (value,))
            for (rule_id, value), fired in state.used
        )
        facts = built[key] = (*chain.from_iterable(watch), *used)
    return facts


def _enabled(state, rules, bounds, cache):
    """(rule, instance) for every instance within the rule bounds, rule by rule
    in the order given; lazily, so a caller taking only the first item
    enumerates no further rule.  A rule whose premises name a fact the state
    lacks has no instance and is not looked up (InstanceCache.held)."""
    return (
        (rule, inst)
        for rule in cache.held(state, rules)
        if _within_rule_bounds(rule, None, state, bounds)
        for inst in cache.instances(state, rule)
        if _within_rule_bounds(rule, inst, state, bounds)
    )


class InstanceCache:
    """enabled_instances results of one search, keyed on what a call reads.

    A call reads the rule, the linear facts its premises name (in state
    order, so multiplicities count), the persistent facts they name, the
    adversary knowledge when the rule has a network input, and next_fresh
    when the rule has fresh variables or a network input: its fresh names
    and the adversary names it may mint are numbered from there.  States
    that agree on these get equal lists.  A miss calls enabled_instances.
    The persistent facts a rule reads are sliced once per (persistent set,
    premise names), and a persistent set's fact names are taken once per
    set: children share their parent's set until a rule adds to it.
    """

    def __init__(self, rules, depth: int):
        self.depth = depth
        self.reads = {rule.id: _reads(rule) for rule in rules}
        self.lists: dict = {}
        self.slices: dict = {}
        self.names: dict = {}

    def held(self, state: SystemState, rules) -> list:
        """The rules, in order, whose linear and persistent premises name
        only facts that state holds.  Each other rule has no instance there,
        since no fact can match a premise whose name the state lacks."""
        persistent = self.names.get(state.persistent)
        if persistent is None:
            persistent = self.names[state.persistent] = frozenset(
                f.name for f in state.persistent
            )
        linear = {f.name for f in state.linear}
        reads = self.reads
        return [
            rule for rule in rules
            if reads[rule.id][0] <= linear and reads[rule.id][1] <= persistent
        ]

    def instances(self, state: SystemState, rule: Rule) -> list:
        linear, persistent, receives, numbered = self.reads[rule.id]
        key = (
            rule.id,
            tuple(f for f in state.linear if f.name in linear),
            self._slice(state.persistent, persistent) if persistent else None,
            state.knowledge if receives else None,
            state.next_fresh if numbered else None,
        )
        got = self.lists.get(key)
        if got is None:
            got = self.lists[key] = enabled_instances(state, rule, self.depth)
        return got

    def _slice(self, facts: frozenset, names: frozenset) -> frozenset:
        """The facts named in names."""
        got = self.slices.get((facts, names))
        if got is None:
            got = self.slices[facts, names] = frozenset(f for f in facts if f.name in names)
        return got


def _reads(rule: Rule) -> tuple:
    """What enabled_instances reads of a state for rule: the names of its
    linear and of its persistent premises, whether it reads the knowledge,
    and whether it reads next_fresh."""
    linear = frozenset(p.name for p in rule.premises if not p.persistent)
    persistent = frozenset(p.name for p in rule.premises if p.persistent)
    return linear, persistent, bool(rule.network_in), bool(rule.fresh_vars or rule.network_in)


def _child(state, rule, inst, made=None) -> tuple:
    """(child state, step) of firing one instance; made, when given, is
    effect(rule, inst)."""
    if made is None:
        made = effect(rule, inst)
    child, events = fire(state, rule, inst, made)
    return child, Step(
        rule_id=rule.id,
        binding=inst.binding,
        inputs=inst.inputs,
        input_derivations=inst.input_derivations,
        generated=inst.new_names,
        events=events,
        outputs=made.outputs,
    )


def _expand(state, steps, watch, sleep, enabled, flags, effects: dict, layer: dict) -> int:
    """Fire every instance outside the sleep set, in order, and put each
    child that layer lacks there; returns how many it had (dedup hits).

    A child enters with the entries of sleep and of its earlier siblings
    that are independent of its own instance as its sleep set.  effects
    maps (rule id, binding) to the effect of firing such an instance, and
    gains the effects built here.
    """
    asleep = {move.ident for move in sleep}
    done = list(sleep)
    hits = 0
    for rule, inst in enabled:
        move = Move(rule, inst, flags[rule.id])
        if move.ident in asleep:
            continue
        key = (rule.id, inst.binding)
        made = effects.get(key)
        if made is None:
            made = effects[key] = effect(rule, inst)
        child, step = _child(state, rule, inst, made)
        pair = (child, monitors.advance_all(watch, step))
        if pair in layer:
            hits += 1
        else:
            layer[pair] = (steps + (step,), tuple(m for m in done if _independent(m, move)))
        done.append(move)
    return hits


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
        self.budget = budget_key(rule, inst.subst) if rule.budget else None
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


def _within_rule_bounds(rule: Rule, inst: Instance | None, state: SystemState,
                        bounds: Bounds) -> bool:
    """Whether inst may fire given the budgets state has spent.

    With inst None, a necessary condition for any instance to fire: for a
    per-binding budget it checks only that the limit is above 0, so each
    instance may still be refused once it is known.
    """
    if not rule.budget:
        return True
    limit = getattr(bounds, rule.budget)
    if inst is None and rule.budget_per:
        return limit > 0
    key = budget_key(rule, inst.subst if rule.budget_per else {})
    return next((fired for spent, fired in state.used if spent == key), 0) < limit


def replay(spec: ProtocolSpec, init: SystemState, trace: Trace, bounds: Bounds):
    """Re-fire a trace's steps from the initial state; returns the final state.

    Each step's instance is rebuilt from its binding and checked against
    the state (_rebuilt) and the rule budgets (_within_rule_bounds), not
    looked up among the enabled instances; fire checks the rest.  Raises
    ReplayMismatchError when any step is not reproducible: it names no rule
    of spec, is not enabled, or records events or outputs other than those
    firing it emits and releases.  So a successful replay certifies the
    recorded steps are a valid execution within bounds.
    """
    state = _start_state(init, bounds)
    for i, step in enumerate(trace.steps):
        try:
            rule = spec.rule(step.rule_id)
        except KeyError:
            raise ReplayMismatchError(
                f"step {i} ({step.rule_id}) names no rule of {spec.name}"
            ) from None
        try:
            inst = _rebuilt(state, rule, step, bounds.synthesis_depth)
            if not _within_rule_bounds(rule, inst, state, bounds):
                raise ReplayMismatchError(f"its {rule.budget} budget is spent")
            state, fired = _child(state, rule, inst)
        except (ReplayMismatchError, StaleInstanceError) as why:
            raise ReplayMismatchError(
                f"step {i} ({step.rule_id}) is not enabled on replay: {why}"
            ) from None
        if fired.events != step.events:
            raise ReplayMismatchError(f"step {i} ({step.rule_id}) emitted different events")
        if fired.outputs != step.outputs:
            raise ReplayMismatchError(f"step {i} ({step.rule_id}) released different outputs")
    return state


def _rebuilt(state: SystemState, rule: Rule, step: Step, depth: int):
    """The step's instance of rule in state; ReplayMismatchError says why there is none.

    The binding must bind exactly the rule's variables; the persistent
    premises under it must be in the state; the adversary names the step
    minted must be the next ids; each input must be its network-input
    pattern under the binding and derivable within depth once those names
    are minted; and the guards must hold.  fire checks the fresh names and
    the consumed facts.
    """
    subst = dict(step.binding)
    wanted = set(rule.fresh_vars)
    for t in (*(a for p in rule.premises for a in p.args), *rule.network_in):
        wanted |= variables(t)
    if subst.keys() != wanted or len(subst) != len(step.binding):
        raise ReplayMismatchError("the binding does not bind the rule's variables")
    consumed = []
    for p in rule.premises:
        f = Fact(p.name, tuple(substitute(subst, a) for a in p.args), p.persistent)
        if f.persistent and f not in state.persistent:
            raise ReplayMismatchError(f"{f.render()} is not in the state")
        if not f.persistent:
            consumed.append(f)
    k = state.knowledge
    for fid, f in enumerate(step.generated, state.next_fresh + len(rule.fresh_vars)):
        minted = kn.gen_fresh(k, fid)
        if minted is None or minted[1] is not f:
            raise ReplayMismatchError("adversary names drifted")
        k = minted[0]
    if len(step.inputs) != len(rule.network_in):
        raise ReplayMismatchError("wrong number of inputs")
    for pattern, term in zip(rule.network_in, step.inputs):
        if substitute(subst, pattern) is not term:
            raise ReplayMismatchError(f"input {render(term)} does not match its pattern")
        if kn.can_derive(k, term, depth) is None:
            raise ReplayMismatchError(f"input {render(term)} is not derivable")
    if not _guards_hold(rule.guards, subst):
        raise ReplayMismatchError("a guard fails")
    return Instance(
        rule_id=rule.id,
        binding=step.binding,
        consumed=tuple(consumed),
        inputs=step.inputs,
        input_derivations=step.input_derivations,
        new_names=step.generated,
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
