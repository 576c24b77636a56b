"""Multiset state of facts and labelled single-step rewriting semantics.

The network is folded into the adversary: conclusions marked as outputs feed
the knowledge base, network-input premises are instantiated by adversary
synthesis.  States are immutable snapshots so exploration can branch freely.
Facts, events, rules, states, instances and effects are records
(records.Record).
"""

from __future__ import annotations

from bisect import insort

from . import knowledge as kn
from .knowledge import Knowledge
from .records import Record, _new
from .terms import (
    TRUE,
    App,
    Var,
    _match,
    fresh,
    instantiate_partial,
    is_ground,
    normalize,
    render,
    sort_key,
    substitute,
    variables,
)


class StaleInstanceError(RuntimeError):
    """An instance is fired against a state it was not enumerated from."""


class RuleDefinitionError(ValueError):
    """A rule violates the variable-binding discipline."""


class Fact(Record):
    """Predicate on terms; persistent facts survive consumption.

    A fact has three fields and an event two, so no fact equals an event.
    """

    __slots__ = ()

    def __new__(cls, name, args, persistent=False):
        return _new(cls, (name, args, persistent))

    def key(self):
        return (self.name, tuple(sort_key(a) for a in self.args), self.persistent)

    def render(self) -> str:
        bang = "!" if self.persistent else ""
        return f"{bang}{self.name}({', '.join(render(a) for a in self.args)})"


class Event(Record):
    """Action label emitted by a fired rule.  It carries no time: its
    timepoint is the index in the trace of the step that holds it."""

    __slots__ = ()

    def __new__(cls, label, args):
        return _new(cls, (label, args))


class Rule(Record):
    """Premises / event labels / conclusions triple with fresh names and guards.

    guards are pairs compared for equality after substitution and
    normalization; events are (label, arg-patterns) pairs.  network_in
    patterns are fed by the adversary; network_out terms are released to
    it.  actor names the variable whose binding is the agent performing the
    step.  budget, when set, names the
    Bounds field capping how often the rule fires in one trace; with
    budget_per set, the cap applies per value bound to that variable.
    Construction, _replace included, rejects a variable that is used but
    never bound.
    """

    __slots__ = ()

    def __new__(
        cls, id, premises=(), fresh_vars=(), guards=(), events=(), conclusions=(),
        network_in=(), network_out=(), actor="", budget="", budget_per="",
    ):
        bound: set[str] = set(fresh_vars)
        for p in premises:
            for a in p.args:
                bound |= variables(a)
        for p in network_in:
            bound |= variables(p)
        used: set[str] = set()
        for l, r in guards:
            used |= variables(l) | variables(r)
        for _, args in events:
            for a in args:
                used |= variables(a)
        for f in conclusions:
            for a in f.args:
                used |= variables(a)
        for t in network_out:
            used |= variables(t)
        loose = used - bound
        if loose:
            raise RuleDefinitionError(f"rule {id}: unbound variables {sorted(loose)}")
        return _new(cls, (
            id, premises, fresh_vars, guards, events, conclusions, network_in,
            network_out, actor, budget, budget_per,
        ))


class SystemState(Record):
    """Multiset of facts plus the adversary view; immutable snapshot.

    linear is sorted, and its duplicates are meaningful.  used holds the
    (budget_key, firings) pairs of the budgeted rules fired so far.
    """

    __slots__ = ()

    def __new__(
        cls, linear=(), persistent=frozenset(), knowledge=Knowledge(), next_fresh=0,
        step=0, used=frozenset(),
    ):
        return _new(cls, (linear, persistent, knowledge, next_fresh, step, used))


def make_state(linear=(), persistent=(), knowledge=None, next_fresh=0, step=0):
    return SystemState(
        linear=tuple(sorted(linear, key=Fact.key)),
        persistent=frozenset(persistent),
        knowledge=knowledge if knowledge is not None else Knowledge(),
        next_fresh=next_fresh,
        step=step,
    )


class Instance(Record):
    """A complete, fireable instantiation of a rule in some state.

    binding holds sorted (ident, Term) pairs, fresh vars included; consumed
    the linear facts removed on firing; inputs the ground network-input
    terms, in pattern order; input_derivations the adversary's
    knowledge.Derivation of each input, whose cost counts its constructor
    steps; new_names the adversary's gen_fresh allocations.  The rule's
    fresh vars are bound to the names from the state's next_fresh on.
    """

    __slots__ = ()

    def __new__(cls, rule_id, binding, consumed, inputs, input_derivations, new_names):
        return _new(cls, (rule_id, binding, consumed, inputs, input_derivations, new_names))

    @property
    def subst(self) -> dict:
        return dict(self.binding)

    def key(self):
        return (
            tuple((i, sort_key(t)) for i, t in self.binding),
            tuple(sort_key(t) for t in self.inputs),
            tuple(f.fid for f in self.new_names),
        )


def enabled_instances(state: SystemState, rule: Rule, synthesis_budget: int) -> list:
    """Every complete instantiation of rule enabled in state.

    Premises match distinct available facts (linear multiplicity respected),
    network inputs are instantiated with adversary-derivable terms within
    the synthesis budget, and all guards must normalize to equal terms.
    Signer guards are solved between premise matching and synthesis, so
    synthesis never enumerates signing keys that a guard would reject.
    Deterministic order: sorted by instance key.
    """
    out = []
    fresh_names = [
        (ident, fresh(state.next_fresh + i)) for i, ident in enumerate(rule.fresh_vars)
    ]
    fid_base = state.next_fresh + len(fresh_names)
    solvable = not any(map(kn.reducible, rule.network_in))
    for subst, consumed in _match_premises(state, rule.premises):
        subst = dict(subst)
        subst.update(fresh_names)
        if solvable and not _solve_signers(state.knowledge, rule.guards, subst):
            continue
        for filled in _fill_inputs(
            state.knowledge, rule.network_in, subst, synthesis_budget, fid_base
        ):
            full, inputs, derivs, new_names = filled
            if not _guards_hold(rule.guards, full):
                continue
            out.append(
                Instance(
                    rule_id=rule.id,
                    binding=tuple(sorted(full.items())),
                    consumed=consumed,
                    inputs=inputs,
                    input_derivations=derivs,
                    new_names=new_names,
                )
            )
    out.sort(key=Instance.key)
    return out


def _match_premises(state: SystemState, premises, subst=None, used=frozenset()):
    # persistent facts are matched in set order, which follows the terms'
    # hashes: enabled_instances sorts its output by Instance.key, which two
    # distinct instances never share, so the order cannot reach a caller
    subst = {} if subst is None else subst
    if not premises:
        yield subst, ()
        return
    head, tail = premises[0], premises[1:]
    if head.persistent:
        pool = [(f, None) for f in state.persistent]
    else:
        pool = [(f, i) for i, f in enumerate(state.linear) if i not in used]
    for cand, idx in pool:
        if cand.name != head.name or cand.persistent != head.persistent:
            continue
        if len(cand.args) != len(head.args):
            continue
        binding = dict(subst)
        if not all(_match(pat, got, binding) for pat, got in zip(head.args, cand.args)):
            continue
        used2 = used if idx is None else used | {idx}
        for sub2, consumed in _match_premises(state, tail, binding, used2):
            yield sub2, ((cand,) + consumed if idx is not None else consumed)


def _solve_signers(k: Knowledge, guards, subst: dict) -> bool:
    """Bind the signing key of each signer guard before synthesis.

    A guard verify(sign(m, X), m', P) = true with X unbound and P ground
    can only hold when P normalizes to pk(K) and X to K.  X := K is bound
    when K is presettable; False (no instance) is returned when P is not a
    pk term.  Every guard is still checked on each complete instance.
    """
    for l, r in guards:
        if r is not TRUE or not isinstance(l, App) or l.sym != "verify":
            continue
        sig, pub = l.args[0], instantiate_partial(subst, l.args[2])
        if not (isinstance(sig, App) and sig.sym == "sign") or not is_ground(pub):
            continue
        signer = sig.args[1]
        if not isinstance(signer, Var) or signer.ident in subst:
            continue
        pub = normalize(pub)
        if not (isinstance(pub, App) and pub.sym == "pk"):
            return False
        if kn.presettable(k, pub.args[0]):
            subst[signer.ident] = pub.args[0]
    return True


def _fill_inputs(k: Knowledge, patterns, subst, budget, fid_base):
    if not patterns:
        yield subst, (), (), ()
        return
    head, tail = patterns[0], patterns[1:]
    for r in kn.synthesize(k, head, subst, budget, fid_base):
        sub2 = dict(subst)
        sub2.update(dict(r.subst))
        for full, inputs, derivs, names in _fill_inputs(
            k, tail, sub2, budget, fid_base + len(r.new_names)
        ):
            yield (
                full,
                (r.term,) + inputs,
                (r.derivation,) + derivs,
                r.new_names + names,
            )


def _guards_hold(guards, subst) -> bool:
    for l, r in guards:
        if substitute(subst, l) is not substitute(subst, r):
            return False
    return True


class Effect(Record):
    """What firing an instance does that no state changes; see effect."""

    __slots__ = ()

    def __new__(cls, fresh_names, linear, persistent, outputs, events, budget):
        return _new(cls, (fresh_names, linear, persistent, outputs, events, budget))


def effect(rule: Rule, instance: Instance) -> Effect:
    """The parts of firing instance that read only the rule and the binding.

    fresh_names are the names bound to the rule's fresh variables, in their
    order; linear and persistent the facts the conclusions produce; outputs
    the ground terms released to the network; events the Event records
    emitted, in the rule's order; budget the budget key a budgeted
    rule spends, else None.  So instances with equal rule and binding have
    equal effects, which a search may build once and reuse (fire).
    """
    subst = instance.subst
    linear, persistent = [], []
    for f in rule.conclusions:
        made = Fact(f.name, tuple(substitute(subst, a) for a in f.args), f.persistent)
        (persistent if f.persistent else linear).append(made)
    return Effect(
        fresh_names=tuple(subst.get(ident) for ident in rule.fresh_vars),
        linear=tuple(linear),
        persistent=tuple(persistent),
        outputs=tuple(substitute(subst, t) for t in rule.network_out),
        events=tuple(
            Event(label, tuple(substitute(subst, a) for a in args)) for label, args in rule.events
        ),
        budget=budget_key(rule, subst) if rule.budget else None,
    )


_effect = effect  # fire's parameter shadows the name


def fire(state: SystemState, rule: Rule, instance: Instance, effect: Effect | None = None):
    """Apply one enabled instance; returns (new state, effect.events).

    effect, when given, must be effect(rule, instance), built for this
    instance or for another with the same rule and binding; with None,
    fire builds it.  Either way the one code path below applies it, and
    checks it against the state: the rule id, the fresh names against
    next_fresh, the consumed facts' presence and the adversary's fresh-name
    budget and allocation.  Each produced linear fact is inserted into the
    parent's sorted linear facts, which Fact.key orders injectively.  A
    budgeted rule's firing is counted in used under its budget_key.  The
    input state is unmodified.  Raises StaleInstanceError when the instance
    or effect was made against a different state.
    """
    if instance.rule_id != rule.id:
        raise StaleInstanceError(f"instance of {instance.rule_id} fired as {rule.id}")
    if effect is None:
        effect = _effect(rule, instance)
    for i, (ident, got) in enumerate(zip(rule.fresh_vars, effect.fresh_names)):
        if got is not fresh(state.next_fresh + i):
            raise StaleInstanceError(
                f"rule {rule.id}: fresh names drifted: {ident} does not match state"
            )
    linear = list(state.linear)
    for c in instance.consumed:
        try:
            linear.remove(c)
        except ValueError:
            raise StaleInstanceError(
                f"rule {rule.id}: consumed fact {c.render()} not present"
            ) from None
    for f in effect.linear:
        insort(linear, f, key=Fact.key)
    added = [f for f in effect.persistent if f not in state.persistent]
    k = state.knowledge
    for f in instance.new_names:
        got = kn.gen_fresh(k, f.fid)
        if got is None:
            raise StaleInstanceError(f"rule {rule.id}: adversary fresh budget spent")
        k, minted = got
        if minted is not f:
            raise StaleInstanceError(f"rule {rule.id}: fresh allocation drifted")
    for t in effect.outputs:
        k = kn.observe(k, t)
    used = state.used
    if effect.budget is not None:
        spent = dict(used)
        spent[effect.budget] = spent.get(effect.budget, 0) + 1
        used = frozenset(spent.items())
    new_state = SystemState(
        linear=tuple(linear),
        # the parent's set itself when nothing is added
        persistent=state.persistent.union(added) if added else state.persistent,
        knowledge=k,
        next_fresh=state.next_fresh + len(rule.fresh_vars) + len(instance.new_names),
        step=state.step + 1,
        used=used,
    )
    return new_state, effect.events


def budget_key(rule: Rule, subst: dict) -> tuple:
    """The rule and, for a per-binding budget, the value its cap applies to."""
    return rule.id, subst.get(rule.budget_per) if rule.budget_per else None
