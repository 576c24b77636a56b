"""Multiset state of facts and labelled single-step rewriting semantics.

The network is folded into the adversary: conclusions marked as outputs feed
the knowledge base, network-input premises are instantiated by adversary
synthesis.  States are immutable snapshots so exploration can branch freely.
Facts, events, rules, states and instances are records (records.Record).
"""

from __future__ import annotations

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

    As tuples, Fact(n, a, False) and Event(n, a, 0) are equal, but no set,
    dict or comparison holds both.  Events are made only by emitted() and
    kept only in Step.events, where they meet only other events (replay
    compares their keys, recheck their positions).  Facts sit in rules,
    states, instances, monitor states and the explorer's keys and memos,
    none of which holds an event.
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
    """Action label emitted by a fired rule at a trace timepoint."""

    __slots__ = ()

    def __new__(cls, label, args, time=-1):
        return _new(cls, (label, args, time))

    def key(self):
        return (self.time, self.label, tuple(sort_key(a) for a in self.args))

    def render(self) -> str:
        return f"{self.label}({', '.join(render(a) for a in self.args)})@{self.time}"


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


def fire(state: SystemState, rule: Rule, instance: Instance):
    """Apply one enabled instance; returns (new state, emitted events).

    A budgeted rule's firing is counted in used under its budget_key.  The
    input state is unmodified.  Raises StaleInstanceError when the instance
    was enumerated against a different state.
    """
    if instance.rule_id != rule.id:
        raise StaleInstanceError(f"instance of {instance.rule_id} fired as {rule.id}")
    subst = instance.subst
    for i, ident in enumerate(rule.fresh_vars):
        if subst.get(ident) is not fresh(state.next_fresh + i):
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
    added = []
    for f in rule.conclusions:
        args = tuple(substitute(subst, a) for a in f.args)
        out_fact = Fact(f.name, args, f.persistent)
        if not f.persistent:
            linear.append(out_fact)
        elif out_fact not in state.persistent:
            added.append(out_fact)
    k = state.knowledge
    for f in instance.new_names:
        got = kn.gen_fresh(k, f.fid)
        if got is None:
            raise StaleInstanceError(f"rule {rule.id}: adversary fresh budget spent")
        k, minted = got
        if minted is not f:
            raise StaleInstanceError(f"rule {rule.id}: fresh allocation drifted")
    for t in rule.network_out:
        k = kn.observe(k, substitute(subst, t))
    used = state.used
    if rule.budget:
        spent = dict(used)
        key = budget_key(rule, subst)
        spent[key] = spent.get(key, 0) + 1
        used = frozenset(spent.items())
    new_state = SystemState(
        linear=tuple(sorted(linear, key=Fact.key)),
        # the parent's set itself when nothing is added
        persistent=state.persistent.union(added) if added else state.persistent,
        knowledge=k,
        next_fresh=state.next_fresh + len(rule.fresh_vars) + len(instance.new_names),
        step=state.step + 1,
        used=used,
    )
    return new_state, emitted(rule, subst, state.step)


def budget_key(rule: Rule, subst: dict) -> tuple:
    """The rule and, for a per-binding budget, the value its cap applies to."""
    return rule.id, subst.get(rule.budget_per) if rule.budget_per else None


def emitted(rule: Rule, subst: dict, time: int) -> tuple:
    """The events rule emits under subst at a timepoint."""
    return tuple(
        Event(label, tuple(substitute(subst, a) for a in args), time=time)
        for label, args in rule.events
    )
